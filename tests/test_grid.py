import math
import re

import numpy as np
import pytest

from normlab import (
    SampledField,
    TestFunctionSpec,
    gradient_fd,
    make_grid,
    parse_function,
    sample,
)
from normlab.grid import format_params, parse_params


def test_cell_centers_1d():
    g = make_grid(1, 0.0, 1.0, 4)
    assert np.allclose(g.axis_centers(0), [0.125, 0.375, 0.625, 0.875])


def test_grid_2d_counts():
    g = make_grid(2, (-1, -1), (1, 1), (8, 8))
    assert g.total_cells == 64
    assert g.cell_size == (0.25, 0.25)


def test_grid_rejects_bad_bounds():
    with pytest.raises(ValueError):
        make_grid(1, 1.0, 0.0, 4)
    with pytest.raises(ValueError):
        make_grid(1, 0.0, float("inf"), 4)
    with pytest.raises(ValueError):
        make_grid(1, 0.0, 1.0, 1)


def test_gaussian_sample_value():
    g = make_grid(1, 0.0, 1.0, 4)
    f = sample(TestFunctionSpec("gaussian", sigma=1.0, center=0.0), g)
    assert f.values[0] == pytest.approx(math.exp(-0.125 ** 2), abs=0)


def test_coordinate_sample_and_gradient():
    g = make_grid(1, -1.0, 1.0, 8)
    f = sample(TestFunctionSpec("coordinate", axis=0), g)
    assert np.array_equal(f.values, g.axis_centers(0))
    assert np.all(f.analytic_gradient[0] == 1.0)


def test_tent_value():
    spec = TestFunctionSpec("tent", width=2.0, center=0.0)
    assert spec.evaluate(np.array([[0.5]]))[0] == pytest.approx(0.5)


def test_sample_deterministic():
    g = make_grid(2, -1.0, 1.0, 8)
    spec = TestFunctionSpec("gaussian", sigma=0.7, center=0.2)
    a = sample(spec, g).values
    b = sample(spec, g).values
    assert np.array_equal(a, b)


def test_gradient_fd_exact_on_linear_and_quadratic():
    g = make_grid(1, -2.0, 2.0, 16)
    x = g.axis_centers(0)
    lin = SampledField(g, x.copy())
    assert np.allclose(gradient_fd(lin)[0], 1.0, atol=1e-13)
    quad = SampledField(g, x ** 2)
    interior = gradient_fd(quad)[0][1:-1]
    assert np.allclose(interior, 2 * x[1:-1], atol=1e-12)


def test_gradient_fd_matches_analytic_gaussian():
    g = make_grid(1, -4.0, 4.0, 256)
    f = sample(TestFunctionSpec("gaussian"), g)
    fd = gradient_fd(f)
    err = np.max(np.abs(fd - f.analytic_gradient)[0][2:-2])
    assert err <= 5.0 * max(g.cell_size) ** 2


def test_gradient_fd_convergence_order():
    errs = []
    for n in (64, 128):
        g = make_grid(1, -4.0, 4.0, n)
        f = sample(TestFunctionSpec("gaussian"), g)
        errs.append(np.max(np.abs(gradient_fd(f) - f.analytic_gradient)))
    assert errs[1] <= errs[0] / 3.0  # second order: factor ~4


def test_function_parse_roundtrip():
    spec = parse_function("gaussian:sigma=1.0,center=0.5")
    assert spec.tag == "gaussian"
    assert parse_function(spec.canonical()) == spec


def test_spec_codec_roundtrip():
    kind, values = parse_params("x: a=inf, b=1;-2 ,c=3")
    assert (kind, values) == ("x", {"a": math.inf, "b": (1.0, -2.0), "c": 3.0})
    assert format_params(kind, values) == "x:a=inf,b=1.0;-2.0,c=3.0"
    assert format_params("y", {"s": "explicit", "n": 2, "v": np.array([0.5])}) == "y:n=2,s=explicit,v=0.5"
    assert format_params("full", {}) == "full"


def test_vector_center_parse():
    spec = parse_function("gaussian:sigma=1.0,center=0.5;0.25")
    g = make_grid(2, 0.0, 1.0, 4)
    f = sample(spec, g)
    assert f.values.shape == (4, 4)


def test_bump_and_polygauss_gradients_match_fd():
    g = make_grid(1, -2.0, 2.0, 512)
    for spec in (TestFunctionSpec("bump", radius=1.5),
                 TestFunctionSpec("polygauss", degree=2, sigma=1.0)):
        f = sample(spec, g)
        fd = gradient_fd(f)
        err = np.max(np.abs(fd - f.analytic_gradient))
        assert err <= 100.0 * max(g.cell_size) ** 2, spec.tag


def test_function_constructor_numbers_match_parsed_text():
    spec = TestFunctionSpec("gaussian", sigma=1, center=0)
    assert spec == parse_function("gaussian:sigma=1")
    assert spec.canonical() == "gaussian:center=0.0,sigma=1.0"
    assert TestFunctionSpec("polygauss", degree=2.0).canonical() == "polygauss:center=0.0,degree=2,sigma=1.0"


def test_coordinate_axis_outside_grid():
    g = make_grid(2, -1.0, 1.0, 4)
    assert sample(TestFunctionSpec("coordinate", axis=1), g).values[0, 1] == g.axis_centers(1)[1]
    with pytest.raises(ValueError, match="coordinate axis 2 is not an axis of a 2D grid"):
        sample(TestFunctionSpec("coordinate", axis=2), g)


@pytest.mark.parametrize("text, message", [
    ("gaussian:sigma=0", "gaussian sigma must be > 0"),
    ("tent:width=-1", "tent width must be > 0"),
    ("bump:radius=0", "bump radius must be > 0"),
    ("polygauss:degree=-1", "polygauss degree must be a whole number >= 0"),
    ("coordinate:axis=-1", "coordinate axis must be a whole number >= 0"),
    ("sine:period=1", "unknown function kind 'sine'"),
    ("gaussian:sigma=inf", "gaussian sigma must be finite, got inf"),
    ("tent:center=nan", "tent center must be finite, got nan"),
])
def test_function_spec_rejects_bad_values(text, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_function(text)
