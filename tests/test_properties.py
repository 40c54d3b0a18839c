"""Property tests for the norm axioms shared by every catalog space."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from normlab import (
    BesovBourgainMorrey,
    HerzGlobal,
    HerzLocal,
    HerzWeight,
    Lebesgue,
    Lorentz,
    MixedNorm,
    Morrey,
    Orlicz,
    OrliczFunction,
    OrliczSlice,
    SampledField,
    VariableLebesgue,
    WeightedLebesgue,
    gradient_magnitude,
    herz_global_norm,
    herz_local_norm,
    lorentz_norm,
    luxemburg_norm,
    make_grid,
    mixed_norm,
    morrey_norm,
    norm,
    orlicz_slice_norm,
    truncate,
    variable_lebesgue_norm,
    weighted_lebesgue_norm,
)
from normlab.spaces import bbm_morrey_norm

GRID = make_grid(1, -1.0, 1.0, 8)
GRID_2D = make_grid(2, -1.0, 1.0, 8)

CATALOG = [
    Lebesgue(2.0),
    WeightedLebesgue(2.0, a=0.5, center=0.3),
    Lorentz(2.0, 3.0),
    Orlicz(OrliczFunction("two-power", 1.5, 3.0)),
    OrliczSlice(OrliczFunction("power", 2.0), 2.0, 0.4),
    Morrey(1.5, 3.0),
    BesovBourgainMorrey(1.5, 2.0, 3.0, 2.5),
    HerzLocal(2.0, 2.5, -0.2, xi=0.0),
    HerzGlobal(2.0, 2.5, -0.2),
    MixedNorm((2.0,)),
    VariableLebesgue(base=2.0, slope=0.5, axis=0),
]

values_strategy = arrays(
    np.float64,
    GRID.shape,
    elements=st.floats(min_value=-10.0, max_value=10.0, allow_nan=False,
                       allow_infinity=False, width=64),
)


@pytest.mark.parametrize("space", CATALOG, ids=lambda s: s.canonical())
@settings(max_examples=20, deadline=None)
@given(vals=values_strategy)
def test_lattice_property(space, vals):
    f = SampledField(GRID, vals)
    smaller = SampledField(GRID, vals * 0.5)
    assert norm(smaller, space) <= norm(f, space) + 1e-12


@pytest.mark.parametrize("space", CATALOG, ids=lambda s: s.canonical())
@settings(max_examples=20, deadline=None)
@given(vals=values_strategy,
       c=st.floats(min_value=1e-3, max_value=1e3, allow_nan=False))
@example(vals=np.linspace(-3.0, 7.0, 8), c=1e200)
@example(vals=np.linspace(-3.0, 7.0, 8), c=1e-200)
def test_homogeneity(space, vals, c):
    f = SampledField(GRID, vals)
    scaled = SampledField(GRID, c * vals)
    a = norm(scaled, space)
    b = c * norm(f, space)
    assert a == pytest.approx(b, rel=1e-12, abs=1e-300)


def _x0(grid):
    return grid.meshgrid()[0]


# the per-kind entry points and gradient_magnitude; with r = 2, |f|^r leaves
# the float range at c = 1e+-200 unless the entry point scales f first
ENTRY_POINTS = {
    "weighted_lebesgue_norm": lambda f: weighted_lebesgue_norm(
        f, 2.0, np.abs(_x0(f.grid) - 0.3) ** 0.5),
    "lorentz_norm": lambda f: lorentz_norm(f, 2.0, 3.0),
    "luxemburg_norm": lambda f: luxemburg_norm(f, OrliczFunction("two-power", 1.5, 3.0)),
    "orlicz_slice_norm": lambda f: orlicz_slice_norm(f, OrliczFunction("power", 2.0), 2.0, 0.4),
    "morrey_norm": lambda f: morrey_norm(f, 2.0, 3.0),
    "bbm_morrey_norm": lambda f: bbm_morrey_norm(f, 1.5, 2.0, 3.0, 2.5),
    "herz_local_norm": lambda f: herz_local_norm(f, 2.0, 2.5, HerzWeight(-0.2), 0.0),
    "herz_global_norm": lambda f: herz_global_norm(f, 2.0, 2.5, HerzWeight(-0.2))[0],
    "mixed_norm": lambda f: mixed_norm(f, (2.0, 3.0)[:f.grid.dim]),
    "variable_lebesgue_norm": lambda f: variable_lebesgue_norm(f, 2.0 + 0.5 * _x0(f.grid)),
    "gradient_magnitude": gradient_magnitude,
}


@pytest.mark.parametrize("grid", [GRID, GRID_2D], ids=["1d", "2d"])
@pytest.mark.parametrize("name", list(ENTRY_POINTS))
@settings(max_examples=5, deadline=None)
@given(c=st.floats(min_value=1e-3, max_value=1e3, allow_nan=False))
@example(c=1e200)
@example(c=1e-200)
def test_entry_point_homogeneity(name, grid, c):
    # a field with a sign change whose gradient stays away from 0
    x = grid.meshgrid()
    vals = np.exp(0.7 * x[0] + 0.4 * x[-1]) - 0.5
    a = ENTRY_POINTS[name](SampledField(grid, c * vals))
    b = c * np.asarray(ENTRY_POINTS[name](SampledField(grid, vals)))
    assert a == pytest.approx(b, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("space", CATALOG, ids=lambda s: s.canonical())
@settings(max_examples=20, deadline=None)
@given(u=values_strategy, v=values_strategy)
@example(u=np.array([0.0, 3.0, 0.0, 0.0, 2.0, 2.0, 2.0, 2.0]),
         v=np.array([0.0, 3.0, 0.0, 0.0, 4.0, 4.0, 4.0, 4.0]))
def test_triangle_inequality(space, u, v):
    fu = SampledField(GRID, u)
    fv = SampledField(GRID, v)
    fs = SampledField(GRID, u + v)
    # with tau > r the f* functional of L^{r,tau} is only a quasi-norm:
    # (u+v)*(t) <= u*(t/2) + v*(t/2) gives the constant 2^(1/r)
    const = 2.0 ** (1.0 / space.r) if isinstance(space, Lorentz) and space.tau > space.r else 1.0
    assert norm(fs, space) <= const * (norm(fu, space) + norm(fv, space)) + 1e-10


@pytest.mark.parametrize("space", CATALOG, ids=lambda s: s.canonical())
@settings(max_examples=15, deadline=None)
@given(vals=values_strategy)
@example(vals=np.full(8, 5e-324))
def test_monotone_convergence_of_truncations(space, vals):
    f = SampledField(GRID, vals)
    vmax = float(np.max(np.abs(vals)))
    if vmax == 0.0:
        return
    # on subnormal fields the lower levels can round to 0, which truncate rejects
    levels = [m for m in np.linspace(vmax / 4.0, vmax, 4) if m > 0.0]
    norms = [norm(truncate(f, m), space) for m in levels]
    for a, b in zip(norms, norms[1:]):
        assert a <= b + 1e-12
    assert norms[-1] == norm(f, space)  # exact once the level clears max|f|


@pytest.mark.parametrize("space", CATALOG, ids=lambda s: s.canonical())
@settings(max_examples=10, deadline=None)
@given(vals=values_strategy)
def test_lattice_random_pairs(space, vals):
    rng = np.random.default_rng(int(abs(np.sum(vals)) * 1e3) % 2 ** 31)
    shrink = rng.uniform(0.0, 1.0, GRID.shape)
    f = SampledField(GRID, vals)
    g = SampledField(GRID, vals * shrink)
    assert norm(g, space) <= norm(f, space) + 1e-12
