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
    make_grid,
    norm,
    truncate,
)

GRID = make_grid(1, -1.0, 1.0, 8)

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
def test_monotone_convergence_of_truncations(space, vals):
    f = SampledField(GRID, vals)
    vmax = float(np.max(np.abs(vals)))
    if vmax == 0.0:
        return
    levels = np.linspace(vmax / 4.0, vmax, 4)
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
