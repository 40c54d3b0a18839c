"""Brute-force oracle cross-checks on small grids (the dual-route contract).

The vectorized evaluators must agree with the naive double/triple-loop
reference implementations to 1e-12 under the pure-discrete (exclude) policy.
"""

import math

import numpy as np
import pytest

from normlab import (
    BsvyParams,
    HerzWeight,
    SampledField,
    TestFunctionSpec,
    explicit_weight,
    make_grid,
    power_weight,
    sample,
)
from normlab import oracles
from normlab.domains import mask, parse_domain
from normlab.functionals import (
    EXCLUDE_POLICY,
    bsvy_inner,
    fractional_inner_field,
    gagliardo_seminorm,
    weak_holder_check,
    weak_product_quasinorm,
)
from normlab.spaces import bbm_morrey_norm, herz_local_norm


def test_gagliardo_indicator_1d():
    g = make_grid(1, -2.0, 3.0, 64)
    ind = ((g.coords()[:, 0] > 0) & (g.coords()[:, 0] < 1)).astype(float)
    f = SampledField(g, ind.reshape(g.shape))
    mine = gagliardo_seminorm(f, 0.25, 1.0, policy=EXCLUDE_POLICY)
    ref = oracles.gagliardo(ind, g.coords(), g.cell_volume, 0.25, 1.0)
    assert mine == pytest.approx(ref, rel=1e-13)


def test_gagliardo_gaussian_2d():
    g = make_grid(2, -1.0, 1.0, 8)
    f = sample(TestFunctionSpec("gaussian", sigma=0.7, center=0.1), g)
    mine = gagliardo_seminorm(f, 0.6, 2.0, policy=EXCLUDE_POLICY)
    ref = oracles.gagliardo(f.values.ravel(), g.coords(), g.cell_volume, 0.6, 2.0)
    assert mine == pytest.approx(ref, rel=1e-13)


def test_bsvy_inner_gaussian_1d():
    g = make_grid(1, -2.0, 2.0, 64)
    f = sample(TestFunctionSpec("gaussian"), g)
    mine = bsvy_inner(f, 1.0, BsvyParams(2.0, 2.0), policy=EXCLUDE_POLICY).values
    ref = oracles.level_set_inner(f.values.ravel(), g.coords(), g.cell_volume, 1.0, 2.0, 2.0)
    assert np.max(np.abs(mine.ravel() - ref)) <= 1e-12 * max(np.max(ref), 1e-300)


def test_bsvy_inner_negative_gamma_2d():
    g = make_grid(2, -1.0, 1.0, 8)
    f = sample(TestFunctionSpec("gaussian", sigma=0.5, center=0.1), g)
    mine = bsvy_inner(f, 0.7, BsvyParams(-1.0, 2.0), policy=EXCLUDE_POLICY).values
    ref = oracles.level_set_inner(f.values.ravel(), g.coords(), g.cell_volume, 0.7, -1.0, 2.0)
    scale = max(np.max(np.abs(ref)), 1e-300)
    assert np.max(np.abs(mine.ravel() - ref)) / scale <= 1e-12


# masked domain on non-square cells (h = (0.1, 0.07)): the oracles see only
# the domain cells, the evaluators the full grid with the ball mask
MASKED_GRID = make_grid(2, (-0.8, -0.84), (0.8, 0.84), (16, 24))
MASKED_OMEGA = mask(parse_domain("ball:center=0.1;0.0,radius=0.75"), MASKED_GRID)
MASKED_F = sample(TestFunctionSpec("gaussian", sigma=0.5, center=(0.2, -0.1)), MASKED_GRID)
MASKED_V = MASKED_F.values.ravel()[MASKED_OMEGA.cells.ravel()]
MASKED_X = MASKED_GRID.coords()[MASKED_OMEGA.cells.ravel()]


def test_gagliardo_masked_nonsquare_cells():
    mine = gagliardo_seminorm(MASKED_F, 0.7, 1.5, MASKED_OMEGA, EXCLUDE_POLICY)
    ref = oracles.gagliardo(MASKED_V, MASKED_X, MASKED_GRID.cell_volume, 0.7, 1.5)
    assert mine == pytest.approx(ref, rel=1e-12)


def test_gagliardo_masked_nonsquare_cells_p2():
    # the offsets beyond 16 cells along the long axis come from the FFT
    mine = gagliardo_seminorm(MASKED_F, 0.7, 2.0, MASKED_OMEGA, EXCLUDE_POLICY)
    ref = oracles.gagliardo(MASKED_V, MASKED_X, MASKED_GRID.cell_volume, 0.7, 2.0)
    assert mine == pytest.approx(ref, rel=1e-12)


def test_gagliardo_fft_offsets_1d():
    # N = 512: all but 16 of the 511 offsets are summed by FFT correlation
    g = make_grid(1, -3.0, 3.0, 512)
    f = sample(TestFunctionSpec("gaussian", sigma=0.8, center=0.3), g)
    for s in (0.3, 0.9):
        mine = gagliardo_seminorm(f, s, 2.0, policy=EXCLUDE_POLICY)
        ref = oracles.gagliardo(f.values.ravel(), g.coords(), g.cell_volume, s, 2.0)
        assert mine == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("p", [1.5, 2.0])
def test_fractional_inner_masked_nonsquare_cells(p):
    mine = fractional_inner_field(MASKED_F, 0.7, p, MASKED_OMEGA, EXCLUDE_POLICY)
    ref = oracles.fractional_inner(MASKED_V, MASKED_X, MASKED_GRID.cell_volume, 0.7, p)
    inside = MASKED_OMEGA.cells
    assert np.all(mine[~inside] == 0.0)
    assert np.max(np.abs(mine[inside] - ref)) <= 1e-12 * np.max(ref)


@pytest.mark.parametrize("gamma", [1.0, -1.0])
def test_bsvy_inner_masked_nonsquare_cells(gamma):
    mine = bsvy_inner(MASKED_F, 0.8, BsvyParams(gamma, 2.0), MASKED_OMEGA, EXCLUDE_POLICY).values
    ref = oracles.level_set_inner(MASKED_V, MASKED_X, MASKED_GRID.cell_volume, 0.8, gamma, 2.0)
    inside = MASKED_OMEGA.cells
    assert np.all(mine[~inside] == 0.0)
    assert np.max(np.abs(mine[inside] - ref)) <= 1e-12 * np.max(ref)


def test_weak_product_masked_nonsquare_cells():
    params = BsvyParams(1.0, 2.0)
    lams = np.geomspace(0.05, 5.0, 7)
    mine = weak_product_quasinorm(MASKED_F, params, MASKED_OMEGA, lam_grid=lams)
    vol = MASKED_GRID.cell_volume
    ref = max(lam * oracles.pair_measure(MASKED_V, MASKED_X, vol, lam, 1.0, 2.0) ** 0.5
              for lam in lams)
    assert mine == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("gamma", [1.0, -1.0])
def test_level_set_sup_is_the_breakpoint_max(gamma):
    # just below a pair threshold the level set still holds that pair, so
    # lam * mu(lam)^(1/p) there approaches each breakpoint value from below
    g = make_grid(1, -1.0, 1.0, 10)
    f = sample(TestFunctionSpec("gaussian", sigma=0.4, center=0.1), g)
    v, x, vol = f.values.ravel(), g.coords(), g.cell_volume
    d = np.abs(x[:, 0, None] - x[None, :, 0])
    off = ~np.eye(v.size, dtype=bool)
    thresholds = np.unique(np.abs(v[:, None] - v[None])[off] / d[off] ** (1.0 + gamma / 2.0))
    below = [lam * oracles.pair_measure(v, x, vol, lam, gamma, 2.0) ** 0.5
             for lam in thresholds[thresholds > 0] * (1.0 - 1e-9)]
    assert oracles.level_set_sup(v, x, vol, gamma, 2.0) == pytest.approx(max(below), rel=1e-8)


def test_bbmorrey_indicator_spec_case():
    # unit indicator, q=2 p=3 r=4 tau=inf, levels -3..3
    g = make_grid(1, 0.0, 1.0, 32)
    ind = (g.coords()[:, 0] > 0).astype(float)
    f = SampledField(g, ind.reshape(g.shape))
    mine = bbm_morrey_norm(f, 2.0, 3.0, 4.0, math.inf, nu_range=(-3, 3))
    ref = oracles.bbm_morrey(ind, g.coords(), g.cell_volume, 2.0, 3.0, 4.0, math.inf, (-3, 3))
    assert mine == pytest.approx(ref, rel=1e-13)


def test_bbmorrey_finite_tau_gaussian():
    g = make_grid(1, 0.0, 1.0, 16)
    f = sample(TestFunctionSpec("gaussian", sigma=0.4, center=0.5), g)
    mine = bbm_morrey_norm(f, 1.5, 2.0, 3.0, 2.5, nu_range=(-4, 2))
    ref = oracles.bbm_morrey(f.values.ravel(), g.coords(), g.cell_volume,
                             1.5, 2.0, 3.0, 2.5, (-4, 2))
    assert mine == pytest.approx(ref, rel=1e-13)


def test_bbmorrey_2d_nonsquare_cells():
    g = make_grid(2, (-0.6, -0.49), (0.6, 0.49), (12, 14))  # h = (0.1, 0.07)
    f = sample(TestFunctionSpec("gaussian", sigma=0.4, center=(0.1, -0.05)), g)
    mine = bbm_morrey_norm(f, 1.5, 2.0, 3.0, 2.5, nu_range=(-5, 1))
    ref = oracles.bbm_morrey(f.values.ravel(), g.coords(), g.cell_volume,
                             1.5, 2.0, 3.0, 2.5, (-5, 1))
    assert mine == pytest.approx(ref, rel=1e-12)


def test_herz_indicator_spec_case():
    # f = 1_B(0,1), p = q = 2, weight exponent 1
    g = make_grid(1, -2.0, 2.0, 64)
    ind = (np.abs(g.coords()[:, 0]) < 1.0).astype(float)
    f = SampledField(g, ind.reshape(g.shape))
    mine = herz_local_norm(f, 2.0, 2.0, HerzWeight(1.0), 0.0)
    ref = oracles.herz_local(ind, g.coords(), g.cell_volume, 2.0, 2.0, 1.0, 0.0)
    assert mine == pytest.approx(ref, rel=1e-10)


def test_herz_2d_offcenter():
    g = make_grid(2, -1.0, 1.0, 8)
    f = sample(TestFunctionSpec("gaussian", sigma=0.6), g)
    mine = herz_local_norm(f, 2.5, 1.5, HerzWeight(-0.4), (0.1, -0.2))
    ref = oracles.herz_local(f.values.ravel(), g.coords(), g.cell_volume,
                             2.5, 1.5, -0.4, (0.1, -0.2))
    assert mine == pytest.approx(ref, rel=1e-12)


# --------------------------------------------------------------------------
# inline naive loops for the remaining norm evaluators
# --------------------------------------------------------------------------


def test_weighted_norm_naive_loop():
    from normlab import weighted_lebesgue_norm

    g = make_grid(1, -1.0, 1.0, 32)
    f = sample(TestFunctionSpec("gaussian", sigma=0.5, center=0.2), g)
    w = np.abs(g.coords()[:, 0] - 0.1) ** 0.5
    acc = 0.0
    for i in range(g.total_cells):
        acc += abs(f.values.ravel()[i]) ** 2.5 * w[i] * g.cell_volume
    ref = acc ** (1.0 / 2.5)
    assert weighted_lebesgue_norm(f, 2.5, w.reshape(g.shape)) == pytest.approx(ref, rel=1e-13)


def test_mixed_norm_naive_loop():
    from normlab import mixed_norm

    g = make_grid(2, -1.0, 1.0, 6)
    f = sample(TestFunctionSpec("gaussian", sigma=0.7, center=0.1), g)
    h0, h1 = g.cell_size
    r1, r2 = 2.0, 3.0
    outer = 0.0
    for j in range(6):
        inner = 0.0
        for i in range(6):
            inner += abs(f.values[i, j]) ** r1 * h0
        outer += inner ** (r2 / r1) * h1
    ref = outer ** (1.0 / r2)
    assert mixed_norm(f, (r1, r2)) == pytest.approx(ref, rel=1e-13)


def test_morrey_norm_naive_loop():
    from normlab import morrey_norm
    from normlab.spaces import BallFamily

    g = make_grid(1, 0.0, 1.0, 16)
    f = sample(TestFunctionSpec("gaussian", sigma=0.3, center=0.4), g)
    centers = g.coords()[::4]
    radii = np.array([0.1, 0.3, 0.7])
    fam = BallFamily(centers, radii)
    r, alpha = 2.0, 4.0
    best = 0.0
    for c in centers:
        for rad in radii:
            acc = 0.0
            for i, x in enumerate(g.coords()):
                if abs(x[0] - c[0]) <= rad:
                    acc += abs(f.values.ravel()[i]) ** r * g.cell_volume
            best = max(best, (2.0 * rad) ** (1.0 / alpha - 1.0 / r) * acc ** (1.0 / r))
    assert morrey_norm(f, r, alpha, ball_family=fam) == pytest.approx(best, rel=1e-13)


def test_lorentz_norm_naive_riemann_oracle():
    from normlab import lorentz_norm

    g = make_grid(1, 0.0, 1.0, 16)
    vals = np.repeat([2.0, 3.0, 1.0, 0.5], 4)
    f = sample(TestFunctionSpec("gaussian"), g)  # grid holder only
    from normlab import SampledField

    f = SampledField(g, vals.reshape(g.shape))
    r, tau = 2.0, 3.0
    # naive: fine Riemann sum of t^(tau/r - 1) f*(t)^tau over (0, 1]
    sorted_desc = np.sort(vals)[::-1]
    tgrid = np.linspace(1e-9, 1.0, 400001)
    fstar = sorted_desc[np.minimum((tgrid / g.cell_volume).astype(int), len(vals) - 1)]
    integ = np.trapezoid(tgrid ** (tau / r - 1.0) * fstar ** tau, tgrid)
    ref = integ ** (1.0 / tau)
    assert lorentz_norm(f, r, tau) == pytest.approx(ref, rel=1e-3)


# --------------------------------------------------------------------------
# ball and cube families against the loop oracles
# --------------------------------------------------------------------------


def _cell_positions(g):
    return np.stack(np.unravel_index(np.arange(g.total_cells), g.shape), axis=1)


# 1D, and 2D with non-square cells h = (0.1, 0.07)
FAMILY_GRIDS = [make_grid(1, -1.0, 1.0, 24), make_grid(2, (-0.6, -0.49), (0.6, 0.49), (12, 14))]


@pytest.mark.parametrize("g", FAMILY_GRIDS, ids=["1d", "2d-nonsquare"])
def test_morrey_default_family_matches_oracle(g):
    from normlab.spaces import default_ball_family, morrey_norm

    f = sample(TestFunctionSpec("gaussian", sigma=0.4, center=0.1), g)
    radii = default_ball_family(g).radii
    mine, witness = morrey_norm(f, 2.0, 3.5, return_witness=True)
    ref, (cell, rad) = oracles.morrey(f.values.ravel(), _cell_positions(g), g.cell_size,
                                      g.cell_volume, 2.0, 3.5, range(g.total_cells), radii)
    assert mine == pytest.approx(ref, rel=1e-12)
    assert witness == (tuple(g.coords()[cell]), rad)


def test_morrey_explicit_family_matches_oracle():
    from normlab.spaces import BallFamily, morrey_norm

    g = FAMILY_GRIDS[1]
    f = sample(TestFunctionSpec("tent", width=0.9, center=(0.1, -0.05)), g)
    rows = list(range(0, g.total_cells, 5))
    radii = np.array([0.07, 0.15, 0.33, 0.7])
    mine, witness = morrey_norm(f, 1.5, 4.0, ball_family=BallFamily(g.coords()[rows], radii),
                                return_witness=True)
    ref, (cell, rad) = oracles.morrey(f.values.ravel(), _cell_positions(g), g.cell_size,
                                      g.cell_volume, 1.5, 4.0, rows, radii)
    assert mine == pytest.approx(ref, rel=1e-12)
    assert witness == (tuple(g.coords()[cell]), rad)


def test_morrey_family_off_cell_centres_rejected():
    from normlab.spaces import BallFamily, morrey_norm

    g = FAMILY_GRIDS[1]
    f = SampledField(g, np.ones(g.shape))
    with pytest.raises(ValueError, match="cell centres"):
        morrey_norm(f, 2.0, 3.0, ball_family=BallFamily(g.coords() + 0.01, np.array([0.2])))


def test_ball_membership_ties_on_twelfths():
    from normlab.spaces import ball_sums

    # h = 1/12: the cell 8h along an axis lies in the ball of radius 8h around
    # every centre, so the ball counts are the integer lattice counts
    g = make_grid(2, -2.0, 2.0, 48)
    counts = ball_sums(np.ones(g.shape), g, [8 * g.cell_size[0]])[0]
    idx = np.arange(48)
    exact = np.zeros(g.shape)
    for a in range(-8, 9):
        for b in range(-8, 9):
            if a * a + b * b <= 64:
                exact += np.outer((idx + a >= 0) & (idx + a < 48), (idx + b >= 0) & (idx + b < 48))
    assert np.array_equal(counts, exact)


def _ap_weights():
    rng = np.random.default_rng(11)
    g1, g2 = FAMILY_GRIDS
    zero1 = rng.uniform(0.2, 2.0, g1.shape)
    zero1[7] = 0.0
    zero2 = rng.uniform(0.2, 2.0, g2.shape)
    zero2[3, 5] = 0.0
    return {
        "1d-power": power_weight(g1, -0.5, center=0.13),
        "1d-power-positive": power_weight(g1, 0.4, center=0.13),
        "2d-power": power_weight(g2, -0.4, center=(0.13, -0.07)),
        "1d-explicit": explicit_weight(g1, rng.uniform(0.2, 2.0, g1.shape)),
        "2d-explicit": explicit_weight(g2, rng.uniform(0.2, 2.0, g2.shape)),
        "1d-zero-cell": explicit_weight(g1, zero1),
        "2d-zero-cell": explicit_weight(g2, zero2),
    }


AP_WEIGHTS = _ap_weights()


@pytest.mark.parametrize("p", [1.0, 2.5])
@pytest.mark.parametrize("name", sorted(AP_WEIGHTS))
def test_muckenhoupt_default_family_matches_oracle(name, p):
    from normlab.weights import default_cube_family, muckenhoupt_constant

    w = AP_WEIGHTS[name]
    g = w.grid
    fam = default_cube_family(g, anchor=None if w.power is None else w.power[1])
    mine = muckenhoupt_constant(w, p, return_witness=True)
    ref, (lo, hi) = oracles.muckenhoupt(w.samples.ravel(), g.coords(), g.cell_volume, g.lo, g.hi,
                                        p, fam.lo, fam.hi, w.power)
    if math.isinf(ref):
        assert mine.value == ref
    else:
        assert mine.value == pytest.approx(ref, rel=1e-12)
    assert (mine.cube_lo, mine.cube_hi) == (lo, hi)


def test_orlicz_slice_matches_oracle():
    from normlab.spaces import OrliczFunction, orlicz_slice_norm

    g = make_grid(2, (-0.5, -0.42), (0.5, 0.42), (10, 12))  # h = (0.1, 0.07)
    f = sample(TestFunctionSpec("gaussian", sigma=0.3, center=(0.05, 0.1)), g)
    phi = OrliczFunction("two-power", 2.0, 3.0)
    mine = orlicz_slice_norm(f, phi, 3.0, 0.25)
    ref = oracles.orlicz_slice(f.values.ravel(), _cell_positions(g), g.cell_size, g.cell_volume,
                               phi, 3.0, 0.25)
    assert mine == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("scale", [1e-3, 1.0, 40.0])
def test_luxemburg_matches_oracle(scale):
    from normlab.spaces import OrliczFunction, luxemburg_norm

    g = make_grid(1, -2.0, 2.0, 40)
    f = sample(TestFunctionSpec("bump", radius=1.3, center=0.2), g)
    phi = OrliczFunction("two-power", 1.5, 3.0)
    mine = luxemburg_norm(SampledField(g, scale * f.values), phi)
    ref = oracles.luxemburg(scale * f.values.ravel(), g.cell_volume, phi)
    assert mine == pytest.approx(ref, rel=1e-12)


# --------------------------------------------------------------------------
# Lorentz and variable-exponent Lebesgue against the loop oracles
# --------------------------------------------------------------------------

LINE = make_grid(1, -2.0, 2.0, 40)
LINE_F = sample(TestFunctionSpec("bump", radius=1.3, center=0.2), LINE)


@pytest.mark.parametrize("r, tau", [(3.0, 1.5), (1.5, 3.0)], ids=["tau<r", "tau>r"])
def test_lorentz_matches_layer_cake_oracle(r, tau):
    from normlab.spaces import lorentz_norm

    ref = oracles.lorentz(LINE_F.values.ravel(), LINE.cell_volume, r, tau)
    assert lorentz_norm(LINE_F, r, tau) == pytest.approx(ref, rel=1e-12)
    ref = oracles.lorentz(MASKED_V, MASKED_GRID.cell_volume, r, tau)
    assert lorentz_norm(MASKED_F, r, tau, MASKED_OMEGA) == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("r, tau", [(3.0, 1.5), (1.5, 3.0)], ids=["tau<r", "tau>r"])
def test_lorentz_tied_values_match_layer_cake_oracle(r, tau):
    from normlab.spaces import lorentz_norm

    # five levels, each held by many cells of the masked 2D grid
    tied = SampledField(MASKED_GRID, np.round(4.0 * MASKED_F.values) / 4.0)
    values = tied.values.ravel()[MASKED_OMEGA.cells.ravel()]
    assert len(np.unique(values)) <= 5 < values.size
    ref = oracles.lorentz(values, MASKED_GRID.cell_volume, r, tau)
    assert lorentz_norm(tied, r, tau, MASKED_OMEGA) == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("scale", [1e-3, 1.0, 40.0])
def test_variable_lebesgue_matches_oracle(scale):
    from normlab.spaces import VariableLebesgue, variable_lebesgue_norm

    ramp = VariableLebesgue(base=2.0, slope=0.4).exponent_on(LINE)  # r from 1.2 to 2.8
    line = SampledField(LINE, scale * LINE_F.values)
    ref = oracles.variable_lebesgue(line.values.ravel(), LINE.cell_volume, ramp.ravel())
    assert variable_lebesgue_norm(line, ramp) == pytest.approx(ref, rel=1e-12)
    x, y = MASKED_GRID.meshgrid()
    ramp = 1.8 + 0.5 * x - 0.3 * y
    masked = SampledField(MASKED_GRID, scale * MASKED_F.values)
    ref = oracles.variable_lebesgue(scale * MASKED_V, MASKED_GRID.cell_volume,
                                    ramp.ravel()[MASKED_OMEGA.cells.ravel()])
    assert variable_lebesgue_norm(masked, ramp, MASKED_OMEGA) == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("case", ["ties", "mask", "power-weight", "zero-g"])
def test_weak_holder_matches_level_loop_oracle(case):
    g = make_grid(1, 0.0, 1.0, 16)
    n = g.total_cells
    rng = np.random.default_rng(17)
    # fields rounded to one decimal: many pairs share a level
    F = np.round(rng.lognormal(sigma=1.0, size=(n, n)), 1)
    G = np.zeros((n, n)) if case == "zero-g" else np.round(rng.lognormal(sigma=1.0, size=(n, n)), 1)
    w = power_weight(g, -0.3, center=0.37).samples if case == "power-weight" else np.ones(g.shape)
    omega = mask(parse_domain("ball:center=0.5,radius=0.3"), g) if case == "mask" else None
    res = weak_holder_check(F, G, 1.0, w, 2.5, omega, g)
    lhs, rhs = oracles.weak_holder(F, G, g.coords(), g.cell_volume, 1.0, w.ravel(), 2.5,
                                   None if omega is None else omega.cells.ravel())
    assert res.lhs == pytest.approx(lhs, rel=1e-12, abs=0.0)
    assert res.rhs == pytest.approx(rhs, rel=1e-12, abs=0.0)
    assert (rhs == 0.0) == (case == "zero-g")
