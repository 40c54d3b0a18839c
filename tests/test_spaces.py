import itertools
import math

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import beta

from normlab import (
    BesovBourgainMorrey,
    DomainMask,
    HerzLocal,
    HerzWeight,
    Lebesgue,
    Lorentz,
    Morrey,
    Orlicz,
    OrliczFunction,
    SampledField,
    SpaceSpec,
    TestFunctionSpec,
    VariableLebesgue,
    WeightedLebesgue,
    convexify,
    herz_global_norm,
    herz_local_norm,
    lorentz_norm,
    luxemburg_norm,
    make_grid,
    mixed_norm,
    morrey_norm,
    norm,
    norm_many,
    orlicz_slice_norm,
    parse_space,
    sample,
    variable_lebesgue_norm,
    weighted_lebesgue_norm,
    zero_extend,
)
from normlab import oracles
from normlab.domains import mask, parse_domain
from normlab.spaces import _dyadic_boxes, bbm_morrey_norm, default_xi_grid


def indicator_field(grid, pred):
    vals = pred(grid.coords()).astype(float).reshape(grid.shape)
    return SampledField(grid, vals)


# --------------------------------------------------------------------------
# dispatcher basics
# --------------------------------------------------------------------------


def test_norm_constant_on_unit_box():
    g = make_grid(1, 0.0, 1.0, 16)
    f = SampledField(g, np.ones(g.shape))
    assert norm(f, Lebesgue(2.0)) == pytest.approx(1.0, abs=1e-14)


# one member of every catalog kind, on 1D grids
CATALOG_1D = ("lebesgue:p=2", "weighted:a=-0.3,r=3", "lorentz:r=3,tau=2.5", "orlicz:p1=2.5,p2=3",
              "orliczslice:p=2,r=2.5,t=0.3", "morrey:alpha=4,r=2", "bbmorrey:p=3,q=2,r=4,tau=5",
              "herzlocal:a=-0.2,p=2.5,q=2.5", "herzglobal:a=-0.2,p=2.5,q=2.5", "mixed:r=2.5",
              "varleb:base=2.5,slope=0.3")


def test_catalog_1d_holds_every_kind():
    assert sorted(parse_space(text).tag for text in CATALOG_1D) == sorted(SpaceSpec.kinds)


@pytest.mark.parametrize("dim, text", [(1, t) for t in CATALOG_1D]
                         + [(2, "mixed:r=2.5;3"), (2, "bbmorrey:p=3,q=2,r=4,tau=5")])
@pytest.mark.parametrize("domain", [None, "ball:radius=1.3"])
def test_norm_many_rows_equal_norm(dim, text, domain):
    g = make_grid(dim, -2.0, 2.0, 24 if dim == 1 else 12)
    space = parse_space(text)
    omega = None if domain is None else mask(parse_domain(domain), g)
    f = sample(TestFunctionSpec("gaussian", sigma=0.7, center=0.2), g).values
    t = sample(TestFunctionSpec("tent", width=1.5), g).values
    rng = np.random.default_rng(3)
    noise = rng.random((40,) + g.shape) ** rng.uniform(0.2, 12.0, size=(40,) + (1,) * dim)
    rows = np.concatenate([np.stack([f, np.zeros(g.shape), 1e200 * f, 1e-200 * t, t]), noise])
    many = norm_many(rows, g, space, omega)
    assert many.tolist() == [norm(SampledField(g, row), space, omega) for row in rows]
    assert many[1] == 0.0


def test_norm_many_shape_mismatch_error_and_empty_batch():
    g = make_grid(1, 0.0, 1.0, 16)
    with pytest.raises(ValueError):
        norm_many(np.ones((3, 15)), g, Lebesgue(2.0))
    for text in CATALOG_1D:
        assert norm_many(np.zeros((0, 16)), g, parse_space(text)).shape == (0,)


LUXEMBURG_SPACES = [Orlicz(OrliczFunction("two-power", 1.5, 4.0)),
                    VariableLebesgue(base=2.5, slope=1.2, axis=0),
                    Orlicz(OrliczFunction("two-power", 1.01, 40.0))]


@pytest.mark.parametrize("space", LUXEMBURG_SPACES)
def test_luxemburg_row_alone_equals_row_in_batch(space):
    # rows of differing shapes need differing numbers of Newton steps; a row
    # that is done must not move while the others go on
    g = make_grid(1, -1.0, 1.0, 40)
    rng = np.random.default_rng(5)
    rows = rng.random((300,) + g.shape) ** rng.uniform(0.2, 12.0, size=(300, 1))
    alone = [norm(SampledField(g, row), space) for row in rows]
    assert norm_many(rows, g, space).tolist() == alone


def test_norm_grid_mismatch_error():
    g = make_grid(1, 0.0, 1.0, 16)
    g2 = make_grid(1, 0.0, 1.0, 8)
    f = SampledField(g, np.ones(g.shape))
    omega = DomainMask(g2, np.ones(g2.shape, dtype=bool))
    with pytest.raises(ValueError):
        norm(f, Lebesgue(2.0), omega)


CATALOG_TEXT = {
    "lebesgue:p=2": "lebesgue:p=2.0",
    "weighted:r=2,a=-0.5": "weighted:a=-0.5,center=0.0,r=2.0",
    "weighted:r=2.0,a=-0.5,center=0.1;-0.2": "weighted:a=-0.5,center=0.1;-0.2,r=2.0",
    "lorentz:r=2.0,tau=3.0": "lorentz:r=2.0,tau=3.0",
    "orlicz:p=2.5": "orlicz:p=2.5",
    "orlicz:p1=1.5,p2=3.0": "orlicz:p1=1.5,p2=3.0",
    "orliczslice:p=2,r=2,t=0.3": "orliczslice:p=2.0,r=2.0,t=0.3",
    "orliczslice:t=0.3,p2=3,r=2.5,p1=2": "orliczslice:p1=2.0,p2=3.0,r=2.5,t=0.3",
    "morrey:r=2.0,alpha=4.0": "morrey:alpha=4.0,r=2.0",
    "bbmorrey:q=2.0,p=3.0,r=4.0,tau=inf": "bbmorrey:p=3.0,q=2.0,r=4.0,tau=inf",
    "herzlocal:p=2.0,q=2.5,a=-0.2": "herzlocal:a=-0.2,p=2.0,q=2.5,xi=0.0",
    "herzlocal:p=2.0,q=2.5,a=-0.2,xi=0.1;-0.2": "herzlocal:a=-0.2,p=2.0,q=2.5,xi=0.1;-0.2",
    "herzglobal:p=2.0,q=2.5,a=-0.2": "herzglobal:a=-0.2,p=2.0,q=2.5",
    "mixed:r=3": "mixed:r=3.0",
    "mixed:r=2.0;3.0": "mixed:r=2.0;3.0",
    "varleb:base=2": "varleb:axis=0,base=2.0,slope=0.0",
    "varleb:base=2.5,slope=-0.5,axis=1": "varleb:axis=1,base=2.5,slope=-0.5",
}


def test_parse_space_roundtrip():
    for txt, canonical in CATALOG_TEXT.items():
        spec = parse_space(txt)
        assert spec.canonical() == canonical
        assert parse_space(canonical) == spec


def test_space_registry_is_the_catalog():
    tags = {parse_space(txt).tag for txt in CATALOG_TEXT}
    assert len(tags) == 11
    assert set(SpaceSpec.kinds) == tags
    assert all(cls.tag == tag for tag, cls in SpaceSpec.kinds.items())


def test_constructor_numbers_match_parsed_text():
    assert VariableLebesgue(base=2) == parse_space("varleb:base=2")
    assert WeightedLebesgue(2, a=-0.5, center=0).canonical() == "weighted:a=-0.5,center=0.0,r=2.0"
    assert HerzLocal(2, 2, -0.2, xi=0).canonical() == "herzlocal:a=-0.2,p=2.0,q=2.0,xi=0.0"


def test_variable_exponent_axis_outside_grid():
    g = make_grid(1, 0.0, 1.0, 8)
    with pytest.raises(ValueError, match="axis 3"):
        VariableLebesgue(base=2, axis=3).exponent_on(g)
    with pytest.raises(ValueError, match="axis 1"):
        norm(SampledField(g, np.ones(g.shape)), VariableLebesgue(base=2, axis=1))


def test_space_invariants_rejected():
    with pytest.raises(ValueError):
        Lebesgue(0.5)
    with pytest.raises(ValueError):
        Lorentz(1.0, 2.0)
    with pytest.raises(ValueError):
        Morrey(3.0, 2.0)
    with pytest.raises(ValueError):
        OrliczFunction("two-power", 3.0, 2.0)
    with pytest.raises(ValueError):
        BesovBourgainMorrey(3.0, 2.0, 4.0, 1.0)


# --------------------------------------------------------------------------
# weighted Lebesgue
# --------------------------------------------------------------------------


def test_weighted_unit_weight_is_plain():
    g = make_grid(1, -1.0, 1.0, 32)
    f = sample(TestFunctionSpec("gaussian"), g)
    w = np.ones(g.shape)
    assert weighted_lebesgue_norm(f, 2.0, w) == norm(f, Lebesgue(2.0))


def test_weighted_linear_weight_integral():
    g = make_grid(1, 0.0, 1.0, 256)
    f = SampledField(g, np.ones(g.shape))
    w = g.coords()[:, 0].reshape(g.shape)
    assert weighted_lebesgue_norm(f, 1.0, w) == pytest.approx(0.5, rel=1e-12)


def test_weighted_zero_function():
    g = make_grid(1, 0.0, 1.0, 8)
    f = SampledField(g, np.zeros(g.shape))
    assert weighted_lebesgue_norm(f, 2.0, np.ones(g.shape)) == 0.0


def test_weighted_holder_equality_with_the_dual_weight():
    # g = |f|^(p-1) w attains Hoelder's inequality between L^p_w and its
    # associate L^p'_sigma, sigma = w^(1-p'): int |f g| = ||f||_{p,w} ||g||_{p',sigma}
    g = make_grid(1, -2.0, 2.0, 128)
    f = sample(TestFunctionSpec("gaussian", sigma=0.7, center=0.2), g)
    w = np.abs(g.coords()[:, 0] - 0.05).reshape(g.shape) ** 0.6
    for p in (1.5, 3.0):
        pp = p / (p - 1.0)
        dual = SampledField(g, np.abs(f.values) ** (p - 1.0) * w)
        pairing = float(np.sum(np.abs(f.values * dual.values)) * g.cell_volume)
        product = weighted_lebesgue_norm(f, p, w) * weighted_lebesgue_norm(dual, pp, w ** (1.0 - pp))
        assert product == pytest.approx(pairing, rel=1e-13)


def test_weighted_negative_weight_rejected():
    g = make_grid(1, 0.0, 1.0, 8)
    f = SampledField(g, np.ones(g.shape))
    with pytest.raises(ValueError):
        weighted_lebesgue_norm(f, 2.0, -np.ones(g.shape))


# --------------------------------------------------------------------------
# Lorentz
# --------------------------------------------------------------------------


def test_lorentz_indicator_closed_form():
    g = make_grid(1, 0.0, 1.0, 64)
    f = indicator_field(g, lambda x: x[:, 0] < 0.5)
    ref = (2.0 / 3.0) ** (1.0 / 3.0) * 0.5 ** 0.5
    assert lorentz_norm(f, 2.0, 3.0) == pytest.approx(ref, rel=1e-13)


def test_lorentz_diagonal_is_lp_on_steps():
    g = make_grid(1, 0.0, 1.0, 32)
    vals = np.repeat([3.0, 1.0, 2.0, 0.0], 8)
    f = SampledField(g, vals.reshape(g.shape))
    assert lorentz_norm(f, 2.5, 2.5) == pytest.approx(norm(f, Lebesgue(2.5)), rel=1e-13)


def test_lorentz_is_rearrangement_invariant():
    # the norm sees only the distribution of |f|: permuting the cells or
    # flipping signs keeps its bits, on any grid of the same cell volume
    g = make_grid(1, -2.0, 2.0, 96)
    f = sample(TestFunctionSpec("gaussian", sigma=0.6, center=0.4), g)
    rng = np.random.default_rng(7)
    moved = rng.permutation(f.values.ravel()) * rng.choice([-1.0, 1.0], size=f.values.size)
    g2 = make_grid(2, (0.0, 0.0), (4.0, 1.0), (8, 12))
    assert g2.cell_volume == pytest.approx(g.cell_volume, rel=1e-15)
    for r, tau in ((2.0, 3.0), (1.5, 1.2)):
        ref = lorentz_norm(f, r, tau)
        assert lorentz_norm(SampledField(g, moved.reshape(g.shape)), r, tau) == ref
        assert lorentz_norm(SampledField(g2, moved.reshape(g2.shape)), r, tau) == pytest.approx(ref, rel=1e-14)


def test_lorentz_tent_closed_form():
    # the unit tent of width 2 has f*(t) = (1 - t/2)_+, so
    # ||f||_{r,tau}^tau = int_0^2 t^(tau/r - 1) (1 - t/2)^tau dt = 2^(tau/r) B(tau/r, tau + 1);
    # the sampled rearrangement is within 2h of f*, which bounds the error
    errs = []
    for n in (256, 1024):
        g = make_grid(1, -2.0, 2.0, n)
        f = sample(TestFunctionSpec("tent", width=2.0, center=0.0), g)
        for r, tau in ((2.0, 3.0), (1.5, 1.2), (4.0, 2.0)):
            e = tau / r
            ref = (2.0 ** e * beta(e, tau + 1.0)) ** (1.0 / tau)
            err = abs(lorentz_norm(f, r, tau) - ref)
            assert err <= 2.0 * g.cell_size[0] * (2.0 ** e / e) ** (1.0 / tau)
            errs.append(err)
    # and it shrinks with the cell size
    assert all(fine <= coarse / 4.0 for coarse, fine in zip(errs[:3], errs[3:]))


def test_lorentz_zero():
    g = make_grid(1, 0.0, 1.0, 8)
    assert lorentz_norm(SampledField(g, np.zeros(g.shape)), 2.0, 3.0) == 0.0


# --------------------------------------------------------------------------
# Orlicz / Luxemburg
# --------------------------------------------------------------------------


def test_luxemburg_power_equals_lp():
    g = make_grid(1, -2.0, 2.0, 64)
    f = sample(TestFunctionSpec("gaussian"), g)
    assert luxemburg_norm(f, OrliczFunction("power", 3.0)) == pytest.approx(
        norm(f, Lebesgue(3.0)), rel=1e-12)


def test_luxemburg_scaled_indicator():
    g = make_grid(1, 0.0, 1.0, 64)
    f = indicator_field(g, lambda x: x[:, 0] < 0.25)
    f = SampledField(g, 3.0 * f.values)
    assert luxemburg_norm(f, OrliczFunction("power", 2.0)) == pytest.approx(
        3.0 * 0.25 ** 0.5, rel=1e-12)


def test_luxemburg_two_power_unit_mass():
    g = make_grid(1, 0.0, 1.0, 32)
    f = SampledField(g, np.ones(g.shape))
    phi = OrliczFunction("two-power", 1.5, 3.0)
    assert luxemburg_norm(f, phi) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("space", LUXEMBURG_SPACES + [Orlicz(OrliczFunction("power", 2.5)),
                                                     Orlicz(OrliczFunction("two-power", 1.5, 300.0))])
def test_luxemburg_modular_of_every_row_is_one(space):
    # the defining equation, summed exactly: vol * sum phi(|v| / lam) = 1
    g = make_grid(1, -1.0, 1.0, 40)
    rng = np.random.default_rng(11)
    rows = rng.random((60,) + g.shape) ** rng.uniform(0.2, 12.0, size=(60, 1))
    rows[0] = 0.0
    rows[0, 7] = 3.0  # a one-cell spike
    for row, lam in zip(rows, norm_many(rows, g, space)):
        u = row / lam
        terms = space.phi(u) if isinstance(space, Orlicz) else u ** space.exponent_on(g)
        assert abs(math.fsum((terms * g.cell_volume).tolist()) - 1.0) <= 1e-12


def test_luxemburg_spike_at_extreme_exponents():
    # one cell of height 1 on [0, 1] with N = 64: the modular at lam < 1 is
    # (1 / lam)^q / 64, so lam = 64^(-1/q); the powers 64^q overflow a double
    g = make_grid(1, 0.0, 1.0, 64)
    f = SampledField(g, np.zeros(g.shape))
    f.values[10] = 1.0
    assert luxemburg_norm(f, OrliczFunction("two-power", 1.5, 300.0)) == pytest.approx(
        64.0 ** (-1.0 / 300.0), rel=1e-14)
    assert norm(f, VariableLebesgue(base=200.0)) == pytest.approx(64.0 ** (-1.0 / 200.0), rel=1e-14)


def test_luxemburg_zero_function():
    g = make_grid(1, 0.0, 1.0, 8)
    assert luxemburg_norm(SampledField(g, np.zeros(g.shape)), OrliczFunction("power", 2.0)) == 0.0


# --------------------------------------------------------------------------
# Orlicz slice
# --------------------------------------------------------------------------


def test_orlicz_slice_constant_interior():
    g = make_grid(1, 0.0, 1.0, 64)
    f = SampledField(g, np.full(g.shape, 2.0))
    val = orlicz_slice_norm(f, OrliczFunction("power", 2.0), 2.0, 0.05)
    assert val == pytest.approx(2.0 * 1.0 ** 0.5, rel=0.1)


def test_orlicz_slice_interior_ratio_is_one():
    g = make_grid(1, -1.0, 2.0, 96)
    f = indicator_field(g, lambda x: (x[:, 0] > 0) & (x[:, 0] < 1))
    # ratio at the midpoint cell: ball fully inside the support
    val = orlicz_slice_norm(f, OrliczFunction("power", 2.0), 4.0, 0.1)
    assert val > 0.9  # outer L^4 over the box dominated by the unit plateau


def test_orlicz_slice_zero_and_small_t():
    g = make_grid(1, 0.0, 1.0, 16)
    f = SampledField(g, np.zeros(g.shape))
    assert orlicz_slice_norm(f, OrliczFunction("power", 2.0), 2.0, 0.2) == 0.0
    with pytest.raises(ValueError):
        orlicz_slice_norm(f, OrliczFunction("power", 2.0), 2.0, 1e-5)


@pytest.mark.parametrize("g", [make_grid(1, -2.0, 2.0, 64), make_grid(2, (-2.0, -1.4), (2.0, 1.4), (16, 12))],
                         ids=["1d", "2d"])
def test_ball_stencil_stays_in_the_grid(g):
    # a ball wider than the grid holds every cell whatever its radius: the
    # stencil's box stops at n - 1 offsets per axis, so t = 1e300 gives the
    # bits of ten grid diameters, as do the ball sums and counts
    from normlab.spaces import _ball_stencil, ball_sums

    ten = 10.0 * float(np.linalg.norm(np.subtract(g.hi, g.lo)))  # ten grid diameters
    f = sample(TestFunctionSpec("gaussian", sigma=0.7, center=0.3 if g.dim == 1 else (0.3, -0.2)), g)
    for phi in (OrliczFunction("power", 2.0), OrliczFunction("two-power", 2.0, 3.0)):
        assert orlicz_slice_norm(f, phi, 2.5, 1e300) == orlicz_slice_norm(f, phi, 2.5, ten)
    wide, far = _ball_stencil(g, 1e300), _ball_stencil(g, ten)
    assert wide.half == far.half == tuple(n - 1 for n in g.shape) and wide.inside.all()
    assert np.array_equal(wide.count, np.full(g.shape, float(g.total_cells)))
    assert np.array_equal(ball_sums(f.values, g, [1e300]), ball_sums(f.values, g, [ten]))


# --------------------------------------------------------------------------
# Morrey
# --------------------------------------------------------------------------


def test_morrey_collapse_full_mass():
    g = make_grid(1, -2.0, 2.0, 32)
    f = sample(TestFunctionSpec("gaussian"), g)
    assert morrey_norm(f, 2.0, 2.0) == pytest.approx(norm(f, Lebesgue(2.0)), rel=1e-13)


def test_morrey_indicator_sup():
    g = make_grid(1, -2.0, 3.0, 640)
    f = indicator_field(g, lambda x: (x[:, 0] > 0) & (x[:, 0] < 1))
    # sup over balls of |B|^(-1/2) |B cap [0,1]| is 1, attained at |B| = 1
    val = morrey_norm(f, 1.0, 2.0)
    assert val == pytest.approx(1.0, rel=0.02)


def test_morrey_zero_and_empty_family():
    g = make_grid(1, 0.0, 1.0, 8)
    assert morrey_norm(SampledField(g, np.zeros(g.shape)), 2.0, 3.0) == 0.0
    from normlab.spaces import BallFamily

    with pytest.raises(ValueError):
        morrey_norm(SampledField(g, np.ones(g.shape)), 2.0, 3.0,
                    ball_family=BallFamily(np.empty((0, 1)), np.array([1.0])))


@pytest.mark.parametrize("radius", [-1.0, math.nan, math.inf])
def test_ball_radius_must_be_finite_and_nonnegative(radius):
    from normlab.spaces import BallFamily

    g = make_grid(1, 0.0, 1.0, 8)
    f = SampledField(g, np.ones(g.shape))
    with pytest.raises(ValueError, match="ball radius must be finite and >= 0"):
        morrey_norm(f, 2.0, 3.0, ball_family=BallFamily(g.coords(), np.array([radius])))


@pytest.mark.parametrize("xi", [math.nan, math.inf, [0.1, math.nan]])
def test_herz_local_rejects_non_finite_centre(xi):
    with pytest.raises(ValueError, match="Herz centre xi must be finite"):
        HerzLocal(2.0, 2.0, 0.0, xi)


# --------------------------------------------------------------------------
# dyadic cubes
# --------------------------------------------------------------------------


def test_dyadic_unit_tiling():
    cubes = oracles.dyadic_cubes((0.0,), 0, 0, [0.0], [2.0])
    corners = sorted((lo[0], hi[0]) for _, _, lo, hi in cubes)
    assert corners == [(0.0, 1.0), (1.0, 2.0)]


def test_dyadic_shifted_formula():
    cubes = oracles.dyadic_cubes((1.0 / 3.0,), 0, 0, [0.0], [1.0])
    # (-1)^0 * 1/3 shift: cubes (m + 1/3, m + 4/3]
    assert any(abs(lo[0] - 1.0 / 3.0) < 1e-12 for _, _, lo, _ in cubes)


def test_dyadic_levels_tile_box():
    for nu in (-1, 0, 1):
        cubes = oracles.dyadic_cubes((2.0 / 3.0, 1.0 / 3.0), nu, nu, [0.0, 0.0], [2.0, 2.0])
        area = sum(np.prod(np.subtract(hi, lo)) for _, _, lo, hi in cubes)
        # tiles cover the box (with overhang at the rim)
        assert area >= 4.0


@pytest.mark.parametrize("grid", [make_grid(1, -1.3, 2.2, 11), make_grid(2, (-1.0, -0.4), (1.5, 2.0), (10, 7))],
                         ids=["1d", "2d"])
def test_dyadic_boxes_hold_the_reference_cubes_cells(grid):
    # per level, the index boxes of the Besov-Bourgain-Morrey cubes are the
    # cells (by centre) of each reference cube over the grid box that holds one
    levels = _dyadic_boxes(grid, None)
    nu_min = math.floor(math.log2(min(grid.cell_size))) - 1
    centres = [grid.axis_centers(i) for i in range(grid.dim)]
    cubes = oracles.dyadic_cubes((0.0,) * grid.dim, nu_min, nu_min + len(levels) - 1, grid.lo, grid.hi)
    for nu, (side, a, b) in enumerate(levels, nu_min):
        assert side == 2.0 ** nu
        ref = set()
        for _, _, lo, hi in (c for c in cubes if c[0] == nu):
            held = [np.flatnonzero((lo[i] < c) & (c <= hi[i])) for i, c in enumerate(centres)]
            if all(h.size for h in held):
                ref.add(tuple((int(h[0]), int(h[-1]) + 1) for h in held))
        ranges = [list(zip(a[i].ravel().tolist(), b[i].ravel().tolist())) for i in range(grid.dim)]
        assert set(itertools.product(*ranges)) == ref and ref


def test_dyadic_cover_is_a_reference_cube():
    # the covering cube is one of its shifted system's cubes, and it holds the closed ball
    from normlab import dyadic_cover

    rng = np.random.default_rng(5)
    for n in (1, 2):
        for _ in range(20):
            c = rng.uniform(-3.0, 3.0, size=n)
            r = float(np.exp(rng.uniform(np.log(0.05), np.log(5.0))))
            shift, cube = dyadic_cover(c, r)
            ref = oracles.dyadic_cubes(shift, cube.nu, cube.nu, c - r, c + r)
            assert [(nu, m) for nu, m, _, _ in ref] == [(cube.nu, cube.m)]
            assert np.allclose(ref[0][2], cube.lo, rtol=0.0, atol=1e-12)
            assert np.allclose(ref[0][3], cube.hi, rtol=0.0, atol=1e-12)
            assert np.all(np.asarray(cube.lo) < c - r) and np.all(c + r <= np.asarray(cube.hi))


# --------------------------------------------------------------------------
# Besov-Bourgain-Morrey
# --------------------------------------------------------------------------


def test_bbmorrey_degenerate_partition():
    g = make_grid(1, 0.0, 1.0, 32)
    f = sample(TestFunctionSpec("gaussian", sigma=0.5, center=0.5), g)
    lq = norm(f, Lebesgue(2.0))
    val = bbm_morrey_norm(f, 2.0, 2.0, 2.0, math.inf)
    assert val == pytest.approx(lq, rel=1e-12)


def test_bbmorrey_zero():
    g = make_grid(1, 0.0, 1.0, 16)
    assert bbm_morrey_norm(SampledField(g, np.zeros(g.shape)), 2.0, 3.0, 4.0, math.inf) == 0.0


def test_bbmorrey_exponent_order_enforced():
    with pytest.raises(ValueError):
        BesovBourgainMorrey(3.0, 2.0, 1.0, 2.0)


# --------------------------------------------------------------------------
# Herz
# --------------------------------------------------------------------------


def test_herz_collapse():
    g = make_grid(1, -2.0, 2.0, 64)
    f = sample(TestFunctionSpec("gaussian"), g)
    assert herz_local_norm(f, 2.0, 2.0, HerzWeight(0.0), 0.0) == pytest.approx(
        norm(f, Lebesgue(2.0)), rel=1e-12)


def test_herz_local_p_eq_q_is_the_weighted_norm_of_its_annulus_weight():
    # with p = q the annulus sums merge into one: the local Herz norm is the
    # L^p norm with weight 2^(k a p) on annulus k, 1 < |x - xi| / 2^(k-1) <= 2,
    # and 0 at xi itself
    g = make_grid(1, -2.0, 2.0, 64)
    f = sample(TestFunctionSpec("gaussian"), g)
    for a in (-0.3, 0.7):
        for xi in (0.0, 0.37):
            d = np.abs(g.coords()[:, 0] - xi)
            k = np.floor(np.log2(np.where(d > 0, d, 1.0))) + 1.0
            w = np.where(d > 0, 2.0 ** (2.0 * a * k), 0.0).reshape(g.shape)
            assert herz_local_norm(f, 2.0, 2.0, HerzWeight(a), xi) == pytest.approx(
                weighted_lebesgue_norm(f, 2.0, w), rel=1e-14)


def test_herz_zero():
    g = make_grid(1, -2.0, 2.0, 16)
    assert herz_local_norm(SampledField(g, np.zeros(g.shape)), 2.0, 2.0, HerzWeight(1.0), 0.0) == 0.0


def test_herz_global_single_center_matches_local():
    g = make_grid(1, -2.0, 2.0, 32)
    f = sample(TestFunctionSpec("gaussian"), g)
    xi = np.array([[0.3]])
    val, best = herz_global_norm(f, 2.0, 2.0, HerzWeight(-0.3), xi_grid=xi)
    assert val == herz_local_norm(f, 2.0, 2.0, HerzWeight(-0.3), 0.3)
    assert best == (0.3,)


def test_herz_global_radial_maximizer_near_origin():
    g = make_grid(1, -2.0, 2.0, 64)
    f = sample(TestFunctionSpec("gaussian"), g)
    val, best = herz_global_norm(f, 2.0, 2.0, HerzWeight(-0.4))
    assert abs(best[0]) <= 4.0 / 64 * 4 + 1e-12  # at or near the origin


def _herz_log2(values, coords, vol, p, q, a, xi):
    """log2 of the local Herz norm, each annulus term w(2^k) r_k taken in log2
    and summed as a log-sum-exp, so that nothing overflows."""
    d = np.linalg.norm(coords - np.asarray(xi, dtype=float), axis=1)
    on = d > 0
    k = np.floor(np.log2(d[on])).astype(int) + 1
    logs = [k_ * a + math.log2(math.fsum(np.abs(values[on][k == k_]) ** p * vol)) / p
            for k_ in np.unique(k) if np.any(values[on][k == k_])]
    top = max(logs)
    return top + math.log2(math.fsum(2.0 ** (q * (x - top)) for x in logs)) / q


@pytest.mark.parametrize("a", [-400.0, 400.0])
@pytest.mark.parametrize("q", [2.0, 2.5])
def test_herz_terms_past_the_float_range(a, q):
    # at a = +-400 the terms' q-th powers leave the float range, the norms do not
    g = make_grid(1, -2.0, 2.0, 16)
    f = sample(TestFunctionSpec("gaussian"), g)
    v = f.values.ravel()
    ref = [2.0 ** _herz_log2(v, g.coords(), g.cell_volume, 2.0, q, a, xi) for xi in default_xi_grid(g)]
    assert max(ref) > 1e240
    local = norm(f, HerzLocal(2.0, q, a, 0.0))
    assert local == pytest.approx(2.0 ** _herz_log2(v, g.coords(), g.cell_volume, 2.0, q, a, (0.0,)), rel=1e-12)
    glob, best = herz_global_norm(f, 2.0, q, HerzWeight(a))
    assert glob == pytest.approx(max(ref), rel=1e-12)
    assert glob == pytest.approx(2.0 ** _herz_log2(v, g.coords(), g.cell_volume, 2.0, q, a, best), rel=1e-12)


def test_herz_weight_past_the_float_range_raises():
    g = make_grid(1, -2.0, 2.0, 16)
    f = sample(TestFunctionSpec("gaussian"), g)
    for a in (1e300, -1e300, 1100.0):
        with pytest.raises(OverflowError, match="Herz weight"):
            norm(f, HerzLocal(2.0, 2.0, a, 0.0))
    assert HerzLocal(2.0, 2.0, 1e300).extreme_exponent() == "a=1e+300"


def test_herz_global_empty_grid_rejected():
    g = make_grid(1, -2.0, 2.0, 16)
    f = sample(TestFunctionSpec("gaussian"), g)
    with pytest.raises(ValueError):
        herz_global_norm(f, 2.0, 2.0, HerzWeight(0.0), xi_grid=np.empty((0, 1)))


# --------------------------------------------------------------------------
# mixed and variable
# --------------------------------------------------------------------------


def test_mixed_uniform_is_lebesgue():
    g = make_grid(2, -1.0, 1.0, 16)
    f = sample(TestFunctionSpec("gaussian", sigma=0.8), g)
    assert mixed_norm(f, (2.0, 2.0)) == pytest.approx(norm(f, Lebesgue(2.0)), rel=1e-12)


def test_mixed_separable_factorizes():
    g = make_grid(2, -1.0, 1.0, 16)
    x, y = g.meshgrid()
    f = SampledField(g, np.exp(-x ** 2) * np.exp(-2 * y ** 2))
    g1 = make_grid(1, -1.0, 1.0, 16)
    a = SampledField(g1, np.exp(-g1.axis_centers(0) ** 2))
    b = SampledField(g1, np.exp(-2 * g1.axis_centers(0) ** 2))
    prod = norm(a, Lebesgue(2.0)) * norm(b, Lebesgue(3.0))
    assert mixed_norm(f, (2.0, 3.0)) == pytest.approx(prod, rel=1e-12)


def test_mixed_dimension_mismatch():
    g = make_grid(2, -1.0, 1.0, 8)
    f = sample(TestFunctionSpec("gaussian"), g)
    with pytest.raises(ValueError):
        mixed_norm(f, (2.0,))


def test_variable_constant_exponent():
    g = make_grid(1, 0.0, 1.0, 64)
    f = sample(TestFunctionSpec("gaussian", sigma=0.5, center=0.5), g)
    ex = np.full(g.shape, 2.5)
    assert variable_lebesgue_norm(f, ex) == pytest.approx(norm(f, Lebesgue(2.5)), rel=1e-12)


def test_variable_indicator():
    g = make_grid(1, 0.0, 1.0, 64)
    f = indicator_field(g, lambda x: x[:, 0] < 0.25)
    ex = np.full(g.shape, 3.0)
    assert variable_lebesgue_norm(f, ex) == pytest.approx(0.25 ** (1.0 / 3.0), rel=1e-12)


def test_variable_ramp_against_root_finder():
    g = make_grid(1, 0.0, 1.0, 512)
    f = SampledField(g, np.ones(g.shape))
    x = g.axis_centers(0)
    ex = (2.0 + x).reshape(g.shape)
    val = variable_lebesgue_norm(f, ex)
    vol = g.cell_volume

    def modular_minus_one(lam):
        return float(np.sum((1.0 / lam) ** ex.ravel()) * vol) - 1.0

    ref = brentq(modular_minus_one, 1e-6, 10.0, xtol=1e-14)
    assert val == pytest.approx(ref, abs=1e-8)


def test_variable_rejects_bad_exponent():
    g = make_grid(1, 0.0, 1.0, 8)
    f = SampledField(g, np.ones(g.shape))
    with pytest.raises(ValueError):
        variable_lebesgue_norm(f, np.full(g.shape, 0.9))


# --------------------------------------------------------------------------
# convexification
# --------------------------------------------------------------------------


def test_convexify_parameter_scaling():
    assert convexify(Lebesgue(4.0), 2.0) == Lebesgue(2.0)
    assert convexify(Lorentz(4.0, 6.0), 2.0) == Lorentz(2.0, 3.0)
    phi = convexify(Orlicz(OrliczFunction("power", 4.0)), 2.0).phi
    assert phi.p1 == 2.0


def test_convexify_norm_identity():
    g = make_grid(1, -2.0, 2.0, 64)
    f = sample(TestFunctionSpec("gaussian"), g)
    for space, p in ((Lebesgue(4.0), 2.0), (Lorentz(4.0, 6.0), 2.0),
                     (Morrey(2.0, 4.0), 1.5), (HerzLocal(3.0, 3.0, -0.2), 1.4)):
        fp = SampledField(g, np.abs(f.values) ** p)
        lhs = norm(fp, convexify(space, p)) ** (1.0 / p)
        rhs = norm(f, space)
        assert lhs == pytest.approx(rhs, rel=1e-12), space.tag


def test_convexify_range_violation():
    with pytest.raises(ValueError):
        convexify(Lorentz(2.0, 3.0), 2.5)  # r/p <= 1 leaves the evaluator range


# --------------------------------------------------------------------------
# restriction and zero extension
# --------------------------------------------------------------------------


def test_zero_extend_unit_indicator():
    g = make_grid(1, -2.0, 2.0, 64)
    inside = (np.abs(g.coords()[:, 0] - 0.5) < 0.5).reshape(g.shape)
    omega = DomainMask(g, inside)
    ext = zero_extend(np.ones(int(inside.sum())), omega)
    assert norm(ext, Lebesgue(2.0)) == pytest.approx(1.0, rel=1e-12)


def test_restriction_equals_zero_extension_exactly():
    # the norm on a domain ignores the values outside it: it is the norm of
    # the zero extension of the values inside
    g = make_grid(1, -1.0, 1.0, 32)
    rng = np.random.default_rng(3)
    inside = (g.coords()[:, 0] > 0).reshape(g.shape)
    omega = DomainMask(g, inside)
    f = SampledField(g, rng.standard_normal(g.shape))
    ext = zero_extend(f.values[inside], omega)
    assert np.array_equal(ext.values[inside], f.values[inside]) and not np.any(ext.values[~inside])
    for space in (Lebesgue(2.0), Lorentz(2.0, 3.0), Morrey(2.0, 4.0)):
        assert norm(f, space, omega) == norm(ext, space)


def test_restriction_full_box_is_plain_norm():
    g = make_grid(1, -1.0, 1.0, 16)
    f = sample(TestFunctionSpec("gaussian"), g)
    omega = DomainMask(g, np.ones(g.shape, dtype=bool))
    assert norm(zero_extend(f.values.ravel(), omega), Lebesgue(2.0)) == norm(f, Lebesgue(2.0))


def test_zero_extend_count_mismatch():
    g = make_grid(1, -1.0, 1.0, 16)
    omega = DomainMask(g, (g.coords()[:, 0] > 0).reshape(g.shape))
    with pytest.raises(ValueError):
        zero_extend(np.ones(3), omega)


def test_traced_benchmark_finds_every_per_kind_entry_point(monkeypatch):
    # perfbench/spans.py wraps these names by lookup in traced runs; renaming
    # or removing one must fail here, not in a traced benchmark run
    import importlib.util
    import sys
    from pathlib import Path

    import normlab.spaces

    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # dataclasses look their module up
    spec.loader.exec_module(spans)
    assert set(spans.KIND_EVALUATORS.values()) <= set(SpaceSpec.kinds)
    for name in spans.KIND_EVALUATORS:
        assert callable(getattr(normlab.spaces, name, None)), name


def test_mask_on_another_grid_rejected_by_every_evaluator():
    from normlab.functionals import gagliardo_seminorm_sweep
    from normlab.grid import restrict_values

    g, other = make_grid(1, 0.0, 1.0, 16), make_grid(1, 0.0, 1.0, 8)
    f = sample(TestFunctionSpec("gaussian"), g)
    omega = DomainMask(other, np.ones(other.shape, dtype=bool))
    for call in (lambda: restrict_values(f, omega), lambda: norm(f, Lebesgue(2.0), omega),
                 lambda: lorentz_norm(f, 2.0, 3.0, omega),
                 lambda: gagliardo_seminorm_sweep(f, [0.5], 2.0, omega)):
        with pytest.raises(ValueError, match="field and mask live on different grids"):
            call()
