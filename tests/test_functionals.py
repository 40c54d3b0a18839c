import math

import numpy as np
import pytest

from normlab import (
    BsvyParams,
    DomainMask,
    GagliardoParams,
    KernelPolicy,
    Lebesgue,
    SampledField,
    TestFunctionSpec,
    bbm_constant,
    bbm_limit_extrapolate,
    bbm_scaled_value,
    bsvy_functional,
    bsvy_inner,
    bsvy_sup,
    gagliardo_seminorm,
    make_grid,
    parse_space,
    sample,
    sobolev_norm,
    weak_holder_check,
    weak_product_quasinorm,
    weighted_mu_measure,
)
from normlab import oracles
from normlab.domains import mask, parse_domain
from normlab.functionals import (
    DEFAULT_POLICY,
    EXCLUDE_POLICY,
    _directional_extent_1d,
    bsvy_inner_profile,
    bsvy_values,
    default_lambda_grid,
    fractional_inner_field,
    gagliardo_seminorm_sweep,
    sphere_area,
    sphere_moment,
)


# --------------------------------------------------------------------------
# constants
# --------------------------------------------------------------------------


def test_bbm_constant_values():
    assert bbm_constant(1.0, 1) == pytest.approx(2.0, rel=1e-14)
    assert bbm_constant(2.0, 1) == pytest.approx(1.0, rel=1e-14)
    assert bbm_constant(2.0, 2) == pytest.approx(math.pi / 2.0, rel=1e-14)


def test_sphere_quantities():
    assert sphere_area(1) == pytest.approx(2.0, rel=1e-14)
    assert sphere_area(2) == pytest.approx(2 * math.pi, rel=1e-14)
    assert sphere_moment(2.0, 2) == pytest.approx(math.pi, rel=1e-14)


def test_param_validation():
    with pytest.raises(ValueError):
        GagliardoParams(1.0, 2.0)
    with pytest.raises(ValueError):
        BsvyParams(0.0, 2.0)
    with pytest.raises(ValueError):
        KernelPolicy(diagonal="nope")
    assert BsvyParams(-0.5, 1.0).theorem_conditional
    assert not BsvyParams(-0.5, 2.0).theorem_conditional


# --------------------------------------------------------------------------
# Gagliardo seminorm
# --------------------------------------------------------------------------


def test_gagliardo_zero_for_constant():
    g = make_grid(1, 0.0, 1.0, 32)
    f = SampledField(g, np.full(g.shape, 2.0))
    assert gagliardo_seminorm(f, 0.5, 2.0, policy=EXCLUDE_POLICY) == 0.0


def test_gagliardo_homogeneous_p1():
    g = make_grid(1, -2.0, 2.0, 32)
    f = sample(TestFunctionSpec("gaussian"), g)
    f2 = SampledField(g, 2.0 * f.values, 2.0 * f.analytic_gradient)
    a = gagliardo_seminorm(f, 0.4, 1.0)
    b = gagliardo_seminorm(f2, 0.4, 1.0)
    assert b == pytest.approx(2.0 * a, rel=1e-13)


def test_bbm_scaled_fubini_identity():
    # X = L^p makes the field route equal (1-s)^(1/p) times the seminorm; at
    # p = 2 on the larger grids both routes take their far offsets by FFT
    for dim, npts in ((1, 48), (1, 256), (2, 40)):
        g = make_grid(dim, -2.0, 2.0, npts)
        f = sample(TestFunctionSpec("gaussian"), g)
        for policy in (EXCLUDE_POLICY, DEFAULT_POLICY):
            for p in (1.0, 2.0):
                s = 0.7
                lhs = bbm_scaled_value(f, s, p, Lebesgue(p), None, policy)
                rhs = (1.0 - s) ** (1.0 / p) * gagliardo_seminorm(f, s, p, None, policy)
                assert lhs == pytest.approx(rhs, rel=1e-12)


@pytest.mark.parametrize("dim,npts", [(1, 256), (2, 48)])
@pytest.mark.parametrize("masked", [False, True])
def test_gagliardo_p2_exact_zero_for_constant(dim, npts, masked):
    # a field constant on the domain (other values outside it) has no pair
    # differences there; the FFT part must give exact zeros as the walk does
    g = make_grid(dim, -2.0, 2.0, npts)
    vals = np.full(g.shape, 3.7)
    omega = None
    if masked:
        omega = mask(parse_domain("ball:radius=1.3"), g)
        vals = np.where(omega.cells, vals, np.linspace(-5.0, 9.0, vals.size).reshape(g.shape))
    f = SampledField(g, vals, np.zeros((dim,) + g.shape))
    for policy in (EXCLUDE_POLICY, DEFAULT_POLICY):
        assert gagliardo_seminorm_sweep(f, [0.3, 0.9], 2.0, omega, policy) == [0.0, 0.0]
        assert np.all(fractional_inner_field(f, 0.6, 2.0, omega, policy) == 0.0)


@pytest.mark.parametrize("c", [1e200, 1e-200])
@pytest.mark.parametrize("p", [1.0, 2.0])
def test_gagliardo_homogeneous_at_extreme_scales(p, c):
    g = make_grid(1, -2.0, 2.0, 64)
    f = sample(TestFunctionSpec("gaussian"), g)
    fc = SampledField(g, c * f.values, c * f.analytic_gradient)
    for policy in (EXCLUDE_POLICY, DEFAULT_POLICY):
        a = gagliardo_seminorm_sweep(f, [0.3, 0.9], p, None, policy)
        b = gagliardo_seminorm_sweep(fc, [0.3, 0.9], p, None, policy)
        assert np.allclose(np.divide(b, c), a, rtol=1e-12, atol=0.0)
        a = bbm_scaled_value(f, 0.7, p, Lebesgue(3.0), None, policy)
        b = bbm_scaled_value(fc, 0.7, p, Lebesgue(3.0), None, policy)
        assert b / c == pytest.approx(a, rel=1e-12)


@pytest.mark.parametrize("p,c", [(1.0, 1e200), (1.0, 1e-200), (1.5, 1e180), (1.5, 1e-180),
                                 (2.0, 1e150), (2.0, 1e-150)])
def test_fractional_inner_homogeneous_at_extreme_scales(p, c):
    # the inner field is p-homogeneous; c^p stays inside the float range
    g = make_grid(1, -2.0, 2.0, 64)
    f = sample(TestFunctionSpec("gaussian"), g)
    fc = SampledField(g, c * f.values, c * f.analytic_gradient)
    inner = fractional_inner_field(f, 0.7, p)
    inner_c = fractional_inner_field(fc, 0.7, p)
    assert np.max(np.abs(inner_c / c ** p - inner)) <= 1e-12 * np.max(inner)


def test_gagliardo_domain_restriction():
    g = make_grid(1, -2.0, 2.0, 32)
    f = sample(TestFunctionSpec("gaussian"), g)
    omega = DomainMask(g, (g.coords()[:, 0] > 0).reshape(g.shape))
    full = gagliardo_seminorm(f, 0.5, 1.0, policy=EXCLUDE_POLICY)
    part = gagliardo_seminorm(f, 0.5, 1.0, omega, EXCLUDE_POLICY)
    assert 0.0 < part < full


# --------------------------------------------------------------------------
# extrapolation
# --------------------------------------------------------------------------


def test_extrapolate_affine_exact():
    svals = (0.6, 0.8, 0.9, 0.95)
    vals = [3.0 + 2.0 * (1 - s) for s in svals]
    a, res = bbm_limit_extrapolate(zip(svals, vals))
    assert a == pytest.approx(3.0, abs=1e-12)


def test_extrapolate_constant():
    a, _ = bbm_limit_extrapolate([(0.6, 5.0), (0.8, 5.0), (0.9, 5.0)])
    assert a == pytest.approx(5.0, abs=1e-12)


def test_extrapolate_quadratic_error_bound():
    c = 0.7
    svals = (0.8, 0.875, 0.925, 0.95)
    vals = [1.0 + 2.0 * (1 - s) + c * (1 - s) ** 2 for s in svals]
    a, _ = bbm_limit_extrapolate(zip(svals, vals))
    assert abs(a - 1.0) <= abs(c) * max((1 - s) ** 2 for s in svals)


def test_extrapolate_needs_three_points():
    with pytest.raises(ValueError):
        bbm_limit_extrapolate([(0.8, 1.0), (0.9, 1.0)])


# --------------------------------------------------------------------------
# level-set functional
# --------------------------------------------------------------------------


def test_bsvy_inner_constant_is_zero():
    g = make_grid(1, 0.0, 1.0, 32)
    f = SampledField(g, np.full(g.shape, 1.3))
    inner = bsvy_inner(f, 1.0, BsvyParams(1.0, 1.0), policy=EXCLUDE_POLICY)
    assert np.all(inner.values == 0.0)


def test_bsvy_inner_desk_geometry():
    # f(x) = x, gamma = p = 1: inner(x) = min(x, 1/lam) + min(1-x, 1/lam)
    g = make_grid(1, 0.0, 1.0, 512)
    f = sample(TestFunctionSpec("coordinate", axis=0), g)
    lam = 4.0
    inner = bsvy_inner(f, lam, BsvyParams(1.0, 1.0), policy=KernelPolicy(near_window=24.0))
    x = g.axis_centers(0)
    ref = np.minimum(x, 1 / lam) + np.minimum(1 - x, 1 / lam)
    assert np.max(np.abs(inner.values - ref)) <= 3.0 * g.cell_size[0]


def test_bsvy_level_set_monotone_in_lambda():
    g = make_grid(1, -2.0, 2.0, 64)
    f = sample(TestFunctionSpec("gaussian"), g)
    prof = bsvy_inner_profile(f, [0.5, 1.0, 2.0], BsvyParams(2.0, 2.0), None, EXCLUDE_POLICY)
    assert np.all(prof[1] <= prof[0] + 1e-15)
    assert np.all(prof[2] <= prof[1] + 1e-15)


def test_bsvy_values_equal_single_lambda_calls():
    g = make_grid(1, -2.0, 2.0, 48)
    f = sample(TestFunctionSpec("tent", width=1.5, center=0.1), g)
    omega = mask(parse_domain("annulus:r1=0.4,r2=1.5"), g)
    params = BsvyParams(-1.0, 2.0)
    lams = np.geomspace(0.05, 50.0, 7)
    vals = bsvy_values(f, lams, params, Lebesgue(3.0), omega)
    assert vals.tolist() == [bsvy_functional(f, lam, params, Lebesgue(3.0), omega) for lam in lams]


# one member of every catalog kind, on 1D grids
CATALOG_1D = ("lebesgue:p=2", "weighted:a=-0.3,r=3", "lorentz:r=3,tau=2.5", "orlicz:p1=2.5,p2=3",
              "orliczslice:p=2,r=2.5,t=0.3", "morrey:alpha=4,r=2", "bbmorrey:p=3,q=2,r=4,tau=5",
              "herzlocal:a=-0.2,p=2.5,q=2.5", "herzglobal:a=-0.2,p=2.5,q=2.5", "mixed:r=2.5",
              "varleb:base=2.5,slope=0.3")


@pytest.mark.parametrize("dim, text", [(1, t) for t in CATALOG_1D] + [(2, "mixed:r=2.5;3")])
@pytest.mark.parametrize("domain", [None, "ball:radius=1.3"])
def test_bsvy_values_equal_single_lambda_calls_every_kind(dim, text, domain):
    g = make_grid(dim, -2.0, 2.0, 32 if dim == 1 else 16)
    f = sample(TestFunctionSpec("tent", width=1.5, center=0.1), g)
    omega = None if domain is None else mask(parse_domain(domain), g)
    params, space = BsvyParams(1.0, 2.0), parse_space(text)
    lams = np.geomspace(0.05, 50.0, 7)[[3, 0, 6, 1, 5, 2, 4]]
    vals = bsvy_values(f, lams, params, space, omega)
    assert vals.tolist() == [bsvy_functional(f, lam, params, space, omega) for lam in lams]


def test_inner_profile_unsorted_batch_with_duplicates():
    lams = np.array([2.0, 0.5, 1.0, 0.5, 8.0, 0.1, 2.0, 1e-3, 50.0])
    ordered = np.sort(lams)
    params = BsvyParams(2.0, 2.0)
    for dim, npts in ((1, 48), (2, 12)):
        g = make_grid(dim, -2.0, 2.0, npts)
        f = sample(TestFunctionSpec("gaussian", sigma=0.8, center=0.2), g)
        omega = mask(parse_domain("ball:radius=1.3"), g)
        for policy, dom in ((DEFAULT_POLICY, None), (DEFAULT_POLICY, omega),
                            (EXCLUDE_POLICY, omega)):
            prof = bsvy_inner_profile(f, lams, params, dom, policy)
            ref = bsvy_inner_profile(f, ordered, params, dom, policy)
            for lam, row in zip(lams, prof):
                assert np.array_equal(row, ref[np.searchsorted(ordered, lam)])
    g = make_grid(1, -2.0, 2.0, 48)
    f = sample(TestFunctionSpec("gaussian", sigma=0.8, center=0.2), g)
    assert bsvy_values(f, [], params, Lebesgue(2.0)).shape == (0,)
    for lam, row in zip(lams, bsvy_inner_profile(f, lams, params, None, EXCLUDE_POLICY)):
        ref = oracles.level_set_inner(f.values.ravel(), g.coords(), g.cell_volume, lam, 2.0, 2.0)
        assert np.max(np.abs(row.ravel() - ref)) <= 1e-12 * np.max(ref)


@pytest.mark.parametrize("policy", [DEFAULT_POLICY, EXCLUDE_POLICY], ids=["default", "exclude"])
@pytest.mark.parametrize("gamma", [2.0, -1.0])
def test_inner_profile_pairs_at_offset_edges_match_loops(policy, gamma):
    # each lambda sits just below the one at which an offset's largest
    # increment leaves the level set, so the walk must keep that row for it
    g = make_grid(1, -2.0, 2.0, 32)
    f = sample(TestFunctionSpec("gaussian", sigma=0.8, center=0.2), g)
    v, h, p = f.values.ravel(), g.cell_size[0], 2.0
    expo = 1.0 + gamma / p
    shifts = ((np.arange(policy.subsample) + 0.5) / policy.subsample - 0.5) * h

    def pair_dists(o):
        """Distances at which a cell pair at offset o enters the sum."""
        if policy.diagonal == "exclude" or o * h > policy.subsample_window * h:
            return np.array([o * h])
        return np.abs(o * h + shifts) if o * h > policy.near_window * h else np.array([])

    lams = np.array([np.max(np.abs(v[o:] - v[:-o])) / np.min(pair_dists(o)) ** expo * (1 - 1e-9)
                     for o in (2, 3, 5, 12)])
    params = BsvyParams(gamma, p)
    # the analytic near-field term alone: no pair differs in value
    model = SampledField(g, np.zeros(g.shape), f.analytic_gradient)
    pairs = (bsvy_inner_profile(f, lams, params, None, policy)
             - bsvy_inner_profile(model, lams, params, None, policy))
    for lam, row in zip(lams, pairs):
        ref = np.zeros(v.size)
        for i in range(v.size):
            for j in range(v.size):
                ds = pair_dists(abs(i - j)) if i != j else np.array([])
                memb = abs(v[i] - v[j]) > lam * ds ** expo
                ref[i] += np.sum(memb * ds ** (gamma - 1) * h / max(ds.size, 1))
        assert np.max(np.abs(row - ref)) <= 1e-12 * np.max(ref)


@pytest.mark.parametrize("spec", [TestFunctionSpec("tent", width=1.5),
                                  TestFunctionSpec("gaussian")])
def test_bsvy_sup_below_exact_all_lambda_sup(spec):
    # exclude policy in L^p: the lambda grid can only miss the sup over all lambda
    g = make_grid(1, -2.0, 2.0, 64)
    f = sample(spec, g)
    exact = oracles.level_set_sup(f.values.ravel(), g.coords(), g.cell_volume, 1.0, 2.0)
    sup = bsvy_sup(f, BsvyParams(1.0, 2.0), Lebesgue(2.0), None, EXCLUDE_POLICY).sup
    assert 0.95 * exact <= sup <= exact * (1.0 + 1e-12)


def test_directional_extent_matches_cell_loop():
    g = make_grid(1, 0.0, 1.0, 12)
    h = g.cell_size[0]
    # several runs, single-cell runs, and runs that touch either box end
    for cells in ("111111111111", "110111001011", "010101010101", "100000000001", "000111111000"):
        m = np.array([c == "1" for c in cells])
        behind, ahead = _directional_extent_1d(g, m)
        for i in range(m.size):
            back = fwd = 0
            while m[i] and i - back - 1 >= 0 and m[i - back - 1]:
                back += 1
            while m[i] and i + fwd + 1 < m.size and m[i + fwd + 1]:
                fwd += 1
            assert (behind[i], ahead[i]) == ((back + 0.5) * h, (fwd + 0.5) * h), (cells, i)


def test_bsvy_functional_desk_value():
    g = make_grid(1, 0.0, 1.0, 2048)
    f = sample(TestFunctionSpec("coordinate", axis=0), g)
    val = bsvy_functional(f, 8.0, BsvyParams(1.0, 1.0), Lebesgue(1.0), None,
                          KernelPolicy(near_window=64.0))
    assert val == pytest.approx(2.0 - 1.0 / 8.0, rel=5e-3)


def test_bsvy_functional_vanishes_at_small_lambda():
    g = make_grid(1, -1.0, 1.0, 64)
    f = sample(TestFunctionSpec("gaussian"), g)
    params = BsvyParams(2.0, 2.0)
    big = bsvy_functional(f, 1e-6, params, Lebesgue(2.0))
    assert big <= 1e-3


def test_bsvy_functional_rejects_bad_lambda():
    g = make_grid(1, 0.0, 1.0, 16)
    f = sample(TestFunctionSpec("coordinate", axis=0), g)
    with pytest.raises(ValueError):
        bsvy_inner(f, -1.0, BsvyParams(1.0, 1.0))


def test_bsvy_sup_constant_degenerate():
    g = make_grid(1, 0.0, 1.0, 32)
    f = SampledField(g, np.ones(g.shape), np.zeros((1,) + g.shape))
    rep = bsvy_sup(f, BsvyParams(1.0, 1.0), Lebesgue(1.0))
    assert rep.sup == 0.0
    assert "degenerate" in rep.flags


def test_bsvy_sup_grid_validation():
    g = make_grid(1, 0.0, 1.0, 32)
    f = sample(TestFunctionSpec("coordinate", axis=0), g)
    with pytest.raises(ValueError):
        bsvy_sup(f, BsvyParams(1.0, 1.0), Lebesgue(1.0), lam_grid=np.geomspace(1, 10, 30))


def test_bsvy_sup_report_roundtrip():
    from normlab.functionals import FunctionalReport

    g = make_grid(1, 0.0, 1.0, 64)
    f = sample(TestFunctionSpec("coordinate", axis=0), g)
    rep = bsvy_sup(f, BsvyParams(1.0, 1.0), Lebesgue(1.0))
    back = FunctionalReport.from_json(rep.to_json())
    assert back.sup == rep.sup and back.lam_grid == rep.lam_grid


def test_translation_invariance_whole_cells():
    g = make_grid(1, -2.0, 2.0, 64)
    shift = 4 * g.cell_size[0]
    f1 = sample(TestFunctionSpec("gaussian", sigma=0.5, center=0.0), g)
    f2 = sample(TestFunctionSpec("gaussian", sigma=0.5, center=shift), g)
    m1 = DomainMask(g, (np.abs(g.coords()[:, 0]) < 1.0).reshape(g.shape))
    m2 = DomainMask(g, (np.abs(g.coords()[:, 0] - shift) < 1.0).reshape(g.shape))
    params = BsvyParams(1.0, 2.0)
    a = bsvy_functional(f1, 1.0, params, Lebesgue(2.0), m1)
    b = bsvy_functional(f2, 1.0, params, Lebesgue(2.0), m2)
    assert a == pytest.approx(b, rel=1e-12)
    assert gagliardo_seminorm(f1, 0.5, 2.0, m1) == pytest.approx(
        gagliardo_seminorm(f2, 0.5, 2.0, m2), rel=1e-12)


# --------------------------------------------------------------------------
# pair measures
# --------------------------------------------------------------------------


def test_weak_product_consistency_identity():
    g = make_grid(1, -1.0, 1.0, 32)
    f = sample(TestFunctionSpec("gaussian", sigma=0.6), g)
    params = BsvyParams(1.0, 1.0)
    lam = np.geomspace(0.5, 50.0, 9)
    prof = bsvy_inner_profile(f, lam, params, None, EXCLUDE_POLICY)
    sums = np.sum(prof, axis=tuple(range(1, prof.ndim))) * g.cell_volume
    sup_direct = float(np.max(lam * sums ** (1.0 / params.p)))
    assert weak_product_quasinorm(f, params, lam_grid=lam) == pytest.approx(
        sup_direct, rel=1e-12)


def test_weak_product_desk_sup():
    g = make_grid(1, 0.0, 1.0, 4096)
    f = sample(TestFunctionSpec("coordinate", axis=0), g)
    val = weak_product_quasinorm(f, BsvyParams(1.0, 1.0))
    assert val == pytest.approx(2.0, rel=0.04)


def test_weak_product_constant_zero():
    g = make_grid(1, 0.0, 1.0, 32)
    f = SampledField(g, np.ones(g.shape), np.zeros((1,) + g.shape))
    assert weak_product_quasinorm(f, BsvyParams(1.0, 1.0)) == 0.0


def test_weighted_mu_unit_square():
    # gamma = 1, n = 1: kernel |x-y|^0, all pairs of (0,1)^2 -> measure 1
    g = make_grid(1, 0.0, 1.0, 64)
    w = np.ones(g.shape)
    val = weighted_mu_measure(lambda xa, xb: np.ones(len(xa), dtype=bool), 1.0, w, None, g)
    assert val == pytest.approx(1.0, rel=0.02)


def test_weighted_mu_empty_set():
    g = make_grid(1, 0.0, 1.0, 16)
    w = np.ones(g.shape)
    val = weighted_mu_measure(lambda xa, xb: np.zeros(len(xa), dtype=bool), 1.0, w, None, g)
    assert val == 0.0


def test_weighted_mu_matches_level_set_measure():
    from normlab import oracles

    g = make_grid(1, -1.0, 1.0, 16)
    f = sample(TestFunctionSpec("gaussian", sigma=0.5), g)
    gamma, p, lam = 1.0, 2.0, 0.8
    coords = g.coords()
    flat = f.values.ravel()

    def pred(xa, xb):
        ia = np.searchsorted(coords[:, 0], xa[:, 0])
        ib = np.searchsorted(coords[:, 0], xb[:, 0])
        d = np.linalg.norm(xa - xb, axis=1)
        return np.abs(flat[ia] - flat[ib]) > lam * d ** (1 + gamma / p)

    val = weighted_mu_measure(pred, gamma, np.ones(g.shape), None, g)
    ref = oracles.pair_measure(flat, coords, g.cell_volume, lam, gamma, p)
    assert val == pytest.approx(ref, rel=1e-12)


# --------------------------------------------------------------------------
# weak Hoelder
# --------------------------------------------------------------------------


def test_weak_holder_zero_g():
    g = make_grid(1, 0.0, 1.0, 8)
    n = g.total_cells
    F = np.ones((n, n))
    res = weak_holder_check(F, np.zeros((n, n)), 1.0, np.ones(g.shape), 2.0, None, g)
    assert res.lhs == 0.0 and res.rhs == 0.0 and res.passed


def test_weak_holder_indicator_rectangle():
    g = make_grid(1, 0.0, 1.0, 8)
    n = g.total_cells
    F = np.zeros((n, n))
    F[:4, :4] = 1.0
    res = weak_holder_check(F, F.copy(), 1.0, np.ones(g.shape), 2.0, None, g)
    assert res.passed and res.margin >= 0.0


def test_weak_holder_rejects_bad_p():
    g = make_grid(1, 0.0, 1.0, 4)
    n = g.total_cells
    with pytest.raises(ValueError):
        weak_holder_check(np.ones((n, n)), np.ones((n, n)), 1.0, np.ones(g.shape), 1.0, None, g)


# --------------------------------------------------------------------------
# gradient norm
# --------------------------------------------------------------------------


def test_sobolev_norm_coordinate():
    g = make_grid(1, 0.0, 1.0, 64)
    f = sample(TestFunctionSpec("coordinate", axis=0), g)
    assert sobolev_norm(f, Lebesgue(1.0)) == pytest.approx(1.0, rel=1e-12)


def test_sobolev_norm_constant_zero():
    g = make_grid(1, 0.0, 1.0, 16)
    f = SampledField(g, np.ones(g.shape), np.zeros((1,) + g.shape))
    assert sobolev_norm(f, Lebesgue(2.0)) == 0.0


def test_sobolev_norm_gaussian_quadrature_oracle():
    g = make_grid(1, -8.0, 8.0, 2048)
    f = sample(TestFunctionSpec("gaussian"), g)
    # independent fine-quadrature oracle for (int 4 x^2 e^(-2x^2) dx)^(1/2)
    x = np.linspace(-8, 8, 200001)
    ref = np.trapezoid(4 * x ** 2 * np.exp(-2 * x ** 2), x) ** 0.5
    assert sobolev_norm(f, Lebesgue(2.0)) == pytest.approx(ref, abs=1e-6)


def test_sobolev_norm_fd_fallback():
    g = make_grid(1, -4.0, 4.0, 256)
    f0 = sample(TestFunctionSpec("gaussian"), g)
    f = SampledField(g, f0.values)  # gradient stripped
    a = sobolev_norm(f, Lebesgue(2.0))
    b = sobolev_norm(f0, Lebesgue(2.0))
    assert a == pytest.approx(b, rel=1e-3)


def test_profile_shape_invariants():
    # smooth f, gamma > 0: profile -> 0 at small lambda, adjacent grid values
    # differ by a bounded factor, and the tail past the argmax is nonincreasing
    g = make_grid(1, -2.0, 2.0, 64)
    f = sample(TestFunctionSpec("gaussian"), g)
    rep = bsvy_sup(f, BsvyParams(2.0, 2.0), Lebesgue(2.0))
    prof = np.array(rep.profile)
    assert prof[0] <= 0.01 * rep.sup
    pos = prof[:-1] > 0
    factors = prof[1:][pos] / prof[:-1][pos]
    assert np.all(factors <= 3.0) and np.all(factors >= 1.0 / 3.0)
    k = int(np.argmax(prof))
    tail = prof[k:]
    assert np.all(np.diff(tail) <= 1e-9 * rep.sup)


def test_convexify_identity_full_catalog():
    g = make_grid(1, -2.0, 2.0, 32)
    f = sample(TestFunctionSpec("gaussian", sigma=0.8, center=0.1), g)
    from normlab import (
        BesovBourgainMorrey,
        HerzGlobal,
        MixedNorm,
        Orlicz,
        OrliczFunction,
        OrliczSlice,
        VariableLebesgue,
        WeightedLebesgue,
        convexify,
        norm,
    )

    cases = [
        (WeightedLebesgue(4.0, a=0.5, center=0.3), 2.0),
        (Orlicz(OrliczFunction("two-power", 3.0, 5.0)), 2.0),
        (OrliczSlice(OrliczFunction("power", 4.0), 4.0, 0.4), 2.0),
        (BesovBourgainMorrey(3.0, 4.0, 6.0, 5.0), 2.0),
        (MixedNorm((4.0,)), 2.0),
        (VariableLebesgue(base=4.0, slope=0.5, axis=0), 1.5),
        (WeightedLebesgue(4.0, samples=1.0 + g.coords()[:, 0] ** 2), 2.0),
        (VariableLebesgue(samples=3.0 + 0.5 * np.sin(g.coords()[:, 0])), 1.5),
        (HerzGlobal(3.0, 3.0, -0.2), 1.5),
    ]
    for space, p in cases:
        fp = SampledField(g, np.abs(f.values) ** p)
        lhs = norm(fp, convexify(space, p)) ** (1.0 / p)
        rhs = norm(f, space)
        assert lhs == pytest.approx(rhs, rel=1e-9), space.tag


def test_dyadic_cover_other_dimensions():
    import math as m

    from normlab import dyadic_cover

    rng = np.random.default_rng(2)
    for n in (1, 3):
        bound = (6.0 * m.sqrt(n)) ** n
        vball = m.pi ** (n / 2) / m.gamma(n / 2 + 1)
        for _ in range(40):
            c = rng.uniform(-5.0, 5.0, size=n)
            r = float(np.exp(rng.uniform(np.log(1e-2), np.log(1e2))))
            hit = dyadic_cover(c, r)
            assert hit is not None
            assert hit[1].volume <= bound * vball * r ** n


def test_default_lambda_grid_scale():
    g = make_grid(1, 0.0, 1.0, 64)
    f = sample(TestFunctionSpec("coordinate", axis=0), g)
    lam = default_lambda_grid(f)
    assert lam[0] == pytest.approx(1e-3) and lam[-1] == pytest.approx(1e4)
    assert lam.size == 40


@pytest.mark.parametrize("c", [1 + 2.0 ** -40, 1 + 3 * 2.0 ** -40, 1 - 1e-9, 1.5, 3.0])
def test_bsvy_sup_homogeneous_on_flat_profile(c):
    # the profile is flat up to rounding over four decades of lambda; the
    # reported argmax must not depend on which last bit wins
    from normlab import MixedNorm

    g = make_grid(2, -2.0, 2.0, 32)
    f = sample(TestFunctionSpec("tent", width=1.5), g)
    fc = SampledField(g, c * f.values, c * f.analytic_gradient)
    omega = mask(parse_domain("ball:radius=1.3"), g)
    policy = KernelPolicy(near_window=2.5, subsample=8, subsample_window=8.0)
    params, space = BsvyParams(1.0, 2.0), MixedNorm((2.5, 3.0))
    rep = bsvy_sup(f, params, space, omega, policy)
    rep_c = bsvy_sup(fc, params, space, omega, policy)
    assert rep_c.sup / c == pytest.approx(rep.sup, rel=1e-12)
    assert rep_c.argmax_lam / c == pytest.approx(rep.argmax_lam, rel=1e-12)
