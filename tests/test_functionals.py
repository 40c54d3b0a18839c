import functools
import math
from pathlib import Path

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
    bsvy_sup,
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
from normlab.grid import parse_function
from normlab.experiments import load_config
from normlab.spaces import norm_many
from normlab.functionals import (
    DEFAULT_POLICY,
    EXCLUDE_POLICY,
    NEAR_CELLS,
    PAIR_BLOCK_CELLS,
    TAIL_TOL,
    _directional_extent_1d,
    _half_offsets,
    _pair_walk,
    _shell_table,
    _LevelSetKernel,
    _tail_bound,
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


@pytest.mark.parametrize("k", [2.5, 0, -1, math.nan, math.inf])
def test_kernel_policy_subsample_is_a_whole_number(k):
    with pytest.raises(ValueError, match="subsample factor must be a whole number >= 1"):
        KernelPolicy(subsample=k)
    assert KernelPolicy(subsample=8.0) == KernelPolicy(subsample=8)


# --------------------------------------------------------------------------
# Gagliardo seminorm
# --------------------------------------------------------------------------


def test_gagliardo_zero_for_constant():
    g = make_grid(1, 0.0, 1.0, 32)
    f = SampledField(g, np.full(g.shape, 2.0))
    assert gagliardo_seminorm_sweep(f, [0.5], 2.0, policy=EXCLUDE_POLICY)[0] == 0.0


def test_gagliardo_homogeneous_p1():
    g = make_grid(1, -2.0, 2.0, 32)
    f = sample(TestFunctionSpec("gaussian"), g)
    f2 = SampledField(g, 2.0 * f.values, 2.0 * f.analytic_gradient)
    a = gagliardo_seminorm_sweep(f, [0.4], 1.0)[0]
    b = gagliardo_seminorm_sweep(f2, [0.4], 1.0)[0]
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
                rhs = (1.0 - s) ** (1.0 / p) * gagliardo_seminorm_sweep(f, [s], p, None, policy)[0]
                assert lhs == pytest.approx(rhs, rel=1e-12)


@pytest.mark.parametrize("policy", [DEFAULT_POLICY, EXCLUDE_POLICY], ids=["default", "exclude"])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("masked", [False, True], ids=["full", "masked"])
@pytest.mark.parametrize("dim, npts", [(1, 64), (2, 16), (2, 40)])
def test_seminorm_is_the_summed_inner_field(dim, npts, masked, p, policy):
    # the two kernels share the walked pair sums, the FFT far field (2D 40^2
    # at p = 2 reaches it) and the frozen-gradient model, so |f|^p = vol sum_x inner
    g = make_grid(dim, -2.0, 2.0, npts)
    f = sample(TestFunctionSpec("gaussian", sigma=0.7, center=0.2), g)
    centre = ";".join(["0.3"] * dim)
    omega = mask(parse_domain(f"ball:center={centre},radius=1.5"), g) if masked else None
    s_values = [0.3, 0.7, 0.95]
    semi = gagliardo_seminorm_sweep(f, s_values, p, omega, policy)
    inner = fractional_inner_field(f, s_values, p, omega, policy)
    for val, row in zip(semi, inner):
        assert val ** p == pytest.approx(g.cell_volume * np.sum(row), rel=1e-13, abs=0.0)


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
        assert np.all(fractional_inner_field(f, [0.6], 2.0, omega, policy) == 0.0)


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
    inner = fractional_inner_field(f, [0.7], p)[0]
    inner_c = fractional_inner_field(fc, [0.7], p)[0]
    assert np.max(np.abs(inner_c / c ** p - inner)) <= 1e-12 * np.max(inner)


def test_gagliardo_domain_restriction():
    g = make_grid(1, -2.0, 2.0, 32)
    f = sample(TestFunctionSpec("gaussian"), g)
    omega = DomainMask(g, (g.coords()[:, 0] > 0).reshape(g.shape))
    full = gagliardo_seminorm_sweep(f, [0.5], 1.0, policy=EXCLUDE_POLICY)[0]
    part = gagliardo_seminorm_sweep(f, [0.5], 1.0, omega, EXCLUDE_POLICY)[0]
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
    inner = bsvy_inner_profile(f, [1.0], BsvyParams(1.0, 1.0), policy=EXCLUDE_POLICY)[0]
    assert np.all(inner == 0.0)


def test_bsvy_inner_desk_geometry():
    # f(x) = x, gamma = p = 1: inner(x) = min(x, 1/lam) + min(1-x, 1/lam)
    g = make_grid(1, 0.0, 1.0, 512)
    f = sample(TestFunctionSpec("coordinate", axis=0), g)
    lam = 4.0
    inner = bsvy_inner_profile(f, [lam], BsvyParams(1.0, 1.0), policy=KernelPolicy(near_window=24.0))[0]
    x = g.axis_centers(0)
    ref = np.minimum(x, 1 / lam) + np.minimum(1 - x, 1 / lam)
    assert np.max(np.abs(inner - ref)) <= 3.0 * g.cell_size[0]


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
        bsvy_inner_profile(f, [-1.0], BsvyParams(1.0, 1.0))


@pytest.mark.parametrize("lam", [math.inf, math.nan])
def test_bsvy_values_rejects_non_finite_lambda(lam):
    g = make_grid(1, 0.0, 1.0, 16)
    f = sample(TestFunctionSpec("coordinate", axis=0), g)
    with pytest.raises(ValueError, match="lambda values must be positive and finite"):
        bsvy_values(f, [1.0, lam], BsvyParams(1.0, 1.0), Lebesgue(2.0))


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
    assert gagliardo_seminorm_sweep(f1, [0.5], 2.0, m1)[0] == pytest.approx(
        gagliardo_seminorm_sweep(f2, [0.5], 2.0, m2)[0], rel=1e-12)


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


def test_geomspace_equals_numpy_bit_for_bit():
    import normlab.functionals as F

    rng = np.random.default_rng(11)
    for _ in range(300):
        start, stop = 10.0 ** rng.uniform(-300, 300, 2)
        num, endpoint = int(rng.integers(2, 50)), bool(rng.integers(2))
        assert np.array_equal(F._geomspace(start, stop, num, endpoint),
                              np.geomspace(start, stop, num, endpoint=endpoint))
    for args in ((2.5, 2.5, 7), (1.0, 100.0, 1), (1.0, 100.0, 0), (5e-324, 1.0, 12)):
        assert np.array_equal(F._geomspace(*args), np.geomspace(*args))


@pytest.mark.parametrize("width", [2, 3, 5, 6, 7, 8, 9, 16, 25, 27, 64])
def test_count_below_equals_a_search(width):
    # each x above its row's first threshold and at most its last, ties
    # included: the count of thresholds strictly below x, as a left search
    import normlab.functionals as F

    rng = np.random.default_rng(width)
    thr = np.sort(rng.integers(0, 4 * width, (6, width)).astype(float), axis=1)
    thr[:, -1] += 1.0  # room above the first threshold
    rows = rng.integers(0, 6, 400)
    x = rng.uniform(thr[rows, 0], thr[rows, -1])
    x[::3] = thr[rows[::3], rng.integers(1, width, x[::3].size)]
    x = np.where(x > thr[rows, 0], x, thr[rows, -1])
    want = [np.searchsorted(thr[r], v) for r, v in zip(rows, x)]
    assert np.array_equal(F._count_below(thr, rows, x), want)


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


def test_bsvy_sup_takes_the_finite_argmax_and_flags_a_nan_profile(monkeypatch):
    # a NaN makes every comparison with the profile maximum False; the search
    # must neither stop at the first lambda nor hide the NaN
    g = make_grid(1, -2.0, 2.0, 32)
    f = sample(TestFunctionSpec("tent", width=1.5, center=0.1), g)
    params, space = BsvyParams(1.0, 2.0), Lebesgue(2.0)
    ref = bsvy_sup(f, params, space)
    lam = default_lambda_grid(f)
    nan_row = 0 if ref.argmax_lam > lam[1] else lam.size - 1
    evaluate, calls = Lebesgue.evaluate, []

    def nan_on_one_row(self, values, grid):
        out = evaluate(self, values, grid)
        if not calls:
            out[nan_row] = np.nan
        calls.append(len(values))
        return out

    monkeypatch.setattr(Lebesgue, "evaluate", nan_on_one_row)
    rep = bsvy_sup(f, params, space)
    assert "nan-profile" in rep.flags and "nan-profile" not in ref.flags
    assert np.count_nonzero(np.isnan(rep.profile)) == 1
    assert (rep.sup, rep.argmax_lam, rep.lam_grid) == (ref.sup, ref.argmax_lam, ref.lam_grid)


# --------------------------------------------------------------------------
# shared searches and s-batched inner fields
# --------------------------------------------------------------------------


@pytest.mark.parametrize("dim, texts", [(1, CATALOG_1D), (2, ("mixed:r=2.5;3",))])
@pytest.mark.parametrize("domain", [None, "ball:radius=1.3"])
@pytest.mark.parametrize("gamma", [1.0, 2.0, -1.0])
def test_bsvy_sups_equal_per_space_sups(dim, texts, domain, gamma, monkeypatch):
    import normlab.functionals as F

    g = make_grid(dim, -2.0, 2.0, 32 if dim == 1 else 16)
    f = sample(TestFunctionSpec("tent", width=1.5, center=0.1), g)
    omega = None if domain is None else mask(parse_domain(domain), g)
    policy = KernelPolicy(near_window=2.5, subsample=8, subsample_window=8.0)
    params, spaces = BsvyParams(gamma, 2.0), [parse_space(t) for t in texts]
    alone = [bsvy_sup(f, params, space, omega, policy) for space in spaces]
    batches = []
    profile = F._LevelSetKernel.profile

    def counted(kernel, lams):
        batches.append(list(lams))
        return profile(kernel, lams)

    monkeypatch.setattr(F._LevelSetKernel, "profile", counted)
    shared = F.bsvy_sups(f, params, spaces, omega, policy)
    assert [r.__dict__ for r in shared] == [r.__dict__ for r in alone]
    # grid, extension, refinement: at most three rounds, no lambda computed twice
    requested = [lam for batch in batches for lam in batch]
    assert len(batches) <= 3 and len(requested) == len(set(requested))


def test_bsvy_sups_shared_extension_requested_once(monkeypatch):
    # on a grid that starts a decade above the default one, the gamma = -1
    # argmax sits at its low end for most kinds and no tail bound is within
    # TAIL_TOL, so they all ask for the same ten extension lambdas
    import normlab.functionals as F

    g = make_grid(1, -2.0, 2.0, 32)
    f = sample(TestFunctionSpec("tent", width=1.5, center=0.1), g)
    params, spaces = BsvyParams(-1.0, 2.0), [parse_space(t) for t in CATALOG_1D]
    grid0 = 10.0 * default_lambda_grid(f)
    batches = []
    profile = F._LevelSetKernel.profile

    def counted(kernel, lams):
        batches.append(np.asarray(lams))
        return profile(kernel, lams)

    monkeypatch.setattr(F._LevelSetKernel, "profile", counted)
    reps = F.bsvy_sups(f, params, spaces, lam_grid=grid0)
    assert not any("sup_upper" in r.extra for r in reps)
    low = [r for r in reps if r.extended and r.lam_grid[0] < grid0[0]]
    assert len(low) >= 2
    ext = np.geomspace(grid0[0] / 100.0, grid0[0], 10, endpoint=False)
    assert all(set(ext.tolist()) <= set(r.lam_grid) for r in low)
    assert sum(np.count_nonzero(np.isin(b, ext)) for b in batches) == ext.size
    assert [r.__dict__ for r in reps] == [bsvy_sup(f, params, s, lam_grid=grid0).__dict__
                                          for s in spaces]


def test_bsvy_sups_certified_tail_stops_after_the_grid(monkeypatch):
    # on the default grid most gamma = -1 sups are at its low end and
    # certified by the tail bound; a call on those spaces alone makes one
    # profile call: no extension, no refinement
    import normlab.functionals as F

    g = make_grid(1, -2.0, 2.0, 32)
    f = sample(TestFunctionSpec("tent", width=1.5, center=0.1), g)
    params, spaces = BsvyParams(-1.0, 2.0), [parse_space(t) for t in CATALOG_1D]
    grid0 = default_lambda_grid(f)
    reps = F.bsvy_sups(f, params, spaces)
    certified = [space for space, rep in zip(spaces, reps) if "sup_upper" in rep.extra]
    assert len(certified) >= 2
    for rep in reps:
        if "sup_upper" in rep.extra:
            assert rep.sup <= rep.extra["sup_upper"] <= rep.sup * (1.0 + TAIL_TOL)
            assert (rep.sup, rep.argmax_lam) == (rep.profile[0], grid0[0])
            assert rep.lam_grid == grid0.tolist()
            assert rep.endpoint and not rep.extended and "endpoint-argmax" in rep.flags
    assert [r.__dict__ for r in reps] == [bsvy_sup(f, params, s).__dict__ for s in spaces]
    batches = []
    profile = F._LevelSetKernel.profile

    def counted(kernel, lams):
        batches.append(np.asarray(lams))
        return profile(kernel, lams)

    monkeypatch.setattr(F._LevelSetKernel, "profile", counted)
    again = F.bsvy_sups(f, params, certified)
    assert len(batches) == 1 and np.array_equal(batches[0], grid0)
    assert all("sup_upper" in rep.extra for rep in again)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("case", ["1d", "masked-2d"])
def test_fractional_inner_rows_do_not_depend_on_the_s_batch(p, case):
    if case == "1d":
        g = make_grid(1, -4.0, 4.0, 256)  # 238 offsets beyond NEAR_CELLS at p = 2
        f, omega = sample(TestFunctionSpec("gaussian", sigma=0.7, center=0.3), g), None
    else:
        g = make_grid(2, (-0.8, -0.84), (0.8, 0.84), (16, 24))  # h = (0.1, 0.07)
        f = sample(TestFunctionSpec("gaussian", sigma=0.5, center=(0.2, -0.1)), g)
        omega = mask(parse_domain("ball:center=0.1;0.0,radius=0.75"), g)
    s_values = [0.3, 0.6, 0.875, 0.95]
    for policy in (DEFAULT_POLICY, EXCLUDE_POLICY):
        batch = fractional_inner_field(f, s_values, p, omega, policy)
        assert batch.shape == (len(s_values),) + g.shape
        backward = fractional_inner_field(f, s_values[::-1], p, omega, policy)[::-1]
        for s, row, row_b in zip(s_values, batch, backward):
            alone = fractional_inner_field(f, [s], p, omega, policy)[0]
            assert np.array_equal(row, alone) and np.array_equal(row_b, alone)
    assert fractional_inner_field(f, [], p, omega).shape == (0,) + g.shape


def test_bbm_scaled_sweep_equals_single_values():
    from normlab.functionals import bbm_scaled_sweep

    g = make_grid(1, -4.0, 4.0, 128)
    f = sample(TestFunctionSpec("gaussian", sigma=0.7), g)
    omega = mask(parse_domain("ball:radius=3.1"), g)
    spaces = [Lebesgue(3.0), parse_space("lorentz:r=3,tau=2.5"), parse_space("morrey:alpha=4,r=2")]
    s_values = [0.6, 0.8, 0.95]
    for p in (1.0, 2.0):
        table = bbm_scaled_sweep(f, s_values, p, spaces, omega)
        assert table.shape == (3, 3)
        assert table.tolist() == [[bbm_scaled_value(f, s, p, space, omega) for s in s_values]
                                  for space in spaces]


# --------------------------------------------------------------------------
# level-set sup and Sobolev norm at extreme scales
# --------------------------------------------------------------------------


@pytest.mark.parametrize("c", [1e200, 1e-200])
@pytest.mark.parametrize("gamma", [1.0, -1.0])
@pytest.mark.parametrize("dim, text", [(1, "lorentz:r=3,tau=2.5"), (2, "mixed:r=2.5;3")])
def test_bsvy_sup_homogeneous_at_extreme_scales(dim, text, gamma, c):
    g = make_grid(dim, -2.0, 2.0, 64 if dim == 1 else 16)
    f = sample(TestFunctionSpec("gaussian", sigma=0.8, center=0.2), g)
    fc = SampledField(g, c * f.values, c * f.analytic_gradient)
    omega = mask(parse_domain("ball:radius=1.3"), g)
    policy = KernelPolicy(near_window=2.5, subsample=8, subsample_window=8.0)
    params, space = BsvyParams(gamma, 2.0), parse_space(text)
    rep = bsvy_sup(f, params, space, omega, policy)
    rep_c = bsvy_sup(fc, params, space, omega, policy)
    assert rep_c.flags == rep.flags and "degenerate" not in rep_c.flags
    assert rep_c.sup / c == pytest.approx(rep.sup, rel=1e-12)
    assert rep_c.argmax_lam / c == pytest.approx(rep.argmax_lam, rel=1e-12)
    assert np.allclose(np.divide(rep_c.lam_grid, c), rep.lam_grid, rtol=1e-12, atol=0.0)
    prof, prof_c = np.array(rep.profile), np.divide(rep_c.profile, c)
    assert prof_c.shape == prof.shape
    assert np.max(np.abs(prof_c - prof)) <= 1e-12 * np.max(prof)


@pytest.mark.parametrize("c", [1e200, 1e-200])
@pytest.mark.parametrize("dim, text", [(1, "lorentz:r=3,tau=2.5"), (2, "mixed:r=2.5;3")])
def test_sobolev_norm_homogeneous_at_extreme_scales(dim, text, c):
    g = make_grid(dim, -2.0, 2.0, 64 if dim == 1 else 16)
    f = sample(TestFunctionSpec("gaussian", sigma=0.8, center=0.2), g)
    omega = mask(parse_domain("ball:radius=1.3"), g)
    space = parse_space(text)
    for grad in (f.analytic_gradient, None):  # analytic and finite-difference gradients
        fa = SampledField(g, f.values, grad)
        fc = SampledField(g, c * f.values, None if grad is None else c * grad)
        ref = sobolev_norm(fa, space, omega)
        assert sobolev_norm(fc, space, omega) / c == pytest.approx(ref, rel=1e-12)


# --------------------------------------------------------------------------
# the pair walk stays in the domain's bounding box
# --------------------------------------------------------------------------


@pytest.mark.parametrize("policy", [DEFAULT_POLICY, EXCLUDE_POLICY], ids=["default", "exclude"])
@pytest.mark.parametrize("domain", ["ball:radius=1.3", "halfspace:axis=0,offset=-0.4"])
@pytest.mark.parametrize("dim, npts", [(1, 32), (2, 16)])
def test_pair_kernels_ignore_out_of_domain_padding(dim, npts, domain, policy):
    # the same field and domain on [-2, 2] and on [-3, 3] with the same cells:
    # the cells added around the box lie outside the domain and hold junk
    small = make_grid(dim, -2.0, 2.0, npts)
    big = make_grid(dim, -3.0, 3.0, npts * 3 // 2)
    assert big.cell_size == small.cell_size
    spec = TestFunctionSpec("gaussian", sigma=0.8, center=0.2)
    f = sample(spec, small)
    cells = mask(parse_domain(domain, box=(small.lo, small.hi)), small).cells
    inner = (slice(npts // 4, npts // 4 + npts),) * dim
    values = np.full(big.shape, 7.0)
    values[inner] = f.values
    grad = sample(spec, big).analytic_gradient
    grad[(slice(None),) + inner] = f.analytic_gradient
    fb = SampledField(big, values, grad)
    cells_b = np.zeros(big.shape, dtype=bool)
    cells_b[inner] = cells
    omega, omega_b = DomainMask(small, cells), DomainMask(big, cells_b)

    def on_domain(a, b):
        return a[(Ellipsis,) + (cells,)], b[(Ellipsis,) + inner][(Ellipsis,) + (cells,)]

    lams = np.geomspace(1e-2, 1e2, 9)
    for gamma in (2.0, -1.0):
        params = BsvyParams(gamma, 2.0)
        assert np.array_equal(*on_domain(bsvy_inner_profile(f, lams, params, omega, policy),
                                         bsvy_inner_profile(fb, lams, params, omega_b, policy)))
    s_values = [0.3, 0.7, 0.95]
    assert np.array_equal(*on_domain(fractional_inner_field(f, s_values, 1.0, omega, policy),
                                     fractional_inner_field(fb, s_values, 1.0, omega_b, policy)))
    for p in (1.0, 2.0):
        ref = gagliardo_seminorm_sweep(f, s_values, p, omega, policy)
        got = gagliardo_seminorm_sweep(fb, s_values, p, omega_b, policy)
        assert np.allclose(got, ref, rtol=1e-14, atol=0.0)


def _offset_pairs(cells, off):
    """The slices of the cells x and x + off of the whole grid, computed apart
    from the walk, and whether each such pair is a domain pair."""
    sa = tuple(slice(max(0, -o), n - max(0, o)) for o, n in zip(off, cells.shape))
    sb = tuple(slice(max(0, o), n - max(0, -o)) for o, n in zip(off, cells.shape))
    return sa, sb, cells[sa] & cells[sb]


def _block_pairs(blk, number):
    """Per offset of a block, with the cell numbers walked as ``number``: the
    offset and the cell pairs (x, x + o) that ``restrict`` keeps."""
    here, there = np.broadcast_to(blk.here(number), blk.shape), blk.there(number)
    pm = blk.restrict(np.ones(blk.shape)) > 0
    for j, off in enumerate(blk.offs.tolist()):
        yield off, here[j][pm[j]].astype(int), there[j][pm[j]].astype(int)


@pytest.mark.parametrize("policy", [DEFAULT_POLICY, EXCLUDE_POLICY], ids=["default", "exclude"])
@pytest.mark.parametrize("dim, npts, domain", [
    (1, 40, "ball:center=0.7,radius=0.6"),
    (2, 14, "ball:center=0.5;-0.3,radius=0.9"),
    (2, (12, 10), "halfspace:axis=1,offset=0.6"),
])
def test_masked_pair_walk_stays_in_the_domain_box(dim, npts, domain, policy):
    g = make_grid(dim, -2.0, 2.0, npts)
    cells = mask(parse_domain(domain, box=(g.lo, g.hi)), g).cells
    idx = np.nonzero(cells)
    first = np.array([i.min() for i in idx])
    span = np.array([i.max() for i in idx]) - first
    assert np.any(span < np.array(g.shape) - 1)  # the crop does something
    removed_full, full = _pair_walk(g, None, _half_offsets(g, policy))
    removed, walk = _pair_walk(g, cells, _half_offsets(g, policy))
    number = walk.field(np.arange(cells.size, dtype=float).reshape(g.shape))
    assert removed == removed_full
    walked = {}
    for blk in walk:
        for (off, x, y), dist in zip(_block_pairs(blk, number), blk.dists):
            assert np.all(np.abs(off) <= span)
            xs, ys = np.unravel_index(x, g.shape), np.unravel_index(y, g.shape)
            for ax in range(dim):  # both ends inside the box, one offset apart
                for ends in (xs[ax], ys[ax]):
                    assert np.all((first[ax] <= ends) & (ends <= first[ax] + span[ax]))
                assert np.array_equal(ys[ax] - xs[ax], np.full(x.size, off[ax]))
            # the pair mask marks exactly the pairs of domain cells of the
            # offset's slices, whose starts place them
            sa, _, pm = _offset_pairs(cells, off)
            pairs = [i + s.start for i, s in zip(np.nonzero(pm), sa)]
            assert np.array_equal(np.sort(x), np.sort(np.ravel_multi_index(pairs, g.shape)))
            assert np.all(cells.ravel()[x] & cells.ravel()[y])
            walked[tuple(off)] = dist
    kept = 0
    for blk in full:
        for off, dist in zip(blk.offs.tolist(), blk.dists):
            if tuple(off) in walked:
                assert walked[tuple(off)] == dist
                kept += 1
            else:  # a skipped offset holds no pair of domain cells
                assert not np.any(_offset_pairs(cells, off)[2])
    assert kept == len(walked)


WALK_DOMAINS = {
    1: [None, "ball:center=0.3,radius=1.1", "halfspace:axis=0,offset=-0.5",
        "lshape:lo1=-1.5,hi1=-0.5,lo2=0.2,hi2=1.4"],
    2: [None, "ball:center=0.3;-0.2,radius=1.1", "halfspace:axis=1,offset=0.4",
        "lshape:lo1=-1.5;-1.5,hi1=1.5;0,lo2=-1.5;-1.5,hi2=0;1.5"],
    3: [None, "ball:center=0.3;-0.2;0.1,radius=1.3", "halfspace:axis=2,offset=0.4",
        "lshape:lo1=-1.5;-1.5;-1.5,hi1=1.5;0;1.5,lo2=-1.5;-1.5;-1.5,hi2=0;1.5;1.5"],
}


@pytest.mark.parametrize("budget", [PAIR_BLOCK_CELLS, 150])
@pytest.mark.parametrize("radius", [math.inf, NEAR_CELLS], ids=["all", "near"])
@pytest.mark.parametrize("policy", [DEFAULT_POLICY, EXCLUDE_POLICY], ids=["default", "exclude"])
@pytest.mark.parametrize("dim, npts, domain", [
    (dim, npts, d) for dim, npts in ((1, 70), (2, (20, 23)), (3, 7)) for d in WALK_DOMAINS[dim]])
def test_blocked_walk_covers_every_offset_once(dim, npts, domain, policy, radius, budget,
                                               monkeypatch):
    # the offset set of the per-offset walk: kept, within the radius and, with
    # a mask, within the domain's bounding box; each once, in blocks that stay
    # under the cell budget (the default one, and one that cuts these grids'
    # runs into many blocks)
    import normlab.functionals as F

    monkeypatch.setattr(F, "PAIR_BLOCK_CELLS", budget)
    g = make_grid(dim, -2.0, 2.0, npts)
    cells = None if domain is None else mask(parse_domain(domain, box=(g.lo, g.hi)), g).cells
    offs, dists, keep = half = _half_offsets(g, policy)
    expect = keep & (np.abs(offs).max(axis=1) <= radius)
    if cells is not None:
        idx = np.nonzero(cells)
        expect &= np.all(np.abs(offs) <= np.array([i.max() - i.min() for i in idx]), axis=1)
    seen = []
    for blk in _pair_walk(g, cells, half, radius=radius)[1]:
        assert len(blk.dists) == 1 or math.prod(blk.shape) <= budget
        assert np.all(np.diff(blk.offs[:, -1]) == 1) and np.all(blk.offs[:, :-1] == blk.offs[0, :-1])
        assert np.all(blk.offs[:, -1] >= 0) or np.all(blk.offs[:, -1] < 0)  # monotone lengths
        seen += [tuple(o) for o in blk.offs.tolist()]
    assert len(seen) == len(set(seen))
    assert sorted(seen) == sorted(tuple(o) for o in offs[expect].tolist())


# small cell budgets that split the walk's runs into several blocks of
# several offsets on these grids
MULTI_BLOCK = {
    "1d": (make_grid(1, -2.0, 2.0, 64), None, 256),
    "masked-2d": (make_grid(2, -2.0, 2.0, (14, 12)), "ball:center=0.3;-0.2,radius=1.7", 300),
    "3d": (make_grid(3, -1.5, 1.5, 6), None, 400),
}


@pytest.fixture(params=MULTI_BLOCK, ids=MULTI_BLOCK)
def multi_block(request, monkeypatch):
    import normlab.functionals as F

    g, domain, budget = MULTI_BLOCK[request.param]
    monkeypatch.setattr(F, "PAIR_BLOCK_CELLS", budget)
    omega = None if domain is None else mask(parse_domain(domain, box=(g.lo, g.hi)), g)
    cells = None if omega is None else omega.cells
    runs = {}
    for blk in _pair_walk(g, cells, _half_offsets(g, EXCLUDE_POLICY))[1]:
        run = (tuple(blk.offs[0, :-1]), blk.offs[0, -1] > 0)
        runs[run] = runs.get(run, []) + [len(blk.dists)]
    assert max(len(b) for b in runs.values()) >= 3 and max(max(b) for b in runs.values()) >= 2
    f = sample(TestFunctionSpec("gaussian", sigma=0.7, center=0.2), g)
    on = np.ones(g.shape, dtype=bool) if cells is None else cells
    return g, f, omega, f.values[on], g.coords()[on.ravel()], on


@pytest.mark.parametrize("p", [1.0, 1.5])
def test_multi_block_gagliardo_against_oracle(multi_block, p):
    g, f, omega, v, x, _ = multi_block
    mine = gagliardo_seminorm_sweep(f, [0.4, 0.8], p, omega, EXCLUDE_POLICY)
    for s, val in zip([0.4, 0.8], mine):
        assert val == pytest.approx(oracles.gagliardo(v, x, g.cell_volume, s, p), rel=1e-12)


@pytest.mark.parametrize("p", [1.0, 1.5])
def test_multi_block_fractional_inner_against_oracle(multi_block, p):
    g, f, omega, v, x, on = multi_block
    mine = fractional_inner_field(f, [0.7], p, omega, EXCLUDE_POLICY)[0]
    ref = oracles.fractional_inner(v, x, g.cell_volume, 0.7, p)
    assert np.all(mine[~on] == 0.0)
    assert np.max(np.abs(mine[on] - ref)) <= 1e-12 * np.max(ref)


@pytest.mark.parametrize("gamma", [1.0, -1.0])
def test_multi_block_level_set_against_oracle(multi_block, gamma):
    g, f, omega, v, x, on = multi_block
    lams = [0.3, 1.1]
    rows = bsvy_inner_profile(f, lams, BsvyParams(gamma, 2.0), omega, EXCLUDE_POLICY)
    for lam, row in zip(lams, rows):
        ref = oracles.level_set_inner(v, x, g.cell_volume, lam, gamma, 2.0)
        assert np.all(row[~on] == 0.0)
        assert np.max(np.abs(row[on] - ref)) <= 1e-12 * np.max(ref)


def test_multi_block_weighted_mu_measure_against_oracle(multi_block):
    # a non-uniform weight and a predicate that is not symmetric in its ends,
    # so each ordered pair must meet the predicate and weight of its own x
    g, _, omega, _, x, on = multi_block
    w = 1.0 + np.sum(g.coords() ** 2, axis=1).reshape(g.shape)

    def pred(xa, xb):
        return xa[:, 0] + 0.3 * xa[:, -1] < 0.8 * xb[:, 0] + 0.1

    mine = weighted_mu_measure(pred, 1.5, w, omega, g)
    ref = oracles.weighted_pair_measure(pred, x, w[on], g.cell_volume, 1.5)
    assert ref > 0.0
    assert mine == pytest.approx(ref, rel=1e-12)


def test_multi_block_pair_measure_against_oracle(multi_block):
    g, f, omega, v, x, _ = multi_block
    lams = np.geomspace(0.05, 5.0, 5)
    mine = weak_product_quasinorm(f, BsvyParams(1.0, 2.0), omega, lam_grid=lams)
    ref = max(lam * oracles.pair_measure(v, x, g.cell_volume, lam, 1.0, 2.0) ** 0.5 for lam in lams)
    assert mine == pytest.approx(ref, rel=1e-12)


# --------------------------------------------------------------------------
# the level-set kernel's shared all-member rows
# --------------------------------------------------------------------------


@pytest.fixture
def level_set_adds(monkeypatch):
    """Each boolean stack the level-set kernel adds, in order: its block and
    the number of leading rows one shared sum of its nonzero-increment stack
    went to (0 for the membership stack of a row group)."""
    import normlab.functionals as F

    calls = []
    add = F._Block.add

    def spy(self, target, stack, weights=None, first=0):
        if stack.dtype == bool:
            calls.append((self, len(target) if stack.ndim == len(self.shape) else 0))
        return add(self, target, stack, weights, first)

    monkeypatch.setattr(F._Block, "add", spy)
    return calls


def _check_linear_f_against_oracle(g, omega, on, adds, fn):
    # f = x: the pairs of an offset share one increment up to rounding, so each
    # block's leading rows hold all of them, and the rows after that only some;
    # a tent's flat tails give pairs of zero increment, members on no row
    f = sample(parse_function(fn), g)
    lams = np.geomspace(0.02, 20.0, 8)
    rows = bsvy_inner_profile(f, lams, BsvyParams(1.0, 2.0), omega, EXCLUDE_POLICY)
    for lam, row in zip(lams, rows):
        ref = oracles.level_set_inner(f.values[on], g.coords()[on.ravel()], g.cell_volume, lam, 1.0, 2.0)
        assert np.all(row[~on] == 0.0)
        assert np.max(np.abs(row[on] - ref)) <= 1e-12 * np.max(ref)
    # some block adds shared rows, then row groups
    assert any(a[0] is b[0] and a[1] and not b[1] for a, b in zip(adds, adds[1:]))


@pytest.mark.parametrize("dim, npts", [(1, 48), (2, 12)])
@pytest.mark.parametrize("domain", ["full", "ball:radius=1.3"])
def test_shared_rows_of_linear_f_match_oracle(level_set_adds, monkeypatch, dim, npts, domain):
    import normlab.functionals as F

    g = make_grid(dim, -2.0, 2.0, npts)
    omega = None if domain == "full" else mask(parse_domain(domain), g)
    on = np.ones(g.shape, dtype=bool) if omega is None else omega.cells
    _check_linear_f_against_oracle(g, omega, on, level_set_adds, "coordinate:axis=0")
    # the tent's runs of offsets share rows once cut into small blocks
    monkeypatch.setattr(F, "PAIR_BLOCK_CELLS", 60)
    level_set_adds.clear()
    _check_linear_f_against_oracle(g, omega, on, level_set_adds, "tent:width=1.5")


def test_multi_block_shared_rows_match_oracle(multi_block, level_set_adds):
    g, _, omega, _, _, on = multi_block
    for fn in ("coordinate:axis=0", "tent:width=1.5"):
        level_set_adds.clear()
        _check_linear_f_against_oracle(g, omega, on, level_set_adds, fn)


def test_criterion_4_batch_rows_equal_single_lambda_rows(level_set_adds):
    g = make_grid(1, 0.0, 1.0, 2048)
    f = sample(TestFunctionSpec("coordinate", axis=0), g)
    params, policy = BsvyParams(1.0, 1.0), KernelPolicy(near_window=160.0)
    lams = default_lambda_grid(f)
    rows = bsvy_inner_profile(f, lams, params, None, policy)
    assert any(n for _, n in level_set_adds)
    level_set_adds.clear()
    for lam, row in zip(lams, rows):
        assert np.array_equal(row, bsvy_inner_profile(f, [lam], params, None, policy)[0])
    # a one-lambda batch never looks for shared rows
    assert level_set_adds and not any(n for _, n in level_set_adds)


# --------------------------------------------------------------------------
# the gamma < 0 tail bound of the lambda search
# --------------------------------------------------------------------------

CRIT12_POLICY = KernelPolicy(near_window=2.5, subsample=8, subsample_window=8.0)
TAIL_POLICIES = {"default": DEFAULT_POLICY, "criterion-12": CRIT12_POLICY, "exclude": EXCLUDE_POLICY}
CATALOG_2D = load_config(Path(__file__).resolve().parents[1] / "configs" / "bsvy_2d_catalog.ini").spaces


@pytest.mark.parametrize("policy", TAIL_POLICIES.values(), ids=TAIL_POLICIES.keys())
@pytest.mark.parametrize("domain", [None, "ball:radius=1.3"])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("gamma, p", [(-1.0, 1.0), (-1.0, 2.0), (-0.5, 1.0), (-0.5, 2.0)])
def test_tail_bound_covers_every_lambda_below_the_second_grid_point(gamma, p, dim, domain, policy):
    # Phi(lam) = lam ||inner(lam)^(1/p)||_X <= U = ||B^(1/p)||_X for lam <= lam_1,
    # and Phi tends to ||M^(1/p)||_X as lam -> 0 (0 under "exclude")
    g = make_grid(dim, -2.0, 2.0, 64 if dim == 1 else 16)
    f = sample(TestFunctionSpec("tent", width=1.5, center=0.1), g)
    omega = None if domain is None else mask(parse_domain(domain), g)
    params = BsvyParams(gamma, p)
    lam1 = default_lambda_grid(f, omega)[1]
    limit, bound = _tail_bound(_LevelSetKernel(f, params, omega, policy), lam1)
    lams = np.geomspace(lam1 * 1e-4, lam1, 200)
    # what bsvy_values computes, with one profile for every space
    roots = bsvy_inner_profile(f, lams, params, omega, policy) ** (1.0 / p)
    for space in [parse_space(t) for t in CATALOG_1D] if dim == 1 else CATALOG_2D:
        vals = lams * norm_many(roots, g, space, omega)
        upper = norm_many(bound[None] ** (1.0 / p), g, space, omega)[0]
        low = norm_many(limit[None] ** (1.0 / p), g, space, omega)[0]
        assert np.all(vals <= upper * (1.0 + 1e-12)), space
        # at t = lam^p the model falls short of its limit by t cap^gamma per direction
        assert low * (1.0 - 1e-6) <= vals[0] <= upper, space


@pytest.mark.parametrize("policy", TAIL_POLICIES.values(), ids=TAIL_POLICIES.keys())
@pytest.mark.parametrize("domain", [None, "ball:radius=1.3"])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("gamma", [1.0, 2.0, -1.0])
def test_inner_profile_rows_nonincreasing_in_lambda(gamma, dim, domain, policy):
    # the level sets shrink as lambda grows, and so does the analytic model
    g = make_grid(dim, -2.0, 2.0, 64 if dim == 1 else 16)
    f = sample(TestFunctionSpec("tent", width=1.5, center=0.1), g)
    omega = None if domain is None else mask(parse_domain(domain), g)
    lams = np.geomspace(1e-5, 1e5, 61)
    rows = bsvy_inner_profile(f, lams, BsvyParams(gamma, 2.0), omega, policy)
    assert np.all(np.diff(rows, axis=0) <= 0.0)
    assert np.any(np.diff(rows, axis=0) < 0.0)


@pytest.mark.parametrize("policy", TAIL_POLICIES.values(), ids=TAIL_POLICIES.keys())
@pytest.mark.parametrize("domain", [None, "ball:radius=1.3"])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("fn", ["gaussian:sigma=0.7,center=0.2", "coordinate:axis=0"])
@pytest.mark.parametrize("gamma, p", [(1.0, 1.0), (-0.5, 1.0), (-1.0, 1.5)])
def test_inner_profile_rows_nonincreasing_for_smooth_and_linear_f(gamma, p, fn, dim, domain, policy):
    # a linear f gives every pair of an offset the same increment, so whole
    # offsets and sub-cell prefixes enter the level sets at once; the rows
    # must not depend on the order of the lambda batch either
    g = make_grid(dim, -2.0, 2.0, 64 if dim == 1 else 16)
    f = sample(parse_function(fn), g)
    omega = None if domain is None else mask(parse_domain(domain), g)
    lams = np.geomspace(1e-4, 1e4, 57)
    rows = bsvy_inner_profile(f, lams, BsvyParams(gamma, p), omega, policy)
    assert np.all(np.diff(rows, axis=0) <= 0.0)
    assert np.any(np.diff(rows, axis=0) < 0.0)
    assert np.array_equal(bsvy_inner_profile(f, lams[::-1], BsvyParams(gamma, p), omega, policy), rows[::-1])


# --------------------------------------------------------------------------
# one level-set kernel per sup
# --------------------------------------------------------------------------

KERNEL_GRIDS = {1: make_grid(1, -2.0, 2.0, 40), 2: make_grid(2, -2.0, 2.0, 12), 3: make_grid(3, -1.5, 1.5, 6)}


@pytest.mark.parametrize("budget", [PAIR_BLOCK_CELLS, 150], ids=["default-budget", "small-budget"])
@pytest.mark.parametrize("policy", TAIL_POLICIES.values(), ids=TAIL_POLICIES.keys())
@pytest.mark.parametrize("domain", ["full", "ball:radius=1.3", "halfspace:axis=0,offset=0.3"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_kernel_batches_equal_fresh_profiles(dim, domain, policy, budget, monkeypatch):
    # one kernel serves several batches: a high unsorted one that visits few
    # blocks, an overlapping wider one, and one lambda; each batch's rows are
    # the bits of a fresh profile of that batch
    import normlab.functionals as F

    monkeypatch.setattr(F, "PAIR_BLOCK_CELLS", budget)
    g = KERNEL_GRIDS[dim]
    f = sample(TestFunctionSpec("gaussian", sigma=0.8, center=0.2), g)
    omega = None if domain == "full" else mask(parse_domain(domain, box=(g.lo, g.hi)), g)
    lam = default_lambda_grid(f, omega)
    batches = [lam[[30, 22, 26, 22]], lam[::4][::-1], lam[17:18]]
    for gamma in (1.0, 2.0, -1.0):
        params = BsvyParams(gamma, 2.0)
        kernel = F._LevelSetKernel(f, params, omega, policy)
        for batch in batches:
            pair, model = kernel.profile(batch)
            assert np.array_equal(pair + model, bsvy_inner_profile(f, batch, params, omega, policy))


@pytest.mark.parametrize("policy", TAIL_POLICIES.values(), ids=TAIL_POLICIES.keys())
@pytest.mark.parametrize("dim", [1, 2])
def test_profile_of_a_shuffled_batch_equals_the_ascending_rows(dim, policy):
    # an ascending batch skips the sort; a shuffled one is sorted and put
    # back: both parts of each row are the bits of the ascending batch's
    import normlab.functionals as F

    g = KERNEL_GRIDS[dim]
    f = sample(TestFunctionSpec("gaussian", sigma=0.8, center=0.2), g)
    omega = mask(parse_domain("ball:radius=1.3", box=(g.lo, g.hi)), g)
    lams = default_lambda_grid(f, omega)
    perm = np.random.default_rng(7).permutation(lams.size)
    for gamma in (1.0, -1.0):
        kernel = F._LevelSetKernel(f, BsvyParams(gamma, 2.0), omega, policy)
        for part, shuffled in zip(kernel.profile(lams), kernel.profile(lams[perm])):
            assert np.array_equal(shuffled, part[perm])


def test_one_kernel_set_up_per_sup(monkeypatch):
    # on cold caches, a gamma < 0 sup with an extension, a refinement and a
    # tail bound builds the offset table, the shell table and the pair walk
    # once; a second f on the same geometry builds none of them
    import normlab.functionals as F

    F._walk_geometry.cache_clear()
    F._level_set_geometry.cache_clear()
    calls = {"_half_offsets": 0, "_shell_table": 0, "_pair_walk": 0}
    for name in calls:
        def counted(*args, _fn=getattr(F, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(F, name, counted)
    rounds, tails = [], []
    profile, tail_bound = F._LevelSetKernel.profile, F._tail_bound
    monkeypatch.setattr(F._LevelSetKernel, "profile", lambda k, lams: rounds.append(k) or profile(k, lams))
    monkeypatch.setattr(F, "_tail_bound", lambda k, lam1: tails.append(k) or tail_bound(k, lam1))
    g = make_grid(1, -2.0, 2.0, 32)
    f = sample(TestFunctionSpec("tent", width=1.5, center=0.1), g)
    policy = KernelPolicy(near_window=2.5, subsample=8, subsample_window=8.0)
    reps = F.bsvy_sups(f, BsvyParams(-1.0, 2.0), [parse_space(t) for t in CATALOG_1D], None, policy,
                       10.0 * default_lambda_grid(f))
    assert any(r.extended for r in reps) and len(rounds) == 3 and tails
    assert len({id(k) for k in rounds + tails}) == 1
    assert calls == {"_half_offsets": 1, "_shell_table": 1, "_pair_walk": 1}
    geo = rounds[0].geo
    rounds.clear()
    f2 = sample(TestFunctionSpec("gaussian", sigma=0.7, center=0.2), g)
    F.bsvy_sups(f2, BsvyParams(-1.0, 2.0), [parse_space(t) for t in CATALOG_1D], None, policy)
    assert rounds and all(k.geo is geo for k in rounds)
    assert calls == {"_half_offsets": 1, "_shell_table": 1, "_pair_walk": 1}


# --------------------------------------------------------------------------
# the geometry cache: one walk and one level-set geometry per key, shared by
# every f; a warm cache gives the bits of a cold one
# --------------------------------------------------------------------------


def _cold(fn, *args):
    import normlab.functionals as F

    F._walk_geometry.cache_clear()
    F._level_set_geometry.cache_clear()
    return fn(*args)


def _arrays(obj, path="geo", seen=None):
    """Every array reachable from obj through attributes (slots too), tuples and lists, by path."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return {}
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return {path: obj}
    items = (enumerate(obj) if isinstance(obj, (tuple, list))
             else vars(obj).items() if hasattr(obj, "__dict__")
             else [(k, getattr(obj, k)) for k in getattr(type(obj), "__slots__", ()) if hasattr(obj, k)])
    out = {}
    for key, value in items:
        out.update(_arrays(value, f"{path}.{key}", seen))
    return out


CACHE_CASES = [(1, None), (1, "ball:center=0.3,radius=1.1"), (2, None), (2, "ball:center=0.3;-0.2,radius=1.3")]


def _cache_case(dim, domain):
    g = KERNEL_GRIDS[dim]
    omega = None if domain is None else mask(parse_domain(domain, box=(g.lo, g.hi)), g)
    f = sample(TestFunctionSpec("gaussian", sigma=0.8, center=0.2), g)
    # the same shape with four times the increments: on a block where f's
    # largest increments reach no threshold, this f's may
    big = SampledField(g, 4.0 * f.values, 4.0 * f.analytic_gradient)
    return g, omega, f, big


@pytest.mark.parametrize("policy", TAIL_POLICIES.values(), ids=TAIL_POLICIES.keys())
@pytest.mark.parametrize("dim, domain", CACHE_CASES)
def test_warm_level_set_geometry_gives_cold_bits(dim, domain, policy):
    # the second f on a shared geometry has larger increments, so a largest
    # increment kept on the shared blocks from the first would skip blocks
    import normlab.functionals as F

    g, omega, f, big = _cache_case(dim, domain)
    lams = default_lambda_grid(big, omega)
    for gamma in (1.0, -1.0):
        params = BsvyParams(gamma, 2.0)
        cold = _cold(lambda: F._LevelSetKernel(big, params, omega, policy).profile(lams))
        small = _cold(F._LevelSetKernel, f, params, omega, policy)
        small.profile(lams)
        warm = F._LevelSetKernel(big, params, omega, policy)
        assert warm.geo is small.geo
        for a, b in zip(warm.profile(lams), cold):
            assert np.array_equal(a, b)
        assert np.any(cold[0] > 0)


@pytest.mark.parametrize("dim, domain", CACHE_CASES[1::2])
def test_masks_one_cell_apart_share_no_geometry(dim, domain):
    import normlab.functionals as F

    g, omega, f, _ = _cache_case(dim, domain)
    cells = omega.cells.copy()
    cells[np.unravel_index(np.flatnonzero(cells)[0], g.shape)] = False  # one domain cell off
    other = DomainMask(g, cells)
    params, lams = BsvyParams(1.0, 2.0), default_lambda_grid(f, omega)
    cold = _cold(bsvy_inner_profile, f, lams, params, other, EXCLUDE_POLICY)
    cold_inner = _cold(fractional_inner_field, f, [0.5], 1.0, other, EXCLUDE_POLICY)
    first = F._LevelSetKernel(f, params, omega, EXCLUDE_POLICY)
    fractional_inner_field(f, [0.5], 1.0, omega, EXCLUDE_POLICY)
    second = F._LevelSetKernel(f, params, other, EXCLUDE_POLICY)
    assert second.geo is not first.geo
    assert np.array_equal(np.add(*second.profile(lams)), cold)
    assert np.array_equal(fractional_inner_field(f, [0.5], 1.0, other, EXCLUDE_POLICY), cold_inner)
    assert not np.array_equal(cold, bsvy_inner_profile(f, lams, params, omega, EXCLUDE_POLICY))


@pytest.mark.parametrize("dim, domain", CACHE_CASES)
def test_block_budget_lowered_after_the_cache_is_warm(dim, domain, monkeypatch):
    # the budget is part of the key: a lowered one walks several blocks of
    # several offsets, with the bits of a cold walk at that budget
    import normlab.functionals as F

    g, omega, f, _ = _cache_case(dim, domain)
    params, lams = BsvyParams(1.0, 2.0), default_lambda_grid(f, omega)
    wide = F._LevelSetKernel(f, params, omega, CRIT12_POLICY)
    gagliardo_seminorm_sweep(f, [0.5], 1.0, omega, CRIT12_POLICY)
    monkeypatch.setattr(F, "PAIR_BLOCK_CELLS", 60)
    cold = _cold(bsvy_inner_profile, f, lams, params, omega, CRIT12_POLICY)
    cold_sweep = _cold(gagliardo_seminorm_sweep, f, [0.5], 1.0, omega, CRIT12_POLICY)
    monkeypatch.setattr(F, "PAIR_BLOCK_CELLS", PAIR_BLOCK_CELLS)
    F._LevelSetKernel(f, params, omega, CRIT12_POLICY)
    gagliardo_seminorm_sweep(f, [0.5], 1.0, omega, CRIT12_POLICY)
    monkeypatch.setattr(F, "PAIR_BLOCK_CELLS", 60)
    narrow = F._LevelSetKernel(f, params, omega, CRIT12_POLICY)
    sizes = [len(c.blk.dists) for c in narrow.geo.blocks]
    assert len(sizes) > len(wide.geo.blocks) and max(sizes) >= 2
    assert np.array_equal(np.add(*narrow.profile(lams)), cold)
    assert gagliardo_seminorm_sweep(f, [0.5], 1.0, omega, CRIT12_POLICY) == cold_sweep


@pytest.mark.parametrize("policy", TAIL_POLICIES.values(), ids=TAIL_POLICIES.keys())
@pytest.mark.parametrize("dim, domain", CACHE_CASES)
def test_cached_geometry_is_read_only_and_free_of_f(dim, domain, policy):
    # after two functions ran on it, the shared geometry holds the arrays of
    # one built without any f, and none of them can be written
    import normlab.functionals as F

    g, omega, f, big = _cache_case(dim, domain)
    params = BsvyParams(-1.0, 2.0)
    _cold(lambda: None)
    for fn in (f, big):
        kernel = F._LevelSetKernel(fn, params, omega, policy)
        kernel.profile(default_lambda_grid(fn, omega))
        _tail_bound(kernel, 1.0)
    geo = kernel.geo
    fresh = _cold(F._level_set_geometry, g, policy, -1.0, 2.0, F._cells_key(kernel.mask), PAIR_BLOCK_CELLS)
    assert fresh is not geo
    for c in geo.blocks + fresh.blocks:
        c.ker  # built on a block's first use
    shared, built = _arrays(geo), _arrays(fresh)
    assert shared.keys() == built.keys() and len(shared) > 3 * len(geo.blocks)
    for key, arr in shared.items():
        assert not arr.flags.writeable, key
        assert arr.dtype == built[key].dtype and np.array_equal(arr, built[key]), key
    assert not {"field", "dmax", "dmin", "grad", "spread"} & {k.rsplit(".", 1)[-1] for k in shared}
    with pytest.raises(ValueError):
        geo.shell_thr[...] = 0.0


@pytest.mark.parametrize("dim, domain", CACHE_CASES)
def test_warm_walks_give_cold_bits(dim, domain):
    # the Gagliardo kernels and the weighted pair measure take their walks
    # from the cache too
    g, omega, f, big = _cache_case(dim, domain)
    w = 1.0 + np.sum(g.coords() ** 2, axis=1).reshape(g.shape)

    def pred(xa, xb):
        return xa[:, 0] + 0.3 * xa[:, -1] < 0.8 * xb[:, 0] + 0.1

    calls = [(gagliardo_seminorm_sweep, big, [0.3, 0.9], 1.5, omega, DEFAULT_POLICY),
             (gagliardo_seminorm_sweep, big, [0.3, 0.9], 2.0, omega, EXCLUDE_POLICY)]
    calls += [(fractional_inner_field, big, [0.3, 0.9], p, omega, pol)
              for p in (1.0, 2.0) for pol in (DEFAULT_POLICY, EXCLUDE_POLICY)]
    calls += [(weighted_mu_measure, pred, gamma, w, omega, g) for gamma in (1.5, -0.5)]
    cold = [_cold(*call) for call in calls]
    for call in calls:  # warm every walk with the other f
        call[0](*[f if a is big else a for a in call[1:]])
    for call, ref in zip(calls, cold):
        assert np.array_equal(call[0](*call[1:]), ref)


def test_shell_table_peak_memory_3d():
    # the sub-cell distances are summed axis by axis: at 3D 12^3 under
    # criterion 12's policy the (shell offsets x k^3) tables peak near 17 MB,
    # where one (shell offsets x k^3 x 3) stack took twice that
    import tracemalloc

    g = make_grid(3, -1.0, 1.0, 12)
    policy = KernelPolicy(near_window=2.5, subsample=8, subsample_window=8.0)
    half = _half_offsets(g, policy)
    tracemalloc.start()
    try:
        thr = _shell_table(g, policy, half, 1.5, 1.0)[2]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert thr.shape == (1014, 512)
    assert peak < 20e6


@pytest.mark.parametrize("fn", ["tent:width=1.5", "gaussian:sigma=0.5"])
def test_blocks_with_zero_increment_pairs_share_rows(fn, level_set_adds):
    # a tent's flat tails and a centred gaussian's mirror pairs have exactly
    # zero increments, members on no row: their blocks still share the rows
    # below each offset's least nonzero increment
    g = make_grid(1, -2.0, 2.0, 1024)
    f = sample(parse_function(fn), g)
    params = BsvyParams(1.0, 2.0)
    value = weak_product_quasinorm(f, params)
    assert sum(1 for _, n in level_set_adds if n) == {"tent:width=1.5": 10, "gaussian:sigma=0.5": 3}[fn]
    lams = default_lambda_grid(f)
    rows = bsvy_inner_profile(f, lams, params, None, EXCLUDE_POLICY)
    assert value == float(np.max(lams * (np.sum(rows, axis=1) * g.cell_volume) ** 0.5))
    for i in (0, 9, 19):
        assert np.array_equal(rows[i], bsvy_inner_profile(f, lams[i:i + 1], params, None, EXCLUDE_POLICY)[0])


# --------------------------------------------------------------------------
# the block loop does only the work that can change a result: the ragged
# edge of an unmasked walk, the level-set block ceilings, one weighted sum
# for all s
# --------------------------------------------------------------------------


@pytest.mark.parametrize("small", [False, True], ids=["default-budget", "small-budget"])
@pytest.mark.parametrize("radius", [math.inf, NEAR_CELLS], ids=["all", "near"])
@pytest.mark.parametrize("grid", [make_grid(1, -2.0, 2.0, 70), make_grid(2, -2.0, 2.0, (20, 23)),
                                  make_grid(3, -1.5, 1.5, (5, 6, 7))], ids=["1d", "2d", "3d"])
def test_unmasked_walk_edge_holds_every_off_pair_entry(grid, radius, small, monkeypatch):
    # the entries whose partner is not the cell x + o (it lies on the padding
    # past a row's end) fill exactly the first a and last b columns of a
    # block's stack on some leading cell, and restrict zeroes exactly them;
    # the small budget cuts the runs into blocks of a few offsets
    import normlab.functionals as F

    monkeypatch.setattr(F, "PAIR_BLOCK_CELLS", 3 * grid.total_cells if small else PAIR_BLOCK_CELLS)
    walk = _pair_walk(grid, None, _half_offsets(grid, EXCLUDE_POLICY), radius)[1]
    number = walk.field(np.arange(1, grid.total_cells + 1, dtype=float).reshape(grid.shape))
    cells = np.stack(np.unravel_index(np.arange(grid.total_cells), grid.shape), axis=-1)
    negative = multi = 0
    for blk in walk:
        here, there = np.broadcast_to(blk.here(number), blk.shape), blk.there(number)
        x, y = cells[here.astype(int) - 1], cells[np.maximum(there.astype(int), 1) - 1]
        pairs = (there > 0) & np.all(y - x == blk.offs.reshape((-1,) + (1,) * (here.ndim - 1) + (grid.dim,)),
                                     axis=-1)
        off = ~pairs.reshape(-1, blk.shape[-1]).all(axis=0)  # the columns with an off-pair entry
        cols, (a, b) = blk.shape[-1], blk.edge
        assert np.array_equal(np.flatnonzero(off), np.r_[0:a, cols - b:cols])
        assert np.array_equal(blk.restrict(np.ones(blk.shape)), pairs.astype(float))
        negative += blk.offs[0, -1] < 0 and a > 0
        multi += len(blk.dists) > 1 and (a or b)
    assert multi and (negative or grid.dim == 1)


def _no_ceilings(monkeypatch):
    import normlab.functionals as F

    monkeypatch.setattr(F._LevelSetGeometry, "ceilings", lambda geo, spread, steps: (
        [math.inf] * len(geo.blocks), [math.inf] * len(geo.blocks)))


def _x(g):
    return g.coords()[:, 0].reshape(g.shape)


BOUND_CASES = {
    "step-1d": (make_grid(1, -2.0, 2.0, 64), None, lambda g: np.where(_x(g) > 0.1, 1.0, 0.0)),
    "noise-2d": (make_grid(2, -2.0, 2.0, 12), None,
                 lambda g: np.random.default_rng(5).standard_normal(g.shape)),
    # a steep kink outside the ball: steps there bound nothing inside it but
    # lie in its bounding box
    "kink-ball-2d": (make_grid(2, -2.0, 2.0, 14), "ball:center=0.2;0.1,radius=1.2",
                     lambda g: np.exp(-_x(g) ** 2) + 40.0 * np.abs(_x(g)) * (np.abs(_x(g)) > 1.5)),
    "tent-lshape-2d": (make_grid(2, -2.0, 2.0, 14), "lshape:lo1=-1.5;-1.5,hi1=1.5;0,lo2=-1.5;-1.5,hi2=0;1.5",
                       lambda g: np.maximum(1.0 - np.abs(_x(g)) / 1.5, 0.0)),
    "big-1d": (make_grid(1, -2.0, 2.0, 48), "ball:center=0.3,radius=1.1", lambda g: 1e200 * np.exp(-_x(g) ** 2)),
    "small-3d": (make_grid(3, -1.5, 1.5, 6), None, lambda g: 1e-200 * np.sin(2.0 * _x(g))),
}


@pytest.mark.parametrize("policy", [EXCLUDE_POLICY, KernelPolicy(near_window=2.5, subsample=8, subsample_window=8.0)],
                         ids=["exclude", "criterion-12"])
@pytest.mark.parametrize("case", BOUND_CASES, ids=BOUND_CASES)
def test_block_ceilings_skip_only_dead_blocks(case, policy, monkeypatch):
    # profiles with the ceilings equal those without any, bit for bit (gamma
    # < 0 keeps the shell under criterion 12's policy), on batches from
    # three first lambdas at which the ceilings skip some blocks
    import normlab.functionals as F

    g, domain, values = BOUND_CASES[case]
    if g.dim == 1:  # at the default budget a 1D walk is one block, which gets no ceilings
        monkeypatch.setattr(F, "PAIR_BLOCK_CELLS", 256)
    f = SampledField(g, values(g))
    omega = None if domain is None else mask(parse_domain(domain, box=(g.lo, g.hi)), g)
    lams = float(np.max(np.abs(f.values))) * np.geomspace(1e-2, 1e2, 9)
    params = [BsvyParams(gamma, p) for gamma, p in ((1.0, 2.0), (2.0, 1.0), (-1.0, 2.0))]
    kernels = [F._LevelSetKernel(f, par, omega, policy) for par in params]
    starts, skips = (0, 4, 7), 0
    for kernel in kernels:
        for lam0 in lams[list(starts)]:
            skips += sum(lam0 >= w and not (c.at is not None and lam0 < s)
                         for w, s, c in zip(*kernel.ceil, kernel.geo.blocks))
    assert skips
    with_ceilings = [np.add(*k.profile(lams[i:])) for k in kernels for i in starts]
    _no_ceilings(monkeypatch)
    without = [np.add(*F._LevelSetKernel(f, par, omega, policy).profile(lams[i:])) for par in params for i in starts]
    for a, b in zip(with_ceilings, without):
        assert np.array_equal(a, b)


def test_one_block_walk_gets_no_ceilings():
    import normlab.functionals as F

    g = make_grid(1, -2.0, 2.0, 64)
    kernel = F._LevelSetKernel(sample(TestFunctionSpec("tent", width=1.5), g), BsvyParams(1.0, 2.0), None,
                               CRIT12_POLICY)
    assert len(kernel.geo.blocks) == 1 and kernel.ceil == ([math.inf], [math.inf])


def _edge_restrict(blk, stack):
    # _Block.restrict without a mask by the two edge column slices alone
    cols, (a, b) = blk.shape[-1], blk.edge
    on = blk._view(blk._walk.on, blk._y, cols, blk.shape[0])
    stack[..., :a] *= on[..., :a]
    stack[..., cols - b:] *= on[..., cols - b:]
    return stack


@pytest.mark.parametrize("policy", TAIL_POLICIES.values(), ids=TAIL_POLICIES.keys())
def test_whole_stack_restrict_equals_the_edge_slices(policy, monkeypatch):
    # the one block of a 1D walk has an edge of more than half its columns, so
    # restrict multiplies its whole stack; profiles and inner fields equal
    # those from the edge slices alone, bit for bit
    import normlab.functionals as F

    g = make_grid(1, -2.0, 2.0, 64)
    f = sample(TestFunctionSpec("gaussian", sigma=0.7, center=0.2), g)
    lams = default_lambda_grid(f)
    params = [BsvyParams(gamma, p) for gamma in (1.0, 2.0, -1.0) for p in (1.0, 2.0)]

    def run():
        profiles = [F._LevelSetKernel(f, par, None, policy).profile(lams) for par in params]
        return profiles, fractional_inner_field(f, [0.3, 0.9], 1.5, None, policy)

    (blk,) = F._LevelSetKernel(f, params[0], None, policy).geo.walk.blocks
    assert 2 * sum(blk.edge) > blk.shape[-1]
    whole = run()
    monkeypatch.setattr(F._Block, "restrict", _edge_restrict)
    sliced = run()
    for (d, a), (d2, a2) in zip(whole[0], sliced[0]):
        assert np.array_equal(d, d2) and np.array_equal(a, a2)
    assert np.array_equal(whole[1], sliced[1])


@pytest.mark.parametrize("expo", [1.5, 3.0])
def test_block_ceiling_margin_covers_a_tie(expo, monkeypatch):
    # f = 0, 1, 2, ... gives offset o the increment o on every pair, the
    # reach o exactly; at lam = fl(o * fl(1 / scale)) the product fl(lam *
    # scale) rounds below o, so the offset holds all its pairs, though lam
    # equals reach / scale up to rounding: the margin keeps its block
    import normlab.functionals as F

    monkeypatch.setattr(F, "PAIR_BLOCK_CELLS", 1)  # one offset per block
    g = make_grid(1, -2.0, 2.0, 48)
    f = SampledField(g, np.arange(48.0))
    params = BsvyParams(2.0 * (expo - 1.0), 2.0)
    kernel = F._LevelSetKernel(f, params, None, EXCLUDE_POLICY)
    ties = []
    for c in kernel.geo.blocks:
        o, scale = int(c.blk.offs[0, 0]), float(c.scales[0])
        lam = o * (1.0 / scale)
        if lam * scale < o:
            ties.append(lam)
    assert ties
    got = [np.add(*kernel.profile([lam, 2.0 * lam])) for lam in ties]
    _no_ceilings(monkeypatch)
    for lam, rows in zip(ties, got):
        assert np.array_equal(rows, bsvy_inner_profile(f, [lam, 2.0 * lam], params, None, EXCLUDE_POLICY))


@pytest.mark.parametrize("p", [1.0, 2.0])
@pytest.mark.parametrize("dim, npts, domain", [(1, 300, None), (2, 40, "ball:center=0.3;-0.2,radius=1.5"),
                                               (3, 7, None)])
def test_inner_field_rows_equal_each_s_alone(dim, npts, domain, p):
    # one weighted sum per block serves all six s; each row is the bits of
    # that s alone (at p = 2 in 2D with the FFT's far offsets too)
    g = make_grid(dim, -2.0, 2.0, npts)
    omega = None if domain is None else mask(parse_domain(domain), g)
    f = sample(TestFunctionSpec("gaussian", sigma=0.7, center=0.2), g)
    s_values = [0.1, 0.3, 0.5, 0.7, 0.9, 0.99]
    rows = fractional_inner_field(f, s_values, p, omega)
    for s, row in zip(s_values, rows):
        assert np.array_equal(row, fractional_inner_field(f, [s], p, omega)[0])
    assert len({r.tobytes() for r in rows}) == len(s_values)


@pytest.mark.parametrize("case", ["walk-2d-128", "level-set-3d-12"])
def test_geometry_cache_counts_what_it_keeps(case):
    # the bytes the cache counts for a cold build, Python block records
    # included, lie within 25% of what tracemalloc sees the build keep
    import gc
    import tracemalloc

    import normlab.functionals as F

    if case == "walk-2d-128":  # every offset: 7,283 blocks
        build = functools.partial(F._walk_geometry, make_grid(2, -2.0, 2.0, 128), DEFAULT_POLICY, None,
                                  math.inf, PAIR_BLOCK_CELLS)
    else:
        build = functools.partial(F._level_set_geometry, make_grid(3, -1.5, 1.5, 12), CRIT12_POLICY, 1.0, 2.0,
                                  None, PAIR_BLOCK_CELLS)
    _cold(gc.collect)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = build()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    counted = sum(n for _, n in F._GEOMETRIES.values())
    assert kept is not None and abs(counted - held) <= 0.25 * held


def test_geometry_cache_evicts_by_bytes(monkeypatch):
    # a budget below two 3D geometries: each new one evicts the one used
    # longest ago, the kept bytes stay within the budget, and a geometry
    # built again gives the bits of the first build
    import normlab.functionals as F

    g = KERNEL_GRIDS[3]
    f = sample(TestFunctionSpec("gaussian", sigma=0.8, center=0.2), g)
    lams = default_lambda_grid(f)
    params = [BsvyParams(gamma, 2.0) for gamma in (1.0, 2.0, -1.0)]
    _cold(lambda: None)
    first = F._LevelSetKernel(f, params[0], None, CRIT12_POLICY)
    cold = np.add(*first.profile(lams))
    size = sum(n for _, n in F._GEOMETRIES.values())  # the geometry and its walk
    monkeypatch.setattr(F, "GEOMETRY_BYTES", int(1.5 * size))
    for par in params[1:]:
        F._LevelSetKernel(f, par, None, CRIT12_POLICY).profile(lams)
        assert sum(n for _, n in F._GEOMETRIES.values()) <= F.GEOMETRY_BYTES
    again = F._LevelSetKernel(f, params[0], None, CRIT12_POLICY)
    assert again.geo is not first.geo
    assert np.array_equal(np.add(*again.profile(lams)), cold)
    assert F._level_set_geometry(g, CRIT12_POLICY, 1.0, 2.0, None, PAIR_BLOCK_CELLS) is again.geo
