import math

import numpy as np
import pytest

from normlab import (
    Lebesgue,
    SampledField,
    TestFunctionSpec,
    dual_weight,
    estimate_maximal_opnorm,
    explicit_weight,
    hl_maximal,
    make_grid,
    muckenhoupt_constant,
    norm,
    power_weight,
    rubio_de_francia,
    sample,
    weighted_norm_duality_bound,
)
from normlab.weights import CubeFamily, anchored_cube_family, default_radii, parse_weight


# --------------------------------------------------------------------------
# weights
# --------------------------------------------------------------------------


def test_power_weight_samples():
    g = make_grid(1, -2.0, 2.0, 16)
    w = power_weight(g, -0.5, center=0.0)
    x = np.abs(g.axis_centers(0))
    assert np.allclose(w.samples, x ** -0.5)


@pytest.mark.parametrize("radius", [-1.0, math.nan, math.inf])
def test_hl_maximal_rejects_bad_radius(radius):
    g = make_grid(2, -1.0, 1.0, 8)
    f = sample(TestFunctionSpec("gaussian"), g)
    with pytest.raises(ValueError, match="ball radius must be finite and >= 0"):
        hl_maximal(f, radii=[0.5, radius])


def test_weight_rejects_negative_and_zero_field():
    g = make_grid(1, 0.0, 1.0, 8)
    with pytest.raises(ValueError):
        explicit_weight(g, -np.ones(g.shape))
    with pytest.raises(ValueError):
        explicit_weight(g, np.zeros(g.shape))


def test_parse_weight():
    g = make_grid(1, -1.0, 1.0, 8)
    w = parse_weight("power:a=-0.25,center=0.0", g)
    assert w.power[0] == -0.25


def test_parse_weight_strips_spaces_and_rejects_bare_keys():
    g = make_grid(1, -1.0, 1.0, 8)
    w = parse_weight("power:a=-0.5, center=0.3", g)
    assert w.power == (-0.5, (0.3,))
    with pytest.raises(ValueError, match="bad parameter 'a' in 'power:a'"):
        parse_weight("power:a", g)


def test_parse_weight_rejects_unknown_keys():
    g = make_grid(1, -1.0, 1.0, 8)
    with pytest.raises(ValueError, match="unknown weight parameter 'alpha'"):
        parse_weight("power:alpha=-0.5", g)


# --------------------------------------------------------------------------
# maximal operator
# --------------------------------------------------------------------------


def test_maximal_of_constant():
    g = make_grid(1, -2.0, 2.0, 64)
    mf = hl_maximal(SampledField(g, np.full(g.shape, 3.0)))
    assert np.allclose(mf, 3.0, rtol=1e-12)


def test_maximal_dominates():
    g = make_grid(2, -1.0, 1.0, 16)
    f = sample(TestFunctionSpec("gaussian", sigma=0.5), g)
    mf = hl_maximal(f)
    assert np.all(mf >= np.abs(f.values))


def test_maximal_indicator_closed_form():
    # f = 1_[0,1] on a wide box; at x = 2 the best ball average is 1/4
    g = make_grid(1, -4.0, 4.0, 512)
    ind = ((g.coords()[:, 0] > 0) & (g.coords()[:, 0] < 1)).astype(float)
    mf = hl_maximal(ind.reshape(g.shape), g)
    i = int(np.argmin(np.abs(g.axis_centers(0) - 2.0)))
    # oracle: sweep the same radius family, value = overlap / (2 r)
    best = 0.0
    for r in default_radii(g):
        overlap = max(0.0, min(2.0 + r, 1.0) - max(2.0 - r, 0.0))
        best = max(best, overlap / (2 * r))
    assert mf.ravel()[i] == pytest.approx(best, abs=0.02)
    assert best == pytest.approx(0.25, abs=0.01)


def test_maximal_sublinear_and_homogeneous():
    g = make_grid(1, -1.0, 1.0, 64)
    rng = np.random.default_rng(0)
    a = rng.standard_normal(g.shape)
    b = rng.standard_normal(g.shape)
    assert np.all(hl_maximal(a + b, g) <= hl_maximal(a, g) + hl_maximal(b, g) + 1e-12)
    assert np.array_equal(hl_maximal(2.0 * a, g), 2.0 * hl_maximal(a, g))
    c = 0.731
    assert np.allclose(hl_maximal(c * a, g), c * hl_maximal(a, g), rtol=1e-12)


def test_maximal_matches_direct_ball_averages():
    # non-square cells h = (0.1, 0.07); cell j is in the ball around cell i
    # when |(j - i) h| <= r, and balls are clipped to the box
    g = make_grid(2, (-0.6, -0.49), (0.6, 0.49), (12, 14))
    vals = np.random.default_rng(2).uniform(0.0, 1.0, g.shape)
    radii = np.array([0.07, 0.1, 0.25, 0.6, 2.0])
    mf = hl_maximal(vals, g, radii=radii)
    idx = np.stack(np.unravel_index(np.arange(g.total_cells), g.shape), axis=1)
    h = np.asarray(g.cell_size)
    for i in range(0, g.total_cells, 7):
        d = np.sqrt(np.sum(((idx - idx[i]) * h) ** 2, axis=1))
        best = vals.ravel()[i]
        for r in radii:
            best = max(best, float(np.mean(vals.ravel()[d <= r])))
        assert mf.ravel()[i] == pytest.approx(best, rel=1e-12)


def test_maximal_empty_radii_rejected():
    g = make_grid(1, 0.0, 1.0, 8)
    with pytest.raises(ValueError):
        hl_maximal(np.ones(g.shape), g, radii=np.array([]))


# --------------------------------------------------------------------------
# Muckenhoupt constants
# --------------------------------------------------------------------------


def test_ap_unit_weight_exact():
    g = make_grid(1, -1.0, 1.0, 128)
    w = explicit_weight(g, np.ones(g.shape))
    for p in (1.0, 2.0, 3.0):
        assert muckenhoupt_constant(w, p) == 1.0


def test_ap_power_anchored_value():
    g = make_grid(1, -2.0, 2.0, 2048)
    w = power_weight(g, -0.5, center=0.0)
    a1 = muckenhoupt_constant(w, 1.0, family=anchored_cube_family(g, 0.0))
    assert a1 == pytest.approx(2.0, rel=0.02)


def test_ap_family_monotone():
    g = make_grid(1, -2.0, 2.0, 256)
    w = power_weight(g, -0.5, center=0.0)
    small = anchored_cube_family(g, 0.0)
    a_small = muckenhoupt_constant(w, 1.0, family=small)
    a_full = muckenhoupt_constant(w, 1.0)  # default family is a superset
    assert a_full >= a_small - 1e-12


def test_ap_nonincreasing_in_p():
    g = make_grid(1, -2.0, 2.0, 256)
    w = power_weight(g, -0.4, center=0.0)
    fam = anchored_cube_family(g, 0.0)
    vals = [muckenhoupt_constant(w, p, family=fam) for p in (1.0, 1.5, 2.0, 3.0)]
    assert all(vals[i + 1] <= vals[i] + 1e-12 for i in range(len(vals) - 1))


def test_ap_zero_cell_reports_inf():
    g = make_grid(1, 0.0, 1.0, 8)
    samples = np.ones(g.shape)
    samples.ravel()[3] = 0.0
    w = explicit_weight(g, samples)
    assert muckenhoupt_constant(w, 1.0) == math.inf
    assert muckenhoupt_constant(w, 2.0) == math.inf


def test_dual_weight_involution():
    g = make_grid(1, -1.0, 1.0, 32)
    w = power_weight(g, 0.5, center=0.3)
    p = 2.5
    pp = p / (p - 1.0)
    back = dual_weight(dual_weight(w, p), pp)
    assert np.allclose(back.samples, w.samples, rtol=1e-12)
    w2 = dual_weight(w, 2.0)
    assert np.allclose(w2.samples, 1.0 / w.samples, rtol=1e-13)


def test_dual_weight_source_keeps_the_center():
    g = make_grid(1, -1.0, 1.0, 16)
    for center in (0.3, (0.3,)):
        dual = dual_weight(power_weight(g, -0.5, center=center), 2.0)
        assert dual.source == "power:a=0.5,center=0.3"
        again = parse_weight(dual.source, g)
        assert np.allclose(again.samples, dual.samples, rtol=1e-12, atol=0.0)
        assert again.power == dual.power == (0.5, (0.3,))


def test_dual_weight_rejects_zeros():
    g = make_grid(1, 0.0, 1.0, 8)
    samples = np.ones(g.shape)
    samples.ravel()[0] = 0.0
    with pytest.raises(ValueError):
        dual_weight(explicit_weight(g, samples), 2.0)


# --------------------------------------------------------------------------
# operator-norm estimate and the majorant iteration
# --------------------------------------------------------------------------


def test_opnorm_estimate_at_least_one():
    g = make_grid(1, -2.0, 2.0, 64)
    est = estimate_maximal_opnorm(Lebesgue(2.0), g)
    assert est.value >= 1.0
    assert est.probe


def test_opnorm_monotone_in_probes():
    g = make_grid(1, -2.0, 2.0, 64)
    base = [("constant", np.ones(g.shape))]
    e1 = estimate_maximal_opnorm(Lebesgue(2.0), g, probes=base)
    f = sample(TestFunctionSpec("gaussian", sigma=0.3), g)
    e2 = estimate_maximal_opnorm(Lebesgue(2.0), g, probes=base + [("g", f.values)])
    assert e2.value >= e1.value


def test_rubio_constant_geometric_series():
    g = make_grid(1, -1.0, 1.0, 64)
    c = 2.0
    K = 6
    res = rubio_de_francia(SampledField(g, np.ones(g.shape)), None, c, depth=K)
    q = 1.0 / (2.0 * c)
    expected = (1.0 - q ** (K + 1)) / (1.0 - q)
    assert np.allclose(res.weight.samples, expected, rtol=1e-12)


def test_rubio_dominates_input():
    g = make_grid(1, -2.0, 2.0, 128)
    f = sample(TestFunctionSpec("gaussian"), g)
    gpos = SampledField(g, np.abs(f.values))
    res = rubio_de_francia(gpos, Lebesgue(2.0), 2.0, depth=8)
    assert np.all(res.weight.samples >= gpos.values)
    assert res.norm_ratio is not None


def test_rubio_a1_bound_with_estimated_opnorm():
    # For the centered maximal operator with dyadic radii the textbook
    # A_1 bound picks up a geometric factor <= 2^(n+1) (cube average vs
    # centered ball average); verified with that slack.
    g = make_grid(1, -2.0, 2.0, 128)
    f = sample(TestFunctionSpec("gaussian"), g)
    gpos = SampledField(g, np.abs(f.values))
    opnorm = max(estimate_maximal_opnorm(Lebesgue(2.0), g).value, 1.0)
    res = rubio_de_francia(gpos, Lebesgue(2.0), opnorm, depth=12)
    w = explicit_weight(g, res.weight.samples)
    a1 = muckenhoupt_constant(w, 1.0)
    tol = res.eps_tail / float(np.min(res.weight.samples))
    assert a1 <= 2.0 * opnorm * (1.0 + tol) * 2.0 ** (g.dim + 1) + 1e-9
    # measured slack factor stays modest in practice
    assert a1 <= 2.0 * opnorm * 1.5


def test_rubio_rejects_bad_input():
    g = make_grid(1, 0.0, 1.0, 8)
    with pytest.raises(ValueError):
        rubio_de_francia(SampledField(g, np.zeros(g.shape)), None, 2.0)
    with pytest.raises(ValueError):
        rubio_de_francia(SampledField(g, np.ones(g.shape)), None, -1.0)


# --------------------------------------------------------------------------
# duality bound
# --------------------------------------------------------------------------


def test_duality_bound_upper_sandwich():
    g = make_grid(1, -2.0, 2.0, 128)
    f = sample(TestFunctionSpec("gaussian"), g)
    p = 2.0
    space = Lebesgue(2.0 * p)  # X = L^(p q0) with q0 = 2
    # [X^(1/p)]' = [L^2]' = L^2; normalized witness there
    dual = Lebesgue(2.0)
    wit = sample(TestFunctionSpec("gaussian", sigma=0.7), g)
    wit = SampledField(g, wit.values / norm(wit, dual))
    opnorm = max(estimate_maximal_opnorm(dual, g).value, 1.0)
    lower, base = weighted_norm_duality_bound(f, space, p, None, wit, opnorm,
                                              dual_space=dual)
    assert lower <= 2.0 ** (1.0 / p) * base * (1.0 + 1e-9)


def test_duality_bound_holder_equality_at_depth_zero():
    g = make_grid(1, -2.0, 2.0, 128)
    f = sample(TestFunctionSpec("gaussian"), g)
    # X = L^2, p = 1: the dual of X^(1/1) is L^2; the conjugate witness is
    # f / ||f||, and the depth-0 pairing realizes Hoelder equality
    space = Lebesgue(2.0)
    wit = SampledField(g, np.abs(f.values) / norm(f, space))
    lower, base = weighted_norm_duality_bound(f, space, 1.0, None, wit, 2.0,
                                              depth=0, dual_space=space)
    assert lower == pytest.approx(base, rel=1e-6)
    # any maximal terms only add nonnegative mass
    deeper, _ = weighted_norm_duality_bound(f, space, 1.0, None, wit, 2.0,
                                            depth=4, dual_space=space)
    assert deeper >= lower - 1e-12


def test_duality_bound_zero_function():
    g = make_grid(1, -1.0, 1.0, 32)
    z = SampledField(g, np.zeros(g.shape))
    wit = sample(TestFunctionSpec("gaussian"), g)
    wit = SampledField(g, wit.values / norm(wit, Lebesgue(2.0)))
    lower, base = weighted_norm_duality_bound(z, Lebesgue(2.0), 1.0, None, wit, 2.0)
    assert lower == 0.0 and base == 0.0


def test_duality_bound_rejects_unnormalized_witness():
    g = make_grid(1, -1.0, 1.0, 32)
    f = sample(TestFunctionSpec("gaussian"), g)
    with pytest.raises(ValueError):
        weighted_norm_duality_bound(f, Lebesgue(2.0), 1.0, None, f, 2.0,
                                    dual_space=Lebesgue(2.0))
