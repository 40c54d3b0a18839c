import json
import re

import numpy as np
import pytest

from normlab import (
    DomainSpec,
    Lebesgue,
    epsilon_falsifier,
    make_grid,
    mask,
    norm,
    parse_domain,
)
from normlab.domains import _boxes_minus_box, zero_extend_field


BOX2 = ((-1.0, -1.0), (1.0, 1.0))


def test_mask_full_box():
    g = make_grid(1, -1.0, 1.0, 16)
    dom = DomainSpec("full", box=(g.lo, g.hi))
    assert mask(dom, g).cells.all()


def test_mask_ball_1d():
    g = make_grid(1, -2.0, 2.0, 8)
    dom = DomainSpec("ball", center=0.0, radius=1.0)
    m = mask(dom, g)
    assert np.array_equal(m.cells.ravel(), np.abs(g.axis_centers(0)) < 1.0)


def test_mask_monotone_in_radius():
    g = make_grid(2, -2.0, 2.0, 16)
    small = mask(DomainSpec("ball", center=0.0, radius=0.8), g)
    big = mask(DomainSpec("ball", center=0.0, radius=1.5), g)
    assert np.all(big.cells[small.cells])


def test_slitbox_mask_is_full_at_centers():
    g = make_grid(2, -1.0, 1.0, 16)
    dom = DomainSpec("slitbox", box=BOX2, axis=0, pos=0.1234, start=0.0)
    assert mask(dom, g).cells.all()


def test_mask_empty_rejected():
    g = make_grid(1, -2.0, 2.0, 8)
    with pytest.raises(ValueError):
        mask(DomainSpec("ball", center=10.0, radius=0.1), g)


def test_parse_domain_roundtrip():
    dom = parse_domain("ball:center=0.5;0.5,radius=1.0", box=BOX2)
    assert dom.tag == "ball"
    dom2 = parse_domain(dom.canonical(), box=BOX2)
    assert dom2.canonical() == dom.canonical()


def test_zero_extend_indicator_norm():
    g = make_grid(1, -2.0, 2.0, 64)
    dom = DomainSpec("ball", center=0.0, radius=1.0)
    m = mask(dom, g)
    f = zero_extend_field(np.ones(int(m.cells.sum())), m)
    assert norm(f, Lebesgue(1.0)) == pytest.approx(m.measure, rel=1e-12)


def test_boundary_distance_closed_forms():
    ball = DomainSpec("ball", center=(0.0, 0.0), radius=1.0)
    assert ball.boundary_distance(np.array([[0.5, 0.0]]))[0] == pytest.approx(0.5)
    ann = DomainSpec("annulus", center=(0.0, 0.0), r1=0.5, r2=1.0)
    assert ann.boundary_distance(np.array([[0.7, 0.0]]))[0] == pytest.approx(0.2)
    half = DomainSpec("halfspace", box=BOX2, axis=1, offset=-0.5)
    assert half.boundary_distance(np.array([[0.0, 0.0]]))[0] == pytest.approx(0.5)
    slit = DomainSpec("slitbox", box=BOX2, axis=0, pos=0.0, start=0.0)
    d = slit.boundary_distance(np.array([[0.25, 0.5]]))[0]
    assert d == pytest.approx(0.25)  # nearest boundary piece is the slit
    below = slit.boundary_distance(np.array([[0.05, -0.2]]))[0]
    assert below == pytest.approx(np.hypot(0.05, 0.2))  # slit tip is nearest


def test_lshape_distance_near_notch():
    # union of [0,2]x[0,1] and [0,1]x[0,2]
    dom = DomainSpec("lshape", lo1=(0.0, 0.0), hi1=(2.0, 1.0),
                     lo2=(0.0, 0.0), hi2=(1.0, 2.0))
    assert dom.predicate(np.array([[1.5, 0.5]]))[0]
    assert not dom.predicate(np.array([[1.5, 1.5]]))[0]
    # distance to the reentrant corner (1,1) from inside box 1
    d = dom.boundary_distance(np.array([[1.2, 0.8]]))[0]
    assert d == pytest.approx(0.2)  # the y=1 face of box 1 is exposed at x>1
    deep = dom.boundary_distance(np.array([[0.5, 0.5]]))[0]
    assert deep == pytest.approx(0.5)


def _lshape_point_distance(z, boxes):
    # one point at a time: each face of one box minus the other box, then the
    # nearest piece
    best = np.inf
    for (lo, hi), (olo, ohi) in (boxes, boxes[::-1]):
        for ax in range(z.size):
            for side in (lo[ax], hi[ax]):
                flo, fhi = lo.copy(), hi.copy()
                flo[ax] = fhi[ax] = side
                for plo, phi in _boxes_minus_box(flo, fhi, olo, ohi):
                    best = min(best, np.linalg.norm(np.maximum(np.maximum(plo - z, z - phi), 0.0)))
    return best


@pytest.mark.parametrize("dim", [2, 3])
def test_lshape_distance_equals_point_loop(dim):
    dom = DomainSpec("lshape", lo1=(0.0,) * dim, hi1=(2.0,) + (1.0,) * (dim - 1),
                     lo2=(0.0,) * dim, hi2=(1.0, 2.0) + (1.0,) * (dim - 2))
    lo, hi = dom.sampling_box(dim)
    pts = np.random.default_rng(dim).uniform(lo - 0.5, hi + 0.5, (1000, dim))
    pts = pts[dom.predicate(pts)]
    assert pts.shape[0] > 100
    boxes = dom._boxes(dim)
    # a norm per point is a dot product, a batched one a sum of squares: the
    # two may round apart in the last bit
    np.testing.assert_allclose(dom.boundary_distance(pts),
                               [_lshape_point_distance(z, boxes) for z in pts], rtol=1e-15, atol=0)


def test_segment_blocked_slit_and_annulus():
    slit = DomainSpec("slitbox", box=BOX2, axis=0, pos=0.0, start=0.0)
    a = np.array([-0.1, 0.5])
    b = np.array([0.1, 0.5])
    assert slit.segment_blocked(a, b)
    assert not slit.segment_blocked(np.array([-0.1, -0.5]), np.array([0.1, -0.5]))
    ann = DomainSpec("annulus", center=(0.0, 0.0), r1=0.5, r2=1.0)
    assert ann.segment_blocked(np.array([-0.8, 0.0]), np.array([0.8, 0.0]))
    assert not ann.segment_blocked(np.array([0.0, 0.8]), np.array([0.4, 0.7]))


def test_falsifier_convex_clean():
    for dom in (DomainSpec("ball", center=(0.0, 0.0), radius=1.0),
                DomainSpec("halfspace", box=BOX2, axis=0, offset=0.0),
                DomainSpec("full", box=BOX2)):
        cert = epsilon_falsifier(dom, 0.5, 2000, seed=5)
        assert cert.verdict == "not-refuted", (dom.tag, cert.witness)


def test_falsifier_slit_refuted_with_witness_near_slit():
    dom = DomainSpec("slitbox", box=BOX2, axis=0, pos=0.1234, start=0.0)
    for eps in (0.1, 0.5, 1.0):
        cert = epsilon_falsifier(dom, eps, 300, seed=7)
        assert cert.verdict == "refuted"
        x = np.asarray(cert.witness["x"])
        y = np.asarray(cert.witness["y"])
        assert abs(x[0] - 0.1234) < 0.1 and abs(y[0] - 0.1234) < 0.1
        assert not cert.exhaustive and "advisory-refutation" in cert.flags


def test_falsifier_certificate_serializes():
    dom = DomainSpec("ball", center=(0.0, 0.0), radius=1.0)
    cert = epsilon_falsifier(dom, 0.5, 50, seed=1)
    payload = json.loads(cert.to_json())
    assert payload["verdict"] == "not-refuted"
    assert payload["samples"] >= 50


def test_falsifier_rejects_bad_eps():
    dom = DomainSpec("ball", center=(0.0, 0.0), radius=1.0)
    with pytest.raises(ValueError):
        epsilon_falsifier(dom, 1.5, 10)
    with pytest.raises(ValueError):
        epsilon_falsifier(dom, 0.5, 0)


def test_falsifier_deterministic_given_seed():
    dom = DomainSpec("slitbox", box=BOX2, axis=0, pos=0.1234, start=0.0)
    a = epsilon_falsifier(dom, 0.5, 100, seed=3)
    b = epsilon_falsifier(dom, 0.5, 100, seed=3)
    assert a.to_json() == b.to_json()


def test_falsifier_ball_1d_not_refuted():
    # an interval is a uniform domain; there are no arcs to stress it with
    dom = DomainSpec("ball", box=((-2.0,), (2.0,)), center=0.0, radius=1.3)
    cert = epsilon_falsifier(dom, 0.5, 200, seed=5)
    assert cert.verdict == "not-refuted", cert.witness


def test_falsifier_rejects_domain_outside_its_box():
    dom = DomainSpec("ball", box=((-2.0,), (2.0,)), center=10.0, radius=0.1)
    with pytest.raises(ValueError, match="no sampled point"):
        epsilon_falsifier(dom, 0.5, 10, seed=0)


@pytest.mark.parametrize("kind", ["halfspace", "slitbox"])
def test_axis_outside_box_rejected(kind):
    with pytest.raises(ValueError, match=f"{kind} axis 2 is not an axis of a 2D grid"):
        DomainSpec(kind, box=BOX2, axis=2)


def test_domain_spec_equality_follows_canonical_text():
    assert parse_domain("ball:radius=1") == DomainSpec("ball", radius=1)
    assert parse_domain("ball:radius=1") != parse_domain("ball:radius=2")
    assert parse_domain("full", box=BOX2) != parse_domain("full", box=((-1.0, -1.0), (1.0, 2.0)))
    assert DomainSpec("ball", radius=1).tag == "ball"


@pytest.mark.parametrize("text, box, message", [
    ("ball:radius=0", None, "ball radius must be > 0"),
    ("ball:center=0", None, "domain 'ball' needs parameter 'radius'"),
    ("annulus:r1=0.5,r2=0.5", None, "annulus needs 0 < r1 < r2"),
    ("lshape:lo1=0,hi1=1,lo2=0", None, "domain 'lshape' needs parameter 'hi2'"),
    ("full", None, "full domain needs the ambient box"),
    ("halfspace", None, "halfspace domain needs the ambient box"),
    ("slitbox:axis=-1", BOX2, "slitbox axis must be a whole number >= 0"),
    ("disc:radius=1", None, "unknown domain kind 'disc'"),
    ("slitbox:pos=nan", BOX2, "slitbox pos must be finite, got nan"),
    ("lshape:lo1=0,hi1=1,lo2=0,hi2=nan", None, "lshape hi2 must be finite, got nan"),
    ("lshape:lo1=0;0,hi1=1;1,lo2=0;nan,hi2=1;1", None, "lshape lo2 must be finite, got (0.0, nan)"),
    ("lshape:lo1=0,hi1=1,lo2=2,hi2=1", None, "lshape needs lo < hi on every axis of both boxes"),
    ("lshape:lo1=0;0,hi1=1;1,lo2=0;1,hi2=1;1", None, "lshape needs lo < hi on every axis of both boxes"),
    ("lshape:lo1=0;0,hi1=1;1;1,lo2=0;0,hi2=1;1", None, "expected 3 entries (one per axis), got 2"),
    ("ball:radius=inf", None, "ball radius must be finite, got inf"),
])
def test_domain_spec_rejects_bad_values(text, box, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_domain(text, box=box)


LSHAPE = DomainSpec("lshape", lo1=(0.0, 0.0), hi1=(2.0, 1.0), lo2=(0.0, 0.0), hi2=(1.0, 2.0))


def test_lshape_segment_blocked_matches_dense_predicate():
    rng = np.random.default_rng(0)
    lo, hi = LSHAPE.sampling_box(2)
    t = np.linspace(0.0, 1.0, 20001)[1:-1, None]  # the open segment
    blocked = 0
    for _ in range(200):
        a, b = rng.uniform(lo, hi, size=(2, 2))
        leaves = not LSHAPE.predicate(a + t * (b - a)).all()
        assert LSHAPE.segment_blocked(a, b) == leaves, (a, b)
        blocked += leaves
    assert 0 < blocked < 200


def test_boxless_shapes_sample_their_own_bounds():
    assert LSHAPE.box is None
    assert [list(v) for v in LSHAPE.sampling_box(2)] == [[0.0, 0.0], [2.0, 2.0]]
    ann = DomainSpec("annulus", center=(0.5, -0.5), r1=0.5, r2=1.0)
    assert [list(v) for v in ann.sampling_box(2)] == [[-0.5, -1.5], [1.5, 0.5]]
    anchor = ann.interior_anchor(2)
    assert ann.predicate(anchor)[0]
    assert np.hypot(anchor[0] - 0.5, anchor[1] + 0.5) == pytest.approx(0.75)


@pytest.mark.parametrize("dom", [
    LSHAPE, DomainSpec("annulus", center=(0.5, -0.5), r1=0.5, r2=1.0)], ids=["lshape", "annulus"])
def test_falsifier_refutation_of_boxless_nonconvex_shape_is_advisory(dom):
    cert = epsilon_falsifier(dom, 0.5, 300, seed=3)
    assert cert.verdict == "refuted"
    assert not cert.exhaustive and cert.flags == ["advisory-refutation"]
    lo, hi = dom.sampling_box(2)
    for key in ("x", "y"):
        z = np.asarray(cert.witness[key])
        assert dom.predicate(z)[0] and np.all((lo <= z) & (z <= hi))


ANCHOR_SHAPES_2D = {
    "full": DomainSpec("full", box=BOX2),
    "ball": DomainSpec("ball", center=(0.2, -0.1), radius=0.5),
    "halfspace": DomainSpec("halfspace", box=BOX2, axis=1, offset=0.3),
    "lshape": parse_domain("lshape:lo1=0;0,hi1=2;1,lo2=0;0,hi2=1;2"),
    "annulus": DomainSpec("annulus", center=(0.5, -0.5), r1=0.5, r2=1.0),
    "slitbox": DomainSpec("slitbox", box=BOX2),  # the slit ends at the box centre
}


@pytest.mark.parametrize("kind", sorted(ANCHOR_SHAPES_2D))
def test_interior_anchor_lies_inside(kind):
    assert sorted(ANCHOR_SHAPES_2D) == sorted(DomainSpec.kinds)
    dom = ANCHOR_SHAPES_2D[kind]
    assert dom.predicate(dom.interior_anchor(2))[0]
