import pytest

from normlab import Lebesgue, Morrey, TestFunctionSpec, make_grid
from normlab.experiments import (
    ExperimentConfig,
    run_apconst_table,
    run_bbm_experiment,
    run_morrey_duality_check,
    run_norm_table,
    run_weak_holder_suite,
)
from normlab.spaces import parse_space


def base_cfg(**kw):
    cfg = ExperimentConfig(kind="test", grid=make_grid(1, -2.0, 2.0, 64))
    for k, v in kw.items():
        setattr(cfg, k, v)
    return cfg


def test_norm_table_rows():
    cfg = base_cfg(functions=[TestFunctionSpec("gaussian")],
                   spaces=[Lebesgue(2.0), parse_space("lorentz:r=2.0,tau=3.0")])
    table = run_norm_table(cfg)
    assert len(table.rows) == 2
    assert all(row["value"] > 0 for row in table.rows)


def test_bbm_experiment_refinement_flag():
    cfg = base_cfg(functions=[TestFunctionSpec("gaussian")], spaces=[Lebesgue(1.0)],
                   p=1.0, refine=True)
    cfg.grid = make_grid(1, -6.0, 6.0, 192)
    table = run_bbm_experiment(cfg)
    row = table.rows[0]
    assert "refine_delta=" in row["flags"]
    assert row["ratio"] == pytest.approx(1.0, rel=0.05)


@pytest.mark.parametrize("refine, points", [(False, 64), (True, 128)])
def test_bbm_rows_are_labelled_with_the_grid_they_come_from(refine, points):
    cfg = base_cfg(functions=[TestFunctionSpec("gaussian")], spaces=[Lebesgue(1.0), Lebesgue(2.0)],
                   p=1.0, refine=refine)
    table = run_bbm_experiment(cfg)
    assert [r["grid"] for r in table.rows] == [f"box=[-2.0]..[2.0] N=[{points}]"] * 2


def test_morrey_duality_bracket():
    cfg = base_cfg(functions=[TestFunctionSpec("tent", width=2.0)],
                   spaces=[Morrey(2.0, 4.0)], seed=5)
    table = run_morrey_duality_check(cfg, theta=0.75, cube_count=20)
    row = table.rows[0]
    # two-sided comparability: the cube supremum with maximal-function weights
    # tracks the ball Morrey norm within a modest factor
    assert 0.2 <= row["ratio"] <= 5.0
    # uniform A_1 control of (M 1_Q)^theta: bounded by ~1/(1-theta) across all
    # sampled cubes (the spread between tiny and box-sized cubes exceeds 2,
    # but the bound itself is what the weighted-norm identity needs)
    a1_max = float(row["flags"].split("a1_max=")[1].split(";")[0])
    assert a1_max <= 2.0 / (1.0 - 0.75)


def test_morrey_duality_rejects_bad_theta():
    cfg = base_cfg(spaces=[Morrey(2.0, 4.0)], functions=[TestFunctionSpec("gaussian")])
    with pytest.raises(ValueError):
        run_morrey_duality_check(cfg, theta=0.1)


def test_weak_holder_suite_smoke():
    cfg = base_cfg(seed=1)
    cfg.grid = make_grid(1, 0.0, 1.0, 8)
    summary, table = run_weak_holder_suite(cfg, instances=20)
    assert summary["passes"] == 20
    assert summary["trivial"] >= 1
    assert len(table.rows) == 20


def test_apconst_table():
    cfg = base_cfg()
    cfg.grid = make_grid(1, -2.0, 2.0, 256)
    table = run_apconst_table(cfg, ["power:a=-0.5,center=0.0"], ps=(1.0, 2.0))
    assert len(table.rows) == 2
    a1 = table.rows[0]["value"]
    a2 = table.rows[1]["value"]
    assert a2 <= a1 + 1e-12  # nonincreasing in p on the same family


def test_bsvy_experiment_rows_equal_per_space_sups():
    from normlab import BsvyParams, bsvy_sup, sample, sobolev_norm
    from normlab.domains import mask, parse_domain
    from normlab.experiments import run_bsvy_experiment

    spaces = [Lebesgue(2.0), parse_space("lorentz:r=3,tau=2.5"), Morrey(2.0, 4.0)]
    fns = [TestFunctionSpec("gaussian", sigma=0.6, center=0.3), TestFunctionSpec("tent", width=1.5)]
    cfg = base_cfg(functions=fns, spaces=spaces, gammas=(1.0, -1.0), p=2.0,
                   domain=parse_domain("ball:radius=1.3"), refine=True)
    cfg.grid = make_grid(1, -2.0, 2.0, 24)
    table, summary = run_bsvy_experiment(cfg)
    fine = cfg.grid.refine(2)
    omega = mask(cfg.domain, fine)
    expected = []
    for fn in fns:
        f = sample(fn, fine)
        for space in spaces:
            for gamma in cfg.gammas:
                rep = bsvy_sup(f, BsvyParams(gamma, 2.0), space, omega, cfg.policy)
                expected.append((fn.canonical(), space.canonical(), gamma, rep.sup,
                                 sobolev_norm(f, space, omega), rep.flags))
    got = [(r["function"], r["space"], r["gamma_or_s"], r["value"], r["reference"],
            r["flags"].split(";")[:-1]) for r in table.rows]
    assert got == expected
    assert list(summary) == [f"{s.canonical()}|gamma={g}" for s in spaces for g in cfg.gammas]


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_bbm_experiment_rows_equal_per_s_values(p):
    from normlab import bbm_constant, bbm_limit_extrapolate, bbm_scaled_value, sample, sobolev_norm
    from normlab.domains import mask, parse_domain

    spaces = [Lebesgue(p), parse_space("lorentz:r=3,tau=2.5"), Morrey(2.0, 4.0)]
    cfg = base_cfg(functions=[TestFunctionSpec("gaussian", sigma=0.7)], spaces=spaces, p=p,
                   domain=parse_domain("ball:radius=3.1"), refine=True)
    cfg.grid = make_grid(1, -4.0, 4.0, 96)
    table = run_bbm_experiment(cfg)
    fine = cfg.grid.refine(2)
    f = sample(cfg.functions[0], fine)
    omega = mask(cfg.domain, fine)
    assert [r["space"] for r in table.rows] == [s.canonical() for s in spaces]
    for row, space in zip(table.rows, spaces):
        pairs = [(s, bbm_scaled_value(f, s, p, space, omega, cfg.policy)) for s in cfg.s_grid]
        assert row["value"] == bbm_limit_extrapolate(pairs)[0]
        assert row["reference"] == bbm_constant(p, 1) ** (1.0 / p) * sobolev_norm(f, space, omega)


def test_bbm_experiment_builds_one_inner_field_per_function_and_grid(monkeypatch):
    import normlab.experiments as E
    from normlab import functionals as F

    calls = {"bbm_scaled_sweep": 0, "gagliardo_seminorm_sweep": 0}

    def counted(name):
        orig = getattr(F, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return orig(*args, **kwargs)
        return wrapper

    for name in calls:  # both homes: the runner may hold its own reference
        monkeypatch.setattr(F, name, counted(name))
        monkeypatch.setattr(E, name, getattr(F, name), raising=False)
    spaces = [Lebesgue(1.0), Lebesgue(2.0), Morrey(2.0, 4.0)]
    fns = [TestFunctionSpec("gaussian"), TestFunctionSpec("tent", width=1.5)]
    for refine, grids in ((False, 1), (True, 2)):
        calls.update(dict.fromkeys(calls, 0))
        cfg = base_cfg(functions=fns, spaces=spaces, p=1.0, refine=refine)
        cfg.grid = make_grid(1, -2.0, 2.0, 32)
        assert len(run_bbm_experiment(cfg).rows) == len(fns) * len(spaces)
        assert calls == {"bbm_scaled_sweep": len(fns) * grids, "gagliardo_seminorm_sweep": 0}
