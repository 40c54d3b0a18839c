import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import normlab
from normlab.cli import main
from normlab.experiments import load_config, run_bsvy_experiment
from normlab.reports import COLUMNS, RatioTable, emit_report


CONFIG_TEXT = """\
[experiment]
kind = bsvy
seed = 11

[grid]
n = 1
lo = -2.0
hi = 2.0
points = 32

[functions]
specs = gaussian:center=0.0,sigma=1.0
    tent:center=0.0,width=1.5

[spaces]
specs = lebesgue:p=2.0

[domain]
spec = ball:center=0.0,radius=1.3

[sweeps]
gammas = 1
p = 2

[output]
dir = {out}
refine = false
"""


def test_ratio_table_schema_and_degenerate_flag():
    t = RatioTable()
    t.add_row(experiment="x", function="f", space="s", domain="d", n=1, p=1.0,
              gamma_or_s=1.0, value=0.0, reference=0.0, grid="g", seed=0)
    assert "degenerate" in t.rows[0]["flags"]
    with pytest.raises(ValueError):
        t.add_row(bogus=1)


def test_csv_single_row_layout(tmp_path):
    t = RatioTable()
    t.add_row(experiment="norm", function="f", space="s", domain="d", n=1, p=2.0,
              gamma_or_s=0.5, value=1.25, reference=2.5, grid="g", seed=7)
    paths = emit_report(t, tmp_path, "one", formats=("csv",))
    lines = paths[0].read_text().strip().split("\n")
    assert lines[0] == ",".join(COLUMNS)
    assert len(lines) == 2
    assert lines[1].split(",")[COLUMNS.index("ratio")] == "0.5"


def test_csv_writes_numpy_scalars_as_plain_floats(tmp_path):
    t = RatioTable()
    t.add_row(experiment="norm", function="f", space="s", domain="d", n=1, p=2.0,
              gamma_or_s=0.5, value=np.float64(1.5), reference=2.0, grid="g", seed=7)
    row = emit_report(t, tmp_path, "np", formats=("csv",))[0].read_text().strip().split("\n")[1]
    cells = row.split(",")
    assert cells[COLUMNS.index("value")] == "1.5"
    assert cells[COLUMNS.index("ratio")] == "0.75"
    assert "np." not in row


def test_csv_quotes_comma_fields(tmp_path):
    import csv as csvmod

    t = RatioTable()
    t.add_row(experiment="norm", function="gaussian:center=0.0,sigma=1.0", space="s",
              domain="d", n=1, p=2.0, gamma_or_s=0.5, value=1.0, reference=2.0,
              grid="g", seed=7)
    paths = emit_report(t, tmp_path, "quoted", formats=("csv",))
    rows = list(csvmod.DictReader(paths[0].open()))
    assert rows[0]["function"] == "gaussian:center=0.0,sigma=1.0"
    assert rows[0]["ratio"] == "0.5"


def test_json_roundtrip(tmp_path):
    t = RatioTable(provenance={"kind": "norm"})
    t.add_row(experiment="norm", function="f", space="s", domain="d", n=2, p=1.5,
              gamma_or_s=0.3, value=0.123456789012345, reference=1.0, grid="g", seed=1)
    text = t.to_json_text()
    back = RatioTable.from_json_text(text)
    assert back.rows == t.rows
    assert back.to_json_text() == text


def test_emit_rejects_empty(tmp_path):
    with pytest.raises(ValueError):
        emit_report(RatioTable(), tmp_path, "empty")


def test_config_load(tmp_path):
    cfg_path = tmp_path / "exp.ini"
    cfg_path.write_text(CONFIG_TEXT.format(out=tmp_path))
    cfg = load_config(cfg_path)
    assert cfg.kind == "bsvy"
    assert cfg.seed == 11
    assert len(cfg.functions) == 2
    assert cfg.domain.tag == "ball"
    assert cfg.gammas == (1.0,)
    assert not cfg.refine


def test_bsvy_experiment_rows_and_bracket(tmp_path):
    cfg_path = tmp_path / "exp.ini"
    cfg_path.write_text(CONFIG_TEXT.format(out=tmp_path))
    cfg = load_config(cfg_path)
    table, summary = run_bsvy_experiment(cfg)
    assert len(table.rows) == 2
    key = next(iter(summary))
    assert summary[key]["width"] >= 1.0
    assert math.isnan(summary[key]["delta"])  # no refinement, no delta
    cfg.refine = True
    table, summary = run_bsvy_experiment(cfg)
    deltas = [float(tok.split("=")[1]) for row in table.rows for tok in row["flags"].split(";")
              if tok.startswith("refine_delta=")]
    assert len(deltas) == 2
    assert summary[key]["delta"] == pytest.approx(max(deltas), rel=1e-3)


def test_cli_determinism(tmp_path):
    args = ["--out", str(tmp_path / "a"), "--seed", "3", "--grid", "n=1,L=2,N=24",
            "norm", "--fn", "gaussian:sigma=1.0,center=0.0", "--space", "lebesgue:p=2.0"]
    assert main(args) == 0
    args2 = ["--out", str(tmp_path / "b"), "--seed", "3", "--grid", "n=1,L=2,N=24",
             "norm", "--fn", "gaussian:sigma=1.0,center=0.0", "--space", "lebesgue:p=2.0"]
    assert main(args2) == 0
    a = (tmp_path / "a" / "norms.csv").read_bytes()
    b = (tmp_path / "b" / "norms.csv").read_bytes()
    assert a == b
    aj = (tmp_path / "a" / "norms.json").read_bytes()
    bj = (tmp_path / "b" / "norms.json").read_bytes()
    assert aj == bj


def test_cli_bbm_smoke(tmp_path):
    rc = main(["--out", str(tmp_path), "--grid", "n=1,L=6,N=256",
               "bbm", "--fn", "gaussian:sigma=1.0,center=0.0",
               "--space", "lebesgue:p=1.0", "--p", "1.0", "--no-refine"])
    assert rc == 0
    rows = json.loads((tmp_path / "bbm.json").read_text())["rows"]
    assert rows[0]["ratio"] == pytest.approx(1.0, rel=0.1)


def test_cli_apconst_smoke(tmp_path):
    rc = main(["--out", str(tmp_path), "--grid", "n=1,L=2,N=128",
               "apconst", "--weight", "power:a=-0.5,center=0.0"])
    assert rc == 0
    assert (tmp_path / "apconst.csv").exists()


def test_cli_epsilon_check(tmp_path, capsys):
    rc = main(["--grid", "n=2,L=1,N=8", "epsilon-check",
               "--domain", "slitbox:axis=0,pos=0.1234,start=0.0",
               "--eps", "0.5", "--samples", "50"])
    assert rc == 0
    out = capsys.readouterr().out
    assert json.loads(out)["verdict"] == "refuted"


def test_cli_weak_holder(tmp_path):
    rc = main(["--out", str(tmp_path), "--seed", "4", "--grid", "n=1,L=0.5,N=8",
               "weak-holder", "--instances", "10"])
    assert rc == 0


def test_cli_weak_holder_honours_gamma(tmp_path):
    # one --gamma reaches the suite; without it the run is the gamma = 1 one
    runs = {}
    for name, extra in [("none", []), ("one", ["--gamma", "1"]), ("half", ["--gamma", "0.5"])]:
        out = tmp_path / name
        assert main(["--out", str(out), "--seed", "4", "--grid", "n=1,L=0.5,N=8",
                     "weak-holder", "--instances", "10"] + extra) == 0
        runs[name] = json.loads((out / "weak_holder.json").read_text())
    assert [r["value"] for r in runs["one"]["rows"]] == [r["value"] for r in runs["none"]["rows"]]
    half = runs["half"]["rows"]
    assert {r["gamma_or_s"] for r in half} == {0.5}
    assert [r["value"] for r in half] != [r["value"] for r in runs["none"]["rows"]]


@pytest.mark.parametrize("instances", ["0", "-3"])
def test_cli_weak_holder_rejects_no_instances(tmp_path, capsys, instances):
    rc = main(["--out", str(tmp_path), "--grid", "n=1,L=0.5,N=8", "weak-holder",
               "--instances", instances])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"normlab: error: instances must be at least 1, got {instances}\n"
    assert not any(tmp_path.iterdir())


def test_cli_maximal_smoke(tmp_path):
    rc = main(["--out", str(tmp_path), "--grid", "n=1,L=2,N=64",
               "maximal", "--fn", "gaussian:sigma=1.0,center=0.0"])
    assert rc == 0
    assert (tmp_path / "maximal.csv").exists()


def test_cli_morrey_duality_smoke(tmp_path):
    rc = main(["--out", str(tmp_path), "--seed", "2", "--grid", "n=1,L=2,N=48",
               "morrey-duality", "--fn", "tent:width=2.0,center=0.0",
               "--space", "morrey:r=2.0,alpha=4.0", "--theta", "0.75"])
    assert rc == 0
    assert (tmp_path / "morrey_duality.csv").exists()


def test_cli_verify_subset(capsys):
    rc = main(["verify", "--criteria", "5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "[PASS] lorentz-indicator" in out


def test_cli_closed_stdout_pipe_ends_quietly():
    env = dict(os.environ, PYTHONPATH=str(Path(normlab.__file__).parents[1]))
    read_end, write_end = os.pipe()
    proc = subprocess.Popen([sys.executable, "-m", "normlab.cli", "verify", "--criteria", "5"],
                            stdout=write_end, stderr=subprocess.PIPE, env=env)
    os.close(write_end)
    os.close(read_end)  # the reader goes before the child has imported numpy, let alone printed
    err = proc.communicate(timeout=60)[1].decode()
    assert proc.returncode == 1
    assert "Traceback" not in err and "Exception ignored" not in err


@pytest.mark.parametrize("argv, message", [
    (["norm", "--space", "lebesgue:q=2", "--fn", "gaussian:sigma=1"],
     "space 'lebesgue' needs parameter 'p'"),
    (["--grid", "n=1,L=2,N=1", "norm"], "need at least 2 cells per axis"),
    (["--grid", "n=1,L=2,N", "norm"], "bad parameter 'N' in 'n=1,L=2,N'"),
    (["apconst", "--weight", "power:a"], "bad parameter 'a' in 'power:a'"),
    (["apconst", "--weight", "power:alpha=-0.5"], "unknown weight parameter 'alpha'"),
    (["--grid", "n=1,l=3", "norm"], "unknown grid parameter 'l'"),
    (["norm", "--space", "mixed:", "--fn", "gaussian"], "space 'mixed' needs parameter 'r'"),
    (["norm", "--space", "varleb:base=2,slop=0.5", "--fn", "gaussian"],
     "unknown space 'varleb' parameter 'slop'"),
    (["norm", "--space", "orlicz:p=2,p2=3", "--fn", "gaussian"],
     "unknown space 'orlicz' parameter 'p2'"),
    (["norm", "--space", "lebesgue:p=2;3", "--fn", "gaussian"],
     "space 'lebesgue' parameter 'p' takes one number"),
    (["norm", "--fn", "gaussian:sigm=0.5"], "unknown function 'gaussian' parameter 'sigm'"),
    (["norm", "--fn", "gaussian", "--domain", "ball:radius=1,centre=0.5"],
     "unknown domain 'ball' parameter 'centre'"),
    (["norm", "--fn", "polygauss:degree=1.5"], "polygauss degree must be a whole number"),
    (["--grid", "n=1,L=2,N=16", "norm", "--fn", "coordinate:axis=3"],
     "coordinate axis 3 is not an axis of a 1D grid"),
    (["--grid", "n=1,L=2,N=16", "norm", "--fn", "gaussian", "--domain", "halfspace:axis=2"],
     "halfspace axis 2 is not an axis of a 1D grid"),
    (["--grid", "n=1,L=2,N=16", "norm", "--fn", "gaussian", "--domain", "slitbox:axis=2"],
     "slitbox axis 2 is not an axis of a 1D grid"),
    (["--grid", "n=1,L=2,N=16", "norm", "--fn", "gaussian", "--space", "varleb:base=2,axis=3"],
     "exponent axis 3 is not an axis of a 1D grid"),
    (["--grid", "n=1,L=2,N=16", "norm", "--fn", "gaussian", "--space", "mixed:r=2;3"],
     "need 1 exponents, got 2"),
    (["--grid", "n=2,L=2,N=16", "norm", "--fn", "gaussian:center=0;0;0"],
     "expected 2 entries (one per axis), got 3"),
    (["--grid", "n=1,L=2,N=16", "norm", "--fn", "gaussian", "--domain", "ball:center=10,radius=0.1"],
     "domain ball:center=10.0,radius=0.1 holds no cell centre of this grid"),
    (["norm", "--fn", "gaussian", "--space", "weighted:r=2,a=nan"],
     "weight exponent and center must be finite"),
    (["norm", "--fn", "gaussian", "--space", "weighted:r=2,a=0.5,center=inf"],
     "weight exponent and center must be finite"),
    (["weak-holder", "--instances", "2", "--gamma", "1", "--gamma", "2"], "weak-holder takes one --gamma"),
    (["weak-holder", "--instances", "2", "--gamma", "nan"], "gamma must be finite, got nan"),
    (["norm", "--fn", "gaussian", "--space", "herzlocal:p=2,q=2,a=0,xi=nan"],
     "Herz centre xi must be finite"),
    (["norm", "--fn", "gaussian", "--space", "orliczslice:p=2,r=2,t=inf"],
     "ball radius must be finite and >= 0, got inf"),
    (["--grid", "n=2,L=1,N=8", "epsilon-check", "--domain", "slitbox:start=nan"],
     "slitbox start must be finite, got nan"),
    (["norm", "--fn", "gaussian:sigma=inf"], "gaussian sigma must be finite, got inf"),
    (["--grid", "n=1,N=64", "bsvy", "--fn", "gaussian:sigma=1e-300", "--space", "lebesgue:p=2"],
     "function gaussian:center=0.0,sigma=1e-300 is out of range: its values or gradient on the grid"
     " are not finite\n"),
    (["--grid", "n=1,N=64", "bsvy", "--fn", "gaussian:sigma=1e-160", "--space", "lebesgue:p=2"],
     "function gaussian:center=0.0,sigma=1e-160 is out of range: its values or gradient on the grid"
     " are not finite\n"),
    # arithmetic that extreme parameters overflow
    (["norm", "--fn", "gaussian", "--space", "bbmorrey:q=1e-300,p=2,r=3,tau=4"],
     "bbmorrey:p=2.0,q=1e-300,r=3.0,tau=4.0: q=1e-300 is out of range: the arithmetic overflows\n"),
    (["norm", "--fn", "gaussian", "--space", "bbmorrey:q=1e-300,p=2,r=3,tau=inf"],
     "bbmorrey:p=2.0,q=1e-300,r=3.0,tau=inf: q=1e-300 is out of range: the arithmetic overflows\n"),
    (["norm", "--fn", "gaussian", "--space", "weighted:r=1e-300,a=1"],
     "weighted:a=1.0,center=0.0,r=1e-300: r=1e-300 is out of range: the arithmetic overflows\n"),
    (["--grid", "n=1,L=2,N=16", "norm", "--fn", "gaussian", "--space", "herzglobal:p=2,q=2,a=1e300"],
     "herzglobal:a=1e+300,p=2.0,q=2.0: a=1e+300 is out of range: the arithmetic overflows\n"),
    (["--grid", "n=1,L=2,N=16", "norm", "--fn", "gaussian", "--space", "herzlocal:p=2,q=3,a=-1e300"],
     "herzlocal:a=-1e+300,p=2.0,q=3.0,xi=0.0: a=-1e+300 is out of range: the arithmetic overflows\n"),
    (["weak-holder", "--instances", "1", "--gamma", "1e308"], "non-finite left-hand side"),
    # command-line errors, epsilon-check without a domain and an unknown criterion
    (["norm", "--bogus"], "unrecognized arguments: --bogus"),
    (["--bogus", "norm"], "unrecognized arguments: --bogus"),
    (["--plot-script", "norm"], "unrecognized arguments: --plot-script"),
    (["norm", "--fn"], "argument --fn: expected one argument"),
    (["--seed", "x", "norm"], "argument --seed: invalid int value: 'x'"),
    (["frob"], "argument command: invalid choice: 'frob'"),
    ([], "the following arguments are required: command"),
    (["epsilon-check"], "epsilon-check needs --domain"),
    (["verify", "--criteria", "99"], "unknown criteria ['99']; known: ['1', '10', '11', '12', '13',"
                                     " '2', '3', '4', '5', '6', '7', '8', '9']"),
])
def test_cli_bad_input_is_one_line_exit_2(tmp_path, capsys, argv, message):
    assert main(["--out", str(tmp_path)] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("normlab: error: ") and message in captured.err
    assert captured.err.count("\n") == 1
    assert not any(tmp_path.iterdir())


def test_cli_herz_norm_past_the_float_range_of_its_terms(tmp_path, capsys):
    # the Herz terms' squares pass 1e308 at a = +-400, but the norms are finite
    import csv

    argv = ["--out", str(tmp_path), "--grid", "n=1,L=2,N=16", "norm", "--fn", "gaussian",
            "--space", "herzglobal:p=2,q=2,a=-400", "--space", "herzglobal:p=2,q=2,a=400"]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    values = [float(row["value"]) for row in csv.DictReader((tmp_path / "norms.csv").open())]
    assert values == pytest.approx([4.6419e240, 5.2784e240], rel=1e-4)


# a value for every per-run option, and the options each subcommand reads
OPTION_VALUES = {"--fn": "gaussian", "--space": "lebesgue:p=2", "--domain": "ball:radius=1",
                 "--p": "2", "--gamma": "1", "--no-refine": None, "--weight": "power:a=-0.5",
                 "--theta": "0.75", "--instances": "3", "--eps": "0.5", "--samples": "10",
                 "--criteria": "5"}
READS = {
    "norm": {"--fn", "--space", "--domain"},
    "bbm": {"--fn", "--space", "--domain", "--p", "--no-refine"},
    "bsvy": {"--fn", "--space", "--domain", "--p", "--gamma", "--no-refine"},
    "maximal": {"--fn"},
    "apconst": {"--weight"},
    "morrey-duality": {"--fn", "--space", "--domain", "--theta"},
    "weak-holder": {"--domain", "--gamma", "--instances"},
    "epsilon-check": {"--domain", "--eps", "--samples"},
    "verify": {"--criteria"},
}


def _option(name):
    value = OPTION_VALUES[name]
    return [name] if value is None else [name, value]


@pytest.mark.parametrize("command, option", [(c, o) for c, reads in READS.items()
                                             for o in OPTION_VALUES if o not in reads])
def test_cli_option_a_subcommand_does_not_read_is_refused(tmp_path, capsys, command, option):
    assert main(["--out", str(tmp_path), command] + _option(option)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"normlab: error: unrecognized arguments: {' '.join(_option(option))}\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["--grid", "n=1,L=2,N=1", "--config", "/nonexistent.ini"],
    ["--config", "exp.ini"], ["--out", "out"], ["--seed", "3"], ["--grid", "n=1,L=2,N=16"],
])
def test_cli_verify_refuses_the_global_flags(tmp_path, capsys, monkeypatch, argv):
    # no criterion reads them, so none is silently ignored; the first row
    # names a config that does not exist and a grid that _parse_grid rejects
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["verify", "--criteria", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "normlab: error: verify takes none of --config, --out, --seed, --grid\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command, option", [(c, o) for c, reads in READS.items() for o in sorted(reads)])
def test_cli_subcommand_takes_the_options_it_reads(command, option):
    from normlab.cli import _parser

    assert _parser().parse_args([command] + _option(option)).command == command


@pytest.mark.parametrize("command, argv", [("maximal", ["--fn", "gaussian"]),
                                           ("apconst", ["--weight", "power:a=-0.5"])])
def test_cli_whole_grid_runner_refuses_a_config_domain(tmp_path, capsys, command, argv):
    cfg_path = tmp_path / "exp.ini"
    cfg_path.write_text(CONFIG_TEXT.format(out=tmp_path / "out"))  # a ball domain
    assert main(["--config", str(cfg_path), command] + argv) == 2
    assert capsys.readouterr().err == (f"normlab: error: {command} runs on the whole grid,"
                                       " not on domain ball:center=0.0,radius=1.3\n")
    assert not (tmp_path / "out").exists()


def test_cli_config_without_experiment_section(tmp_path, capsys):
    cfg_path = tmp_path / "exp.ini"
    cfg_path.write_text("[grid]\nn = 1\nlo = -1\nhi = 1\npoints = 16\n")
    assert main(["--config", str(cfg_path), "norm"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("normlab: error: ") and "no [experiment] section" in err
    assert err.count("\n") == 1


def test_cli_specs_allow_spaces(tmp_path):
    rc = main(["--out", str(tmp_path), "--grid", "n=1, L=3 , N=16", "norm",
               "--fn", "gaussian: sigma=0.5", "--space", "lebesgue: p=2.0"])
    assert rc == 0
    row = json.loads((tmp_path / "norms.json").read_text())["rows"][0]
    assert row["grid"] == "box=[-3.0]..[3.0] N=[16]"
    assert row["function"] == "gaussian:center=0.0,sigma=0.5"


def test_cli_config_driven_run(tmp_path):
    cfg_path = tmp_path / "exp.ini"
    cfg_path.write_text(CONFIG_TEXT.format(out=tmp_path / "out"))
    rc = main(["--config", str(cfg_path), "bsvy"])
    assert rc == 0
    assert (tmp_path / "out" / "bsvy.csv").exists()


@pytest.mark.parametrize("old, new, message", [
    ("gammas = 1", "gamma = -1", "unknown config [sweeps] parameter 'gamma'; known: gammas, p, s_grid"),
    ("[output]", "[policy]\nnear_windw = 9\n\n[output]", "unknown config [policy] parameter 'near_windw'"),
    ("[output]", "[policy]\nnear_window = nan\n\n[output]",
     "near window must be positive and finite, got nan"),
    ("[output]", "[policy]\nsubsample_window = nan\n\n[output]", "subsample window must be finite and >= 0"),
    ("[output]", "[policy]\nsubsample_window = -1\n\n[output]", "subsample window must be finite and >= 0"),
    ("[output]", "[outptu]", "has unknown section [outptu]; known: experiment, grid,"),
    ("refine = false", "refine = false\nformats = csv", "unknown config [output] parameter 'formats'"),
    ("lo = -2.0\n", "", "config [grid] needs parameter 'lo'"),
    ("hi = 2.0\n", "", "config [grid] needs parameter 'hi'"),
    ("points = 32\n", "", "config [grid] needs parameter 'points'"),
    ("n = 1\n", "", "config [grid] needs parameter 'n'"),
    ("specs = lebesgue:p=2.0", "spec = lebesgue:p=2.0", "config [spaces] needs parameter 'specs'"),
    ("points = 32\n", "points = 32\nfoo\n", "Source contains parsing errors:"),
    ("[experiment]\n", "foo\n[experiment]\n", "File contains no section headers."),
])
def test_cli_bad_config_is_one_line_exit_2(tmp_path, capsys, old, new, message):
    text = CONFIG_TEXT.format(out=tmp_path / "out")
    assert old in text
    cfg_path = tmp_path / "exp.ini"
    cfg_path.write_text(text.replace(old, new, 1))
    assert main(["--config", str(cfg_path), "bsvy"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("normlab: error: ") and message in err
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name, message", [("missing.ini", "No such file or directory"),
                                           (".", "Is a directory")])
def test_cli_unreadable_config_is_one_line_exit_2(tmp_path, capsys, name, message):
    cfg_path = tmp_path / name
    assert main(["--config", str(cfg_path), "norm"]) == 2
    err = capsys.readouterr().err
    assert err == f"normlab: error: cannot read config {str(cfg_path)!r}: {message}\n"


def test_config_policy_keys_keep_the_other_defaults(tmp_path):
    from normlab.functionals import KernelPolicy

    cfg_path = tmp_path / "exp.ini"
    text = CONFIG_TEXT.format(out=tmp_path).replace("[output]", "[policy]\nsubsample = 8\n\n[output]")
    cfg_path.write_text(text)
    assert load_config(cfg_path).policy == KernelPolicy(subsample=8)


@pytest.mark.parametrize("name", ["bbm_demo", "bsvy_demo", "bsvy_2d_catalog"])
def test_committed_configs_load(name):
    from pathlib import Path

    from normlab.experiments import DEFAULT_S_GRID
    from normlab.functionals import DEFAULT_POLICY, KernelPolicy

    cfg = load_config(Path(__file__).parents[1] / "configs" / f"{name}.ini")
    assert cfg.kind == name.split("_")[0] and cfg.seed == 7 and cfg.refine
    assert cfg.functions and cfg.spaces
    assert cfg.s_grid == DEFAULT_S_GRID
    if name == "bbm_demo":
        assert cfg.p == 1.0 and cfg.policy == DEFAULT_POLICY and cfg.domain is None
    else:
        assert cfg.p == 2.0 and cfg.gammas == (1.0, 2.0, -1.0) and cfg.domain.tag == "ball"
        assert cfg.policy == KernelPolicy(near_window=2.5, subsample=8, subsample_window=8.0)


def test_provenance_kind_is_the_subcommand_run(tmp_path):
    cfg_path = tmp_path / "exp.ini"
    cfg_path.write_text(CONFIG_TEXT.format(out=tmp_path / "out"))  # kind = bsvy
    assert main(["--config", str(cfg_path), "norm"]) == 0
    payload = json.loads((tmp_path / "out" / "norms.json").read_text())
    assert payload["provenance"]["kind"] == "norm"
