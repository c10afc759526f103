import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import gpcal
from gpcal import FittedEmulator, sobol_sequence
from gpcal.cli import main
from gpcal.config import load_config
from gpcal.errors import ConfigError
from gpcal.fileio import read_numeric_csv, write_csv
from gpcal.spaces import ParameterSpace

from test_workflow import write_config


@pytest.fixture
def space_file(tmp_path):
    path = tmp_path / "space.json"
    path.write_text(json.dumps({"names": ["a", "b"],
                                "lower": [0.0, -1.0], "upper": [2.0, 1.0]}))
    return path


# ------------------------------------------------------------------ design

def test_cli_design_lhs(tmp_path, space_file, capsys):
    out = tmp_path / "design.csv"
    code = main(["design", "--method", "lhs", "--n", "10",
                 "--space", str(space_file), "--seed", "3", "--out", str(out)])
    assert code == 0
    values, names = read_numeric_csv(out)
    assert names == ["a", "b"]
    assert values.shape == (10, 2)
    assert (tmp_path / "design.csv.meta.json").exists()


def test_cli_design_sobol_matches_library(tmp_path, space_file):
    out = tmp_path / "sobol.csv"
    assert main(["design", "--method", "sobol", "--n", "4",
                 "--space", str(space_file), "--out", str(out)]) == 0
    values, _ = read_numeric_csv(out)
    space = ParameterSpace(["a", "b"], [0.0, -1.0], [2.0, 1.0])
    want = sobol_sequence(4, space).to_physical()
    assert np.array_equal(values, want)


def test_cli_design_missing_space_file(tmp_path, capsys):
    code = main(["design", "--method", "lhs", "--n", "5",
                 "--space", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "d.csv")])
    assert code == 1
    assert "nope.json" in capsys.readouterr().err


def test_cli_usage_error_exit_code(capsys):
    assert main(["design", "--method", "warp"]) == 1


# -------------------------------------------------------------------- fit

def make_training_csv(path, m=15, seed=2):
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(0, 1, m))
    y = np.sin(5 * x) + 0.1 * x
    write_csv(path, ["x", "y"], np.column_stack([x, y]))


def test_cli_fit_roundtrip(tmp_path, capsys):
    train = tmp_path / "train.csv"
    make_training_csv(train)
    out = tmp_path / "emulator.json"
    code = main(["fit", "--training", str(train), "--kernel", "matern_5_2",
                 "--method", "mle", "--seed", "5", "--out", str(out)])
    assert code == 0
    assert "q2_loocv" in capsys.readouterr().out
    em = FittedEmulator.load(out)
    probe = np.linspace(0, 1, 23).reshape(-1, 1)
    m1, v1 = em.predict_batch(probe, warn_extrapolation=False)
    em2 = FittedEmulator.from_dict(json.loads(out.read_text()))
    m2, v2 = em2.predict_batch(probe, warn_extrapolation=False)
    assert np.allclose(m1, m2, rtol=0, atol=1e-12)
    assert np.allclose(v1, v2, rtol=1e-12, atol=1e-16)


def test_cli_fit_malformed_cell(tmp_path, capsys):
    train = tmp_path / "bad.csv"
    train.write_text("x,y\n0.1,1.0\n0.2,oops\n0.3,2.0\n")
    code = main(["fit", "--training", str(train),
                 "--out", str(tmp_path / "e.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert "row 3" in err and "column 2" in err


def _fit_cv_report(tmp_path, folds, constant=False):
    train = tmp_path / "train.csv"
    make_training_csv(train, m=15)
    if constant:
        values, names = read_numeric_csv(train)
        values[:, -1] = 2.0
        write_csv(train, names, values)
    report = tmp_path / "report.json"
    code = main(["fit", "--training", str(train), "--method", "cv",
                 "--cv-folds", str(folds), "--seed", "1",
                 "--out", str(tmp_path / "e.json"), "--report", str(report)])
    assert code == 0
    return json.loads(report.read_text())


def test_cli_fit_cv_records_fold_count(tmp_path):
    doc = _fit_cv_report(tmp_path, 5)
    assert doc["cv_folds"] == 5
    assert doc["estimation"] == "cv"


@pytest.mark.parametrize("asked, constant, ran", [(50, False, 15), (5, True, None)])
def test_cli_fit_cv_report_records_the_folds_that_ran(tmp_path, asked, constant,
                                                      ran):
    # 50 folds on 15 rows run 15 (leave-one-out), and constant outputs fit
    # no folds at all; the report once said 50 and 5
    doc = _fit_cv_report(tmp_path, asked, constant)
    assert doc["cv_folds"] == ran
    assert doc["estimation"] == "cv"


# -------------------------------------------------------- calibrate/report

@pytest.fixture(scope="module")
def calibrated_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("run")
    config = write_config(tmp, samples=600, burn=200)
    out_dir = tmp / "artifacts"
    code = main(["calibrate", "--config", str(config), "--out", str(out_dir)])
    assert code == 0
    return config, out_dir


def test_cli_calibrate_artifacts(calibrated_run):
    _, out_dir = calibrated_run
    manifest = json.loads((out_dir / "manifest.json").read_text())
    for name in ("chain_csv", "posterior_summary", "validation_report",
                 "gpcode", "gpbias"):
        assert name in manifest["artifacts"]
        assert (out_dir / manifest["artifacts"][name]).exists()
    for name in ("gpcode", "gpbias"):  # the records load as written
        path = out_dir / manifest["artifacts"][name]
        em = FittedEmulator.load(path)
        assert em.to_dict()["hyperparameters"] == json.loads(path.read_text())["hyperparameters"]
    summary = json.loads((out_dir / "posterior_summary.json").read_text())
    assert set(summary["parameters"]) == {"slope", "offset"}
    for stats in summary["parameters"].values():
        assert "mean" in stats and "std" in stats
    validation = json.loads((out_dir / "validation_report.json").read_text())
    assert list(validation) == ["n_points", "rmse", "coverage_95", "residuals",
                                "n_posterior_draws", "interval_level"]


def test_cli_report_reads_a_validation_report_with_null_q2_and_loocv_error(
        calibrated_run, tmp_path):
    # run records written before those two keys left the report hold both
    # as null; report reads only the residuals
    def add_null_keys(run):
        path = run / "validation_report.json"
        doc = json.loads(path.read_text())
        path.write_text(json.dumps({**doc, "q2": None, "loocv_error": None}))

    assert main(_report(tmp_path, calibrated_run[1], add_null_keys)) == 0
    assert (tmp_path / "run" / "report" / "predictive.csv").is_file()


def test_cli_calibrate_records_the_thread_environment(calibrated_run):
    manifest = json.loads((calibrated_run[1] / "manifest.json").read_text())
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "GPCAL_WORKERS")
    assert manifest["environment"] == {name: os.environ.get(name) for name in names}


def _set_environment(value):
    """An edit of a run that sets, or with ``None`` drops, the manifest's
    ``environment`` block."""
    def edit(run):
        manifest = json.loads((run / "manifest.json").read_text())
        if value is None:
            del manifest["environment"]
        else:
            manifest["environment"] = value
        (run / "manifest.json").write_text(json.dumps(manifest))
    return edit


@pytest.mark.parametrize("block", [
    None,
    {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
     "GPCAL_WORKERS": "2"},
    {"OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": None, "MKL_NUM_THREADS": None,
     "GPCAL_WORKERS": None}], ids=["without", "set", "unset"])
def test_cli_report_reads_a_manifest_with_or_without_the_environment(
        calibrated_run, tmp_path, block):
    assert main(_report(tmp_path, calibrated_run[1], _set_environment(block))) == 0
    assert (tmp_path / "run" / "report" / "predictive.csv").is_file()


def test_cli_report_rejects_a_malformed_environment(calibrated_run, tmp_path, capsys):
    edit = _set_environment({"OPENBLAS_NUM_THREADS": 1})
    assert main(_report(tmp_path, calibrated_run[1], edit)) == 2
    assert "environment.OPENBLAS_NUM_THREADS" in capsys.readouterr().err


def test_cli_calibrate_deterministic_chain(calibrated_run, tmp_path):
    config, out_dir = calibrated_run
    rerun_dir = tmp_path / "rerun"
    assert main(["calibrate", "--config", str(config),
                 "--out", str(rerun_dir)]) == 0
    assert (rerun_dir / "chain.csv").read_bytes() == \
        (out_dir / "chain.csv").read_bytes()


def test_cli_calibrate_gate_failure(tmp_path, capsys):
    config = write_config(tmp_path, kernel="exponential", n_train=14,
                          q2_gate=0.999, samples=300, burn=100)
    code = main(["calibrate", "--config", str(config),
                 "--out", str(tmp_path / "out")])
    assert code == 4
    assert "gate" in capsys.readouterr().err


def test_cli_calibrate_experiments_not_in_utf8_is_a_data_error(tmp_path, capsys):
    config = write_config(tmp_path)
    csv = tmp_path / "experiments.csv"
    csv.write_bytes(csv.read_bytes() + b"\xe9")
    code = main(["calibrate", "--config", str(config),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not UTF-8" in err
    assert not (tmp_path / "out").exists()


def test_cli_report_outputs(calibrated_run):
    _, out_dir = calibrated_run
    assert main(["report", "--run", str(out_dir), "--bins", "25"]) == 0
    report_dir = out_dir / "report"
    chain, names = read_numeric_csv(out_dir / "chain.csv")
    for name in names:
        bins, cols = read_numeric_csv(report_dir / f"marginal_{name}.csv")
        assert cols == ["bin_left", "bin_right", "count"]
        assert bins[:, 2].sum() == chain.shape[0]
    trace, tcols = read_numeric_csv(report_dir / "trace.csv")
    assert tcols == ["iteration"] + names
    assert trace.shape[0] == chain.shape[0]
    pred, pcols = read_numeric_csv(report_dir / "predictive.csv")
    assert pcols == ["pred_mean", "pred_sd", "observed", "lower95", "upper95"]
    assert np.array_equal(pred[:, 4], pred[:, 0] + 1.96 * pred[:, 1])
    assert np.array_equal(pred[:, 3], pred[:, 0] - 1.96 * pred[:, 1])
    for curve in ("gpcode_curve.csv", "gpbias_curve.csv"):
        vals, ccols = read_numeric_csv(report_dir / curve)
        assert ccols == ["x", "mean", "sd", "lower95", "upper95"]
        assert np.array_equal(vals[:, 4], vals[:, 1] + 1.96 * vals[:, 2])


def test_cli_report_missing_manifest(tmp_path, capsys):
    assert main(["report", "--run", str(tmp_path)]) == 2
    assert "manifest" in capsys.readouterr().err


# ------------------------------------------- failures never end in a traceback

def _space(tmp_path, text):
    path = tmp_path / "space.json"
    path.write_text(text)
    return ["design", "--method", "lhs", "--n", "5", "--space", str(path),
            "--out", str(tmp_path / "d.csv")]


def _fit(tmp_path, *flags):
    train = tmp_path / "train.csv"
    make_training_csv(train)
    return ["fit", "--training", str(train), "--out", str(tmp_path / "e.json"),
            *flags]


def _report(tmp_path, run_dir, edit, *flags):
    """``report`` on a copy of a finished run whose files ``edit`` changed."""
    copy = tmp_path / "run"
    shutil.copytree(run_dir, copy)
    edit(copy)
    return ["report", "--run", str(copy), *flags]


def _truncate(path):
    path.write_text(path.read_text()[:40])


def _touch(path):
    """``path`` made an empty file, replacing any directory there."""
    shutil.rmtree(path, ignore_errors=True)
    path.write_text("")
    return path


def _drop_x_names(run):
    manifest = json.loads((run / "manifest.json").read_text())
    del manifest["x_names"]
    (run / "manifest.json").write_text(json.dumps(manifest))


def _escape_header(run):
    """chain.csv with a header cell that, as a file name, leaves the run."""
    path = run / "chain.csv"
    header, rest = path.read_text().split("\n", 1)
    path.write_text("x/../../../escaped," + header.split(",", 1)[1] + "\n" + rest)


def _edit_gpcode(section, key, value):
    """An edit of a run that sets ``gpcode.json``'s ``section.key``."""
    def edit(run):
        doc = json.loads((run / "gpcode.json").read_text())
        doc[section][key] = value
        (run / "gpcode.json").write_text(json.dumps(doc))
    return edit


def _calibrate_negative_sigma(tmp_path):
    config = write_config(tmp_path, samples=300, burn=100)
    csv = tmp_path / "experiments.csv"
    lines = csv.read_text().splitlines()
    csv.write_text("\n".join(lines[:1] + [line.replace(",0.05", ",-0.05")
                                         for line in lines[1:]]) + "\n")
    return ["calibrate", "--config", str(config), "--out", str(tmp_path / "out")]


def _calibrate_non_utf8_simulator(tmp_path):
    script = tmp_path / "sim.py"
    script.write_text("import sys\nopen(sys.argv[2], 'wb').write(b'y\\n\\xe9\\n')\n")
    return _calibrate_edited(tmp_path, lambda raw: raw.update(simulator={
        "kind": "subprocess", "command": [sys.executable, str(script)]}))


def _calibrate_edited(tmp_path, edit):
    """argv calibrating ``write_config``'s config after ``edit(raw)``."""
    config = write_config(tmp_path, samples=300, burn=100)
    raw = yaml.safe_load(config.read_text())
    edit(raw)
    config.write_text(yaml.safe_dump(raw))
    return ["calibrate", "--config", str(config), "--out", str(tmp_path / "out")]


def _nominal_at_a_lognormal_zero(raw):
    raw["calibration"]["priors"][0] = {"dist": "lognormal", "log_mean": 0.5,
                                       "log_sd": 0.5}
    raw["calibration"]["nominal"] = [0.0, 1.0]


def _split_lists_with_fraction(raw):
    raw["experiments"]["split"]["fraction"] = 0.5


def _missing_workdir(raw):
    raw["simulator"] = {"kind": "subprocess", "command": [sys.executable, "-c", ""],
                        "workdir": "no-such-dir"}


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("start", ["missing", "not-executable"])
def test_cli_simulator_that_cannot_start_exits_2(tmp_path, capsys, monkeypatch,
                                                 start, workers):
    # each once ended in a FileNotFoundError or PermissionError traceback
    command = tmp_path / "sim"
    if start == "not-executable":
        command.write_text("#!/bin/sh\n")
        command.chmod(0o644)
    config = write_config(tmp_path, samples=300, burn=100)
    raw = yaml.safe_load(config.read_text())
    raw["simulator"] = {"kind": "subprocess", "command": [str(command)]}
    config.write_text(yaml.safe_dump(raw))
    monkeypatch.setenv("GPCAL_WORKERS", workers)
    argv = ["calibrate", "--config", str(config), "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"subprocess:{command} could not be started on rows 1.." in err
    assert ("No such file" if start == "missing" else "Permission denied") in err


#: id -> (argv from (tmp_path, finished run directory), exit code, text the
#: error line must hold). Each ended in a traceback, exit 0 or another exit
#: code before.
FAILURES = {
    "design-space-malformed-json": (
        lambda tmp, run: _space(tmp, '{"names": ["a"], "lower": [0'),
        1, "malformed JSON"),
    "design-space-names-5": (
        lambda tmp, run: _space(tmp, '{"names": 5, "lower": [0], "upper": [1]}'),
        1, "names 5 is not a list"),
    "design-seed-negative": (
        lambda tmp, run: _space(tmp, '{"names": ["a"], "lower": [0], "upper": [1]}')
        + ["--seed", "-3"], 1, "--seed"),
    "fit-restarts-0": (lambda tmp, run: _fit(tmp, "--restarts", "0"), 1, "--restarts"),
    "fit-seed-negative": (lambda tmp, run: _fit(tmp, "--seed", "-1"), 1, "--seed"),
    "fit-nugget-nan": (lambda tmp, run: _fit(tmp, "--nugget", "nan"), 1, "--nugget"),
    "fit-nugget-negative": (
        lambda tmp, run: _fit(tmp, "--nugget", "-1"), 1, "--nugget"),
    "fit-out-is-a-directory": (
        lambda tmp, run: _fit(tmp, "--out", str(tmp)), 1, "cannot write "),
    "fit-report-under-a-file": (
        lambda tmp, run: _fit(tmp, "--report", str(tmp / "train.csv" / "r.json")),
        1, "cannot create directory"),
    "calibrate-out-is-a-file": (
        lambda tmp, run: ["calibrate", "--config", str(run.parent / "config.yaml"),
                          "--out", str(_touch(tmp / "out"))],
        1, "cannot create directory"),
    "report-dir-is-a-file": (
        lambda tmp, run: _report(tmp, run, lambda r: _touch(r / "report")),
        1, "cannot create directory"),
    "report-bins-0": (
        lambda tmp, run: _report(tmp, run, lambda r: None, "--bins", "0"), 1, "--bins"),
    "report-truncated-gpcode": (
        lambda tmp, run: _report(tmp, run, lambda r: _truncate(r / "gpcode.json")),
        2, "gpcode.json: malformed JSON"),
    "report-truncated-manifest": (
        lambda tmp, run: _report(tmp, run, lambda r: _truncate(r / "manifest.json")),
        2, "manifest.json: malformed JSON"),
    "report-manifest-without-x-names": (
        lambda tmp, run: _report(tmp, run, _drop_x_names), 2,
        "manifest.json: missing required field x_names"),
    "report-validation-without-residuals": (
        lambda tmp, run: _report(tmp, run, lambda r: (r / "validation_report.json")
                                 .write_text('{"rmse": 0.1}')),
        2, "validation_report.json: missing required field residuals"),
    "report-chain-header-escapes-the-run": (
        lambda tmp, run: _report(tmp, run, _escape_header), 2,
        "chain.csv: header ['x/../../../escaped', 'offset'] is not the manifest's "
        "theta_names ['slope', 'offset']"),
    "report-gpcode-sigma2-null": (
        lambda tmp, run: _report(tmp, run, _edit_gpcode("hyperparameters", "sigma2", None)),
        2, "gpcode.json: hyperparameters.sigma2 None is not a finite number >= 0"),
    "report-gpcode-sigma2-negative": (
        lambda tmp, run: _report(tmp, run, _edit_gpcode("hyperparameters", "sigma2", -1.0)),
        2, "hyperparameters.sigma2 -1.0 is not"),
    "report-gpcode-scale-inputs-null": (
        lambda tmp, run: _report(tmp, run, _edit_gpcode("scaling", "scale_inputs", None)),
        2, "gpcode.json: scaling.scale_inputs None is not true or false"),
    "report-gpcode-standardize-outputs-1": (
        lambda tmp, run: _report(tmp, run, _edit_gpcode("scaling", "standardize_outputs", 1)),
        2, "scaling.standardize_outputs 1 is not true or false"),
    "calibrate-negative-sigma-exp": (
        lambda tmp, run: _calibrate_negative_sigma(tmp), 2, "negative sigma_exp"),
    "calibrate-simulator-output-not-utf8": (
        lambda tmp, run: _calibrate_non_utf8_simulator(tmp), 2, "output for rows 1..10:"),
    "calibrate-nominal-where-the-prior-density-is-zero": (
        lambda tmp, run: _calibrate_edited(tmp, _nominal_at_a_lognormal_zero), 1,
        "nominal point [0.0, 1.0] lies where the prior density is zero"),
    "calibrate-split-lists-with-fraction": (
        lambda tmp, run: _calibrate_edited(tmp, _split_lists_with_fraction), 1,
        "split gives iuq/val lists and fraction/seed"),
    "calibrate-simulator-workdir-missing": (
        lambda tmp, run: _calibrate_edited(tmp, _missing_workdir), 1,
        "simulator workdir not found: "),
}


@pytest.mark.parametrize("case", FAILURES, ids=list(FAILURES))
def test_cli_failure_exits_with_its_code_and_an_error_line(case, calibrated_run,
                                                            tmp_path, capsys):
    make_argv, want_code, want_text = FAILURES[case]
    argv = make_argv(tmp_path, calibrated_run[1])
    capsys.readouterr()
    assert main(argv) == want_code
    error = [ln for ln in capsys.readouterr().err.splitlines()
             if ln.startswith("error: ")]
    assert error and want_text in error[-1], error


# ------------------------------------------------- what a run imports

DEMO_CONFIG = Path(__file__).resolve().parents[1] / "demo" / "linear_demo.yaml"


def loads_scipy_stats(code, cwd):
    """Whether ``scipy.stats`` is in ``sys.modules`` after ``code`` ran in a
    fresh interpreter: importing it costs about 200 ms, and only the Sobol
    and Halton designs need it."""
    src = str(Path(gpcal.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\n"
         "print('scipy.stats' in sys.modules)"],
        cwd=cwd, env={**os.environ, "PYTHONPATH": src}, capture_output=True,
        text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1] == "True"


def test_cli_import_and_config_load_leave_scipy_stats_unloaded(tmp_path):
    start = "import gpcal.cli\nfrom gpcal.config import load_config\n"
    assert not loads_scipy_stats(f"{start}load_config({str(DEMO_CONFIG)!r})", tmp_path)
    # the probe sees the import where it does happen
    assert loads_scipy_stats(
        f"{start}from gpcal import ParameterSpace, sobol_sequence\n"
        "sobol_sequence(4, ParameterSpace(['a'], [0.0], [1.0]))", tmp_path)


def test_calibrate_leaves_scipy_stats_unloaded(tmp_path):
    config = write_config(tmp_path, samples=300, burn=100)
    argv = ["calibrate", "--config", str(config), "--out", str(tmp_path / "out")]
    assert not loads_scipy_stats(
        f"from gpcal.cli import main\nassert main({argv!r}) == 0", tmp_path)
    assert (tmp_path / "out" / "validation_report.json").is_file()


# ------------------------------------------------------------------ config

def test_config_hash_stable_under_reordering(tmp_path):
    path1 = write_config(tmp_path, name="a.yaml")
    raw = yaml.safe_load(path1.read_text())
    reordered = dict(reversed(list(raw.items())))
    path2 = tmp_path / "b.yaml"
    path2.write_text("# a comment\n" + yaml.safe_dump(reordered))
    assert load_config(path1).config_hash == load_config(path2).config_hash


def test_config_hash_changes_with_fields(tmp_path):
    base = load_config(write_config(tmp_path, name="a.yaml")).config_hash
    changed = load_config(write_config(tmp_path, mcmc_seed=999,
                                       name="b.yaml")).config_hash
    assert base != changed


def test_config_validation_errors(tmp_path):
    config = write_config(tmp_path)
    raw = yaml.safe_load(config.read_text())
    bad = dict(raw)
    del bad["mcmc"]["seed"]
    p = tmp_path / "noseed.yaml"
    p.write_text(yaml.safe_dump(bad))
    with pytest.raises(ConfigError, match="seed"):
        load_config(p)

    raw2 = yaml.safe_load(write_config(tmp_path, name="c.yaml").read_text())
    raw2["experiments"]["path"] = "missing.csv"
    p2 = tmp_path / "nofile.yaml"
    p2.write_text(yaml.safe_dump(raw2))
    with pytest.raises(ConfigError, match="missing.csv"):
        load_config(p2)

    with pytest.raises(ConfigError):
        load_config(tmp_path / "nonexistent.yaml")


def test_config_resolves_the_simulator_workdir_against_its_directory(tmp_path,
                                                                    monkeypatch):
    # it once resolved against the shell's cwd, as the README says it must not
    project = tmp_path / "project"
    (project / "simdir").mkdir(parents=True)
    (project / "simdir" / "offset.txt").write_text("0.25\n")
    script = project / "sim.py"
    script.write_text("import sys\n"
                      "rows = open(sys.argv[1]).read().split()[1:]\n"
                      "off = float(open('offset.txt').read())\n"
                      "ys = [float(r.split(',')[1]) + off for r in rows]\n"
                      "lines = ''.join(f'{y}\\n' for y in ys)\n"
                      "open(sys.argv[2], 'w').write('y\\n' + lines)\n")
    config = write_config(project)
    raw = yaml.safe_load(config.read_text())
    raw["simulator"] = {"kind": "subprocess", "command": [sys.executable, str(script)],
                        "workdir": "simdir"}
    config.write_text(yaml.safe_dump(raw))
    monkeypatch.chdir(tmp_path)
    sim = load_config(config).simulator
    assert sim.workdir == str((project / "simdir").resolve())
    assert sim.run(np.array([[2.0, 3.0, 1.0]])).tolist() == [3.25]


def test_config_not_in_utf8_is_a_config_error(tmp_path):
    path = write_config(tmp_path)
    path.write_bytes(path.read_bytes() + b"# caf\xe9\n")
    with pytest.raises(ConfigError, match="cannot parse"):
        load_config(path)


@pytest.mark.parametrize("key, value", [("design", "crosss"),
                                        ("design_method", "sobol")])
def test_config_rejects_unknown_code_design(tmp_path, key, value):
    # caught when the config loads, not after split and GPbias have run
    raw = yaml.safe_load(write_config(tmp_path).read_text())
    raw["emulator"][key] = value
    path = tmp_path / "bad_design.yaml"
    path.write_text(yaml.safe_dump(raw))
    with pytest.raises(ConfigError, match=f"emulator.{key} {value!r}"):
        load_config(path)


@pytest.mark.parametrize("section, key", [
    ("emulator", "seed"), ("mcmc", "seed"), ("mcmc", "burn"),
    ("thresholds", "q2_gate"), ("validation", "max_sim_evals")])
@pytest.mark.parametrize("value", ["thirteen", [13]])
def test_cli_non_numeric_config_value_is_a_config_error(tmp_path, capsys,
                                                        section, key, value):
    # exit code 1 and one error line, not a traceback from int() or float()
    raw = yaml.safe_load(write_config(tmp_path).read_text())
    raw.setdefault(section, {})[key] = value
    path = tmp_path / "bad_value.yaml"
    path.write_text(yaml.safe_dump(raw))
    code = main(["calibrate", "--config", str(path),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{section}.{key}" in err
    assert not (tmp_path / "out").exists()


def test_demo_config_loads():
    config = load_config("demo/linear_demo.yaml")
    assert config.theta_names == ("slope", "offset")
    assert config.mcmc["seed"] == 13
    assert config.experiments.n == 20
