import numpy as np
import pytest
import yaml

import gpcal.calibration
import gpcal.emulator
from gpcal import DataError, GateError, NumericalError, run_workflow
from gpcal.cli import main
from gpcal.config import load_config
from gpcal.fileio import write_csv

TRUTH = (2.0, 1.0)


def write_linear_experiments(path, n=20, seed=0, sigma=0.05, bias=False,
                             x_range=(0.0, 10.0)):
    rng = np.random.default_rng(seed)
    x = np.linspace(x_range[0], x_range[1], n)
    y = TRUTH[0] * x + TRUTH[1]
    if bias:
        y = y + 0.5 * np.sin(x)
    y = y + rng.normal(0.0, sigma, n)
    write_csv(path, ["x", "y", "sigma_exp"],
              [(xi, yi, sigma) for xi, yi in zip(x, y)])


def write_config(tmp_path, *, n=20, data_seed=0, sigma=0.05, bias=False,
                 samples=2500, burn=600, n_train=120, q2_gate=0.7,
                 discrepancy=True, emulator_seed=11, mcmc_seed=13, chains=1,
                 kernel="matern_5_2", name="config.yaml"):
    exp_path = tmp_path / "experiments.csv"
    write_linear_experiments(exp_path, n=n, seed=data_seed, sigma=sigma,
                             bias=bias)
    cfg = {
        "design_space": {"names": ["x"], "lower": [0.0], "upper": [10.0]},
        "calibration": {
            "names": ["slope", "offset"],
            "priors": [{"dist": "uniform", "lower": 0.0, "upper": 4.0},
                       {"dist": "uniform", "lower": -1.0, "upper": 3.0}],
            "nominal": [2.0, 1.0],
        },
        "simulator": {"kind": "builtin", "name": "linear"},
        "experiments": {
            "path": "experiments.csv",
            "split": {"iuq": list(range(0, n, 2)), "val": list(range(1, n, 2))},
        },
        "emulator": {"kernel": kernel, "trend": "constant",
                     "estimation": "mle", "n_train": n_train,
                     "design": "cross", "n_restarts": 3, "seed": emulator_seed},
        "mcmc": {"samples": samples, "burn": burn, "seed": mcmc_seed,
                 "chains": chains},
        "discrepancy": {"enabled": discrepancy},
        "thresholds": {"q2_gate": q2_gate},
    }
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return path


def test_end_to_end_linear_recovery(tmp_path):
    config = load_config(write_config(tmp_path))
    result = run_workflow(config)
    assert result.q2_code > 0.99
    stats = result.chain.summary()["parameters"]
    for j, name in enumerate(("slope", "offset")):
        mean = stats[name]["mean"]
        std = stats[name]["std"]
        assert abs(mean - TRUTH[j]) <= 3.0 * std, (name, mean, std)
    assert 0.8 <= result.validation.coverage_95 <= 1.0
    assert result.validation.rmse < 0.2
    assert result.discrepancy_evals_in_validation == 0
    assert set(result.stage_seconds) == {"split", "gpbias", "gpcode", "mcmc",
                                         "validate"}
    # every retained sample lies inside the prior support
    kept = result.chain.post_burn
    assert np.all((kept[:, 0] >= 0.0) & (kept[:, 0] <= 4.0))
    assert np.all((kept[:, 1] >= -1.0) & (kept[:, 1] <= 3.0))


def test_workflow_deterministic(tmp_path):
    config1 = load_config(write_config(tmp_path, samples=800, burn=200))
    r1 = run_workflow(config1)
    config2 = load_config(write_config(tmp_path, samples=800, burn=200))
    r2 = run_workflow(config2)
    assert np.array_equal(r1.chain.samples, r2.chain.samples)
    assert r1.validation.rmse == r2.validation.rmse
    assert config1.config_hash == config2.config_hash


def test_workflow_gate_failure(tmp_path):
    # a rough kernel with a starved design gives a genuinely coarse emulator
    config = load_config(write_config(tmp_path, kernel="exponential",
                                      n_train=14, q2_gate=0.999))
    with pytest.raises(GateError, match="gate"):
        run_workflow(config)


def test_workflow_without_discrepancy(tmp_path):
    config = load_config(write_config(tmp_path, discrepancy=False,
                                      samples=800, burn=200))
    result = run_workflow(config)
    assert result.gp_bias is None
    assert "gpbias" not in result.stage_seconds


def test_workflow_multiple_chains(tmp_path):
    config = load_config(write_config(tmp_path, samples=500, burn=150,
                                      chains=3))
    result = run_workflow(config)
    assert len(result.extra_chains) == 2
    means = [c.post_burn.mean(axis=0) for c in
             [result.chain] + result.extra_chains]
    # independent chains agree on the posterior location
    spread = np.max(np.abs(np.array(means) - np.mean(means, axis=0)))
    assert spread < 0.2


def test_each_extra_chain_equals_its_single_chain_run(tmp_path):
    # chain i is seeded mcmc.seed + 1000 i; the batched sampler keeps that
    result = run_workflow(load_config(write_config(tmp_path, samples=400, burn=120,
                                                   chains=2)))
    alone = run_workflow(load_config(write_config(tmp_path, samples=400, burn=120,
                                                  mcmc_seed=1013, name="alone.yaml")))
    extra = result.extra_chains[0]
    assert np.array_equal(extra.samples, alone.chain.samples)
    assert np.array_equal(extra.log_post, alone.chain.log_post)
    assert extra.seed == alone.chain.seed == 1013


def test_doubling_iuq_rows_shrinks_posterior(tmp_path):
    stds = {}
    for n, tag in ((20, "small"), (40, "big")):
        # scale the code-emulator budget with the inference set so emulator
        # uncertainty stays negligible in both runs
        config = load_config(write_config(tmp_path, n=n, samples=2500,
                                          burn=600, n_train=6 * n,
                                          name=f"{tag}.yaml"))
        result = run_workflow(config)
        stats = result.chain.summary()["parameters"]
        stds[tag] = np.array([stats["slope"]["std"], stats["offset"]["std"]])
    assert np.all(stds["big"] < stds["small"])


def test_subprocess_simulator_budget_cap(tmp_path):
    # a capped validation budget cuts the posterior draws validation runs
    # through the simulator to floor(max_sim_evals / n_val), in one call
    import sys
    import textwrap
    calls_log = tmp_path / "calls.log"
    body = f"""
        import sys, csv
        rows = list(csv.reader(open(sys.argv[1])))[1:]
        with open({str(calls_log)!r}, "a") as log:
            log.write(f"{{len(rows)}}\\n")
        with open(sys.argv[2], "w") as fh:
            fh.write("y\\n")
            for r in rows:
                x, t1, t2 = map(float, r)
                fh.write(f"{{t1 * x + t2}}\\n")
    """
    script = tmp_path / "sim.py"
    script.write_text(textwrap.dedent(body))
    config_path = write_config(tmp_path, samples=400, burn=150, n_train=60)
    raw = yaml.safe_load(config_path.read_text())
    raw["simulator"] = {"kind": "subprocess",
                        "command": [sys.executable, str(script)]}
    raw["validation"] = {"draws": 50, "max_sim_evals": 20}
    capped = tmp_path / "capped.yaml"
    capped.write_text(yaml.safe_dump(raw))
    result = run_workflow(load_config(capped))
    # one invocation each for the GPbias residuals, GPcode training and
    # validation, which stays within the budget
    rows = [int(n) for n in calls_log.read_text().split()]
    assert len(rows) == 3 and rows[-1] <= 20
    assert result.validation.n_points == 10


def test_monotone_information_across_iuq_sizes(tmp_path):
    # posterior std non-increasing over {5, 10, 20} IUQ rows; statistical,
    # allow one inversion across 10 replicate seeds
    inversions = 0
    for seed in range(10):
        stds = []
        for n_iuq in (5, 10, 20):
            config = load_config(write_config(
                tmp_path, n=2 * n_iuq, data_seed=seed, samples=1200, burn=400,
                n_train=12 * n_iuq, discrepancy=False, mcmc_seed=13 + seed,
                name=f"mono_{seed}_{n_iuq}.yaml"))
            result = run_workflow(config)
            stats = result.chain.summary()["parameters"]
            stds.append(np.array([stats["slope"]["std"],
                                  stats["offset"]["std"]]))
        ok = np.all(stds[0] >= stds[1]) and np.all(stds[1] >= stds[2])
        if not ok:
            inversions += 1
    assert inversions <= 1, f"{inversions} inversions in 10 replicates"


def test_stage_failure_keeps_gpcal_error_class_and_exit_code(tmp_path, monkeypatch,
                                                             capsys):
    def fail(*args, **kwargs):
        raise DataError("simulator returned a malformed row")

    monkeypatch.setattr(gpcal.calibration, "build_code_emulator", fail)
    cfg = write_config(tmp_path, discrepancy=False)
    assert main(["calibrate", "--config", str(cfg),
                 "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert "error: [stage: gpcode] simulator returned a malformed row" in err


def test_log_posterior_build_failure_is_an_mcmc_stage_failure(tmp_path,
                                                              monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise NumericalError("emulator covariance breakdown")

    monkeypatch.setattr(gpcal.emulator.FittedEmulator, "_fixed_rows_predictor",
                        fail)
    cfg = write_config(tmp_path, samples=200, burn=50, discrepancy=False)
    assert main(["calibrate", "--config", str(cfg),
                 "--out", str(tmp_path / "run")]) == 3
    err = capsys.readouterr().err
    assert "error: [stage: mcmc] emulator covariance breakdown" in err


def test_stage_failure_keeps_foreign_exception_type(tmp_path, monkeypatch):
    # a UnicodeDecodeError cannot be rebuilt from a message alone
    def fail(*args, **kwargs):
        raise UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte")

    monkeypatch.setattr(gpcal.calibration, "split_experiments", fail)
    config = load_config(write_config(tmp_path, discrepancy=False))
    with pytest.raises(UnicodeDecodeError) as info:
        run_workflow(config)
    assert info.value.reason == "invalid start byte"
    assert "[stage: split]" in info.value.__notes__
