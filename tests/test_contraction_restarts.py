"""Known defect: criterion 8's contraction check fails once the GPcode fit
finds better optima.

Criterion 8 (``tests/test_acceptance.py``) fits GPcode with 3 restarts. With
16 restarts the fits reach better likelihood optima, and doubling the IUQ
rows then no longer shrinks the posterior: the base design's Sigma_code is
small and the doubled design's is not, so the check that criterion 8 passes
fails on every seed here. The design cannot yet place its simulator runs
where the posterior lives (ROADMAP.md item 1). The strict xfail stands until
the posterior-targeted design makes this pass; that change removes it.

Which restart wins depends on last-bit rounding, so on the BLAS thread
count: at two threads these three seeds contract. The check runs in a fresh
interpreter pinned to one BLAS thread, as the benchmark runs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

ROOT = Path(__file__).resolve().parents[1]
ONE_THREAD = dict.fromkeys(
    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")


def contraction_failures(tmp_path) -> list:
    """The data seeds among 0-2 where criterion 8's contraction check fails,
    every setting kept but the GPcode restarts, 16 here."""
    from gpcal import run_workflow
    from gpcal.config import load_config
    from test_acceptance import _linear_config

    failures = []
    for seed in range(3):
        stds = {}
        for n, tag in ((20, "base"), (40, "double")):
            path = _linear_config(
                Path(tmp_path), n=n, data_seed=seed, samples=800, burn=350,
                n_train=5 * n, mcmc_seed=100 + seed, name=f"c8_{seed}_{tag}.yaml")
            cfg = yaml.safe_load(path.read_text())
            cfg["emulator"]["n_restarts"] = 16
            path.write_text(yaml.safe_dump(cfg))
            s = run_workflow(load_config(path)).chain.summary()["parameters"]
            stds[tag] = np.array([s["slope"]["std"], s["offset"]["std"]])
        if not np.all(stds["double"] < stds["base"]):
            failures.append(seed)
    return failures


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP.md item 1: at 16 GPcode restarts the better MLE optima "
    "break criterion 8's posterior contraction; it holds at 3 restarts only "
    "because those fits are poor")
def test_criterion_8_contraction_at_16_gpcode_restarts(tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), str(ROOT / "tests"),
                                         os.environ.get("PYTHONPATH")]))
    # check=True: a child that crashes is a CalledProcessError, not the
    # expected AssertionError, and so fails the suite
    done = subprocess.run(
        [sys.executable, "-c",
         "import json, sys, test_contraction_restarts as t; "
         "print(json.dumps(t.contraction_failures(sys.argv[1])))", str(tmp_path)],
        env={**os.environ, **ONE_THREAD, "PYTHONPATH": path}, cwd=ROOT,
        capture_output=True, text=True, timeout=600, check=True)
    failures = json.loads(done.stdout.strip().splitlines()[-1])
    assert not failures, f"no contraction at data seeds {failures}"
