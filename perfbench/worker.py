"""One fresh interpreter: import gpcal, load the config, run one calibrate.

    python3 worker.py <src dir> <config> <run dir | -> <trace 0|1>

Prints one JSON object: ``setup_s`` (import of gpcal's CLI plus
``load_config``) and, unless the run dir is ``-``, the calibrate's ``exit``
(code, or the text of an exception that escaped the CLI), ``calibrate_s``,
its CPU time ``cpu_s``, ``peak_rss_mb`` of this process and, with trace 1,
the per-layer metrics; the spans go to ``<run dir>/spans.json``. Each run
gets the fresh interpreter and allocator state a user's ``gpcal calibrate``
has.
"""

import contextlib
import json
import os
import resource
import sys
import time


def main(src, config, run_dir, traced):
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import gpcal.cli
    from gpcal.config import load_config

    load_config(config)
    result = {"setup_s": time.perf_counter() - t0}
    if run_dir == "-":
        return result

    from spans import Tracer, layer_metrics
    os.makedirs(run_dir, exist_ok=True)
    tracer = Tracer()
    with open(run_dir + ".log", "w") as log, contextlib.redirect_stdout(log), \
            contextlib.redirect_stderr(log), \
            tracer.patched() if traced else contextlib.nullcontext():
        t0, cpu0 = time.perf_counter(), time.process_time()
        try:
            code = gpcal.cli.main(["calibrate", "--config", config, "--out", run_dir])
        except Exception as exc:  # escaped the CLI's exit-code mapping
            code = f"{type(exc).__name__}: {exc}"
        result["calibrate_s"] = time.perf_counter() - t0
        result["cpu_s"] = time.process_time() - cpu0
    result["exit"] = code
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if traced:
        result["layers"] = layer_metrics(tracer)
        with open(run_dir + "/spans.json", "w") as fh:
            json.dump(tracer.spans, fh)
    return result


if __name__ == "__main__":
    src, config, run_dir, trace = sys.argv[1:5]
    print(json.dumps(main(src, config, run_dir, trace == "1")))
