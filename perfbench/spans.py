"""Spans around gpcal's public functions, recorded from outside the program.

``Tracer.patched()`` replaces each traced function at every name it is bound
to in the loaded ``gpcal`` modules (``from ... import`` copies the binding,
so ``gpcal.emulator.correlation_matrix`` is wrapped as well as
``gpcal.kernels.correlation_matrix``) and restores the originals on exit.
Spans are kept in memory as ``[name, start, end, parent, note]``; a
layer's self time is its spans' duration minus the part covered by child
spans.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

#: layer.span name -> (module, attribute) of the function traced; classes
#: are traced through a method
FUNCTIONS = {
    "cli.main": ("gpcal.cli", "main"),
    "config.load_config": ("gpcal.config", "load_config"),
    "calibration.run_workflow": ("gpcal.calibration", "run_workflow"),
    "calibration.split_experiments": ("gpcal.calibration", "split_experiments"),
    "calibration.build_discrepancy_emulator":
        ("gpcal.calibration", "build_discrepancy_emulator"),
    "calibration.build_code_emulator": ("gpcal.calibration", "build_code_emulator"),
    "calibration.validate_posterior": ("gpcal.calibration", "validate_posterior"),
    "mcmc.mcmc_sample": ("gpcal.mcmc", "mcmc_sample"),
    "emulator.fit_mle": ("gpcal.emulator", "fit_mle"),
    "emulator.fit_cv": ("gpcal.emulator", "fit_cv"),
    "kernels.correlation_matrix": ("gpcal.kernels", "correlation_matrix"),
    "kernels.cross_corr_matrix": ("gpcal.kernels", "cross_corr_matrix"),
    "diagnostics.q2_loocv": ("gpcal.diagnostics", "q2_loocv"),
    "design.lhs_design": ("gpcal.design", "lhs_design"),
    "design.maximin_lhs": ("gpcal.design", "maximin_lhs"),
}

METHODS = {
    "emulator.predict_batch": [("gpcal.emulator", "FittedEmulator", "predict_batch")],
    "kernels.factor": [("gpcal.kernels", "CorrelationMatrix", "__init__")],
    "simulators.run": [("gpcal.simulators", cls, "run") for cls in
                       ("BuiltinSimulator", "SubprocessSimulator", "TableSimulator")],
}

#: objective values at or above this mark a failed hyperparameter candidate
#: (gpcal.emulator._BIG)
FAILED_OBJECTIVE = 1e25


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, note=None):
        """``fn`` inside a span; ``note(args, result)`` may attach a number."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    span[4] = note(args, result)
                return result
            finally:
                stack.pop()
                span[2] = clock()
        return traced

    def _objective(self, fn):
        """Objective passed to scipy's minimize, marking failed candidates."""
        def value(args, result):
            v = result[0] if isinstance(result, tuple) else result
            return float(not float(v) < FAILED_OBJECTIVE)
        return self.wrap("emulator.objective", fn, value)

    def _minimize(self, minimize):
        @functools.wraps(minimize)
        def traced(fun, *args, **kwargs):
            return minimize(self._objective(fun), *args, **kwargs)
        return traced

    def _log_posterior_factory(self, make):
        @functools.wraps(make)
        def traced(*args, **kwargs):
            return self.wrap("calibration.log_post", make(*args, **kwargs))
        return self.wrap("calibration.make_log_posterior", traced)

    @contextlib.contextmanager
    def patched(self):
        """Trace every function in FUNCTIONS and METHODS while inside."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "gpcal" or n.startswith("gpcal."))]
        undo = []

        def rebind(original, replacement):
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, attr, value))
                        setattr(mod, attr, replacement)

        for name, (mod, attr) in FUNCTIONS.items():
            original = getattr(sys.modules[mod], attr)
            rebind(original, self.wrap(name, original))
        make = sys.modules["gpcal.calibration"].make_log_posterior
        rebind(make, self._log_posterior_factory(make))
        emulator = sys.modules["gpcal.emulator"]
        undo.append((emulator, "minimize", emulator.minimize))
        emulator.minimize = self._minimize(emulator.minimize)
        for name, targets in METHODS.items():
            for mod, cls_name, attr in targets:
                cls = getattr(sys.modules[mod], cls_name)
                original = vars(cls)[attr]
                undo.append((cls, attr, original))
                note = _rows if name == "simulators.run" else None
                setattr(cls, attr, self.wrap(name, original, note))
        try:
            yield self
        finally:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)

    # -- summaries --------------------------------------------------------

    def summary(self):
        """``(by_name, self_by_layer)``: per span name [count, total seconds,
        sum of notes], and per layer (the name's prefix) summed self time."""
        by_name, by_layer = {}, {}
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        for s, t in zip(self.spans, own):
            entry = by_name.setdefault(s[0], [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += s[2] - s[1]
            entry[2] += s[4] or 0.0
            layer = s[0].split(".")[0]
            by_layer[layer] = by_layer.get(layer, 0.0) + t
        return by_name, by_layer

    def total_under(self, name, parent):
        """Summed duration of spans called ``name`` whose parent span is
        called ``parent``."""
        return sum(s[2] - s[1] for s in self.spans
                   if s[0] == name and s[3] >= 0 and self.spans[s[3]][0] == parent)


def layer_metrics(tracer):
    """Per-layer metrics of one traced run as {name: (value, unit)}; see
    README.md for the table."""
    by_name, self_s = tracer.summary()

    def count(name):
        return by_name.get(name, [0])[0]

    def total(name):
        return by_name.get(name, [0, 0.0])[1]

    def notes(name):
        return int(by_name.get(name, [0, 0.0, 0.0])[2])

    def mean_us(name):
        return 1e6 * total(name) / count(name) if count(name) else 0.0

    m = {
        "kernels.corr_matrix_calls": (count("kernels.correlation_matrix"), "count"),
        "kernels.assembly_s": (total("kernels.correlation_matrix")
                               - total("kernels.factor"), "s"),
        "kernels.factor_s": (total("kernels.factor"), "s"),
        "kernels.cross_corr_s": (
            total("kernels.cross_corr_matrix")
            - tracer.total_under("kernels.cross_corr_matrix",
                                 "kernels.correlation_matrix"), "s"),
        "kernels.nugget_escalations": (count("kernels.factor")
                                       - count("kernels.correlation_matrix"),
                                       "count"),
        "emulator.nll_calls": (count("emulator.objective"), "count"),
        "emulator.nll_s": (total("emulator.objective"), "s"),
        "emulator.nll_failed": (notes("emulator.objective"), "count"),
        "emulator.fit_s": (total("emulator.fit_mle") + total("emulator.fit_cv"), "s"),
        "emulator.predict_calls": (count("emulator.predict_batch"), "count"),
        "emulator.predict_us": (mean_us("emulator.predict_batch"), "us"),
        "calibration.log_post_calls": (count("calibration.log_post"), "count"),
        "calibration.log_post_us": (mean_us("calibration.log_post"), "us"),
        "calibration.split_s": (total("calibration.split_experiments"), "s"),
        "calibration.gpbias_s": (total("calibration.build_discrepancy_emulator"), "s"),
        "calibration.validate_s": (total("calibration.validate_posterior"), "s"),
        "simulators.run_calls": (count("simulators.run"), "count"),
        "simulators.rows": (notes("simulators.run"), "count"),
        "simulators.run_s": (total("simulators.run"), "s"),
        "diagnostics.q2_s": (total("diagnostics.q2_loocv"), "s"),
        "design.s": (total("design.lhs_design") + total("design.maximin_lhs"), "s"),
        "config.load_s": (total("config.load_config"), "s"),
        "cli.artifacts_s": (total("cli.main") - total("calibration.run_workflow")
                            - total("config.load_config"), "s"),
    }
    # the other layers' self time equals a metric above
    for layer in ("calibration", "mcmc", "emulator", "kernels"):
        m[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
    return m


def _rows(args, result):
    return len(result)
