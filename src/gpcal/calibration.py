"""Bayesian inverse UQ workflow.

Implements the modular calibration pipeline: split experiments into
inference and validation sets, emulate the simulator-vs-reality discrepancy
from validation-domain residuals at the nominal parameter point, emulate the
simulator over the joint (design, calibration) space, sample the posterior
with adaptive random-walk Metropolis under the three-part likelihood
covariance (measurement noise + discrepancy uncertainty + emulator
uncertainty), and validate the posterior by rerunning the simulator at
validation settings.

The validation step deliberately never evaluates the discrepancy emulator:
the discrepancy is learnt in the inference domain and extrapolating it is
exactly what this workflow is designed to avoid. ``DiscrepancyModel`` keeps
an evaluation counter so that property can be asserted.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .design import lhs_design, maximin_lhs
from .diagnostics import Z_95, ValidationReport, interval_covered, q2_loocv
from .emulator import FittedEmulator, TrainingSet, TrendSpec, fit_cv, fit_mle
from .errors import ConfigError, DataError, GateError, GpcalError, NumericalError
from .fileio import read_numeric_rows
from .kernels import DEFAULT_NUGGET, _cho_solve, _cholesky
from .mcmc import PosteriorChain, mcmc_sample
from .priors import PriorSpec
from .simulators import SimulatorBinding
from .spaces import ParameterSpace


class ExperimentData:
    """Measured QoI values at known design-variable settings with reported
    observation noise, one variance per row."""

    def __init__(self, x, y, sigma2):
        self.x = np.atleast_2d(np.asarray(x, dtype=float))
        self.y = np.asarray(y, dtype=float).reshape(-1)
        q = self.y.size
        if self.x.shape[0] != q:
            raise DataError(f"{self.x.shape[0]} design rows but {q} observations")
        sigma2 = np.asarray(sigma2, dtype=float)
        if sigma2.shape != (q,):
            raise DataError(f"{q} rows need {q} noise variances, got {sigma2.shape}")
        if np.any(sigma2 < 0):
            raise DataError("noise variances must be nonnegative")
        if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.y))
                and np.all(np.isfinite(sigma2))):
            raise DataError("experiment data contains non-finite values")
        self.sigma2 = sigma2

    @property
    def n(self) -> int:
        return self.y.size

    def covariance(self) -> np.ndarray:
        return np.diag(self.sigma2)

    def noise_variances(self) -> np.ndarray:
        return self.sigma2.copy()

    def subset(self, idx) -> "ExperimentData":
        idx = np.asarray(idx, dtype=int)
        return ExperimentData(self.x[idx], self.y[idx], self.sigma2[idx])

    @classmethod
    def from_csv(cls, path, x_names) -> "ExperimentData":
        """Load from CSV with columns: design variables (named as in the
        space), ``y`` observation, ``sigma_exp`` noise standard deviation."""
        values, names, lines = read_numeric_rows(path)
        want = list(x_names) + ["y", "sigma_exp"]
        if names != want:
            raise DataError(f"{path}: expected columns {want}, got {names}")
        nx = len(x_names)
        sd = values[:, nx + 1]
        if np.any(sd < 0):
            i = int(np.argmax(sd < 0))
            raise DataError(f"{path}: negative sigma_exp {sd[i]} at row {lines[i]}")
        return cls(values[:, :nx], values[:, nx], sd ** 2)


def split_experiments(data: ExperimentData, iuq_indices=None, val_indices=None,
                      fraction=None, seed=None):
    """Partition experiments into inference (IUQ) and validation (VAL) sets.

    Either both explicit index lists or (fraction, seed) must be given, not
    both forms; the fraction is the IUQ share. The two sets are disjoint and
    nonempty; the same row never serves both purposes.
    """
    q = data.n
    if iuq_indices is not None or val_indices is not None:
        if iuq_indices is None or val_indices is None:
            raise ConfigError("explicit split needs both iuq and val index lists")
        if fraction is not None or seed is not None:
            raise ConfigError("split gives iuq/val lists and fraction/seed; "
                              "give one form")
        iuq = np.asarray(sorted(set(int(i) for i in iuq_indices)), dtype=int)
        val = np.asarray(sorted(set(int(i) for i in val_indices)), dtype=int)
        if iuq.size == 0 or val.size == 0:
            raise DataError("both split sets must be nonempty")
        if iuq.min() < 0 or iuq.max() >= q:
            raise DataError(f"iuq indices out of range [0, {q})")
        if val.min() < 0 or val.max() >= q:
            raise DataError(f"val indices out of range [0, {q})")
        overlap = np.intersect1d(iuq, val)
        if overlap.size:
            raise DataError(f"split sets overlap at rows {overlap.tolist()}; the "
                            "same data must not be used for both purposes")
    elif fraction is not None:
        if not 0 < fraction < 1:
            raise ConfigError(f"split fraction must be in (0, 1), got {fraction}")
        if seed is None:
            raise ConfigError("fractional split requires an explicit seed")
        if q < 2:
            raise DataError("need at least 2 experiments to split")
        order = np.random.default_rng(seed).permutation(q)
        n_iuq = min(max(int(round(fraction * q)), 1), q - 1)
        iuq = np.sort(order[:n_iuq])
        val = np.sort(order[n_iuq:])
    else:
        raise ConfigError("split needs explicit index lists or fraction + seed")
    return data.subset(iuq), data.subset(val)


class DiscrepancyModel:
    """GP model of the simulator-vs-reality discrepancy over design variables,
    trained on validation-domain residuals at the nominal parameter point.

    ``eval_count`` increments on every prediction; the validation stage of the
    workflow must leave it untouched.
    """

    def __init__(self, emulator: FittedEmulator, residuals, noise_nugget):
        self.emulator = emulator
        self.residuals = np.asarray(residuals, dtype=float)
        self.noise_nugget = np.asarray(noise_nugget, dtype=float)
        self.eval_count = 0

    def predict(self, x):
        """Discrepancy mean vector and covariance matrix at design settings."""
        self.eval_count += 1
        x = np.atleast_2d(np.asarray(x, dtype=float))
        mean, _, cov = self.emulator.predict_batch(x, with_covariance=True,
                                                   warn_extrapolation=False)
        return mean, cov


def build_discrepancy_emulator(sim: SimulatorBinding, val_set: ExperimentData,
                               theta0, kernel: str = "matern_5_2",
                               n_restarts: int = 8,
                               seed: int = 0) -> DiscrepancyModel:
    """Fit the discrepancy GP ("GPbias") to validation-domain residuals.

    The simulator runs once at the validation settings with the nominal
    parameters; the residuals observation - simulation become the training
    outputs over the design variables only. Reported observation noise enters
    as a per-point nugget (converted to standardized-output units; one
    fixed-point refinement accounts for the fitted process variance). The
    trend is a constant (Ordinary Kriging), the least-informative default.
    """
    if val_set.n < 2:
        raise DataError("discrepancy emulation needs at least 2 validation rows")
    theta0 = np.asarray(theta0, dtype=float).reshape(-1)
    y_sim = sim.run_at(val_set.x, theta0)
    residuals = val_set.y - y_sim
    training = TrainingSet(val_set.x, residuals)
    trend = TrendSpec("constant")
    noise = val_set.noise_variances()
    nugget = np.maximum(noise / training.y_scale ** 2, DEFAULT_NUGGET)
    emulator = fit_mle(training, trend, kernel, n_restarts=n_restarts,
                       seed=seed, nugget=nugget)
    if emulator.hyper.sigma2 > 0:
        refined = np.maximum(noise / (training.y_scale ** 2 * emulator.hyper.sigma2),
                             DEFAULT_NUGGET)
        emulator = fit_mle(training, trend, kernel, n_restarts=n_restarts,
                           seed=seed, nugget=refined)
    return DiscrepancyModel(emulator, residuals, emulator.hyper.nugget)


#: code-emulator training layouts, the unit-cube designs they draw from,
#: the hyperparameter estimation methods and the trends
_CODE_DESIGNS = ("cross", "joint")
_DESIGN_METHODS = ("lhs", "maximin")
_ESTIMATIONS = ("mle", "cv")
_TRENDS = ("constant", "linear")


def build_code_emulator(sim: SimulatorBinding, x_iuq, prior: PriorSpec,
                        n_train: int, design: str = "cross",
                        design_method: str = "lhs", seed: int = 0,
                        kernel: str = "matern_5_2",
                        trend: TrendSpec | None = None,
                        estimation: str = "mle", cv_folds: int = 10,
                        n_restarts: int = 4):
    """Fit the simulator emulator ("GPcode") over the joint (x, theta) space.

    The calibration part of the training design maps a space-filling
    unit-cube design through the prior inverse CDFs. Two layouts:

      cross  every IUQ design setting is crossed with
             max(2, ceil(n_train / n_x)) calibration points, so the emulator
             is trained exactly at the x values where the likelihood
             evaluates it; n_train does not cap it: the design runs
             n_x max(2, ceil(n_train / n_x)) rows (105 for n_train 100 over
             7 settings)
      joint  a single space-filling design of n_train rows over the
             (x, theta) product space, with x spanning the bounding box of
             the IUQ settings

    Returns ``(emulator, q2)`` where q2 is the leave-one-out predictivity
    coefficient of the fit.
    """
    x_iuq = np.atleast_2d(np.asarray(x_iuq, dtype=float))
    n_x, d_x = x_iuq.shape
    d_t = prior.dim
    if n_train < d_x + d_t + 2:
        raise ConfigError(f"n_train must be at least dim(x)+dim(theta)+2 = "
                          f"{d_x + d_t + 2}, got {n_train}")
    for what, value, options in (("code-emulator design", design, _CODE_DESIGNS),
                                 ("design method", design_method, _DESIGN_METHODS),
                                 ("estimation method", estimation, _ESTIMATIONS)):
        if value not in options:
            raise ConfigError(f"unknown {what} {value!r}; options: {options}")
    trend = trend or TrendSpec("constant")
    theta_space = ParameterSpace([f"t{j}" for j in range(d_t)],
                                 np.zeros(d_t), np.ones(d_t))

    def unit_design(n, space, sd):
        if design_method == "maximin":
            return maximin_lhs(n, space, n_restarts=10, seed=sd)
        return lhs_design(n, space, seed=sd)

    if design == "cross":
        n_theta = max(2, math.ceil(n_train / n_x))
        theta_train = prior.ppf(unit_design(n_theta, theta_space, seed).points)
        X = np.repeat(x_iuq, n_theta, axis=0)
        T = np.tile(theta_train, (n_x, 1))
        inputs = np.hstack([X, T])
    else:
        joint_space = ParameterSpace([f"u{j}" for j in range(d_x + d_t)],
                                     np.zeros(d_x + d_t), np.ones(d_x + d_t))
        u = unit_design(n_train, joint_space, seed).points
        lo = x_iuq.min(axis=0)
        hi = x_iuq.max(axis=0)
        X = lo + u[:, :d_x] * np.where(hi > lo, hi - lo, 0.0)
        T = prior.ppf(u[:, d_x:])
        inputs = np.hstack([X, T])

    return fit_estimated(TrainingSet(inputs, sim.run(inputs)), trend, kernel,
                         estimation, cv_folds, n_restarts, seed)


def fit_estimated(training: TrainingSet, trend: TrendSpec, kernel: str,
                  estimation: str, cv_folds: int, n_restarts: int, seed: int,
                  nugget=DEFAULT_NUGGET):
    """``(emulator, q2)``: the emulator fitted by ``estimation`` ("mle" or
    "cv", with at most m folds) under ``nugget`` and its LOOCV predictivity,
    1.0 for constant outputs."""
    if estimation == "mle":
        emulator = fit_mle(training, trend, kernel, n_restarts=n_restarts,
                           seed=seed, nugget=nugget)
    else:
        emulator = fit_cv(training, trend, kernel, k_folds=min(cv_folds, training.m),
                          n_restarts=n_restarts, seed=seed, nugget=nugget)
    return emulator, (q2_loocv(emulator) if not emulator.degenerate else 1.0)


def _chol_logdet_solve(sigma: np.ndarray, d: np.ndarray):
    """(log|Sigma|, d' Sigma^-1 d) with escalating jitter; raises on breakdown.
    The per-row fallback of :func:`_stacked_logdet_solve`.

    The same bits and errors as ``cho_factor`` + ``cho_solve`` with their
    finiteness checks, each made once: Sigma before the first factorization,
    d before the solve.
    """
    scale = float(np.mean(np.diag(sigma)))
    if not np.isfinite(scale) or scale <= 0:
        raise NumericalError("likelihood covariance has a nonpositive diagonal")
    if not np.isfinite(sigma).all():
        raise ValueError("array must not contain infs or NaNs")
    jitter = 0.0
    while True:
        c = _cholesky(sigma if jitter == 0.0 else
                      sigma + jitter * np.eye(sigma.shape[0]))
        if c is not None:
            break
        jitter = 1e-12 * scale if jitter == 0.0 else jitter * 10.0
        if jitter > 1e-6 * scale:
            raise NumericalError(
                "likelihood covariance is not positive definite even "
                "after jitter; numerical breakdown")
    logdet = 2.0 * float(np.sum(np.log(np.diag(c))))
    if not np.isfinite(d).all():
        raise ValueError("array must not contain infs or NaNs")
    return logdet, float(d @ _cho_solve(c, d))


#: the corner of the bordered matrix in :func:`_stacked_logdet_solve`: any
#: value above d' Sigma^-1 d keeps its last pivot positive
_BORDER = 1e300


def _stacked_logdet_solve(bordered: np.ndarray):
    """``(logdet, quad)``, each of shape (K,), for a (K, q + 1, q + 1) stack
    whose leading (q, q) blocks hold likelihood covariances Sigma and whose
    last rows hold residuals d: the last column and corner are filled here,
    making the bordered matrices [[Sigma, d], [d', _BORDER]], and one batched
    Cholesky factorization gives both. The factor's leading block is
    Sigma's, and its last row is (L^-1 d)', the forward substitution done
    inside the factorization. It agrees with :func:`_chol_logdet_solve` row
    by row to rounding. When the stack does not factor (a covariance that
    is not positive definite), every row goes through
    :func:`_chol_logdet_solve` itself, jitter loop and errors included; so
    does a row of a stack that factors whose values are not finite (a
    covariance or residual that is not finite)."""
    K, q = bordered.shape[0], bordered.shape[1] - 1
    bordered[:, :q, q] = bordered[:, q, :q]
    bordered[:, q, q] = _BORDER
    try:
        c = np.linalg.cholesky(bordered)
    except np.linalg.LinAlgError:
        c = np.full_like(bordered, np.nan)
    flat = c.reshape(K, (q + 1) ** 2)
    logdet = 2.0 * np.log(flat[:, :q * (q + 2):q + 2]).sum(axis=1)
    last = flat[:, q * (q + 1):-1]
    quad = np.einsum("ij,ij->i", last, last)
    # a stack that failed is all nan; a non-finite entry need not fail a
    # pivot. The sum of K finite values below _BORDER is finite.
    if not math.isfinite((logdet + quad).sum()):
        for k in np.flatnonzero(~np.isfinite(logdet + quad)):
            logdet[k], quad[k] = _chol_logdet_solve(bordered[k, :q, :q],
                                                    bordered[k, q, :q])
    return logdet, quad


def make_log_posterior(gp_code: FittedEmulator, discrepancy: DiscrepancyModel | None,
                       iuq: ExperimentData, prior: PriorSpec):
    """Build the unnormalized log-posterior callable.

    log p(theta | data) = log p(theta) - 1/2 log|Sigma| - 1/2 d' Sigma^-1 d
    with d = y_obs - mu_code(x, theta) - delta(x) and
    Sigma = Sigma_exp + Sigma_bias + Sigma_code(theta). Everything that does
    not depend on theta is bound once: the prior's support bounds and
    constant terms (:class:`PriorSpec`), the discrepancy's moments,
    Sigma_exp + Sigma_bias, and the GPcode conditioned on the IUQ settings
    (``gp_code._fixed_rows_predictor``; on a ``cross`` layout its Kronecker
    path agrees with ``predict_batch`` on the stacked rows to 1e-7 relative
    in the log posterior, not bit for bit).

    The callable maps a (K, d) stack of thetas to K values, and a theta (d,),
    a stack of one, to a float. Rows outside the prior support are -inf and
    skip the predictor; the rest take one predictor call, whose covariances
    and residuals are written straight into the bordered stack of one
    batched Cholesky (:func:`_stacked_logdet_solve`). A row's value depends
    on the size of its stack in the last bits (the batched products round by
    their row count), so the chain's bits rest on which proposals share a
    stack, a deterministic function of the chain (:mod:`gpcal.mcmc`). A
    stack raises if any of its rows does, not necessarily with that row's
    own error.
    """
    x_iuq = iuq.x
    y_obs = iuq.y
    q = iuq.n
    sigma_exp = iuq.covariance()
    if discrepancy is not None:
        delta_mean, sigma_bias = discrepancy.predict(x_iuq)
    else:
        delta_mean = np.zeros(q)
        sigma_bias = np.zeros((q, q))
    base_cov = sigma_exp + sigma_bias
    code_at = gp_code._fixed_rows_predictor(x_iuq)

    def stacked(thetas):
        out = prior.log_prior(thetas)
        inside = np.isfinite(out)
        if inside.all():
            inside = slice(None)
        elif not inside.any():
            return out
        mu_code, sigma_code = code_at(thetas[inside])
        bordered = np.empty((len(mu_code), q + 1, q + 1))
        np.add(base_cov, sigma_code, out=bordered[:, :q, :q])
        d = np.subtract(y_obs, mu_code, out=bordered[:, q, :q])
        d -= delta_mean
        logdet, quad = _stacked_logdet_solve(bordered)
        out[inside] = out[inside] - 0.5 * logdet - 0.5 * quad
        return out

    def log_post(theta):
        theta = np.asarray(theta, dtype=float)
        if theta.ndim == 2:
            return stacked(theta)
        return float(stacked(theta.reshape(1, -1))[0])

    return log_post


def validate_posterior(sim, chain: PosteriorChain, val_set: ExperimentData,
                       n_draws: int = 200, seed: int = 0) -> ValidationReport:
    """Compare simulator output at posterior samples against validation data.

    A deterministic subsample of the post-burn-in chain is pushed through the
    simulator at the validation settings; predictive draws add measurement
    noise. Metrics: RMSE of the predictive mean and coverage of the 95%
    interval mean +/- 1.96 * sd. The discrepancy model plays no role here: the
    posterior is validated on the raw simulator, precisely to avoid
    extrapolating the discrepancy.
    """
    kept = chain.post_burn
    if kept.shape[0] == 0:
        raise DataError("posterior chain has no post-burn-in samples")
    idx = np.unique(np.linspace(0, kept.shape[0] - 1,
                                min(n_draws, kept.shape[0])).astype(int))
    thetas = kept[idx]
    # every draw's (x, theta) rows in one simulator call: the simulators are
    # row-wise, so this equals one run_at per draw, with one process spawn
    inputs = np.hstack([np.tile(val_set.x, (thetas.shape[0], 1)),
                        np.repeat(thetas, val_set.n, axis=0)])
    sims = sim.run(inputs).reshape(thetas.shape[0], val_set.n)
    rng = np.random.default_rng(seed)
    noise_sd = np.sqrt(val_set.noise_variances())
    draws = sims + rng.standard_normal(sims.shape) * noise_sd
    pred_mean = sims.mean(axis=0)
    pred_sd = draws.std(axis=0)
    covered = interval_covered(val_set.y, pred_mean, Z_95 * pred_sd)
    report = ValidationReport(n_points=val_set.n)
    report.rmse = float(np.sqrt(np.mean((pred_mean - val_set.y) ** 2)))
    report.coverage_95 = float(np.mean(covered))
    report.residuals = [(float(mu), float(sd), float(y))
                        for mu, sd, y in zip(pred_mean, pred_sd, val_set.y)]
    report.extra = {"n_posterior_draws": int(thetas.shape[0]),
                    "interval_level": 0.95}
    return report


@dataclass
class WorkflowResult:
    chain: PosteriorChain
    validation: ValidationReport
    gp_code: FittedEmulator
    gp_bias: DiscrepancyModel | None
    q2_code: float
    iuq: ExperimentData
    val: ExperimentData
    stage_seconds: dict = field(default_factory=dict)
    discrepancy_evals_in_validation: int = 0
    extra_chains: list = field(default_factory=list)


def run_workflow(config) -> WorkflowResult:
    """Execute the full calibration workflow from a ``WorkflowConfig``:
    split, discrepancy emulation, code emulation (with predictivity gate),
    MCMC, posterior validation."""
    timings = {}

    def timed(stage, fn):
        t0 = time.perf_counter()
        try:
            out = fn()
        except GpcalError as exc:
            exc.args = (f"[stage: {stage}] {exc}",)
            raise
        except Exception as exc:
            # not rebuilt: other types need not take a lone message (a
            # UnicodeDecodeError takes five arguments); Python >= 3.11
            # prints notes under the traceback
            exc.__notes__ = [*getattr(exc, "__notes__", ()), f"[stage: {stage}]"]
            raise
        timings[stage] = time.perf_counter() - t0
        return out

    data = config.experiments
    sim = config.simulator
    prior = config.prior
    emu, mc = config.emulator, config.mcmc

    iuq, val = timed("split", lambda: split_experiments(
        data, iuq_indices=config.split.get("iuq"),
        val_indices=config.split.get("val"),
        fraction=config.split.get("fraction"),
        seed=config.split.get("seed")))

    # the simulator budget of validation caps the posterior draws it runs
    n_draws, cap = config.validation["draws"], config.validation["max_sim_evals"]
    if cap is not None:
        if cap < val.n:
            raise ConfigError(f"validation.max_sim_evals {cap} is below the "
                              f"{val.n} validation rows of one posterior draw")
        n_draws = min(n_draws, cap // val.n)

    if config.discrepancy["enabled"]:
        # the discrepancy fit is small and its likelihood surface is
        # multimodal (signal vs pure-noise explanations): be generous with
        # restarts regardless of the code-emulator budget
        gp_bias = timed("gpbias", lambda: build_discrepancy_emulator(
            sim, val, prior.nominal, kernel=emu["kernel"],
            n_restarts=max(emu["n_restarts"], 8), seed=emu["seed"] + 1))
    else:
        gp_bias = None

    gp_code, q2_code = timed("gpcode", lambda: build_code_emulator(
        sim, iuq.x, prior, n_train=emu["n_train"], design=emu["design"],
        design_method=emu["design_method"], seed=emu["seed"],
        kernel=emu["kernel"], trend=TrendSpec(emu["trend"]),
        estimation=emu["estimation"], cv_folds=emu["cv_folds"],
        n_restarts=emu["n_restarts"]))
    q2_gate = config.thresholds["q2_gate"]
    if q2_code < q2_gate:
        raise GateError(
            f"code emulator predictivity gate failed: q2_loocv = {q2_code:.4f} "
            f"< threshold {q2_gate}; increase n_train or revisit the "
            "kernel/trend choice")

    def run_chains():
        log_post = make_log_posterior(gp_code, gp_bias, iuq, prior)
        chains = []
        for i in range(mc["chains"]):
            chains.append(mcmc_sample(
                log_post, prior, n_samples=mc["samples"], n_burn=mc["burn"],
                seed=mc["seed"] + 1000 * i, thin=mc["thin"],
                param_names=config.theta_names))
        return chains

    chains = timed("mcmc", run_chains)
    chain = chains[0]

    evals_before = gp_bias.eval_count if gp_bias is not None else 0
    validation = timed("validate", lambda: validate_posterior(
        sim, chain, val, n_draws=n_draws, seed=mc["seed"] + 1))
    evals_after = gp_bias.eval_count if gp_bias is not None else 0

    return WorkflowResult(chain=chain, validation=validation, gp_code=gp_code,
                          gp_bias=gp_bias, q2_code=q2_code, iuq=iuq, val=val,
                          stage_seconds=timings,
                          discrepancy_evals_in_validation=evals_after - evals_before,
                          extra_chains=chains[1:])
