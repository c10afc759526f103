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
from .diagnostics import Z_95, ValidationReport, q2_loocv
from .emulator import FittedEmulator, TrainingSet, TrendSpec, fit_cv, fit_mle
from .errors import ConfigError, DataError, GateError, GpcalError, NumericalError
from .fileio import read_numeric_csv
from .kernels import DEFAULT_NUGGET
from .mcmc import PosteriorChain, mcmc_sample
from .priors import PriorSpec
from .simulators import SimulatorBinding
from .spaces import ParameterSpace


class ExperimentData:
    """Measured QoI values at known design-variable settings with reported
    observation noise (per-row variance or a full covariance matrix)."""

    def __init__(self, x, y, sigma2, domain_tag=None):
        self.x = np.atleast_2d(np.asarray(x, dtype=float))
        self.y = np.asarray(y, dtype=float).reshape(-1)
        q = self.y.size
        if self.x.shape[0] != q:
            raise DataError(f"{self.x.shape[0]} design rows but {q} observations")
        sigma2 = np.asarray(sigma2, dtype=float)
        if sigma2.ndim == 0:
            sigma2 = np.full(q, float(sigma2))
        if sigma2.ndim == 1:
            if sigma2.size != q:
                raise DataError(f"{sigma2.size} noise variances for {q} rows")
            if np.any(sigma2 < 0):
                raise DataError("noise variances must be nonnegative")
        elif sigma2.shape != (q, q):
            raise DataError(f"noise covariance must be ({q}, {q}), got {sigma2.shape}")
        if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.y))
                and np.all(np.isfinite(sigma2))):
            raise DataError("experiment data contains non-finite values")
        self.sigma2 = sigma2
        self.domain_tag = domain_tag

    @property
    def n(self) -> int:
        return self.y.size

    @property
    def dim_x(self) -> int:
        return self.x.shape[1]

    def covariance(self) -> np.ndarray:
        return np.diag(self.sigma2) if self.sigma2.ndim == 1 else self.sigma2.copy()

    def noise_variances(self) -> np.ndarray:
        return self.sigma2.copy() if self.sigma2.ndim == 1 else np.diag(self.sigma2)

    def subset(self, idx, tag=None) -> "ExperimentData":
        idx = np.asarray(idx, dtype=int)
        s2 = (self.sigma2[idx] if self.sigma2.ndim == 1
              else self.sigma2[np.ix_(idx, idx)])
        return ExperimentData(self.x[idx], self.y[idx], s2, domain_tag=tag)

    @classmethod
    def from_csv(cls, path, x_names) -> "ExperimentData":
        """Load from CSV with columns: design variables (named as in the
        space), ``y`` observation, ``sigma_exp`` noise standard deviation."""
        values, names = read_numeric_csv(path)
        want = list(x_names) + ["y", "sigma_exp"]
        if names != want:
            raise DataError(f"{path}: expected columns {want}, got {names}")
        nx = len(x_names)
        return cls(values[:, :nx], values[:, nx], values[:, nx + 1] ** 2)


def split_experiments(data: ExperimentData, iuq_indices=None, val_indices=None,
                      fraction=None, seed=None):
    """Partition experiments into inference (IUQ) and validation (VAL) sets.

    Either both explicit index lists or (fraction, seed) must be given; the
    fraction is the IUQ share. The two sets are disjoint and nonempty; the
    same row never serves both purposes.
    """
    q = data.n
    if iuq_indices is not None or val_indices is not None:
        if iuq_indices is None or val_indices is None:
            raise ConfigError("explicit split needs both iuq and val index lists")
        iuq = np.asarray(sorted(set(int(i) for i in iuq_indices)), dtype=int)
        val = np.asarray(sorted(set(int(i) for i in val_indices)), dtype=int)
        if iuq.size == 0 or val.size == 0:
            raise DataError("both split sets must be nonempty")
        if iuq.size and (iuq.min() < 0 or iuq.max() >= q):
            raise DataError(f"iuq indices out of range [0, {q})")
        if val.size and (val.min() < 0 or val.max() >= q):
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
    return data.subset(iuq, "IUQ"), data.subset(val, "VAL")


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


#: default length-scale search box on scaled inputs
OMEGA_BOUNDS = (1e-3, 1e3)


def build_discrepancy_emulator(sim: SimulatorBinding, val_set: ExperimentData,
                               theta0, kernel: str = "matern_5_2",
                               n_restarts: int = 8, seed: int = 0,
                               omega_bounds=OMEGA_BOUNDS) -> DiscrepancyModel:
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
    if training.degenerate:
        emulator = fit_mle(training, trend, kernel, seed=seed)
        return DiscrepancyModel(emulator, residuals, np.zeros(val_set.n))
    nugget = np.maximum(noise / training.y_scale ** 2, DEFAULT_NUGGET)
    emulator = fit_mle(training, trend, kernel, n_restarts=n_restarts,
                       seed=seed, nugget=nugget, omega_bounds=omega_bounds)
    if emulator.hyper.sigma2 > 0:
        refined = np.maximum(noise / (training.y_scale ** 2 * emulator.hyper.sigma2),
                             DEFAULT_NUGGET)
        emulator = fit_mle(training, trend, kernel, n_restarts=n_restarts,
                           seed=seed, nugget=refined, omega_bounds=omega_bounds)
    return DiscrepancyModel(emulator, residuals, emulator.hyper.nugget)


def build_code_emulator(sim: SimulatorBinding, x_iuq, prior: PriorSpec,
                        n_train: int, design: str = "cross",
                        design_method: str = "lhs", seed: int = 0,
                        kernel: str = "matern_5_2",
                        trend: TrendSpec | None = None,
                        estimation: str = "mle", cv_folds: int = 10,
                        n_restarts: int = 4, omega_bounds=OMEGA_BOUNDS):
    """Fit the simulator emulator ("GPcode") over the joint (x, theta) space.

    The calibration part of the training design maps a space-filling
    unit-cube design through the prior inverse CDFs. Two layouts:

      cross  every IUQ design setting is crossed with ceil(n_train / n_x)
             calibration points, so the emulator is trained exactly at the
             x values where the likelihood evaluates it
      joint  a single space-filling design over the (x, theta) product space,
             with x spanning the bounding box of the IUQ settings

    Returns ``(emulator, q2)`` where q2 is the leave-one-out predictivity
    coefficient of the fit.
    """
    x_iuq = np.atleast_2d(np.asarray(x_iuq, dtype=float))
    n_x, d_x = x_iuq.shape
    d_t = prior.dim
    if n_train < d_x + d_t + 2:
        raise ConfigError(f"n_train must be at least dim(x)+dim(theta)+2 = "
                          f"{d_x + d_t + 2}, got {n_train}")
    trend = trend or TrendSpec("constant")
    theta_space = ParameterSpace([f"t{j}" for j in range(d_t)],
                                 np.zeros(d_t), np.ones(d_t))

    def unit_design(n, space, sd):
        if design_method == "maximin":
            return maximin_lhs(n, space, n_restarts=10, seed=sd)
        if design_method == "lhs":
            return lhs_design(n, space, seed=sd)
        raise ConfigError(f"unknown design method {design_method!r}")

    if design == "cross":
        n_theta = max(2, math.ceil(n_train / n_x))
        theta_train = prior.ppf(unit_design(n_theta, theta_space, seed).points)
        X = np.repeat(x_iuq, n_theta, axis=0)
        T = np.tile(theta_train, (n_x, 1))
        inputs = np.hstack([X, T])
    elif design == "joint":
        joint_space = ParameterSpace([f"u{j}" for j in range(d_x + d_t)],
                                     np.zeros(d_x + d_t), np.ones(d_x + d_t))
        u = unit_design(n_train, joint_space, seed).points
        lo = x_iuq.min(axis=0)
        hi = x_iuq.max(axis=0)
        X = lo + u[:, :d_x] * np.where(hi > lo, hi - lo, 0.0)
        T = prior.ppf(u[:, d_x:])
        inputs = np.hstack([X, T])
    else:
        raise ConfigError(f"unknown code-emulator design {design!r}; "
                          "options: cross, joint")

    outputs = sim.run(inputs)
    training = TrainingSet(inputs, outputs)
    if estimation == "mle":
        emulator = fit_mle(training, trend, kernel, n_restarts=n_restarts,
                           seed=seed, omega_bounds=omega_bounds)
    elif estimation == "cv":
        emulator = fit_cv(training, trend, kernel, k_folds=min(cv_folds, training.m),
                          n_restarts=n_restarts, seed=seed,
                          omega_bounds=omega_bounds)
    else:
        raise ConfigError(f"unknown estimation method {estimation!r}")
    q2 = q2_loocv(emulator) if not emulator.degenerate else 1.0
    return emulator, q2


def _chol_logdet_solve(sigma: np.ndarray, d: np.ndarray):
    """(log|Sigma|, d' Sigma^-1 d) with escalating jitter; raises on breakdown."""
    from scipy.linalg import cho_factor, cho_solve
    scale = float(np.mean(np.diag(sigma)))
    if not np.isfinite(scale) or scale <= 0:
        raise NumericalError("likelihood covariance has a nonpositive diagonal")
    jitter = 0.0
    while True:
        try:
            c = cho_factor(sigma + jitter * np.eye(sigma.shape[0]), lower=True)
            logdet = 2.0 * float(np.sum(np.log(np.diag(c[0]))))
            quad = float(d @ cho_solve(c, d))
            return logdet, quad
        except np.linalg.LinAlgError:
            jitter = 1e-12 * scale if jitter == 0.0 else jitter * 10.0
            if jitter > 1e-6 * scale:
                raise NumericalError(
                    "likelihood covariance is not positive definite even "
                    "after jitter; numerical breakdown") from None


def make_log_posterior(gp_code: FittedEmulator, discrepancy: DiscrepancyModel | None,
                       iuq: ExperimentData, prior: PriorSpec):
    """Build the unnormalized log-posterior callable.

    log p(theta | data) = log p(theta) - 1/2 log|Sigma| - 1/2 d' Sigma^-1 d
    with d = y_obs - mu_code(x, theta) - delta(x) and
    Sigma = Sigma_exp + Sigma_bias + Sigma_code(theta). The discrepancy mean
    and covariance are theta-independent and evaluated once; the emulator
    covariance is recomputed at every proposal.
    """
    x_iuq = iuq.x
    y_obs = iuq.y
    sigma_exp = iuq.covariance()
    if discrepancy is not None:
        delta_mean, sigma_bias = discrepancy.predict(x_iuq)
    else:
        delta_mean = np.zeros(iuq.n)
        sigma_bias = np.zeros((iuq.n, iuq.n))
    base_cov = sigma_exp + sigma_bias

    def log_post(theta) -> float:
        theta = np.asarray(theta, dtype=float).reshape(-1)
        lp = prior.log_prior(theta)
        if not math.isfinite(lp):
            return -math.inf
        inputs = np.hstack([x_iuq, np.repeat(theta.reshape(1, -1), iuq.n, axis=0)])
        mu_code, _, sigma_code = gp_code.predict_batch(
            inputs, with_covariance=True, warn_extrapolation=False)
        d = y_obs - mu_code - delta_mean
        logdet, quad = _chol_logdet_solve(base_cov + sigma_code, d)
        return lp - 0.5 * logdet - 0.5 * quad

    return log_post


def log_posterior(theta, gp_code: FittedEmulator,
                  discrepancy: DiscrepancyModel | None, iuq: ExperimentData,
                  prior: PriorSpec) -> float:
    """One-shot form of :func:`make_log_posterior` (use the factory inside
    sampling loops; it precomputes the theta-independent pieces)."""
    return make_log_posterior(gp_code, discrepancy, iuq, prior)(theta)


class _EmulatorEvaluator:
    """Adapter letting validation fall back to GPcode means when the real
    simulator is over budget. Extrapolates in x; use knowingly."""

    def __init__(self, emulator: FittedEmulator):
        self.emulator = emulator
        self.name = "gpcode-fallback"

    def run_at(self, x, theta):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        theta = np.asarray(theta, dtype=float).reshape(1, -1)
        inputs = np.hstack([x, np.repeat(theta, x.shape[0], axis=0)])
        mean, _ = self.emulator.predict_batch(inputs, warn_extrapolation=False)
        return mean


def validate_posterior(sim, chain: PosteriorChain, val_set: ExperimentData,
                       n_draws: int = 200, seed: int = 0,
                       level: float = 0.95) -> ValidationReport:
    """Compare simulator output at posterior samples against validation data.

    A deterministic subsample of the post-burn-in chain is pushed through the
    simulator at the validation settings; predictive draws add measurement
    noise. Metrics: RMSE of the predictive mean and coverage of the
    mean +/- z * sd interval. The discrepancy model plays no role here: the
    posterior is validated on the raw simulator, precisely to avoid
    extrapolating the discrepancy.
    """
    kept = chain.post_burn
    if kept.shape[0] == 0:
        raise DataError("posterior chain has no post-burn-in samples")
    idx = np.unique(np.linspace(0, kept.shape[0] - 1,
                                min(n_draws, kept.shape[0])).astype(int))
    thetas = kept[idx]
    sims = np.empty((thetas.shape[0], val_set.n))
    for i, theta in enumerate(thetas):
        sims[i] = sim.run_at(val_set.x, theta)
    rng = np.random.default_rng(seed)
    noise_sd = np.sqrt(val_set.noise_variances())
    draws = sims + rng.standard_normal(sims.shape) * noise_sd
    pred_mean = sims.mean(axis=0)
    pred_sd = draws.std(axis=0)
    z = Z_95 if level == 0.95 else None
    if z is None:
        from scipy.stats import norm
        z = float(norm.ppf(0.5 * (1 + level)))
    from .diagnostics import interval_covered
    covered = interval_covered(val_set.y, pred_mean, z * pred_sd)
    report = ValidationReport(n_points=val_set.n)
    report.rmse = float(np.sqrt(np.mean((pred_mean - val_set.y) ** 2)))
    report.coverage_95 = float(np.mean(covered))
    report.residuals = [(float(mu), float(sd), float(y))
                        for mu, sd, y in zip(pred_mean, pred_sd, val_set.y)]
    report.extra = {"n_posterior_draws": int(thetas.shape[0]),
                    "interval_level": level}
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
    from .simulators import SubprocessSimulator

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

    iuq, val = timed("split", lambda: split_experiments(
        data, iuq_indices=config.split.get("iuq"),
        val_indices=config.split.get("val"),
        fraction=config.split.get("fraction"),
        seed=config.split.get("seed")))

    if config.discrepancy_enabled:
        # the discrepancy fit is small and its likelihood surface is
        # multimodal (signal vs pure-noise explanations): be generous with
        # restarts regardless of the code-emulator budget
        gp_bias = timed("gpbias", lambda: build_discrepancy_emulator(
            sim, val, prior.nominal, kernel=config.kernel,
            n_restarts=max(config.n_restarts, 8),
            seed=config.emulator_seed + 1))
    else:
        gp_bias = None

    gp_code, q2_code = timed("gpcode", lambda: build_code_emulator(
        sim, iuq.x, prior, n_train=config.n_train, design=config.code_design,
        design_method=config.design_method, seed=config.emulator_seed,
        kernel=config.kernel, trend=TrendSpec(config.trend),
        estimation=config.estimation, cv_folds=config.cv_folds,
        n_restarts=config.n_restarts))
    if q2_code < config.q2_gate:
        raise GateError(
            f"code emulator predictivity gate failed: q2_loocv = {q2_code:.4f} "
            f"< threshold {config.q2_gate}; increase n_train or revisit the "
            "kernel/trend choice")

    log_post = make_log_posterior(gp_code, gp_bias, iuq, prior)

    def run_chains():
        chains = []
        for i in range(config.mcmc_chains):
            chains.append(mcmc_sample(
                log_post, prior, n_samples=config.mcmc_samples,
                n_burn=config.mcmc_burn, seed=config.mcmc_seed + 1000 * i,
                thin=config.mcmc_thin, param_names=config.theta_names))
        return chains

    chains = timed("mcmc", run_chains)
    chain = chains[0]

    evals_before = gp_bias.eval_count if gp_bias is not None else 0
    use_emulator = (isinstance(sim, SubprocessSimulator)
                    and config.validation_max_sim_evals is not None
                    and config.validation_draws * val.n > config.validation_max_sim_evals)
    evaluator = _EmulatorEvaluator(gp_code) if use_emulator else sim
    validation = timed("validate", lambda: validate_posterior(
        evaluator, chain, val, n_draws=config.validation_draws,
        seed=config.mcmc_seed + 1))
    evals_after = gp_bias.eval_count if gp_bias is not None else 0

    return WorkflowResult(chain=chain, validation=validation, gp_code=gp_code,
                          gp_bias=gp_bias, q2_code=q2_code, iuq=iuq, val=val,
                          stage_seconds=timings,
                          discrepancy_evals_in_validation=evals_after - evals_before,
                          extra_chains=chains[1:])
