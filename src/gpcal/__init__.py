"""gpcal: Gaussian-process emulation and Bayesian inverse uncertainty
quantification.

Build GP (Kriging) surrogates of expensive simulators, model the
simulator-vs-reality discrepancy from validation-domain residuals, and infer
posterior distributions of calibration parameters from experimental data via
adaptive MCMC, with the discrepancy never extrapolated into the validation
domain.
"""

__version__ = "0.1.0"

from .calibration import (DiscrepancyModel, ExperimentData, WorkflowResult,
                          build_code_emulator, build_discrepancy_emulator,
                          make_log_posterior, run_workflow, split_experiments,
                          validate_posterior)
from .design import halton_sequence, lhs_design, maximin_lhs, sobol_sequence
from .diagnostics import ValidationReport, loocv_error, q2_loocv
from .emulator import (FittedEmulator, Hyperparameters, TrainingSet, TrendSpec,
                       fit_cv, fit_mle)
from .errors import (ConfigError, DataError, ExtrapolationWarning, FitError,
                     GateError, GpcalError, IllConditionedError,
                     NumericalError, NumericalWarning, SimulatorError)
from .kernels import KernelSpec, correlation_matrix
from .mcmc import PosteriorChain, mcmc_sample
from .priors import Prior1D, PriorSpec
from .simulators import (BuiltinSimulator, SimulatorBinding,
                         SubprocessSimulator, TableSimulator)
from .spaces import DesignMatrix, ParameterSpace
