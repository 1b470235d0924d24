"""Spectral EM fitting of log-Gaussian Cox processes on regular grids."""

from .covariates import (CovariateMatrix, MinuteStack, block_summaries,
                         select_summary, standardize, summarize_blocks)
from .em import (FitConfig, FitResult, Theta, fit, power_spectrum, probe_spectrum,
                 q_tilde, quartic_profile, update_beta, update_eta)
from .errors import CollinearityError, ConfigError, NumericalError, SlemError
from .grid import (CountGrid, GridSpec, PointPattern, bin_points, domain_mask,
                   flatten, split_train_test, unflatten)
from .laplace import LaplaceFit, newton_mode, posterior_score
from .pcg import PcgResult, SpdOperator, pcg_solve
from .posterior import (IntensityEstimate, estimate_intensity, intensity_mean,
                        local_variance, recover_z)
from .scoring import ScoreReport, interior_mask, log_score, rmse_log_intensity
from .simulation import SimScenario, scatter_points, simulate_dataset
from .spectral import (CovParams, SpectralField, amplitude_for_variance,
                       calibrate_range_to_matern, correlation_at_lag, log_det,
                       marginal_variance, matern_correlation,
                       quasi_matern_spectrum, sample_gp, sigma_inv_matvec,
                       sigma_matvec)
from .trace import ProbePairs, make_probes

__version__ = "0.1.0"

__all__ = [
    "CollinearityError", "ConfigError", "CountGrid", "CovParams",
    "CovariateMatrix", "FitConfig", "FitResult", "GridSpec",
    "IntensityEstimate", "LaplaceFit", "MinuteStack", "NumericalError",
    "PcgResult", "PointPattern", "ProbePairs", "ScoreReport", "SimScenario",
    "SlemError", "SpdOperator", "SpectralField", "Theta",
    "amplitude_for_variance", "bin_points", "block_summaries",
    "calibrate_range_to_matern", "correlation_at_lag", "domain_mask",
    "estimate_intensity", "fit", "flatten", "intensity_mean", "interior_mask",
    "local_variance", "log_det", "log_score",
    "make_probes", "marginal_variance", "matern_correlation", "newton_mode",
    "pcg_solve", "posterior_score", "power_spectrum", "probe_spectrum",
    "q_tilde", "quartic_profile", "quasi_matern_spectrum", "recover_z",
    "rmse_log_intensity", "sample_gp", "scatter_points", "select_summary",
    "sigma_inv_matvec", "sigma_matvec", "simulate_dataset",
    "split_train_test", "standardize", "summarize_blocks", "unflatten",
    "update_beta", "update_eta",
]
