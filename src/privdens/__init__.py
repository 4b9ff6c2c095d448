"""Differentially private nonparametric density estimation on [0,1]^d.

Fourier projection estimators released under rho-zCDP via the Gaussian
mechanism, with theoretically tuned and fully data-driven (privacy-aware)
cut-off selection, ground-truth density fixtures, rejection sampling, and a
reproducible Monte-Carlo harness for rate experiments.

Typical flow::

    import numpy as np
    from privdens import fit, optimal_cutoff_adaptive_form, rejection_sample
    from privdens.densities import make_trig_density

    truth = make_trig_density(2.0, 2.0, M_truth=20, d=1, rng=7)
    rng = np.random.default_rng(0)
    data = rejection_sample(truth, 4096, rng)
    M = optimal_cutoff_adaptive_form(len(data), 1.0, 2.0, 1)
    est = fit(data, M, 1.0, rng)   # rho = 1 zCDP
"""

from .adaptive import (
    PenaltyConfig,
    SelectionTrace,
    build_beta_grid,
    dyadic_cutoff_grid,
    lepskii_select,
    penalized_bias_select,
    penalty_lambda1,
    penalty_lambda2,
)
from .densities import (
    ClippedDensity,
    PackingDensity,
    TrigDensity,
    density_from_json_dict,
    exact_bias,
    make_packing_density,
    make_trig_density,
    rejection_sample,
)
from .estimator import (
    ProjectionEstimate,
    fit,
    optimal_cutoff_adaptive_form,
    optimal_cutoff_thm,
    rate_regime,
    theoretical_rate,
)
from .experiments import (
    ExperimentConfig,
    mise,
    run_adaptivity_experiment,
    run_rate_experiment,
    write_csv,
)
from .fourier import (
    CoefficientGrid,
    empirical_coefficients,
    evaluate,
    l2_distance_sq,
    multi_indices,
    project,
)
from .privacy import (
    BudgetLedger,
    add_noise,
    coefficient_sensitivity,
    derived_rng,
    gaussian_sigma,
    sigma_for_cutoff,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # fourier
    "CoefficientGrid",
    "multi_indices",
    "empirical_coefficients",
    "project",
    "evaluate",
    "l2_distance_sq",
    # privacy
    "BudgetLedger",
    "coefficient_sensitivity",
    "gaussian_sigma",
    "sigma_for_cutoff",
    "add_noise",
    "derived_rng",
    # estimator
    "ProjectionEstimate",
    "fit",
    "optimal_cutoff_thm",
    "optimal_cutoff_adaptive_form",
    "theoretical_rate",
    "rate_regime",
    # adaptive
    "PenaltyConfig",
    "SelectionTrace",
    "build_beta_grid",
    "lepskii_select",
    "penalty_lambda1",
    "penalty_lambda2",
    "dyadic_cutoff_grid",
    "penalized_bias_select",
    # densities
    "TrigDensity",
    "PackingDensity",
    "ClippedDensity",
    "make_trig_density",
    "make_packing_density",
    "exact_bias",
    "rejection_sample",
    "density_from_json_dict",
    # experiments
    "ExperimentConfig",
    "mise",
    "run_rate_experiment",
    "run_adaptivity_experiment",
    "write_csv",
]
