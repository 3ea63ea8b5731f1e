"""Bayesian VAR estimation: exact conjugate posteriors, mean-field VB
(closed-form and coordinate-ascent), Gibbs sampling, predictive densities,
marginal-likelihood bounds, and VB approximation-error diagnostics.
"""

from .conjugate_exact import (
    ConjugateExactPosterior,
    fit_exact,
    joint_mode,
    log_marginal_likelihood,
    marginal_coefficients,
    predictive_exact,
)
from .conjugate_vb import (
    ConjugateVbPosterior,
    elbo_conjugate,
    fit_vb_conjugate,
    kl_exact,
    kl_stirling,
    mc_elbo_estimate,
    moment_ratios,
    predictive_vb_conjugate,
    vb_modes,
)
from .independent_mcmc import (
    GibbsConfig,
    GibbsDraws,
    gibbs_run,
    lnml_ris,
    predictive_gibbs,
    summarize_draws,
)
from .independent_vb import (
    IndependentVbPosterior,
    VbConfig,
    elbo_independent,
    fit_vb_independent,
    modes_exact_iterative,
    modes_vb_iterative,
    predictive_vb_independent,
)
from .mvdist import (
    MatricNormal,
    MatricT,
    NotPositiveDefiniteError,
    UndefinedMomentError,
    WishartDist,
)
from .priors import (
    ConjugatePrior,
    IndependentPrior,
    MinnesotaConfig,
    minnesota_conjugate,
    minnesota_independent,
)
from .report import DiagnosticsReport, conjugate_report, independent_report
from .vardata import DesignData, build_design, load_csv, z_block

__version__ = "0.1.0"
