"""Every frozen value type stores its array fields as read-only float arrays,
and only the inputs it cannot derive: a derived quantity is a property, so
no constructor accepts a value that contradicts it."""

from dataclasses import fields

import numpy as np
import pytest

from conftest import random_conjugate_prior, random_independent_prior
from vbvar.conjugate_exact import ConjugateExactPosterior, fit_exact
from vbvar.conjugate_vb import ConjugateVbPosterior, fit_vb_conjugate
from vbvar.independent_mcmc import GibbsConfig, gibbs_run
from vbvar.independent_vb import IndependentVbPosterior, fit_vb_independent
from vbvar.mvdist import MatricNormal, MatricT, WishartDist
from vbvar.priors import IndependentPrior
from vbvar.report import DiagnosticsReport
from vbvar.vardata import build_design, simulate_var

DATA = build_design(simulate_var(2, 1, 40, seed=1), 1)
CPRIOR = random_conjugate_prior(2, 3, seed=2)
IPRIOR = random_independent_prior(2, 3, seed=3)

# builder and names of the array fields, per type
CASES = {
    "MatricNormal": (lambda: MatricNormal(np.zeros((3, 2)), np.eye(2), np.eye(3)),
                     {"mean", "col_cov", "row_cov", "_chol_col", "_chol_row"}),
    "WishartDist": (lambda: WishartDist(np.eye(2), 4.0), {"scale", "_chol"}),
    "MatricT": (lambda: MatricT(np.zeros((3, 2)), np.eye(2), np.eye(3), 6.0),
                {"mean", "col_scale", "row_scale"}),
    "ConjugatePrior": (lambda: CPRIOR,
                       {"mean_G", "row_cov", "scale", "row_cov_inv", "scale_inv"}),
    "IndependentPrior": (lambda: IPRIOR,
                         {"mean_b", "cov", "scale", "cov_inv", "cov_inv_mean", "scale_inv"}),
    "ConjugateExactPosterior": (lambda: fit_exact(CPRIOR, DATA), {"mean_G", "row_cov", "scale"}),
    "ConjugateVbPosterior": (lambda: fit_vb_conjugate(CPRIOR, DATA),
                             {"mean_G", "row_cov", "scale"}),
    # cov_b is not a field: it is formed from the coefficient step's state
    "IndependentVbPosterior": (lambda: fit_vb_independent(IPRIOR, DATA),
                               {"mean_b", "scale_q"}),
    "GibbsDraws": (lambda: gibbs_run(IPRIOR, DATA, GibbsConfig(n_draws=5, burn_in=0, seed=4)),
                   {"beta_draws", "precision_draws"}),
    "DesignData": (lambda: DATA, {"Y", "X"}),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_array_fields_are_read_only(name):
    build, expected = CASES[name]
    obj = build()
    assert type(obj).__name__ == name
    arrays = {f.name: getattr(obj, f.name) for f in fields(obj)
              if isinstance(getattr(obj, f.name), np.ndarray)}
    assert set(arrays) == expected
    for field_name, value in arrays.items():
        assert value.dtype == float, field_name
        assert not value.flags.writeable, field_name
        with pytest.raises(ValueError):
            value.flat[0] = 1.0



# the inputs of a conjugate posterior with M = 2, p = 3, T = 6, prior dof 4:
# dof = 10, dof_q = 13 and scale_q = 1.3 * scale follow from them
CONJ_INPUTS = dict(mean_G=np.zeros((3, 2)), row_cov=np.eye(3), scale=np.eye(2),
                   n_obs=6, prior_dof=4.0)
VB_DERIVED = {"dof": 10.0, "dof_q": 13.0, "scale_q": 1.3 * np.eye(2)}
CONTRADICTORY = {"dof": 99.0, "dof_q": 50.0, "scale_q": 7.0 * np.eye(2), "n_vars": 3,
                 "traceability": {}}

# type, its inputs, and the derived keyword passed with a contradictory
# value; a ConjugateVbPosterior case also passes the other two derived
# values, consistent, so that a type storing all three would accept the call
REMOVED = {
    "IndependentPrior-n_vars": (
        IndependentPrior, dict(mean_b=np.zeros(6), cov=np.eye(6), scale=np.eye(2), dof=4.0),
        "n_vars"),
    "ConjugateExactPosterior-dof": (ConjugateExactPosterior, CONJ_INPUTS, "dof"),
    "IndependentVbPosterior-n_vars": (
        IndependentVbPosterior, dict(mean_b=np.zeros(6),
                                     coef_state=fit_vb_independent(IPRIOR, DATA).coef_state,
                                     scale_q=np.eye(2), dof=10.0, elbo_trace=(), converged=True),
        "n_vars"),
    **{f"ConjugateVbPosterior-{key}": (ConjugateVbPosterior, CONJ_INPUTS, key)
       for key in VB_DERIVED},
    "DiagnosticsReport-traceability": (
        DiagnosticsReport, dict(model_meta={}, kl_section={}, ratio_section={}, provenance={}),
        "traceability"),
}


@pytest.mark.parametrize("case", sorted(REMOVED))
def test_derived_value_is_not_an_input(case):
    cls, inputs, removed = REMOVED[case]
    extra = {removed: CONTRADICTORY[removed]}
    if cls is ConjugateVbPosterior:
        extra.update((k, v) for k, v in VB_DERIVED.items() if k != removed)
    with pytest.raises(TypeError, match=f"'{removed}'"):
        cls(**inputs, **extra)
