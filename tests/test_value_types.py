"""Every frozen value type stores its array fields as read-only float arrays."""

from dataclasses import fields

import numpy as np
import pytest

from conftest import random_conjugate_prior, random_independent_prior
from vbvar.conjugate_exact import fit_exact
from vbvar.conjugate_vb import fit_vb_conjugate
from vbvar.independent_mcmc import GibbsConfig, gibbs_run
from vbvar.independent_vb import fit_vb_independent
from vbvar.mvdist import MatricNormal, MatricT, MultivariateT, WishartDist
from vbvar.vardata import build_design, simulate_var

SERIES = simulate_var(2, 1, 40, seed=1)
DATA = build_design(SERIES, 1)
CPRIOR = random_conjugate_prior(2, 3, seed=2)
IPRIOR = random_independent_prior(2, 3, seed=3)

# builder and names of the array fields, per type
CASES = {
    "MatricNormal": (lambda: MatricNormal(np.zeros((3, 2)), np.eye(2), np.eye(3)),
                     {"mean", "col_cov", "row_cov", "_chol_col", "_chol_row"}),
    "WishartDist": (lambda: WishartDist(np.eye(2), 4.0), {"scale", "_chol"}),
    "MatricT": (lambda: MatricT(np.zeros((3, 2)), np.eye(2), np.eye(3), 6.0),
                {"mean", "col_scale", "row_scale"}),
    "MultivariateT": (lambda: MultivariateT(np.zeros(2), np.eye(2), 5.0),
                      {"mean", "scale", "_chol"}),
    "ConjugatePrior": (lambda: CPRIOR,
                       {"mean_G", "row_cov", "scale", "row_cov_inv", "scale_inv"}),
    "IndependentPrior": (lambda: IPRIOR,
                         {"mean_b", "cov", "scale", "cov_inv", "cov_inv_mean", "scale_inv"}),
    "ConjugateExactPosterior": (lambda: fit_exact(CPRIOR, DATA), {"mean_G", "row_cov", "scale"}),
    "ConjugateVbPosterior": (lambda: fit_vb_conjugate(CPRIOR, DATA),
                             {"mean_G", "row_cov", "scale", "scale_q"}),
    "IndependentVbPosterior": (lambda: fit_vb_independent(IPRIOR, DATA),
                               {"mean_b", "cov_b", "scale_q"}),
    "GibbsDraws": (lambda: gibbs_run(IPRIOR, DATA, GibbsConfig(n_draws=5, burn_in=0, seed=4)),
                   {"beta_draws", "precision_draws"}),
    "RawSeries": (lambda: SERIES, {"values"}),
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
