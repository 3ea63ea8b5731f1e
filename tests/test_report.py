"""Diagnostics reports: analytic identities, MC-consistent ratios, determinism."""

import json

import numpy as np
import pytest

from conftest import synthetic_design
from vbvar import independent_mcmc as imc
from vbvar import independent_vb as ivb
from vbvar.independent_mcmc import GibbsConfig, gibbs_run
from vbvar.independent_vb import fit_vb_independent
from vbvar.priors import MinnesotaConfig, minnesota_conjugate, minnesota_independent
from vbvar.report import conjugate_report, independent_report


@pytest.fixture(scope="module")
def conj_report(medium_design):
    prior = minnesota_conjugate(medium_design, MinnesotaConfig())
    x = np.concatenate([[1.0], medium_design.X[-1, 1:]])
    return conjugate_report(prior, medium_design, x)


class TestConjugateReport:
    def test_kl_section_values(self, conj_report):
        kl = conj_report.kl_section
        # M=3, p=13, T=196, prior dof 5
        assert kl["kl"] == pytest.approx(0.189, abs=0.005)
        assert abs(kl["identity_residual"]) < 1e-8
        assert kl["elbo"] < kl["lnml"]

    def test_ratio_section(self, conj_report):
        r = conj_report.ratio_section
        assert r["coef_var_ratio"] == pytest.approx(0.980, abs=1e-3)
        assert r["mode_ratio"] == pytest.approx(0.939, abs=1e-3)
        assert 0.95 < r["pred_var_ratio_at_x"] < 1.0
        np.testing.assert_array_equal(r["pred_mean_ratio"], np.ones(3))

    def test_meta(self, conj_report, medium_design):
        meta = conj_report.model_meta
        assert meta["prior_type"] == "conjugate"
        assert (meta["M"], meta["p"], meta["T"], meta["d"]) == (3, 13, 196, 4)
        assert meta["prior_dof"] == 5

    def test_json_deterministic(self, medium_design):
        prior = minnesota_conjugate(medium_design, MinnesotaConfig())
        x = np.concatenate([[1.0], medium_design.X[-1, 1:]])
        a = conjugate_report(prior, medium_design, x).to_json()
        b = conjugate_report(prior, medium_design, x).to_json()
        assert a == b
        parsed = json.loads(a)
        assert set(parsed) == {"meta", "kl_section", "ratio_section",
                               "provenance", "traceability"}

    def test_traceability(self, conj_report):
        trace = _assert_traces_every_cell(conj_report)
        assert trace["elbo"] == "elbo_conjugate"
        assert trace["pred_var_ratio_at_x"] == "predictive_vb_conjugate / predictive_exact"

    def test_x_next_size_is_checked(self, medium_design):
        prior = minnesota_conjugate(medium_design, MinnesotaConfig())
        with pytest.raises(ValueError, match="x_next must have p = 13 entries, got 12"):
            conjugate_report(prior, medium_design, medium_design.next_regressors()[:-1])

    def test_fits_exact_once(self, medium_design, monkeypatch):
        from vbvar import conjugate_exact, conjugate_vb

        calls = []
        original = conjugate_exact.fit_exact
        for module in (conjugate_exact, conjugate_vb):
            monkeypatch.setattr(module, "fit_exact",
                                lambda *a, **k: calls.append(1) or original(*a, **k))
        prior = minnesota_conjugate(medium_design, MinnesotaConfig())
        conjugate_report(prior, medium_design, medium_design.next_regressors())
        assert len(calls) == 1

    def test_factors_each_posterior_matrix_once(self, medium_design, monkeypatch):
        # the fit's factor of the posterior precision gives ln |row_cov|, and
        # the lnML and the ELBO share one factor of the posterior scale
        from vbvar import conjugate_exact, conjugate_vb

        names = []
        original = conjugate_exact.spd_cholesky
        for module in (conjugate_exact, conjugate_vb):
            monkeypatch.setattr(module, "spd_cholesky",
                                lambda a, name="matrix": names.append(name) or original(a, name))
        prior = minnesota_conjugate(medium_design, MinnesotaConfig())
        conjugate_report(prior, medium_design, medium_design.next_regressors())
        assert names == ["posterior precision", "scale"]

    def test_text_renders(self, conj_report):
        text = conj_report.to_text()
        assert "conjugate VAR" in text
        assert "kl_stirling" in text
        assert "coef_var_ratio" in text


def _assert_traces_every_cell(report):
    # one traceability entry per kl_section and ratio_section cell, no more
    trace = json.loads(report.to_json())["traceability"]
    kl, ratios = set(report.kl_section), set(report.ratio_section)
    assert not kl & ratios
    assert set(trace) == kl | ratios
    return trace


def _fits(prior, data, cfg):
    return fit_vb_independent(prior, data), gibbs_run(prior, data, cfg)


@pytest.fixture(scope="module")
def indep_report():
    data = synthetic_design(2, 1, 120, seed=300)
    prior = minnesota_independent(data, MinnesotaConfig())
    x = np.concatenate([[1.0], data.Y[-1]])
    cfg = GibbsConfig(n_draws=12_000, burn_in=2_000, seed=301)
    return prior, data, x, cfg, independent_report(prior, data, x, *_fits(prior, data, cfg))


class TestIndependentReport:
    def test_mean_ratios_near_one(self, indep_report):
        _, _, _, _, rep = indep_report
        r = rep.ratio_section
        prec = r["precision_mean_ratio"]
        for v, vb, mc, se in zip(prec["value"], prec["vb"], prec["mcmc"], prec["se"]):
            assert abs(vb - mc) < 4 * se
            assert v == pytest.approx(1.0, abs=0.1)
        pm = r["pred_mean_ratio"]
        for vb, mc, se in zip(pm["vb"], pm["mcmc"], pm["se"]):
            assert abs(vb - mc) < 5 * se

    def test_variance_ratios_below_one(self, indep_report):
        _, _, _, _, rep = indep_report
        r = rep.ratio_section
        assert np.all(np.asarray(r["precision_var_ratio"]["value"]) < 1.0)
        assert np.all(np.asarray(r["pred_var_ratio"]["value"]) < 1.02)

    def test_kl_section(self, indep_report):
        _, _, _, _, rep = indep_report
        kl = rep.kl_section
        # lnML >= ELBO: the implied KL must be positive up to MC noise
        assert kl["kl"]["value"] > -3 * kl["kl"]["se"]
        assert kl["lnml_ris"]["value"] - kl["elbo"] == \
            pytest.approx(kl["kl"]["value"])

    def test_provenance(self, indep_report):
        _, _, _, cfg, rep = indep_report
        prov = rep.provenance
        assert prov["stochastic"] is True
        assert (prov["seed"], prov["n_draws"], prov["burn_in"]) == \
            (cfg.seed, cfg.n_draws, cfg.burn_in)
        assert prov["vb_converged"]
        assert prov["ris_ess"] > 100
        assert prov["ris_degenerate_weights"] is False
        assert "warning" not in rep.to_text()

    def test_degenerate_weights_warn(self, monkeypatch):
        data = synthetic_design(2, 1, 60, seed=320)
        prior = minnesota_independent(data, MinnesotaConfig())
        x = np.concatenate([[1.0], data.Y[-1]])
        cfg = GibbsConfig(n_draws=300, burn_in=100, seed=321)
        ris = imc.lnml_ris

        def degenerate(*args):
            return dict(ris(*args), ess=3.3, degenerate_weights=True)

        monkeypatch.setattr(imc, "lnml_ris", degenerate)
        rep = independent_report(prior, data, x, *_fits(prior, data, cfg))
        assert rep.provenance["ris_degenerate_weights"] is True
        assert json.loads(rep.to_json())["provenance"]["ris_degenerate_weights"] is True
        assert "warning: degenerate RIS weights (ESS 3.3 of 200 kept draws)" in rep.to_text()

    def test_elbo_read_from_fit(self, monkeypatch):
        data = synthetic_design(2, 1, 60, seed=310)
        prior = minnesota_independent(data, MinnesotaConfig())
        x = np.concatenate([[1.0], data.Y[-1]])
        vb, draws = _fits(prior, data, GibbsConfig(n_draws=300, burn_in=100, seed=311))

        def refit(*args):
            raise AssertionError("elbo_independent called")

        monkeypatch.setattr(ivb, "elbo_independent", refit)
        rep = independent_report(prior, data, x, vb, draws)
        assert rep.kl_section["elbo"] == vb.elbo_trace[-1]

    def test_inverts_scale_q_once(self, monkeypatch):
        # the ratio cells and lnml_ris share one q(Sigma^-1) = W(scale_q^-1, dof)
        data = synthetic_design(2, 1, 60, seed=310)
        prior = minnesota_independent(data, MinnesotaConfig())
        x = np.concatenate([[1.0], data.Y[-1]])
        vb, draws = _fits(prior, data, GibbsConfig(n_draws=300, burn_in=100, seed=311))
        names = []
        original = ivb.spd_inverse
        monkeypatch.setattr(ivb, "spd_inverse",
                            lambda a, name="matrix": names.append(name) or original(a, name))
        independent_report(prior, data, x, vb, draws)
        assert names == ["scale_q"]

    def test_factors_precision_draws_once(self, monkeypatch):
        # predictive_gibbs and lnml_ris share one stacked Cholesky of the draws
        data = synthetic_design(2, 1, 60, seed=310)
        prior = minnesota_independent(data, MinnesotaConfig())
        x = np.concatenate([[1.0], data.Y[-1]])
        vb, draws = _fits(prior, data, GibbsConfig(n_draws=300, burn_in=100, seed=311))
        shapes = []
        original = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky",
                            lambda a: shapes.append(np.shape(a)) or original(a))
        independent_report(prior, data, x, vb, draws)
        assert shapes.count(draws.precision_draws.shape) == 1

    def test_traceability(self, indep_report):
        # the elbo, kl and pred_var_ratio cells were once traced to the
        # conjugate closed forms
        trace = _assert_traces_every_cell(indep_report[-1])
        assert trace["elbo"] == "elbo_independent"
        assert trace["kl"] == "lnml_ris - elbo_independent"
        assert trace["pred_var_ratio"] == "predictive_vb_independent / predictive_gibbs"

    def test_deterministic(self, indep_report):
        prior, data, x, cfg, rep = indep_report
        again = independent_report(prior, data, x, *_fits(prior, data, cfg))
        assert again.to_json() == rep.to_json()

    def test_given_fits_are_checked(self):
        data = synthetic_design(2, 1, 60, seed=310)
        prior = minnesota_independent(data, MinnesotaConfig())
        x = np.concatenate([[1.0], data.Y[-1]])
        cfg = GibbsConfig(n_draws=300, burn_in=100, seed=311)
        vb, draws = _fits(prior, data, cfg)
        wide = synthetic_design(3, 1, 60, seed=313)
        wide_prior = minnesota_independent(wide, MinnesotaConfig())
        with pytest.raises(ValueError, match="vb is not a fit"):
            independent_report(prior, data, x, fit_vb_independent(wide_prior, wide), draws)
        with pytest.raises(ValueError, match="draws are not a chain"):
            independent_report(prior, data, x, vb, gibbs_run(wide_prior, wide, cfg))

    def test_x_next_size_is_checked(self):
        data = synthetic_design(2, 1, 60, seed=310)
        prior = minnesota_independent(data, MinnesotaConfig())
        vb, draws = _fits(prior, data, GibbsConfig(n_draws=300, burn_in=100, seed=311))
        with pytest.raises(ValueError, match="x_next must have p = 3 entries, got 4"):
            independent_report(prior, data, np.ones(4), vb, draws)
