"""Command-line interface: exit codes, report files, config handling."""

import csv
import json

import numpy as np
import pytest

from vbvar.cli import main
from vbvar.vardata import simulate_var


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "series.csv"
    values = simulate_var(2, 1, 80, seed=400)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["a", "b"])
        writer.writerows(np.asarray(values.values).tolist())
    return str(path)


class TestKlCommand:
    def test_reference_small(self, capsys):
        assert main(["kl", "--M", "3", "--p", "13", "--T", "196",
                     "--nu0", "5"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "kl_exact    0.189003"
        assert out[1].startswith("kl_stirling ")

    def test_reference_medium(self, capsys):
        assert main(["kl", "--M", "7", "--p", "29", "--T", "196",
                     "--nu0", "9"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "kl_exact    1.873518"

    def test_grows_with_m(self, capsys):
        vals = []
        for m, p in [(3, 13), (7, 29)]:
            main(["kl", "--M", str(m), "--p", str(p), "--T", "196",
                  "--nu0", str(m + 2)])
            vals.append(float(capsys.readouterr().out.split()[1]))
        assert vals[1] > vals[0]

    def test_domain_error_exit_1(self, capsys):
        assert main(["kl", "--M", "5", "--p", "2", "--T", "0",
                     "--nu0", "2"]) == 1
        assert "error:" in capsys.readouterr().err


class TestFitCommand:
    def test_conjugate_report_written(self, data_csv, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["fit", "--data", data_csv, "--lags", "1",
                     "--prior", "conjugate", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert "kl_section" in payload
        assert abs(payload["kl_section"]["identity_residual"]) < 1e-8
        assert payload["meta"]["M"] == 2
        assert "conjugate VAR" in capsys.readouterr().out

    def test_missing_file_exit_1(self, capsys):
        assert main(["fit", "--data", "/nonexistent/series.csv"]) == 1
        assert "/nonexistent/series.csv" in capsys.readouterr().err

    def test_no_data_exit_1(self, capsys):
        assert main(["fit"]) == 1
        assert "no data" in capsys.readouterr().err

    def test_gibbs_needs_seed(self, data_csv, capsys):
        assert main(["fit", "--data", data_csv, "--prior", "independent"]) == 1
        assert "seed" in capsys.readouterr().err

    def test_independent_fit(self, data_csv, tmp_path, capsys):
        out = tmp_path / "indep.json"
        code = main(["fit", "--data", data_csv, "--prior", "independent",
                     "--seed", "5", "--draws", "3000", "--burn-in", "500",
                     "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["provenance"]["vb_converged"] is True
        assert payload["provenance"]["seed"] == 5
        capsys.readouterr()

    def test_non_convergence_exit_2(self, data_csv, tmp_path, capsys):
        out = tmp_path / "noconv.json"
        code = main(["fit", "--data", data_csv, "--prior", "independent",
                     "--seed", "5", "--draws", "1200", "--burn-in", "200",
                     "--max-iters", "1", "--out", str(out)])
        assert code == 2
        # the report is still written
        payload = json.loads(out.read_text())
        assert payload["provenance"]["vb_converged"] is False
        capsys.readouterr()

    def test_export_draws_and_trace(self, data_csv, tmp_path, capsys):
        draws_csv = tmp_path / "draws.csv"
        trace_csv = tmp_path / "trace.csv"
        code = main(["fit", "--data", data_csv, "--prior", "independent",
                     "--seed", "5", "--draws", "1200", "--burn-in", "200",
                     "--export-draws", str(draws_csv),
                     "--export-elbo-trace", str(trace_csv)])
        assert code == 0
        with open(draws_csv) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:3] == ["beta_0", "beta_1", "beta_2"]
        assert len(rows) == 1001  # header + kept draws
        with open(trace_csv) as fh:
            trows = list(csv.reader(fh))
        assert trows[0] == ["iteration", "elbo"]
        elbos = [float(r[1]) for r in trows[1:]]
        assert all(b >= a - 1e-10 for a, b in zip(elbos, elbos[1:]))
        capsys.readouterr()

    def test_exports_fit_once(self, data_csv, tmp_path, capsys, monkeypatch):
        from vbvar import independent_mcmc, independent_vb

        calls = []
        for module, name in ((independent_mcmc, "gibbs_run"),
                             (independent_vb, "fit_vb_independent")):
            original = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, _f=original, _n=name, **k:
                                calls.append(_n) or _f(*a, **k))
        code = main(["fit", "--data", data_csv, "--prior", "independent",
                     "--seed", "5", "--draws", "300", "--burn-in", "100",
                     "--export-draws", str(tmp_path / "d.csv"),
                     "--export-elbo-trace", str(tmp_path / "t.csv")])
        assert code == 0
        assert sorted(calls) == ["fit_vb_independent", "gibbs_run"]
        capsys.readouterr()


class TestConfigFile:
    def test_merge_and_flag_override(self, data_csv, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"data": data_csv, "lags": 1,
                                   "lambda1": 0.3}))
        out = tmp_path / "from_cfg.json"
        assert main(["fit", "--config", str(cfg), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["meta"]["prior_type"] == "conjugate"
        capsys.readouterr()

    def test_prior_from_config(self, data_csv, tmp_path, capsys):
        cfg = tmp_path / "indep.json"
        cfg.write_text(json.dumps({"data": data_csv, "prior": "independent", "seed": 5,
                                   "draws": 300, "burn_in": 100}))
        out = tmp_path / "indep_cfg.json"
        assert main(["fit", "--config", str(cfg), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["meta"]["prior_type"] == "independent"
        assert main(["fit", "--config", str(cfg), "--prior", "conjugate",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["meta"]["prior_type"] == "conjugate"
        capsys.readouterr()

    def test_unknown_key_exit_1(self, data_csv, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"data": data_csv, "lambda9": 1.0}))
        assert main(["fit", "--config", str(cfg)]) == 1
        assert "lambda9" in capsys.readouterr().err

    def test_invalid_json_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        assert main(["fit", "--config", str(cfg)]) == 1
        assert "not valid JSON" in capsys.readouterr().err


class TestCompareCommand:
    def test_combined_json_deterministic(self, data_csv, tmp_path, capsys):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        args = ["compare", "--data", data_csv, "--seed", "9",
                "--draws", "2000", "--burn-in", "400"]
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        payload = json.loads(out_a.read_text())
        assert set(payload) == {"conjugate", "independent"}
        capsys.readouterr()

    def test_exports_match_fit(self, data_csv, tmp_path, capsys):
        common = ["--data", data_csv, "--seed", "5", "--draws", "300", "--burn-in", "100"]
        shapes = {}
        for command in (["fit", "--prior", "independent"], ["compare"]):
            draws_csv = tmp_path / f"{command[0]}_draws.csv"
            trace_csv = tmp_path / f"{command[0]}_trace.csv"
            assert main(command + common + ["--export-draws", str(draws_csv),
                                            "--export-elbo-trace", str(trace_csv)]) == 0
            shapes[command[0]] = []
            for path in (draws_csv, trace_csv):
                with open(path) as fh:
                    rows = list(csv.reader(fh))
                shapes[command[0]].append((rows[0], len(rows)))
        assert shapes["compare"] == shapes["fit"]
        assert shapes["fit"][0][1] == 201  # header + kept draws
        capsys.readouterr()
