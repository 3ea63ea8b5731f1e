"""Command-line interface: exit codes, report files, config handling."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from vbvar.cli import DEFAULTS, _write_exports, main
from vbvar.independent_mcmc import GibbsDraws
from vbvar.independent_vb import VbConfig
from vbvar.priors import MinnesotaConfig
from vbvar.vardata import simulate_var


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "series.csv"
    values = simulate_var(2, 1, 80, seed=400)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["a", "b"])
        writer.writerows(values.tolist())
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

    def test_large_t_holds_its_digits(self, capsys):
        # the closed form's cancelling terms once printed -0.018469 and -0.042969
        # here, for a true value of 4.3e-9
        assert main(["kl", "--M", "20", "--p", "41", "--T", "1000000000000",
                     "--nu0", "22"]) == 0
        assert capsys.readouterr().out.splitlines() == ["kl_exact    0.000000",
                                                        "kl_stirling 0.000000"]

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

    @pytest.mark.parametrize("nu0", ["nan", "inf"])
    def test_non_finite_nu0_exit_1(self, nu0, capsys):
        # both once printed kl_exact nan and exited 0
        assert main(["kl", "--M", "3", "--p", "13", "--T", "196", "--nu0", nu0]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: prior_dof must be finite" in captured.err

    def test_no_variables_exit_1(self, capsys):
        # scipy's multigammaln does not check M; unchecked, this printed
        # kl_exact 0.000000 and exited 0
        assert main(["kl", "--M", "0", "--p", "1", "--T", "10", "--nu0", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: n_vars must be >= 1")


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

    @pytest.mark.parametrize("flag", ["--export-draws", "--export-elbo-trace"])
    def test_exports_need_independent_prior(self, data_csv, tmp_path, capsys, flag):
        path = tmp_path / "export.csv"
        assert main(["fit", "--data", data_csv, "--prior", "conjugate",
                     flag, str(path)]) == 1
        assert flag in capsys.readouterr().err
        assert not path.exists()

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

    def test_draws_export_bytes_match_csv_writer(self, tmp_path):
        values = np.array([-0.0, 5e-324, 1.2345678901234567e-05, 1e16, 0.1])
        rows = np.stack([values, values[::-1]])
        draws = GibbsDraws(beta_draws=rows[:, :4], precision_draws=rows[:, 4:, None],
                           seed=0, burn_in=0)
        trace = [-932.8369631798702, -0.0, 1e16]
        path, trace_path = tmp_path / "draws.csv", tmp_path / "trace.csv"
        _write_exports({"export_draws": str(path), "export_elbo_trace": str(trace_path)},
                       SimpleNamespace(elbo_trace=tuple(map(np.float64, trace))), draws)
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(["beta_0", "beta_1", "beta_2", "beta_3", "prec_0_0"])
        for row in rows:
            writer.writerow(list(row))
        assert path.read_bytes() == expected.getvalue().encode("utf-8")
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(["iteration", "elbo"])
        writer.writerows(enumerate(trace))
        assert trace_path.read_bytes() == expected.getvalue().encode("utf-8")
        with open(path, newline="") as fh:
            parsed = np.array([[float(cell) for cell in row] for row in list(csv.reader(fh))[1:]])
        assert parsed.tobytes() == rows.tobytes()

    def test_missing_out_directory_no_traceback(self, data_csv, tmp_path):
        out = tmp_path / "nodir" / "r.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [
            str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "vbvar.cli", "fit", "--prior", "conjugate",
             "--data", data_csv, "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error:") and "--out" in proc.stderr

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs 2 CPUs")
    def test_independent_report_is_thread_count_free_at_mp_21(self, tmp_path):
        # at M = 3, d = 2 no BLAS or LAPACK step of the fit changes its bits
        # with the OpenBLAS thread count (the dense state runs no potri,
        # whose lauum did); only the child's environment sets the count
        path = tmp_path / "series.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["a", "b", "c"])
            writer.writerows(simulate_var(3, 2, 200, seed=2801).tolist())
        reports = []
        for threads in ("1", "2"):
            out = tmp_path / f"report_{threads}.json"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [
                str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH")]))
            proc = subprocess.run(
                [sys.executable, "-m", "vbvar.cli", "fit", "--prior", "independent",
                 "--data", str(path), "--lags", "2", "--seed", "7", "--out", str(out)],
                capture_output=True, text=True, env=env, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            reports.append(out.read_bytes())
        assert json.loads(reports[0])["meta"]["p"] == 7
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("flag", ["--export-draws", "--export-elbo-trace"])
    def test_missing_export_directory_found_before_gibbs(self, data_csv, tmp_path, capsys,
                                                         monkeypatch, flag):
        from vbvar import independent_mcmc

        calls = []
        monkeypatch.setattr(independent_mcmc, "gibbs_run", lambda *a, **k: calls.append(a))
        assert main(["fit", "--data", data_csv, "--prior", "independent", "--seed", "5",
                     flag, str(tmp_path / "nodir" / "export.csv")]) == 1
        assert calls == []
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--out", "--export-draws", "--export-elbo-trace"])
    def test_output_directory_found_before_fitting(self, data_csv, tmp_path, capsys,
                                                   monkeypatch, flag):
        # such a path once failed with "[Errno 21] Is a directory", naming no
        # flag, after VB, Gibbs and both exports had run
        from vbvar import independent_vb

        def never(*args, **kwargs):
            raise AssertionError("fitted before the output paths were checked")

        monkeypatch.setattr(independent_vb, "fit_vb_independent", never)
        paths = {"--out": tmp_path / "r.json", "--export-draws": tmp_path / "d.csv",
                 "--export-elbo-trace": tmp_path / "t.csv"}
        paths[flag] = tmp_path
        assert main(["fit", "--prior", "independent", "--data", data_csv, "--lags", "2",
                     "--seed", "1"] + [a for f, p in paths.items() for a in (f, str(p))]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag}: ") and err.rstrip().endswith("is a directory")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", [["fit", "--prior", "independent"], ["compare"]],
                             ids=["fit", "compare"])
    def test_too_few_kept_draws_found_before_gibbs(self, data_csv, capsys, monkeypatch,
                                                   command):
        from vbvar import independent_mcmc

        calls = []
        monkeypatch.setattr(independent_mcmc, "gibbs_run", lambda *a, **k: calls.append(a))
        assert main(command + ["--data", data_csv, "--seed", "5",
                               "--draws", "20099", "--burn-in", "20000"]) == 1
        assert calls == []
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--burn-in" in err
        assert str(independent_mcmc.MIN_PREDICTIVE_DRAWS) in err

    @pytest.mark.parametrize("command, flags, file_cfg", [
        (["fit", "--prior", "independent"], ["--seed", "-1"], {}),
        (["fit", "--prior", "independent"], [], {"seed": -1}),
        (["compare"], ["--seed", "-3"], {"seed": 7}),
    ], ids=["fit-flag", "fit-config", "compare-flag"])
    def test_negative_seed_found_before_fitting(self, data_csv, tmp_path, capsys, monkeypatch,
                                                command, flags, file_cfg):
        # a negative seed once failed in numpy, naming no flag, after the VB fit
        from vbvar import cli, independent_mcmc, independent_vb

        def never(*args, **kwargs):
            raise AssertionError("called before the seed was checked")

        monkeypatch.setattr(cli, "_load_design", never)
        monkeypatch.setattr(independent_vb, "fit_vb_independent", never)
        monkeypatch.setattr(independent_mcmc, "gibbs_run", never)
        cfg = tmp_path / "seed.json"
        cfg.write_text(json.dumps({"data": data_csv, **file_cfg}))
        assert main(command + ["--config", str(cfg)] + flags) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: seed must be >= 0, got -")

    @pytest.mark.parametrize("flags, file_cfg, field", [
        (["--tol", "inf"], {}, "elbo_rel_tol"),
        (["--tol", "nan"], {}, "elbo_rel_tol"),
        ([], {"tol": float("nan")}, "elbo_rel_tol"),
        ([], {"lambda1": float("inf")}, "overall_tightness"),
        ([], {"lambda3": float("-inf")}, "lag_decay"),
        ([], {"own_lag_mean": float("nan")}, "own_lag_mean"),
    ], ids=["flag-tol-inf", "flag-tol-nan", "config-tol-nan", "config-lambda1-inf",
            "config-lambda3-minus-inf", "config-own_lag_mean-nan"])
    def test_non_finite_setting_exit_1(self, data_csv, tmp_path, capsys, monkeypatch,
                                       flags, file_cfg, field):
        from vbvar import independent_mcmc

        calls = []
        monkeypatch.setattr(independent_mcmc, "gibbs_run", lambda *a, **k: calls.append(a))
        cfg = tmp_path / "non_finite.json"
        # json writes the Python floats as Infinity/NaN, which json.load accepts
        cfg.write_text(json.dumps({"data": data_csv, "prior": "independent", "seed": 5,
                                   "draws": 300, "burn_in": 100, **file_cfg}))
        assert main(["fit", "--config", str(cfg)] + flags) == 1
        assert calls == []
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{field} must be finite" in err

    def test_unwritable_out_exit_1(self, data_csv, tmp_path, capsys):
        # the directory exists, but the path is a directory: open() fails
        assert main(["fit", "--data", data_csv, "--prior", "conjugate",
                     "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error:")


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

    def test_unknown_prior_exit_1(self, data_csv, tmp_path, capsys):
        cfg = tmp_path / "typo.json"
        cfg.write_text(json.dumps({"data": data_csv, "prior": "indepndent", "seed": 5}))
        out = tmp_path / "typo_report.json"
        assert main(["fit", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "indepndent" in err and "conjugate" in err and "independent" in err
        assert not out.exists()

    def test_unknown_key_exit_1(self, data_csv, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"data": data_csv, "lambda9": 1.0}))
        assert main(["fit", "--config", str(cfg)]) == 1
        assert "lambda9" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("timestamps", "false"), ("lags", 2.5),
                                            ("draws", 300.9), ("seed", True), ("out", 5)])
    def test_mistyped_value_exit_1(self, data_csv, tmp_path, capsys, key, value):
        cfg = tmp_path / "typed.json"
        cfg.write_text(json.dumps({"data": data_csv, "prior": "independent", "seed": 5,
                                   "draws": 300, "burn_in": 100, key: value}))
        assert main(["fit", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and repr(key) in err

    @pytest.mark.parametrize("values, minnesota, vb", [
        ({}, MinnesotaConfig(), VbConfig()),
        ({"lambda1": 0.3, "lambda2": 0.5, "lambda3": 2.0, "lambda4": 50.0,
          "own_lag_mean": 0.5, "dof_offset": 3, "max_iters": 7, "tol": 1e-6},
         MinnesotaConfig(overall_tightness=0.3, cross_tightness=0.5, lag_decay=2.0,
                         intercept_scale=50.0, own_lag_mean=0.5, dof_offset=3),
         VbConfig(max_iters=7, elbo_rel_tol=1e-6)),
    ], ids=["defaults", "every-key-set"])
    def test_library_keys_reach_config_fields(self, data_csv, tmp_path, monkeypatch,
                                              values, minnesota, vb):
        from vbvar import cli, independent_vb

        assert all(values[key] != DEFAULTS[key] for key in values)
        built = {}
        original = cli.minnesota_independent

        class Built(Exception):
            pass

        def capture_prior(data, mn):
            built["minnesota"] = mn
            return original(data, mn)

        def capture_vb(prior, data, vb_cfg):
            built["vb"] = vb_cfg
            raise Built

        monkeypatch.setattr(cli, "minnesota_independent", capture_prior)
        monkeypatch.setattr(independent_vb, "fit_vb_independent", capture_vb)
        cfg = tmp_path / "library.json"
        cfg.write_text(json.dumps({"data": data_csv, "prior": "independent", "seed": 5,
                                   **values}))
        with pytest.raises(Built):
            main(["fit", "--config", str(cfg)])
        assert built == {"minnesota": minnesota, "vb": vb}

    def test_not_an_object_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "list.json"
        cfg.write_text("[1, 2]")
        assert main(["fit", "--config", str(cfg)]) == 1
        assert "JSON object" in capsys.readouterr().err

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

    def test_unknown_config_prior_exit_1(self, data_csv, tmp_path, capsys):
        cfg = tmp_path / "typo.json"
        cfg.write_text(json.dumps({"data": data_csv, "prior": "indepndent", "seed": 5,
                                   "draws": 300, "burn_in": 100}))
        out = tmp_path / "typo_compare.json"
        assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "indepndent" in err and "conjugate" in err and "independent" in err
        assert not out.exists()

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
