"""Smoke tests of the scripts under scripts/: they run against the current
library API and write what they promise."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_compare_methods_writes_both_reports(tmp_path):
    out = tmp_path / "demo.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "compare_methods.py"), "--t", "80",
         "--draws", "400", "--burn-in", "100", "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(out.read_text())
    assert set(payload) == {"conjugate", "independent"}
    assert payload["conjugate"]["meta"]["prior_type"] == "conjugate"
    assert payload["independent"]["provenance"]["n_draws"] == 400


def test_ratio_tables_prints_both_tables():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ratio_tables.py"), "--mc-draws", "200"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("T = 196\n")
    rows = [line.split() for line in proc.stdout.splitlines()
            if line.startswith(("small", "medium", "large"))]
    kl_rows, ratio_rows, empirical_rows = rows[:3], rows[3:6], rows[6:]
    assert kl_rows[0][2] == "0.189003"  # kl_exact(3, 13, 196, 5), as `vbvar kl` prints it
    # VB underestimates: every moment ratio of moment_ratios lies in (0, 1)
    assert all(0.0 < float(cell) < 1.0 for row in ratio_rows for cell in row[2:])
    assert len(empirical_rows) == 2


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_same_outputs():
    return _load_script("same_outputs")


def test_same_outputs_measures_numeric_drift():
    same_outputs = _load_same_outputs()

    def rel(name, parent, change):
        cell = same_outputs.worst_cell(name, parent, change)
        return None if cell is None else cell[0]

    trace = b"iteration,elbo\r\n0,-100.0\r\n1,-50.0\r\n"
    assert rel("trace.csv", trace, trace.replace(b"-50.0", b"-50.000001")) == \
        pytest.approx(2e-8)
    assert rel("trace.csv", trace, trace.replace(b"elbo", b"value")) is None
    assert rel("trace.csv", trace, trace + b"2,-49.0\r\n") is None
    report = b'{"kl": 1.5, "flags": [true], "name": "vb"}'
    assert rel("report.json", report, report.replace(b"1.5", b"1.5000000000000002")) == \
        pytest.approx(2.0 ** -52 / 1.5, rel=1e-3)
    assert rel("report.json", report, report.replace(b"true", b"1")) is None
    assert rel("report.json", report, report.replace(b"[true]", b"[true, false]")) is None
    assert rel("stdout.txt", b"1", b"2") is None
    assert same_outputs.verdict(
        {"exit code": 0, "stdout": b"", "stderr": b"", "files": {"trace.csv": trace}},
        {"exit code": 0, "stdout": b"", "stderr": b"",
         "files": {"trace.csv": trace.replace(b"-50.0", b"-50.5")}},
    ) == "DIFFERENT (trace.csv: max rel 0.0099 at row 2 col elbo (abs 0.5))"


def test_same_outputs_round_off_verdict():
    same_outputs = _load_same_outputs()

    def outputs(report, stdout=b""):
        return {"exit code": 0, "stdout": stdout, "stderr": b"",
                "files": {"report.json": report, "draws.csv": b"a\r\n1.0\r\n"}}

    report = b'{"kl": 1.5, "name": "vb"}'
    tiny = report.replace(b"1.5", b"1.5000000000000002")  # max rel 1.5e-16
    assert same_outputs.verdict(outputs(report), outputs(report)) == "same"
    assert same_outputs.verdict(outputs(report), outputs(tiny)) == \
        "round-off (report.json: max rel 1.5e-16 at kl (abs 2.2e-16))"
    # the label names the cell with the largest relative move, by its JSON
    # path or its CSV row and column header, and gives its absolute move
    nested = b'{"a": {"kl": [0.08, 1000.0]}, "b": 2.0}'
    moved = nested.replace(b"0.08", b"0.0800000000000003").replace(b"1000.0",
                                                                    b"1000.0000000000002")
    assert same_outputs.verdict(outputs(nested), outputs(moved)) == \
        "round-off (report.json: max rel 3.6e-15 at a.kl.0 (abs 2.9e-16))"
    draws = b"b0,b1\r\n1.0,2.0\r\n3.0,4.0\r\n"
    assert same_outputs.worst_cell("draws.csv", draws, draws.replace(b"4.0", b"4.5")) == \
        (0.5 / 4.5, "row 2 col b1", 0.5)
    # bytes that differ with no numeric cell moved name no cell
    assert same_outputs.verdict(outputs(report), outputs(report.replace(b"1.5", b"1.50"))) == \
        "round-off (report.json: max rel 0)"
    # past the bound, or with any stream differing, it is a difference
    assert same_outputs.verdict(outputs(report), outputs(report.replace(b"1.5", b"1.5001"))) \
        .startswith("DIFFERENT (report.json: max rel")
    assert same_outputs.verdict(outputs(report), outputs(tiny, stdout=b"x")).startswith(
        "DIFFERENT (stdout, report.json")
    line, status = same_outputs.summary(["same", "round-off (report.json: max rel 1e-16)",
                                         "DIFFERENT (stdout)"])
    assert line == "1 of 3 commands byte-identical, 1 round-off (max rel <= 1e-12)"
    assert status == 1
    assert same_outputs.summary(["same", "same"]) == \
        ("2 of 2 commands byte-identical, 0 round-off (max rel <= 1e-12)", 0)
    # the summary line names the BLAS thread settings both sides ran under
    assert same_outputs.blas_threads({"OPENBLAS_NUM_THREADS": "1", "PATH": "/bin"}) == \
        "OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=unset MKL_NUM_THREADS=unset"
    assert same_outputs.blas_threads({}) == \
        "OPENBLAS_NUM_THREADS=unset OMP_NUM_THREADS=unset MKL_NUM_THREADS=unset"


def test_bench_pairs_claim_follows_better():
    bench_pairs = _load_script("bench_pairs")

    def claim(parent, factor, better, ratio):
        change = [factor * v for v in parent]
        doc = {"end_to_end": {"w": {"metrics": {
            "m": bench_pairs.compare(parent, change, better)}}}}
        return bench_pairs.claim_summary(doc, "w", "m", ratio)

    parent = [0.5 + 0.001 * i for i in range(10)]
    assert claim(parent, 0.9, "lower", 0.95)["met"]
    assert not claim(parent, 0.97, "lower", 0.95)["met"]
    # higher is better: the median must reach RATIO times the parent's
    high = claim(parent, 1.2, "higher", 1.1)
    assert high["met"] and high["wins"] == 10 and ">= 1.1 x parent" in high["rule"]
    assert not claim(parent, 1.05, "higher", 1.1)["met"]
    assert not claim(parent, 0.9, "higher", 0.95)["met"]


def test_bench_pairs_git_head_only_at_the_top_of_a_work_tree(tmp_path):
    bench_pairs = _load_script("bench_pairs")
    repo = tmp_path / "repo"
    (repo / ".benchmarks" / "parent").mkdir(parents=True)
    (repo / "f").write_text("x")

    def git(*args):
        return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.invalid",
                               "-c", "commit.gpgsign=false", *args], cwd=repo,
                              capture_output=True, text=True, check=True).stdout.strip()

    git("init", "-q")
    git("add", "f")
    git("commit", "-q", "-m", "first")
    assert bench_pairs.git_head(repo) == git("rev-parse", "--short", "HEAD")
    # an exported tree nested in the repository has no commit of its own
    assert bench_pairs.git_head(repo / ".benchmarks" / "parent") is None
    (tmp_path / "plain").mkdir()
    assert bench_pairs.git_head(tmp_path / "plain") is None


def test_bench_pairs_source_digest_follows_the_library_files(tmp_path):
    bench_pairs = _load_script("bench_pairs")
    trees = []
    for name in ("a", "b"):
        lib = tmp_path / name / "src" / "vbvar"
        lib.mkdir(parents=True)
        (lib / "__init__.py").write_text("")
        (lib / "core.py").write_text("x = 1\n")
        trees.append(tmp_path / name)
    a, b = trees
    digest = bench_pairs.source_digest(a)
    assert len(digest) == 64 and bench_pairs.source_digest(b) == digest
    # files other than src/vbvar/*.py do not count
    (b / "src" / "vbvar" / "notes.txt").write_text("y")
    (b / "README.md").write_text("y")
    assert bench_pairs.source_digest(b) == digest
    (b / "src" / "vbvar" / "core.py").write_text("x = 2\n")
    assert bench_pairs.source_digest(b) != digest
    # nor does a renamed file keep the digest
    (b / "src" / "vbvar" / "core.py").write_text("x = 1\n")
    (b / "src" / "vbvar" / "core.py").rename(b / "src" / "vbvar" / "main.py")
    assert bench_pairs.source_digest(b) != digest


def test_src_size_counts_code_lines_apart_from_docstrings(tmp_path):
    lib = tmp_path / "src" / "vbvar"
    lib.mkdir(parents=True)
    (lib / "core.py").write_text(
        '"""Module docstring,\n'       # 1 docstring
        'on two lines."""\n'           # 2 docstring
        "\n"                           # 3 blank
        "import os  # a comment\n"     # 4 code
        "# a comment line\n"           # 5 comment
        "class A:\n"                   # 6 code
        '    """Class docstring."""\n'  # 7 docstring
        "    def f(self):\n"           # 8 code
        "        '''Function\n"        # 9 docstring
        "        docstring.'''\n"      # 10 docstring
        '        "not a docstring"\n'  # 11 code: not the leading statement
        '        return """a\n'        # 12 code
        "\n"                           # 13 code: inside a string
        'b""" + (os.sep\n'             # 14 code
        "                )\n")         # 15 code
    (lib / "notes.txt").write_text("not python\n")
    src_size = _load_script("src_size")
    assert src_size.library_size(tmp_path) == (15, 8)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "src_size.py"), str(tmp_path)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and proc.stdout == f"{tmp_path}: 15 lines, 8 code lines\n"
    missing = subprocess.run([sys.executable, str(ROOT / "scripts" / "src_size.py"),
                              str(tmp_path / "none")], capture_output=True, text=True, timeout=60)
    assert missing.returncode == 1 and missing.stderr.startswith("error: no src/vbvar/*.py")


def test_seed_gate_counts_strict_xfails_as_expected():
    seed_gate = _load_script("seed_gate")
    junit = ('<testsuites><testsuite name="pytest">'
             '<testcase classname="tests.t" name="test_a" time="1.0" />'
             '<testcase classname="tests.t" name="test_b[3]" time="1.0">'
             '<skipped type="pytest.xfail" message="item 1" /></testcase>'
             '<testcase classname="tests.t.C" name="test_c" time="1.0">'
             '<failure message="[XPASS(strict)] item 1" /></testcase>'
             '<testcase classname="tests.t" name="test_d" time="0.0">'
             '<skipped type="pytest.skip" message="no data" /></testcase>'
             '</testsuite></testsuites>')
    run = seed_gate.outcomes(junit)
    assert run == {"tests.t::test_a": "passed", "tests.t::test_b[3]": "xfailed",
                   "tests.t.C::test_c": "failed", "tests.t::test_d": "skipped"}
    clean = {"tests.t::test_a": "passed", "tests.t::test_b[3]": "xfailed"}
    assert seed_gate.report(seed_gate.tally([clean, clean, clean]), 3) == (
        ["tests.t::test_a     3/3  (3 passed)",
         "tests.t::test_b[3]  3/3  (3 xfailed)"], 0)
    # a failure, a skip, or a case missing from any run fails the gate
    lines, status = seed_gate.report(seed_gate.tally([clean, run]), 2)
    assert status == 1
    assert lines == ["tests.t.C::test_c   0/2  (1 failed, 1 missing)",
                     "tests.t::test_a     2/2  (2 passed)",
                     "tests.t::test_b[3]  2/2  (2 xfailed)",
                     "tests.t::test_d     0/2  (1 missing, 1 skipped)"]
    assert seed_gate.report({}, 5) == ([], 1)
    assert seed_gate.OFFSETS == (0, 1, 2, 3, 4)
