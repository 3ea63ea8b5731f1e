"""Run the stochastic acceptance checks at fixed seed offsets and count passes.

Usage:
    python3 scripts/seed_gate.py

A change that alters an RNG stream cannot be judged by tests that pass at
one seed.  This gate runs each check of CHECKS under pytest once per offset
of OFFSETS; tests/conftest.py adds the offset (``--seed-offset``) to the
Monte-Carlo seeds of those checks, and offset 0 runs them as committed.  The
offsets are fixed here, before any run, so none is picked after a result is
seen.  An outcome is expected when the check passes or, for a case marked
as a strict xfail, when it fails as marked ("xfailed").  One line per
check gives its count of expected outcomes over the offsets and the
outcomes it had; the exit status is 1 when any check misses one.

Outcomes are read from pytest's JUnit XML report.  Plain standard library.
"""

from __future__ import annotations

import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

OFFSETS = (0, 1, 2, 3, 4)

# pytest node ids; a parametrized test runs, and is counted, case by case
CHECKS = [
    "tests/test_acceptance.py::test_criterion_4_toy_oracle",
    "tests/test_acceptance.py::test_criterion_6_cross_method_pattern",
    "tests/test_acceptance.py::test_criterion_7_sampler_moments",
    "tests/test_predictive_oracles.py::test_predictive_exact",
    "tests/test_predictive_oracles.py::test_predictive_vb_conjugate",
    "tests/test_predictive_oracles.py::test_predictive_vb_independent",
    "tests/test_independent_mcmc.py::TestJointDistribution::test_chain_keeps_the_prior",
    # the sampler and Monte-Carlo ELBO oracles that draw stacks
    "tests/test_mvdist.py::TestWishart::test_sampler_moments",
    "tests/test_mvdist.py::TestMatricNormal::test_sample_covariance_is_kronecker",
    "tests/test_mvdist.py::TestMatricT::test_compound_sampling_oracle",
    "tests/test_conjugate_exact.py::TestMarginalCoefficients::test_compound_moments",
    "tests/test_conjugate_vb.py::TestKlExact::test_mc_divergence_oracle",
    "tests/test_conjugate_vb.py::TestElbo::test_matches_mc_estimate",
    "tests/test_conjugate_vb.py::TestElbo::test_mc_se_clt_rate",
    "tests/test_independent_vb.py::TestElbo::test_mc_oracle",
]

EXPECTED = ("passed", "xfailed")


def outcomes(junit_xml: str) -> dict:
    """Test id ("<classname>::<name>", as pytest's JUnit report gives
    them) -> "passed", "xfailed", "skipped" or "failed"; an error, or a
    strict xfail that passed, counts as failed."""
    result = {}
    for case in ET.fromstring(junit_xml).iter("testcase"):
        test_id = f"{case.get('classname')}::{case.get('name')}"
        if case.find("failure") is not None or case.find("error") is not None:
            result[test_id] = "failed"
        elif (skip := case.find("skipped")) is not None:
            result[test_id] = "xfailed" if skip.get("type") == "pytest.xfail" else "skipped"
        else:
            result[test_id] = "passed"
    return result


def tally(runs: list) -> dict:
    """Test id -> Counter of its outcomes over the runs (one outcomes dict
    per offset); a test absent from a run counts as "missing" there."""
    ids = sorted({test_id for run in runs for test_id in run})
    return {test_id: Counter(run.get(test_id, "missing") for run in runs) for test_id in ids}


def report(counts: dict, n_runs: int) -> tuple:
    """(lines, exit status): one line per test with its expected outcomes
    out of n_runs; the status is 1 when any test missed one, or none ran."""
    width = max((len(test_id) for test_id in counts), default=0)
    lines, status = [], 0 if counts else 1
    for test_id, seen in counts.items():
        good = sum(seen[o] for o in EXPECTED)
        status |= good != n_runs
        detail = ", ".join(f"{n} {o}" for o, n in sorted(seen.items()))
        lines.append(f"{test_id:<{width}}  {good}/{n_runs}  ({detail})")
    return lines, status


def run_offset(offset: int, directory: Path) -> dict:
    """The outcomes of CHECKS at one seed offset."""
    xml = directory / f"offset{offset}.xml"
    subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                    f"--seed-offset={offset}", f"--junitxml={xml}", *CHECKS],
                   cwd=ROOT, capture_output=True, check=False)
    if not xml.exists():
        sys.exit(f"error: pytest wrote no report at seed offset {offset}")
    return outcomes(xml.read_text(encoding="utf-8"))


def main() -> int:
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        for offset in OFFSETS:
            start = time.perf_counter()
            runs.append(run_offset(offset, Path(tmp)))
            seen = Counter(runs[-1].values())
            print(f"offset {offset}: " + ", ".join(f"{n} {o}" for o, n in sorted(seen.items()))
                  + f" ({time.perf_counter() - start:.0f} s)", flush=True)
    lines, status = report(tally(runs), len(OFFSETS))
    print(*lines, sep="\n")
    print(f"seed gate {'FAILED' if status else 'passed'} at offsets "
          f"{', '.join(map(str, OFFSETS))}")
    return status


if __name__ == "__main__":
    sys.exit(main())
