"""Smoke test of the benchmark itself, at tiny sizes.

Run from the repository root:

    python3 -m pytest bench/test_smoke.py -q

Checks that every metric named in BENCHMARK.json is printed, by name and
with its unit, that no operation fails on the current code, that counts
repeat exactly for a seed, and that the benchmark refuses to run without
the program's sources.  One expected failure records the solver defect
that kept ``negpower:9`` out of ``solve_large``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def tiny_result(workload: str, trace: int, seed: int = 3):
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_and_nothing_fails(workload, trace):
    stdout, result = tiny_result(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == expected
    for name, entry in result["metrics"].items():
        assert isinstance(entry["value"], (int, float))
        assert f"\n{name} = {entry['value']!r} {entry['unit']}\n" in stdout
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert "failed_ratio = 0.0 " in stdout


def test_counts_repeat_for_a_seed():
    counts = []
    for _ in range(2):
        _, result = tiny_result("audit_small", 1)
        counts.append(
            {
                name: entry["value"]
                for name, entry in result["metrics"].items()
                if entry["unit"] in ("count/round", "computed/round")
            }
        )
    assert counts[0] == counts[1]
    assert counts[0]["axioms.probe_strategyproofness.solves"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.xfail(strict=True, reason="absolute 1e-7 MRS tolerance sits at float64 rounding for negpower:9 at n=2000")
def test_negpower9_large_solve_is_certified():
    """solve_large runs negpower:3, not negpower:9: at 2000x50 negpower:9's
    marginal contributions reach ~5e6 and the polish stalls above the 1e-7
    certificate on some seeds.  When this passes, negpower:9 can go back
    into workloads.RULES."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    import workloads
    from ctrules import solver

    profile = workloads.dirichlet(959206141, 1, 2000, 50, workloads.LARGE_CONC)
    report = solver.solve_ctr(profile, workloads.make_utility("negpower", p=9.0))
    assert report.converged, report.mrs_gap
