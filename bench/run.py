"""ctrules benchmark: one command prints every metric and checks every output.

Run from the repository root:

    python3 bench/run.py --workload sweep_small --seed 1 --seconds 25 --trace 0

Workloads: sweep_small, solve_large, audit_small (see bench/README.md).
``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs half the
time untraced and half traced and reports the per-layer metrics and the
tracing overhead.  ``--tiny`` shrinks every input for a smoke test.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The program is imported from ``src/`` next to this directory;
without it the benchmark exits with code 2 and prints no result.
"""

import os

# One BLAS/OpenMP thread, set before numpy loads here or in a child process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("sweep_small", "solve_large", "audit_small")
SETUP_REPS = 5
MIN_ROUNDS = 2
# What one timed call is on each workload.
CALL_LABEL = {"sweep_small": "sweep_s", "solve_large": "solve_s", "audit_small": "check_s"}

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}


def per_layer_units(traced_names, computed_names) -> dict[str, str]:
    units = {}
    for name in traced_names:
        units[f"{name}.calls"] = "count/round"
        units[f"{name}.busy_s"] = "s/round"
        units[f"{name}.self_s"] = "s/round"
    units.update(
        {
            "solver.solve_ctr.iterations": "count/round",
            "solver.solve_utilitarian.iterations": "count/round",
            "solver.solve_egalitarian.lp_iterations": "count/round",
            "solver.uncertified": "count/round",
            "solver.mrs_gap_max": "gap",
            "axioms.probe_strategyproofness.solves": "count/round",
        }
    )
    units.update({name: "computed/round" for name in computed_names})
    units.update(
        {
            "trace.spans": "count/round",
            "trace.untraced_round_s": "s",
            "trace.traced_round_s": "s",
            "trace.overhead_pct": "%",
        }
    )
    return units


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink every input (smoke test)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program():
    """Import ctrules from this checkout's src/ and the benchmark modules."""
    sys.path.insert(0, str(SRC))
    import ctrules

    if Path(ctrules.__file__).resolve().parent != SRC / "ctrules":
        raise ImportError(f"ctrules was imported from {ctrules.__file__}, not from {SRC}")
    import tracing
    import workloads

    return tracing, workloads


def time_setup(args) -> tuple[list[float], list[float]]:
    """Wall and nominal-speed times of fresh processes that import, build the
    inputs and make one warm call, as a user starting the workload would.
    Importing is interpreter-bound, so the interpreter loop rescales it."""
    import speed

    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0"] + (["--tiny"] if args.tiny else [])
    wall, nominal = [], []
    for _ in range(SETUP_REPS):
        ref_before = speed.INTERPRETER.seconds()
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
        dt = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed with code {proc.returncode}:\n{proc.stderr}")
        wall.append(dt)
        nominal.append(dt * speed.INTERPRETER.nominal_s / (ref_before * speed.INTERPRETER.seconds()) ** 0.5)
    return wall, nominal


class Run:
    """Samples of one benchmark run: one per timed call, in order."""

    def __init__(self, workload, recorder):
        self.workload = workload
        self.recorder = recorder
        self.names: list[str] = []
        self.seconds: list[float] = []
        self.nominal: list[float] = []
        self.weights: list[int] = []
        self.failures: dict[int, list[str]] = {}
        self.round_s: list[float] = []
        self.round_nominal_s: list[float] = []

    def rounds(self, seconds: float, min_rounds: int) -> tuple[int, int]:
        """Repeat whole rounds, at least ``min_rounds``, while another round
        of average length still fits in ``seconds``; returns the index range
        of the samples taken."""
        first = len(self.seconds)
        reference = self.workload.reference
        begin = time.perf_counter()
        done = 0
        while True:
            total = total_nominal = 0.0
            for op in self.workload.ops:
                idx = len(self.seconds)
                ref_before = reference.seconds()
                self.recorder.op = idx
                t0 = time.perf_counter()
                try:
                    out = op.run()
                    error = None
                except Exception:
                    error = traceback.format_exc()
                dt = time.perf_counter() - t0
                self.recorder.op = -1
                nominal = dt * reference.nominal_s / (ref_before * reference.seconds()) ** 0.5
                self.nominal.append(nominal)
                total_nominal += nominal
                self.names.append(op.name)
                self.seconds.append(dt)
                self.weights.append(op.weight)
                total += dt
                if error is None:
                    try:
                        problems = op.check(out)
                    except Exception:
                        problems = [f"check raised:\n{traceback.format_exc()}"]
                else:
                    problems = [f"{op.name} raised:\n{error}"]
                if problems:
                    self.failures.setdefault(idx, []).extend(problems)
            self.round_s.append(total)
            self.round_nominal_s.append(total_nominal)
            done += 1
            elapsed = time.perf_counter() - begin
            if done >= min_rounds and elapsed * (done + 1) / done > seconds:
                return first, len(self.seconds)

    def check_solves(self, workloads) -> None:
        records = [r for r in self.recorder.records if r.op >= 0]
        for r in records:
            problems = workloads.check_solve(r.kind, r.profile, r.utility, r.report)
            if problems:
                self.failures.setdefault(r.op, []).extend(problems)
        for op, problems in workloads.check_egal_dominates(records).items():
            self.failures.setdefault(op, []).extend(problems)

    @property
    def attempted(self) -> int:
        return sum(self.weights)

    @property
    def failed(self) -> int:
        return sum(self.weights[i] for i in self.failures)


def high_percentile(values: list[float]):
    """Highest whole percentile with at least ten samples above it, if above 50."""
    n = len(values)
    p = (100 * (n - 10)) // n if n > 10 else 0
    if p <= 50:
        return None
    return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(run: Run, setup: tuple[list[float], list[float]], workload: str):
    """The bounded metrics at nominal speed (see speed.py), plus wall-clock
    figures: per-call and per-solver medians and tails."""
    wall_setup, nominal_setup = setup
    solve_s = {kind: [r.seconds for r in run.recorder.records if r.op >= 0 and r.kind == kind] for kind in ("ctr", "util", "egal")}
    by_op: dict[str, list[float]] = {}
    for name, dt in zip(run.names, run.seconds):
        by_op.setdefault(name, []).append(dt)
    metrics = {
        "setup_s": statistics.median(nominal_setup),
        "ops_per_s": run.attempted / sum(run.nominal),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = [
        f"speed = {sum(run.seconds) / sum(run.nominal)!r}  (wall time over nominal time: above 1 is a slow host)",
        f"setup_s.wall = {statistics.median(wall_setup)!r} s  (samples {wall_setup!r})",
        f"ops_per_s.wall = {run.attempted / sum(run.seconds)!r} 1/s",
        f"round_s.wall.p50 = {statistics.median(run.round_s)!r} s  ({len(run.round_s)} rounds of {len(run.workload.ops)} calls)",
    ]
    for label, values in [(CALL_LABEL[workload], run.seconds)] + [(f"{k}_s", v) for k, v in solve_s.items()]:
        extra.append(f"{label}.p50 = {statistics.median(values)!r} s  (wall, {len(values)} samples)")
        tail = high_percentile(values)
        if tail is not None:
            extra.append(f"{label}.p{tail[0]} = {tail[1]!r} s")
    for name, values in by_op.items():
        extra.append(f"op {name}: best {min(values)!r} s, median {statistics.median(values)!r} s over {len(values)}")
    return metrics, extra


def per_layer(run: Run, tracer, traced: tuple[int, int], rounds: int, untraced_round_s: list[float], traced_round_s: list[float]):
    summary = tracer.summary()
    metrics = {}
    for name, s in summary.items():
        metrics[f"{name}.calls"] = s["calls"] / rounds
        metrics[f"{name}.busy_s"] = s["busy_s"] / rounds
        metrics[f"{name}.self_s"] = s["self_s"] / rounds
    records = [r for r in run.recorder.records if traced[0] <= r.op < traced[1]]

    def total(kind):
        return sum(r.report.iterations for r in records if r.kind == kind) / rounds

    metrics["solver.solve_ctr.iterations"] = total("ctr")
    metrics["solver.solve_utilitarian.iterations"] = total("util")
    metrics["solver.solve_egalitarian.lp_iterations"] = total("egal")
    metrics["solver.uncertified"] = sum(not r.report.converged for r in records) / rounds
    metrics["solver.mrs_gap_max"] = max(r.report.mrs_gap for r in records if r.kind != "egal")
    metrics["axioms.probe_strategyproofness.solves"] = (
        summary["axioms.probe_strategyproofness"]["children"].get("solver.solve_ctr", 0) / rounds
    )
    for name, total_work in tracer.computed.items():
        metrics[name] = total_work / rounds
    metrics["trace.spans"] = tracer.span_count / rounds
    untraced = statistics.median(untraced_round_s)
    traced_med = statistics.median(traced_round_s)
    metrics["trace.untraced_round_s"] = untraced
    metrics["trace.traced_round_s"] = traced_med
    metrics["trace.overhead_pct"] = 100.0 * (traced_med / untraced - 1.0)
    extra = [f"per-layer values are per round; {rounds} traced rounds, {tracer.span_count} spans"]
    extra += [f"{name} is computed from call arguments (shapes), not counted" for name in tracer.computed]
    return metrics, extra


def environment() -> list[str]:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return [
        f"env nproc = {os.cpu_count()} (usable {len(os.sched_getaffinity(0))})",
        f"env cpu = {cpu}",
        f"env python = {platform.python_version()}, numpy = {numpy.__version__}, scipy = {scipy.__version__}",
        f"env threads = OMP/OPENBLAS/MKL pinned to {os.environ['OMP_NUM_THREADS']}",
    ]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ctrules" / "__init__.py").is_file():
        print(f"error: no ctrules package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    if args.setup_probe:
        _, workloads = import_program()
        with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH) as tmp:
            workloads.WORKLOADS[args.workload](args.seed, args.tiny, Path(tmp)).warm()
        return 0

    try:
        setup = ([], []) if args.trace else time_setup(args)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    tracing, workloads = import_program()

    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH) as tmp:
        workload = workloads.WORKLOADS[args.workload](args.seed, args.tiny, Path(tmp))
        workload.warm()
        recorder = tracing.SolveRecorder()
        recorder.install()
        run = Run(workload, recorder)
        try:
            if args.trace:
                run.rounds(args.seconds / 2, min_rounds=1)
                untraced_round_s = list(run.round_nominal_s)
                tracer = tracing.Tracer(workloads.COMPUTED)
                tracer.install()
                try:
                    traced = run.rounds(args.seconds / 2, min_rounds=1)
                finally:
                    tracer.uninstall()
                traced_round_s = run.round_nominal_s[len(untraced_round_s):]
            else:
                # the sweep's byte-determinism check needs a second call
                run.rounds(args.seconds, min_rounds=MIN_ROUNDS)
        finally:
            recorder.uninstall()
        run.check_solves(workloads)

    if args.trace:
        metrics, extra = per_layer(run, tracer, traced, len(traced_round_s), untraced_round_s, traced_round_s)
        units = per_layer_units(tracing.TRACED, tracer.computed)
    else:
        metrics, extra = end_to_end(run, setup, args.workload)
        units = END_TO_END

    for line in environment():
        print(line)
    print(f"workload = {args.workload}, seed = {args.seed}, seconds = {args.seconds}, trace = {args.trace}, rounds = {len(run.round_s)}")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]!r} {unit}")
    print(f"failed_ratio = {run.failed / run.attempted!r}  ({run.failed} of {run.attempted} operations)")
    for line in extra:
        print(line)
    for idx, problems in sorted(run.failures.items()):
        for problem in dict.fromkeys(problems):
            print(f"FAILED {run.names[idx]} (call {idx}): {problem}", file=sys.stderr)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
