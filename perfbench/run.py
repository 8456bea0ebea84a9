"""Benchmark of the fuzzycoarse certifier, driven in-process through its CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload pipeline --seed 0 --seconds 30 --trace 0

One process, no threads.  Each op is a ``fuzzycoarse.cli.main`` call with
the argv a CLI user would type; its stdout is captured and checked.  A
pass runs the workload's op list once; passes repeat until the next one
would end past ``--seconds``.  A fixed reference kernel runs after every
op, and ``wall_ref`` divides op times by its adjacent times, so that the
host's drifting speed cancels out.  With ``--trace 0`` the run prints the
end-to-end metrics; with ``--trace 1`` it runs untraced passes for half
the time, then wraps the layers (see ``tracing.py``) and prints the
per-layer metrics.  The last stdout line is one JSON object.

``--record`` rewrites this workload's entry in ``expected.json`` from one
untraced and one traced pass; use it only when a stream changes on
purpose, and say why.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from bisect import bisect_left
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"
OUT = ROOT / ".perfbench"

import tracing  # noqa: E402
import workloads  # noqa: E402

# Set-ups before each untraced pass, so that set-up samples span the run.
SETUPS_PER_PASS = 3
WORK_TOKEN = "$WORK"

END_TO_END = {"wall_ref": "ref", "peak_rss_mb": "MB", "setup_s": "s"}

# Count metrics must repeat exactly across traced runs (see test_counts.py).
# Metric name: (tracer counter, unit).
COUNT_METRICS = {
    "space.value_calls": ("space.value", "count"),
    "space.raw_calls": ("space._raw", "count"),
    "space.region_intersects_calls": ("space.region_intersects", "count"),
    "space.ball_points_calls": ("space.ball_points", "count"),
    "covers.scale_neighborhood_calls": ("covers.scale_neighborhood", "count"),
    "covers.neighborhood_points": ("covers.neighborhood_points", "count"),
    "config.witness_bytes": ("config.witness_bytes", "B"),
}
PER_LAYER_UNITS = {
    **{name: unit for name, (_, unit) in COUNT_METRICS.items()},
    "space.region_hit_frac": "frac",
    **{f"{layer}.self_s": "s" for layer in tracing.LAYERS},
    **{group: "s" for group in tracing.GROUPS},
    "trace.overhead_frac": "frac",
}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def setup_once(workload: str, seed: int, work: Path):
    """Import fuzzycoarse afresh and generate the op list; returns (s, cli, ops)."""
    t0 = time.perf_counter()
    for name in [n for n in sys.modules if n == "fuzzycoarse" or n.startswith("fuzzycoarse.")]:
        del sys.modules[name]
    cli = importlib.import_module("fuzzycoarse.cli")
    ops = workloads.build_ops(workload, seed, work)
    return time.perf_counter() - t0, cli, ops


# ---------------------------------------------------------------------------
# Running and checking ops
# ---------------------------------------------------------------------------


class OpResult:
    __slots__ = ("exit", "stdout", "error")

    def __init__(self, exit_code, stdout, error):
        self.exit = exit_code
        self.stdout = stdout
        self.error = error


def call_cli(cli, argv) -> OpResult:
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except Exception:  # an op that raises is a failed op, not a crash of the run
        return OpResult(None, out.getvalue(), traceback.format_exc())
    return OpResult(code, out.getvalue(), err.getvalue())


def reference_kernel():
    """Fixed work on the standard library only: Fraction arithmetic, bisect,
    set membership and tuple building.  It takes about 0.08 s and keeps
    under 2 MB live, far below any workload's peak, so ``peak_rss_mb``
    stays the program's."""
    pts = tuple(range(0, 30000, 3))
    members = frozenset(pts)
    acc = 0
    for i in range(1, 6000):
        a = Fraction(i, i + 7)
        b = Fraction(i + 1, i + 9)
        acc += (a * b < Fraction(1, 2)) + (a + b > 1)
        acc += bisect_left(pts, i * 5) + ((i * 7) in members)
    for i in range(0, 12000, 2):
        row = tuple(range(i, i + 60))
        acc += len(frozenset(row[::3])) + row[-1] % 97
    return acc + sum(1 for p in range(0, 30000, 7) if p in members)


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


class PassTiming:
    """A pass's wall time, and its wall time in reference-kernel units."""

    __slots__ = ("wall", "ref_units", "last_ref")

    def __init__(self, wall, ref_units, last_ref):
        self.wall = wall
        self.ref_units = ref_units
        self.last_ref = last_ref


def run_pass(cli, ops, ref_before, tracer=None):
    """Run the op list once, timing the reference kernel after every op.

    An op's time in reference units is its wall time over the mean of the
    reference times just before and just after it, so that a change in
    the host's speed during a run cancels out.  Returns (PassTiming,
    [OpResult]).
    """
    results, wall, ref_units = [], 0.0, 0.0
    for i, argv in enumerate(ops):
        t0 = time.perf_counter()
        if tracer is None:
            results.append(call_cli(cli, argv))
        else:
            results.append(tracer.run_op(i, lambda argv=argv: call_cli(cli, argv)))
        op_wall = time.perf_counter() - t0
        ref_after = time_reference()
        wall += op_wall
        ref_units += op_wall / ((ref_before + ref_after) / 2)
        ref_before = ref_after
    return PassTiming(wall, ref_units, ref_before), results


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sha256_file(path: str):
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except FileNotFoundError:
        return None


def witness_path(argv):
    return argv[argv.index("--witness-out") + 1] if "--witness-out" in argv else None


def verdicts(stdout: str) -> str:
    """The PASS/FAIL word of every verdict line, as a string of P and F."""
    return "".join(line[0] for line in stdout.splitlines()
                   if line.startswith(("PASS ", "FAIL ")))


def digest(argv, result: OpResult) -> dict:
    path = witness_path(argv)
    return {
        "exit": result.exit,
        "stdout_sha256": sha256_text(result.stdout),
        "witness_sha256": sha256_file(path) if path else None,
        "verdicts": verdicts(result.stdout),
    }


def op_problem(argv, result: OpResult, want: dict, full: bool):
    """Why an op failed the gate, or None when it passed."""
    if result.exit is None:
        return f"raised:\n{result.error}"
    if result.exit == 2:
        return f"exit 2: {(result.stdout + result.error).strip()[:300]}"
    got = digest(argv, result)
    keys = ("exit", "verdicts", "stdout_sha256", "witness_sha256") if full else ("exit", "verdicts")
    for key in keys:
        if got[key] != want[key]:
            return f"{key} {got[key]!r} != expected {want[key]!r}"
    return None


# ---------------------------------------------------------------------------
# Main loop
# ---------------------------------------------------------------------------


class Run:
    def __init__(self, args, setup, expected):
        self.args = args
        self.setup = setup
        self.setups = []
        self.set_up()
        self.expected = expected
        if len(expected["ops"]) != len(self.ops):
            fail(f"{EXPECTED.name} lists {len(expected['ops'])} ops, "
                 f"the workload has {len(self.ops)}")
        self.attempted = 0
        self.failed = 0
        self.reported = 0
        self.first_results = None
        self.mismatch = None
        self.ref = time_reference()

    def set_up(self):
        """Import fuzzycoarse afresh and rebuild the ops, timing each set-up."""
        for _ in range(SETUPS_PER_PASS):
            seconds, self.cli, self.ops = self.setup()
            self.setups.append(seconds)

    def check(self, results):
        full = self.args.seed == self.expected["seed"]
        for i, (argv, result) in enumerate(zip(self.ops, results)):
            self.attempted += 1
            problem = op_problem(argv, result, self.expected["ops"][i], full)
            if problem is not None:
                self.failed += 1
                if self.reported < 5:
                    self.reported += 1
                    print(f"perfbench: op {i} {' '.join(argv)} failed: {problem}", file=sys.stderr)

    def timed_passes(self, budget, tracer=None, on_pass=None):
        """Run passes until the next one would end past ``budget`` seconds.

        Untraced passes each start from a fresh set-up, as a CLI user's
        process would; traced passes keep the modules the tracer wrapped.
        """
        timings = []
        start = time.perf_counter()
        while True:
            if tracer is None:
                self.set_up()
            else:
                tracer.reset()
            timing, results = run_pass(self.cli, self.ops, self.ref, tracer)
            self.ref = timing.last_ref
            timings.append(timing)
            self.check(results)
            if self.first_results is None:
                self.first_results = results
            if on_pass is not None:
                on_pass(results)
            elapsed = time.perf_counter() - start
            if elapsed * (len(timings) + 1) / len(timings) > budget:
                return timings


def median_of(timings, field):
    return statistics.median(getattr(t, field) for t in timings)


def load_expected(workload):
    try:
        data = json.loads(EXPECTED.read_text(encoding="utf-8"))
        entry = data["workloads"][workload]
    except (FileNotFoundError, KeyError):
        fail(f"no expected digests for {workload!r} in {EXPECTED.name}; run with --record")
    return {"seed": data["seed"], **entry}


def traced_metrics(run, tracer, untraced, budget):
    """Traced passes: per-layer metrics, digest and count checks."""
    first = [digest(argv, r) for argv, r in zip(run.ops, run.first_results)]
    summaries = []

    def on_pass(results):
        for i, (argv, result) in enumerate(zip(run.ops, results)):
            if digest(argv, result) != first[i]:
                run.mismatch = f"traced op {i} stream differs from the untraced one"
        summaries.append(tracer.summary())

    tracer.install()
    traced = run.timed_passes(budget, tracer, on_pass)
    counts = summaries[0]["counts"]
    if any(s["counts"] != counts for s in summaries[1:]):
        run.mismatch = "counts differ between traced passes"

    def med(pick):
        return statistics.median(pick(s) for s in summaries)

    metrics = {name: counts.get(key, 0) for name, (key, _) in COUNT_METRICS.items()}
    tests = counts.get("space.region_intersects", 0)
    metrics["space.region_hit_frac"] = counts.get(tracing.REGION_HITS, 0) / tests if tests else 0.0
    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_s"] = med(lambda s: s["self_s"][layer])
    for group in tracing.GROUPS:
        metrics[group] = med(lambda s: s["groups"][group])
    metrics["trace.overhead_frac"] = (median_of(traced, "ref_units")
                                      / median_of(untraced, "ref_units") - 1)
    return metrics


def record(args, cli, ops, work):
    """Write this workload's seed digests and counts to expected.json."""
    _, results = run_pass(cli, ops, time_reference())
    entries = []
    for argv, result in zip(ops, results):
        if result.exit is None or result.exit == 2:
            fail(f"cannot record: {' '.join(argv)} failed: {result.error or result.stdout}")
        entries.append({"argv": [a.replace(str(work), WORK_TOKEN) for a in argv],
                        **digest(argv, result)})
    tracer = tracing.Tracer()
    tracer.install()
    run_pass(cli, ops, time_reference(), tracer)
    counts = tracer.summary()["counts"]
    data = (json.loads(EXPECTED.read_text(encoding="utf-8")) if EXPECTED.exists()
            else {"seed": args.seed, "workloads": {}})
    if data["seed"] != args.seed:
        fail(f"{EXPECTED.name} holds seed {data['seed']}; record with that seed")
    data["workloads"][args.workload] = {
        "ops": entries,
        "counts": {name: counts.get(key, 0) for name, (key, _) in COUNT_METRICS.items()},
    }
    EXPECTED.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {args.workload} seed {args.seed} in {EXPECTED}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite this workload's expected digests and counts")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fuzzycoarse" / "cli.py").is_file():
        fail(f"no fuzzycoarse sources under {SRC}")
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(exist_ok=True)
    try:
        def setup():
            return setup_once(args.workload, args.seed, work)

        if args.record:
            _, cli, ops = setup()
            record(args, cli, ops, work)
            return 0
        run = Run(args, setup, load_expected(args.workload))
        budget = args.seconds / 2 if args.trace else args.seconds
        untraced = run.timed_passes(budget)
        if args.trace:
            tracer = tracing.Tracer()
            values = traced_metrics(run, tracer, untraced, args.seconds - budget)
            tracer.write_spans(OUT / f"spans-{args.workload}.tsv")
            units = PER_LAYER_UNITS
        else:
            values = {
                "wall_ref": median_of(untraced, "ref_units"),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "setup_s": statistics.median(run.setups),
            }
            units = END_TO_END
        if run.mismatch:
            print(f"perfbench: {run.mismatch}", file=sys.stderr)
        print(f"{args.workload} seed={args.seed}: {len(untraced)} untraced passes, "
              f"wall_s = {median_of(untraced, 'wall'):.4f} s (median of "
              + " ".join(f"{t.wall:.3f}" for t in untraced)
              + f"), failed_frac = {run.failed / run.attempted:g} "
              f"({run.failed}/{run.attempted} ops)")
        for name, value in values.items():
            print(f"  {name} = {value:.6g} {units[name]}")
        print(json.dumps({
            "correct": run.failed == 0 and run.mismatch is None,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
