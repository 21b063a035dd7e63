"""Seeded benchmark for starlattice: end-to-end metrics or a per-layer trace.

    python3 perfbench/run.py --workload step --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
The load is a closed loop with one client in one process and one thread:
the next operation starts only after the previous one returns, and the
seed fixes both the inputs and their order (see workloads.py). Data
commands go through ``starlattice.cli.run`` in-process; the float route
calls ``starlattice.floatmode.star_power_convolution`` directly.

--trace 0 times whole passes over the pool, starting another unless half
of it would run past --seconds, and reports ops_per_s, op_p50_ms,
op_tail_ms, setup_s and peak_rss_mb (error_rate is printed too, and is
failed / attempted in the result line). The machine's speed drifts by
half and more within minutes on a shared host, so every timed operation
and set-up interpreter sits between two timings of a fixed pure-Python
reference task, and its time is scaled to the speed at which that task
takes REFERENCE_S; the unscaled figures are printed alongside.

--trace 1 alternates untraced and traced passes for --seconds and
reports the per-layer metrics of tracing.py: counts of one traced pass,
self times per traced pass, and trace.overhead_ratio. Every output is
checked against a known answer after timing ends (checks.py). The last
line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("step", "verify", "const", "float")

# Fresh interpreters per run, half before and half after the timed loop,
# so the median of set-up times samples the machine at two moments.
SETUP_SPAWNS = 16
SETUP_TIMEOUT_S = 60

# Nominal time of one reference() call: the speed every timing is scaled to.
REFERENCE_S = 0.004


def reference() -> float:
    """Seconds taken by a fixed pure-Python task that uses no package code.

    Exact rational sums with growing integers, the arithmetic that
    dominates most workloads. Timed next to every operation, it measures
    how fast the machine runs at that moment.
    """
    t0 = perf_counter()
    s = Fraction(0)
    for k in range(1, 1500):
        s += Fraction(1, k)
    return perf_counter() - t0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", default=str(OUT / "runs.jsonl"), help="JSON-lines file the run record is appended to")
    return p.parse_args(argv)


class Runner:
    """Runs operations of one pool; keeps one copy of each distinct output."""

    def __init__(self, ops: list[dict], workdir: Path) -> None:
        import starlattice.cli
        from starlattice import floatmode

        self.cli, self.floatmode = starlattice.cli, floatmode
        self.ops = ops
        self.paths = []
        for i, op in enumerate(ops):
            path = None
            if op["document"] is not None:
                path = workdir / f"{i:02d}-{op['id']}.json"
                path.write_text(json.dumps(op["document"], sort_keys=True), encoding="utf-8")
            self.paths.append(str(path))
        self.outputs: list[list[dict]] = [[] for _ in ops]
        self.slots: list[dict[str, int]] = [{} for _ in ops]  # canonical output -> slot
        self.log: list[tuple[int, float, int]] = []  # (doc index, seconds, output slot)

    def run(self, i: int) -> None:
        op = self.ops[i]
        if op["command"] == "float":
            t0 = perf_counter()
            try:
                result = {"value": self.floatmode.star_power_convolution(op["z"], op["p"])}
            except Exception as exc:  # recorded and reported as a failed op
                result = {"exception": f"{type(exc).__name__}: {exc}"}
            dt = perf_counter() - t0
        else:
            argv = [self.paths[i] if a == "{doc}" else a for a in op["argv"]]
            out, err = io.StringIO(), io.StringIO()
            t0 = perf_counter()
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    code = self.cli.run(argv)
                result = {"code": code}
            except Exception as exc:  # recorded and reported as a failed op
                result = {"exception": f"{type(exc).__name__}: {exc}"}
            except SystemExit as exc:  # argparse rejected the arguments
                result = {"exception": f"SystemExit({exc.code})"}
            dt = perf_counter() - t0
            result.update(stdout=out.getvalue(), stderr=err.getvalue())
        # Keyed by JSON text, where NaN equals NaN, so a repeated float output
        # with non-finite entries is stored once like any other.
        slots = self.slots[i]
        slot = slots.setdefault(json.dumps(result, sort_keys=True), len(slots))
        if slot == len(self.outputs[i]):
            self.outputs[i].append(result)
        self.log.append((i, dt, slot))


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """A time scaled by the machine's speed, from reference() timed around it."""
    return seconds * 2 * REFERENCE_S / (before + after)


def measure_setup(workload: str, workdir: Path, spawns: int) -> tuple[list[tuple[float, float]], str]:
    """Fresh interpreters doing import plus one warm-up op per command.

    Returns (wall seconds, seconds at reference speed) per interpreter.
    """
    from workloads import warmup_ops

    ops = warmup_ops(workload)
    for k, op in enumerate(ops):
        if op["document"] is not None:
            path = workdir / f"warmup-{k}.json"
            path.write_text(json.dumps(op["document"]), encoding="utf-8")
            op["argv"] = [str(path) if a == "{doc}" else a for a in op["argv"]]
    spec = workdir / "warmup-ops.json"
    spec.write_text(json.dumps(ops), encoding="utf-8")
    # One BLAS thread: numpy only solves 3x3 and 4x4 eigenproblems here,
    # which OpenBLAS runs on one thread anyway, and starting its thread pool
    # swung set-up time on const by 22% between sets of the same code.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    times, problem = [], ""
    for _ in range(spawns):
        before = reference()
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(spec)],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            timeout=SETUP_TIMEOUT_S,
            cwd=ROOT,
            env=env,
        )
        dt = perf_counter() - t0
        times.append((dt, at_reference_speed(dt, before, reference())))
        if proc.returncode != 0:
            problem = f"set-up probe exited {proc.returncode}: {proc.stderr.decode()[-300:]}"
    return times, problem


def warm_up(workload: str, workdir: Path) -> None:
    from workloads import warmup_ops

    ops = warmup_ops(workload)
    runner = Runner(ops, workdir)
    for i in range(len(ops)):
        runner.run(i)


def more_passes(start: float, seconds: float, last_pass: float) -> bool:
    """Start another pass unless half of the last one would overrun --seconds."""
    return perf_counter() - start + 0.5 * last_pass < seconds


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it: (value, percentile)."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(n - 11, 0)
    return ordered[k], 100.0 * (k + 1) / n


def self_tests(workload: str, seed: int, ops: list[dict], runner: Runner, checker) -> list[str]:
    """Generator determinism and one corrupted output per command."""
    from checks import corrupt
    from workloads import canonical_bytes, generate

    problems = []
    if canonical_bytes(generate(workload, seed)) != canonical_bytes(ops):
        problems.append("same seed gave different documents")
    if canonical_bytes(generate(workload, seed + 1)) == canonical_bytes(ops):
        problems.append("a different seed gave the same documents")
    tested = set()
    for i, outputs in enumerate(runner.outputs):
        command = ops[i]["command"]
        if command in tested or not outputs or "exception" in outputs[0]:
            continue
        tested.add(command)
        verdict = checker.check(ops[i], corrupt(ops[i], outputs[0]))
        if verdict.ok or verdict.defect is not None:
            problems.append(f"corrupted {command} output of {ops[i]['id']} was not flagged")
    return problems


def check_outputs(ops, runner, checker):
    """Verdict per (doc, output slot) and the failed ops in run order."""
    verdicts = {}
    for i, outputs in enumerate(runner.outputs):
        for slot, result in enumerate(outputs):
            verdicts[i, slot] = checker.check(ops[i], result)
    failed = [(seq, i, verdicts[i, slot]) for seq, (i, _, slot) in enumerate(runner.log) if not verdicts[i, slot].ok]
    return failed


def report_failures(ops, failed) -> list[dict]:
    by_doc: dict[int, list[int]] = {}
    for seq, i, verdict in failed:
        by_doc.setdefault(i, []).append(seq)
    lines = []
    for i, seqs in sorted(by_doc.items()):
        verdict = next(v for _, j, v in failed if j == i)
        label = f"defect ({verdict.defect})" if verdict.defect else "UNEXPLAINED"
        print(f"failed {ops[i]['id']} L={ops[i]['L']}: {label}: {verdict.reason}; op ids {','.join(map(str, seqs))}")
        lines.append({"doc": ops[i]["id"], "L": ops[i]["L"], "defect": verdict.defect, "reason": verdict.reason, "ops": seqs})
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "starlattice" / "__init__.py").is_file():
        print(f"error: no starlattice package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir: Path) -> int:
    from checks import Checker
    from tracing import Tracer, metric_names
    from workloads import generate

    ops = generate(args.workload, args.seed)
    problems = []
    setup_times = []
    if args.trace == 0:
        setup_times, problem = measure_setup(args.workload, workdir, SETUP_SPAWNS // 2)
        if problem:
            problems.append(problem)
    warm_up(args.workload, workdir)
    runner = Runner(ops, workdir)
    metrics: dict[str, tuple[float, str]] = {}
    notes: dict[str, str] = {}

    if args.trace == 0:
        # Whole passes only, so every document weighs the same in every run.
        # refs[k] and refs[k + 1] are timed just before and after op k.
        refs = [reference()]
        start = last = perf_counter()
        while more_passes(start, args.seconds, perf_counter() - last):
            last = perf_counter()
            for i in range(len(ops)):
                runner.run(i)
                refs.append(reference())
        wall = perf_counter() - start
        # Read before the known-answer checks run, so their memory is not counted.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        more, problem = measure_setup(args.workload, workdir, SETUP_SPAWNS - len(setup_times))
        setup_times += more
        if problem:
            problems.append(problem)
        raw = [dt for _, dt, _ in runner.log]
        latencies = [at_reference_speed(dt, refs[k], refs[k + 1]) for k, dt in enumerate(raw)]
        n = len(latencies)
        tail_value, tail_pct = tail(latencies)
        metrics["ops_per_s"] = (n / sum(latencies), "ops/s")
        metrics["op_p50_ms"] = (statistics.median(latencies) * 1e3, "ms")
        metrics["op_tail_ms"] = (tail_value * 1e3, "ms")
        metrics["setup_s"] = (statistics.median(scaled for _, scaled in setup_times), "s")
        notes["ops_per_s"] = f"{n} ops in {wall:.3f} s wall; unscaled {n / sum(raw):.4g} ops/s"
        notes["op_p50_ms"] = f"n={n}; unscaled {statistics.median(raw) * 1e3:.4g} ms"
        notes["op_tail_ms"] = (f"p{tail_pct:.1f}, {n - max(n - 11, 0) - 1} samples beyond, n={n}; "
                               f"unscaled {tail(raw)[0] * 1e3:.4g} ms")
        notes["setup_s"] = (f"median of {len(setup_times)} fresh interpreters; "
                            f"unscaled {statistics.median(dt for dt, _ in setup_times):.4g} s")
        notes["reference"] = (f"reference task: median {statistics.median(refs) * 1e3:.3f} ms over {len(refs)} timings, "
                              f"nominal {REFERENCE_S * 1e3:g} ms")
    else:
        # Untraced and traced passes alternate, so drift in machine speed
        # falls on both sides of trace.overhead_ratio alike.
        tracer = Tracer()
        passes, untraced, traced = [], 0.0, 0.0
        start = last = perf_counter()
        while more_passes(start, args.seconds, perf_counter() - last):
            last = t0 = perf_counter()
            for i in range(len(ops)):
                runner.run(i)
            untraced += perf_counter() - t0
            tracer.install()
            try:
                first = len(tracer.spans)
                t0 = perf_counter()
                for i in range(len(ops)):
                    tracer.op = len(runner.log)
                    runner.run(i)
                traced += perf_counter() - t0
            finally:
                tracer.op = None
                tracer.uninstall()
            passes.append((first, len(tracer.spans)))
        summaries = [tracer.summarise(a, b) for a, b in passes]
        counts = [{k: v for k, v in s.items() if not k.endswith(".self_s")} for s in summaries]
        if any(c != counts[0] for c in counts[1:]):
            problems.append("traced passes of one pool gave different counts")
        units = dict(metric_names())
        for name, value in summaries[0].items():
            if name.endswith(".self_s"):
                value = statistics.fmean(s[name] for s in summaries)
            metrics[name] = (value, units[name])
        metrics["trace.overhead_ratio"] = (traced / untraced, "ratio")
        notes["passes"] = f"{len(passes)} untraced and {len(passes)} traced passes of {len(ops)} ops, alternating"
        op_table = [(seq, i) for seq, (i, _, _) in enumerate(runner.log)]
        trace_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write(trace_path, ops, op_table)
        notes["spans"] = f"{len(tracer.spans)} spans written to {trace_path.relative_to(ROOT)}"

    checker = Checker()
    failed = check_outputs(ops, runner, checker)
    problems += self_tests(args.workload, args.seed, ops, runner, checker)
    attempted = len(runner.log)
    if args.trace == 0:
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
        notes["peak_rss_mb"] = "max RSS of this process at the end of the timed loop"

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"pool {len(ops)} documents; closed loop, 1 client, 1 thread; {attempted} ops attempted")
    for name, (value, unit) in metrics.items():
        extra = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:48s} {value:.6g} {unit}{extra}")
    error_rate = len(failed) / attempted
    print(f"{'error_rate':48s} {error_rate:.6g} ratio  ({len(failed)} of {attempted} ops)")
    for key in ("reference", "passes", "spans"):
        if key in notes:
            print(notes[key])
    failures = report_failures(ops, failed)
    unexplained = [f for f in failures if f["defect"] is None]
    if unexplained:
        problems.append(f"{len(unexplained)} documents failed their check without a known cause")
    for problem in problems:
        print(f"PROBLEM: {problem}")
    print("self-tests and checks:", "ok" if not problems else f"{len(problems)} problem(s)")

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  error_rate=error_rate, notes=notes, failures=failures, problems=problems)
    Path(args.record).parent.mkdir(parents=True, exist_ok=True)
    with open(args.record, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
