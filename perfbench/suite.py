"""Run the benchmark over several seeds, every workload, and summarise it.

    python3 perfbench/suite.py --seeds 1-10 --record perfbench/out/set1.jsonl
    python3 perfbench/suite.py --seeds 1-10 --record perfbench/out/change.jsonl \\
        --parent ../parent-checkout --parent-record perfbench/out/parent.jsonl

Every run is as long as run_seconds in BENCHMARK.json. Runs go one at a
time, cycling through the workloads for each seed. With --parent, each
seed and workload is run in this checkout and in the parent checkout (by
that checkout's own run.py), alternating which side goes first, so drift
in machine speed falls on both sides; compare.py then reads the two
record files. Afterwards, per side, workload and metric: the median, the
quartiles, and the spread (q3 - q1) / median against the metric's bound
from BENCHMARK.json, followed by error_rate. With --trace 1 the per-layer
counts of the first two runs of each seed are also compared for exact
repetition. Exits 1 if any run failed, printed no valid result, or
reported correct = false.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS
from stats import end_to_end_spec, load_records, quartiles, series, spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(root: Path, workload: str, seed: int, seconds, trace: int, record: Path) -> bool:
    """One run of root's own run.py; prints a line and returns whether it was ok."""
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--record", str(record)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    ok = proc.returncode == 0 and result is not None and result["correct"]
    summary = "no result" if result is None else (
        f"correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
    print(f"{record.name:16s} {workload:7s} seed {seed:3d}: exit {proc.returncode} {summary}", flush=True)
    if not ok:
        print(proc.stdout[-2000:] + proc.stderr[-2000:])
    return ok


def summarise(record: Path, seconds, trace: int) -> int:
    """Print the spread table of one record file; return the number of count mismatches."""
    records = [r for r in load_records(record) if r["trace"] == trace and r["seconds"] == seconds]
    spec = end_to_end_spec()
    print(f"\n#### {record}")
    for workload in WORKLOADS:
        values = series(records, workload, trace)
        print(f"\n{workload} ({len(values.get(next(iter(values), ''), []))} runs)")
        for name, vals in values.items():
            q1, med, q3 = quartiles(vals)
            line = f"  {name:44s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread(vals):.4f}"
            if name in spec:
                bound = spec[name]["bound"]
                line += f"  bound {bound}  {'ok' if spread(vals) < bound / 3 else 'WIDE' if spread(vals) >= bound else 'over a third'}"
            print(line)
        rates = [r["error_rate"] for r in records if r["workload"] == workload]
        if rates:
            q1, med, q3 = quartiles(rates)
            print(f"  {'error_rate':44s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  (failed / attempted)")
    bad = 0
    if trace == 1:
        for workload in WORKLOADS:
            by_seed: dict[int, list[dict]] = {}
            for r in records:
                if r["workload"] == workload:
                    by_seed.setdefault(r["seed"], []).append(r)
            for seed, rs in by_seed.items():
                if len(rs) >= 2:
                    counts = [{k: v["value"] for k, v in r["metrics"].items()
                               if not k.endswith(".self_s") and k != "trace.overhead_ratio"} for r in rs[:2]]
                    same = counts[0] == counts[1]
                    bad += not same
                    print(f"{workload} seed {seed}: per-layer counts {'repeat exactly' if same else 'DIFFER'}")
    return bad


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10", help="range a-b or list a,b,c")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int, default=1, help="runs per seed and workload")
    p.add_argument("--record", required=True, help="JSON-lines file for this checkout's run records (appended)")
    p.add_argument("--parent", help="root of a checkout of the parent commit, run alternately with this one")
    p.add_argument("--parent-record", help="JSON-lines file for the parent's run records (appended)")
    args = p.parse_args(argv)
    if bool(args.parent) != bool(args.parent_record):
        p.error("--parent and --parent-record go together")
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    sides = [(ROOT, Path(args.record).resolve())]
    if args.parent:
        sides.append((Path(args.parent).resolve(), Path(args.parent_record).resolve()))
    for _, record in sides:
        record.parent.mkdir(parents=True, exist_ok=True)
    bad = 0
    for seed in seed_list(args.seeds):
        for k, workload in enumerate(WORKLOADS):
            for r in range(args.repeat):
                order = sides if (seed + k + r) % 2 == 0 else sides[::-1]
                for root, record in order:
                    bad += not run_once(root, workload, seed, seconds, args.trace, record)
    for _, record in sides:
        bad += summarise(record, seconds, args.trace)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
