"""Compare two sets of benchmark runs: a parent commit and a change.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds run records as run.py --record appends them (suite.py
writes them for a whole set). Per workload and end-to-end metric it prints
both sides' median and quartiles, the pairwise win count of the change,
and a verdict:

  gain        at least 10 pairs, the change wins at least 9/10 of them
              (ties count for neither side), and the medians differ by
              more than the distance between the parent's quartiles;
  WORSE       the change's median is worse than the parent's by more than
              the metric's bound from BENCHMARK.json;
  unresolved  the parent's own spread (q3 - q1) / median is wider than the
              bound and not every change run beats every parent run;
  same        none of the above: within the bound.

Both files must hold runs of one length (--seconds), or it exits 2.
Runs are paired by seed where both sides have the seed, otherwise in
record order; suite.py --parent makes such pairs, alternating which side
runs first. A gain is withheld when the change fails more operations
than the parent. Traced records get per-layer medians and their change,
without verdicts: per-layer metrics carry no bound.
"""

from __future__ import annotations

import argparse
import sys

from stats import end_to_end_spec, load_records, quartiles, spread

MIN_WIN_SHARE = 0.9
MIN_PAIRS = 10


def pairs(parent: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    by_seed = {}
    for r in change:
        by_seed.setdefault(r["seed"], []).append(r)
    out, left = [], []
    for r in parent:
        if by_seed.get(r["seed"]):
            out.append((r, by_seed[r["seed"]].pop(0)))
        else:
            left.append(r)
    rest = [r for rs in by_seed.values() for r in rs]
    out += list(zip(left, rest))
    return out


def verdict(spec, p_vals, c_vals, paired, more_failures) -> tuple[str, int]:
    higher = spec["better"] == "higher"
    better = (lambda c, p: c > p) if higher else (lambda c, p: c < p)
    wins = sum(better(c, p) for p, c in paired)
    p1, pm, p3 = quartiles(p_vals)
    _, cm, _ = quartiles(c_vals)
    worse_share = (pm - cm) / pm if higher else (cm - pm) / pm
    if len(paired) >= MIN_PAIRS and wins >= MIN_WIN_SHARE * len(paired) and abs(cm - pm) > p3 - p1 and better(cm, pm):
        return ("same (gain withheld: more failed ops)" if more_failures else "gain"), wins
    if worse_share > spec["bound"]:
        return "WORSE", wins
    if spread(p_vals) > spec["bound"] and not all(better(c, p) for c in c_vals for p in p_vals):
        return "unresolved", wins
    return "same", wins


def failures(records: list[dict]) -> tuple[int, int]:
    return sum(r["failed"] for r in records), sum(r["attempted"] for r in records)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    args = ap.parse_args(argv)
    parent, change = load_records(args.parent), load_records(args.change)
    lengths = {r["seconds"] for r in parent + change}
    if len(lengths) > 1:
        print(f"error: runs of different lengths ({', '.join(map(str, sorted(lengths)))} s) cannot be compared",
              file=sys.stderr)
        return 2
    spec = end_to_end_spec()
    workloads = list(dict.fromkeys(r["workload"] for r in parent + change))
    worse = 0
    for workload in workloads:
        for trace in (0, 1):
            p = [r for r in parent if r["workload"] == workload and r["trace"] == trace]
            c = [r for r in change if r["workload"] == workload and r["trace"] == trace]
            if not p or not c:
                continue
            pf, pa = failures(p)
            cf, ca = failures(c)
            more_failures = cf / ca > pf / pa
            print(f"\n== {workload} (trace {trace}): parent {len(p)} runs, {pf}/{pa} ops failed; "
                  f"change {len(c)} runs, {cf}/{ca} ops failed")
            paired = pairs(p, c)
            names = [n for n in p[0]["metrics"] if all(n in r["metrics"] for r in p + c)]
            for name in names:
                p_vals = [r["metrics"][name]["value"] for r in p]
                c_vals = [r["metrics"][name]["value"] for r in c]
                pq, cq = quartiles(p_vals), quartiles(c_vals)
                change_pct = (cq[1] - pq[1]) / pq[1] * 100 if pq[1] else float("nan")
                line = (f"  {name:44s} parent {pq[1]:.6g} [{pq[0]:.6g}, {pq[2]:.6g}]  "
                        f"change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}]  {change_pct:+.1f}%")
                if trace == 0 and name in spec:
                    v, wins = verdict(spec[name], p_vals, c_vals,
                                      [(a["metrics"][name]["value"], b["metrics"][name]["value"]) for a, b in paired],
                                      more_failures)
                    worse += v == "WORSE"
                    line += f"  wins {wins}/{len(paired)}  {v}"
                print(line)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
