"""Shared helpers for suite.py and compare.py: records, bounds, quartiles."""

from __future__ import annotations

import json
import statistics
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_records(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def end_to_end_spec() -> dict[str, dict]:
    """name -> {"unit", "better", "bound"} from BENCHMARK.json."""
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    return {m["name"]: m for m in spec["end_to_end"]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def series(records: list[dict], workload: str, trace: int) -> dict[str, list[float]]:
    """metric -> values across the records of one workload, in record order."""
    out: dict[str, list[float]] = {}
    for r in records:
        if r["workload"] == workload and r["trace"] == trace:
            for name, m in r["metrics"].items():
                out.setdefault(name, []).append(m["value"])
    return out
