"""Byte-identity of the CLI between this checkout and another one.

    python3 tools/same_output.py PARENT_DIR

Builds one list of command lines: every `step`, `verify` and `const` pool
operation of seeds 1-3, taken from `perfbench/workloads.py` (imported as
it is), and every document under `tests/fixtures/` through each data
command, in both formats and both modes (`solve` and `fourier` with as
many `--init` values as the document's order or m), plus `corpus`. Both
trees run the whole list through `starlattice.cli.run`, one subprocess
per tree, each importing the package from its own `src/`. For every
command line the SHA-256 of stdout, the stderr text and the exit code
(or the exception, for a call that raised) must agree.

Prints one line per difference and a summary; exits 1 on any difference,
0 when every call agrees. Standard library only, apart from the numpy
that `perfbench/workloads.py` uses to build the `const` pool.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "tests" / "fixtures"
WORKLOADS = ("step", "verify", "const")
SEEDS = (1, 2, 3)
INIT = ("1/2", "-1/3", "2/5", "1")

# Runs in a fresh interpreter: argv[1] is the src/ to import from; reads
# [[id, argv], ...] as JSON on stdin and writes {id: [stdout digest, stderr,
# exit code or exception]} as JSON on the real stdout.
CHILD = r"""
import hashlib, io, json, sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

src = Path(sys.argv[1]).resolve()
sys.path.insert(0, str(src))
import starlattice.cli

if src not in Path(starlattice.cli.__file__).resolve().parents:
    sys.exit(f"imported starlattice from {starlattice.cli.__file__}, not from {src}")
results = {}
for op_id, argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = starlattice.cli.run(argv)
    except (Exception, SystemExit) as exc:  # recorded and compared like an exit code
        code = f"{type(exc).__name__}: {exc}"
    results[op_id] = [hashlib.sha256(out.getvalue().encode()).hexdigest(), err.getvalue(), code]
json.dump(results, sys.stdout)
"""


def pool_calls(workdir: Path) -> list[tuple[str, list[str]]]:
    """Every CLI operation of the benchmark pools, its document written under workdir."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    calls = []
    for workload in WORKLOADS:
        for seed in SEEDS:
            for op in workloads.generate(workload, seed):
                op_id = f"{workload}-seed{seed}:{op['id']}"
                path = workdir / f"{workload}-{seed}-{op['id']}.json"
                if op["document"] is not None:
                    path.write_text(json.dumps(op["document"], sort_keys=True), encoding="utf-8")
                calls.append((op_id, [str(path) if a == "{doc}" else a for a in op["argv"]]))
    return calls


def fixture_calls() -> list[tuple[str, list[str]]]:
    """Each fixture document through every data command, formats and modes; then corpus."""
    calls = [("corpus", ["corpus", "--length", "20"])]
    for doc in sorted(FIXTURES.glob("*.json")):
        document = json.loads(doc.read_text(encoding="utf-8"))
        order = document.get("order") or document.get("m") or 1
        init = "--init=" + ",".join(INIT[i % len(INIT)] for i in range(order))
        inp = ["--input", str(doc)]
        argvs = [["discretize", *inp], ["galois", *inp, "--length", "20", "--allow-float-roots"]]
        for mode in ("exact", "float"):
            argvs.append(["galois", *inp, "--length", "20", "--mode", mode])
            for fmt in ("csv", "json"):
                options = ["--length", "20", "--format", fmt, "--mode", mode]
                argvs += [["residual", *inp, *options], ["solve", *inp, *options, init], ["fourier", *inp, *options, init]]
        calls += [(f"{doc.stem}: {' '.join(argv[:1] + argv[3:])}", argv) for argv in argvs]
    return calls


def run_tree(tree: Path, calls, workdir: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(tree / "src")],
        input=json.dumps(calls),
        capture_output=True,
        text=True,
        cwd=workdir,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
    )
    if proc.returncode != 0:
        sys.exit(f"{tree}: runner exited {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    parent = Path(argv[0]).resolve()
    if not (parent / "src" / "starlattice").is_dir():
        print(f"{parent} holds no src/starlattice", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="same-output-") as tmp:
        workdir = Path(tmp)
        pools = pool_calls(workdir)
        calls = pools + fixture_calls()
        ours, theirs = run_tree(ROOT, calls, workdir), run_tree(parent, calls, workdir)
    differ = 0
    for op_id, _ in calls:
        for part, a, b in zip(("stdout digest", "stderr", "exit"), theirs[op_id], ours[op_id]):
            if a != b:
                differ += 1
                print(f"DIFFERS {op_id}: {part}: parent {a!r}, this tree {b!r}")
    print(f"{len(calls)} calls ({len(pools)} pool operations, {len(calls) - len(pools)} fixture calls): "
          + ("stdout, stderr and exit code identical" if not differ else f"{differ} differences"))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
