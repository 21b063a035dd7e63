"""Set-up probe: a fresh interpreter imports starlattice.cli and runs one
warm-up operation of each command of a workload.

    python3 perfbench/setup_probe.py OPS.json

OPS.json lists operations as made by workloads.warmup_ops with the
document path already substituted. Exits 0 when every operation returned
exit code 0 or 1, and 3 otherwise.
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import starlattice.cli  # noqa: E402
from starlattice import floatmode  # noqa: E402


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        ops = json.load(fh)
    for op in ops:
        if op["command"] == "float":
            floatmode.star_power_convolution(op["z"], op["p"])
            continue
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = starlattice.cli.run(op["argv"])
        if code not in (0, 1):
            return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
