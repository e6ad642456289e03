"""Run every workload in a fresh process and print its end-to-end metrics.

    python3 perfbench/report.py [--seed N] [--seconds S]

Each workload's ``#`` lines from ``run.py`` are echoed as they come, then one
table gives every end-to-end metric, with failed_share and max_abs_err,
for all workloads.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args()
    rows = []
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, check=True,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        max_err = re.search(r"^# max_abs_err = (\S+)", proc.stdout, re.M).group(1)
        cells = {name: f"{m['value']:.4g} {m['unit']}" for name, m in result["metrics"].items()}
        cells["failed_share"] = f"{result['failed'] / result['attempted']:.3g} ({result['attempted']} jobs)"
        cells["max_abs_err"] = max_err
        rows.append((workload, cells))
    names = list(rows[0][1])
    print("\nmetric".ljust(25) + "".join(w.ljust(24) for w, _ in rows))
    for name in names:
        print(name.ljust(24) + "".join(cells[name].ljust(24) for _, cells in rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
