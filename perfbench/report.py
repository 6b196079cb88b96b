"""Print every benchmark metric, by name and unit, for every workload.

    python3 perfbench/report.py

Runs ``perfbench/run.py`` on each workload untraced and traced, with seed
``SEED``, for the ``run_seconds`` of ``BENCHMARK.json``, and prints each
run's own report (batches, raw times, the traced self-time table) and one
line per metric.
``failed_frac`` (operations without an answer over operations attempted,
that is ``1 - answered_frac``) is printed with the end-to-end metrics.
Exits 1 if any run fails or any operation's output differs from its frozen
record.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SEED = 1


def main() -> int:
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    bad = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                 "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} trace={trace}: run.py exited {proc.returncode}\n{proc.stderr}")
                bad += 1
                continue
            result = json.loads(lines[-1])
            metrics = result["metrics"]
            if trace == 0:
                metrics["failed_frac"] = {"value": 1 - metrics["answered_frac"]["value"],
                                          "unit": "frac"}
            print(f"== {workload} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for line in lines[:-1]:
                print(f"   {line}")
            for name, m in metrics.items():
                print(f"{workload:10} {name:44} {m['value']:>16.6g} {m['unit']}")
            bad += not result["correct"]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
