"""Frozen expected outputs of every operation the workloads can draw.

``expected/manifest.json`` holds, for each operation key, its argv, exit
code, stderr and the SHA-256 of its stdout, and the SHA-256 of each golden
table under ``src/qtoledo/goldens``.  ``reproduce --all`` only prints
``<table>: ok`` lines, which say that the program agrees with those golden
files; the golden hashes make sure the files themselves still hold the
frozen tables.  An operation's result is one of:

- ``answered``: exit 0 and stdout equal, byte for byte, to the frozen stdout
  (and, for ``reproduce``, every golden table equal to its frozen one);
- ``refused``: the frozen nonzero exit with the frozen (empty) stdout;
- ``answered_unfrozen``: a frozen refusal of ``rmatrix solve`` now exits 0.
  ``solve_r1`` raises unless its tau round trip and its denominator bound
  hold, so exit 0 carries that certificate; no frozen bytes exist for it;
- ``wrong``: anything else, including a timeout.

Regenerate the store, which runs every operation once (about four minutes
on a 2-core x86 host), with ``python3 perfbench/frozen.py --write``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
from pathlib import Path

from workloads import REPRODUCE, all_ops, op_key

ROOT = Path(__file__).resolve().parent.parent
GOLDENS = ROOT / "src" / "qtoledo" / "goldens"
MANIFEST = Path(__file__).resolve().parent / "expected" / "manifest.json"

ANSWERED, REFUSED, ANSWERED_UNFROZEN, WRONG = "answered", "refused", "answered_unfrozen", "wrong"
_RATIONAL = re.compile(r"-?\d+/\d+")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def golden_hashes() -> dict:
    return {path.stem: sha256(path.read_bytes()) for path in sorted(GOLDENS.glob("*.json"))}


class Frozen:
    def __init__(self):
        manifest = json.loads(MANIFEST.read_text())
        self.ops, self.goldens = manifest["ops"], manifest["goldens"]

    def check(self, op, code, stdout: bytes) -> tuple[str, str]:
        """Classify one result against the frozen record; return (outcome, note)."""
        key = op_key(op)
        record = self.ops.get(key)
        if record is None:
            return WRONG, f"{key}: no frozen record"
        if code is None:
            return WRONG, f"{key}: timed out"
        if tuple(op) == REPRODUCE and golden_hashes() != self.goldens:
            return WRONG, f"{key}: a golden table under {GOLDENS} differs from its frozen hash"
        if code == record["exit"] and sha256(stdout) == record["stdout_sha256"]:
            return (ANSWERED if code == 0 else REFUSED), ""
        if record["exit"] != 0 and code == 0 and _certified_solve(op, stdout):
            return ANSWERED_UNFROZEN, (f"{key}: frozen as refused, now answered; accepted on "
                                       "solve_r1's round-trip and denominator certificate; "
                                       "no frozen bytes exist for it")
        return WRONG, f"{key}: exit {code} (frozen {record['exit']}) or stdout differs"


def _certified_solve(op, stdout: bytes) -> bool:
    """A well-formed ``rmatrix solve`` answer for exactly the requested case."""
    if tuple(op[:2]) != ("rmatrix", "solve"):
        return False
    level, k = int(op[op.index("--level") + 1]), int(op[op.index("--embedding") + 1])
    try:
        envelope = json.loads(stdout)
        payload = envelope["payload"]
        matrix, trace = payload["matrix"], payload["trace_part"]
        return (envelope["command"] == "rmatrix solve"
                and envelope["parameters"]["level"] == level
                and envelope["parameters"]["embedding"] == k
                and payload["level"] == level and payload["embedding"] == k
                and len(trace) == len(matrix) > 0
                and all(len(row) == len(matrix) for row in matrix)
                and all(_RATIONAL.fullmatch(x) for row in matrix + [trace] for x in row))
    except (ValueError, KeyError, TypeError):
        return False


def write_store():
    """Run every drawable operation once and freeze its exit code and stdout hash."""
    from run import run_cli

    ops = {}
    for op in all_ops():
        key = op_key(op)
        code, out, err, start, end = run_cli(op, timeout=600)
        if code is None:
            raise SystemExit(f"{key}: timed out while freezing")
        ops[key] = {"argv": list(op), "exit": code, "stderr": err.decode(),
                    "stdout_sha256": sha256(out)}
        print(f"{end - start:8.2f} s  exit {code}  {key}", flush=True)
    MANIFEST.parent.mkdir(exist_ok=True)
    MANIFEST.write_text(json.dumps({"goldens": golden_hashes(), "ops": ops},
                                   indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", required=True,
                        help="regenerate perfbench/expected from the current source")
    parser.parse_args()
    sys.exit(write_store())
