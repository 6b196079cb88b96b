"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. In-process: the tracer rebinds every copy and alias of a target
   (``qrep.mat_mul``, ``CycloNum.__rmul__``, ``qtoledo.signature``),
   reports a missing target without crashing, counts calls made through a
   copied binding, and restores every original afterwards.
2. On every workload, two ``--trace 1`` runs with seed ``SEED``, each in
   its own process, give exactly equal count metrics, and both pass their
   own checks (outputs match, every wrapping restored, self times plus
   unattributed time equal the traced wall time).
3. On every workload, the metric names and units printed with
   ``--trace 0`` and ``--trace 1`` are exactly the ``end_to_end`` and
   ``per_layer`` lists of ``BENCHMARK.json``.

Exits 0 when every check passes.  It takes about six minutes on a 2-core
x86 host.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

from tracer import TARGETS, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
COUNT_SUFFIXES = (".calls", ".hits", ".failed")
COUNT_NAMES = ("cyclotomic.max_order", "trace.missing")
SEED = 1


def check(ok: bool, what: str, failures: list):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def tracer_selftest(failures: list):
    sys.path.insert(0, str(ROOT / "src"))
    import qtoledo
    import qtoledo.cli as cli
    from qtoledo import cyclotomic, hermitian, qrep

    mul, mat_mul, signature = cyclotomic.CycloNum.__mul__, hermitian.mat_mul, hermitian.signature
    tracer = Tracer()
    tracer.install(TARGETS + (("hermitian.no_such_function", "qtoledo.hermitian", "no_such_function"),))
    try:
        check(tracer.missing == ["hermitian.no_such_function"],
              f"a missing target is reported, not raised (missing: {tracer.missing})", failures)
        check(cyclotomic.CycloNum.__rmul__ is cyclotomic.CycloNum.__mul__ is not mul,
              "CycloNum.__mul__ and its alias __rmul__ share one wrapper", failures)
        check(cyclotomic.CycloNum.__radd__ is cyclotomic.CycloNum.__add__,
              "CycloNum.__add__ and its alias __radd__ share one wrapper", failures)
        check(qrep.mat_mul is hermitian.mat_mul is not mat_mul,
              "the copy of mat_mul imported into qrep is rebound", failures)
        check(qtoledo.signature is hermitian.signature is not signature,
              "the package-level re-export of signature is rebound", failures)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["qrep", "tau11", "--level", "5", "--embedding", "1", "--i", "1"])
        check(code == 0, "a traced CLI call succeeds", failures)
        check(tracer.stat("hermitian.mat_mul").calls > 0 and tracer.stat("cyclotomic.mul").calls > 0,
              "calls through qrep's copied binding and CycloNum operators are counted", failures)
        check(tracer.stat("cli.main").calls == 1, "cli.main is counted once", failures)
    finally:
        restored = tracer.uninstall()
    check(restored and cyclotomic.CycloNum.__mul__ is mul and cyclotomic.CycloNum.__rmul__ is mul
          and qrep.mat_mul is mat_mul and qtoledo.signature is signature,
          "uninstall restores every original", failures)


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"run.py exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def is_count(name: str) -> bool:
    return name.endswith(COUNT_SUFFIXES) or name in COUNT_NAMES


def main() -> int:
    failures: list = []
    tracer_selftest(failures)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for workload in WORKLOADS:
        first = bench(workload, SEED, spec["run_seconds"], 1)
        second = bench(workload, SEED, spec["run_seconds"], 1)
        check(first["correct"] and second["correct"],
              f"{workload}: both traced runs pass their own checks", failures)
        counts = sorted(n for n in first["metrics"] if is_count(n))
        differ = [n for n in counts
                  if first["metrics"][n]["value"] != second["metrics"][n].get("value")]
        check(not differ, f"{workload}: {len(counts)} count metrics repeat exactly "
                          f"(differ: {differ})", failures)
        check({n: m["unit"] for n, m in first["metrics"].items()} == layer,
              f"{workload}: --trace 1 prints exactly the per_layer metrics of BENCHMARK.json",
              failures)
        untraced = bench(workload, SEED, 1, 0)
        check(untraced["correct"] and {n: m["unit"] for n, m in untraced["metrics"].items()} == e2e,
              f"{workload}: --trace 0 passes and prints exactly the end_to_end metrics of "
              "BENCHMARK.json", failures)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
