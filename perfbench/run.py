"""The qtoledo benchmark.

    python3 perfbench/run.py --workload {reproduce,solve,torus} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is used from ``src``
and is not installed.

``--trace 0`` is a closed loop with one client.  Each operation is a fresh
``python -m qtoledo.cli ...`` subprocess with ``PYTHONPATH=src``, checked
byte for byte against the frozen outputs.  Batches of the workload (see
``workloads.py``) run back to back until the next batch would end after
``--seconds``; at least one batch runs.  Reported: ``setup_s`` (median
wall time of ``python -m qtoledo.cli --help``), ``wall_s`` (median batch
wall time), ``slowest_op_s`` (median over batches of the slowest
operation), ``peak_rss_mb`` (largest max-RSS of any child) and
``answered_frac`` (share of operations that returned an answer).  Each
wall time is scaled by the host's speed while it ran (``HostSpeed``).

``--trace 1`` runs the seed's first batch in-process through
``qtoledo.cli.main``, each operation once with and, time permitting, once
without the per-layer tracer installed, every ``lru_cache`` of the package
cleared before each pass so that both start cold like a fresh CLI call.  It
reports per-layer counts and times, the tracing overhead and
microbenchmarks of one ``CycloNum`` multiply and inverse.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``failed`` counts operations
whose outcome differs from the frozen record; a frozen refusal that repeats
is not a failure, but it lowers ``answered_frac``.  Without a checkout
beside it the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

from frozen import ANSWERED, ANSWERED_UNFROZEN, REFUSED, WRONG, Frozen
from tracer import TABLE_NAMES, Tracer
from workloads import WORKLOADS, batches

ROOT = Path(__file__).resolve().parent.parent
SETUP_RUNS = 15          # timed --help runs; setup_s is their median
SETUP_PROBES = 3         # probes between two --help runs
PROBE_ROUNDS = 15        # one probe() takes 10 to 20 ms on a 2 GHz Xeon
PROBE_REF_S = 0.0145     # reported times are scaled to a host where probe() takes this
PROBE_INTERVAL_S = 0.25  # pause between probes
PROBE_PAD_S = 0.5        # an operation's probes start this long before it
OP_TIMEOUT_S = 120       # one operation
HARD_LIMIT_S = 150       # all operations of one run, so a run ends within 180 s
PAIR_LIMIT_S = 100       # a traced run's untraced pass of an operation must end by then

# Per-layer metric families, by the statistics each target reports.
CALLS_SELF = ("cyclotomic.mul", "cyclotomic.inverse", "cyclotomic.add", "cyclotomic.lift",
              "cyclotomic.galois", "cyclotomic.sign_real", "cyclotomic.quantum_int")
CALLS_SELF_TOTAL = ("hermitian.eigen_split", "hermitian.kernel_basis", "hermitian.mat_mul",
                    "hermitian.mat_inv", "hermitian.charpoly", "hermitian.signature",
                    "hermitian.g_function", "hermitian.meyer_cocycle",
                    "qrep.punctured_torus_rep", "qrep.tau_11", "qrep.four_point_toledo")
CALLS_TOTAL = ("rmatrix.solve_level", "rmatrix.solve_r1", "rmatrix.degree2_class",
               "rmatrix.presentation_class", "fusion.so3_algebra", "fusion.tft_value",
               "mgnclasses.uniformization_check", "mgnclasses.reduce_class",
               "eulerchi.chi_bar", "cli.main")
FAILED = ("qrep.four_point_toledo", "rmatrix.solve_level", "cli.main")
MICRO_ORDERS = (11, 66)
MICRO_MULS, MICRO_INVERSES = 16, 8


class BenchError(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


# -- untraced: subprocess operations ---------------------------------------------


def run_cli(argv, timeout: float):
    """Run one CLI call; return (exit code or None on timeout, stdout, stderr, start, end).

    The child runs at the lowest priority, so that a ``HostSpeed`` probe,
    which shares its CPU, runs at once when it wakes instead of splitting
    the CPU with the child; the child still has the CPU to itself between
    probes.
    """
    env = dict(os.environ, PYTHONPATH="src")
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "qtoledo.cli", *argv], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    os.setpriority(os.PRIO_PROCESS, proc.pid, 19)
    try:
        out, err = proc.communicate(timeout=timeout)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        code = None
    return code, out, err, t0, time.perf_counter()


def probe() -> float:
    """Wall time of fixed dense products in Q[x]/Phi_11 with small rational
    coefficients: the kind of work the operations spend most time in, done
    by code of the benchmark's own."""
    t0 = time.perf_counter()
    a = [Fraction(i + 1, 2 * i + 3) for i in range(10)]
    b = [Fraction(3 - i, i + 2) for i in range(10)]
    for _ in range(PROBE_ROUNDS):
        out = [Fraction(0)] * 19
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        for k in range(18, 9, -1):  # x^10 = -(1 + x + ... + x^9) modulo Phi_11
            for m in range(k - 10, k):
                out[m] -= out[k]
        a, b = b, [Fraction(x.numerator % 97 + 1, x.denominator % 89 + 1) for x in out[:10]]
    return time.perf_counter() - t0


class HostSpeed:
    """The host's speed, sampled all through a run.

    The host's speed swings by tens of percent within seconds, and the
    child's CPU time swings with its wall time, so the swings do not come
    from the program.  A thread of this process, on the CPU the operations
    run on, times ``probe()`` every ``PROBE_INTERVAL_S``, operations
    included.  Dividing an operation's wall time by ``slowdown(start, end)``
    gives its time on a host where ``probe()`` takes ``PROBE_REF_S``.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, seconds) of each probe
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _sample(self):
        t = time.perf_counter()
        self.samples.append((t, probe()))

    def _loop(self):
        while not self._stop.wait(PROBE_INTERVAL_S):
            self._sample()

    def __enter__(self):
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def slowdown(self, start: float, end: float) -> float:
        """Mean probe time from ``PROBE_PAD_S`` before ``start`` to ``end``,
        over ``PROBE_REF_S``; the last earlier probe if none falls there."""
        near = [d for t, d in self.samples if start - PROBE_PAD_S <= t <= end]
        if not near:
            near = [d for t, d in self.samples if t <= end][-1:]
        return statistics.fmean(near) / PROBE_REF_S


def measure_setup() -> tuple[float, float]:
    """Median wall time of ``--help``, interpreter start plus every import:
    (raw, scaled by the host's speed while it ran).

    A ``--help`` run is so short that one probe more or less inside it
    would show, so these runs come before ``HostSpeed`` starts probing, and
    each is scaled by the ``SETUP_PROBES`` probes just before and just after
    it."""
    raw, scaled = [], []
    before = [probe() for _ in range(SETUP_PROBES)]
    for n in range(SETUP_RUNS + 1):  # the first run may compile bytecode; untimed
        code, out, err, t0, t1 = run_cli(["--help"], timeout=60)
        if code != 0 or not out.startswith(b"usage: qtoledo"):
            raise BenchError(f"`python -m qtoledo.cli --help` failed in {ROOT}: "
                             f"{err.decode(errors='replace').strip()[-300:]}")
        after = [probe() for _ in range(SETUP_PROBES)]
        if n:
            raw.append(t1 - t0)
            scaled.append((t1 - t0) / (statistics.fmean(before + after) / PROBE_REF_S))
        before = after
    return statistics.median(raw), statistics.median(scaled)


def run_untraced(workload: str, seed: int, seconds: float, frozen: Frozen) -> dict:
    raw_setup_s, setup_s = measure_setup()
    with HostSpeed() as speed:
        tally = Counter()
        batch_spans = []  # per batch, the (start, end) of each operation
        start = time.perf_counter()
        deadline, hard = start + seconds, start + HARD_LIMIT_S
        for batch in batches(workload, seed):
            t0 = time.perf_counter()
            cpu0 = resource.getrusage(resource.RUSAGE_CHILDREN)
            spans = []
            for op in batch:
                remaining = hard - time.perf_counter()
                if remaining <= 0:
                    outcome, note = WRONG, f"{' '.join(op)}: not started, run out of time"
                else:
                    code, out, _err, op_start, op_end = run_cli(op, min(OP_TIMEOUT_S, remaining))
                    spans.append((op_start, op_end))
                    outcome, note = frozen.check(op, code, out)
                tally[outcome] += 1
                if note:
                    print(note)
            cpu1 = resource.getrusage(resource.RUSAGE_CHILDREN)
            cpu = (cpu1.ru_utime - cpu0.ru_utime) + (cpu1.ru_stime - cpu0.ru_stime)
            batch_spans.append(spans)
            raw = [end - begin for begin, end in spans]
            print(f"batch {len(batch_spans)}: {len(batch)} ops, wall {sum(raw):.3f} s, "
                  f"child cpu {cpu:.3f} s, slowest op {max(raw, default=0.0):.3f} s")
            now = time.perf_counter()
            if now + (now - t0) > deadline or now >= hard:
                break
    walls, slowest, raw_walls, raw_slowest = [], [], [], []
    for spans in batch_spans:
        raw = [end - begin for begin, end in spans] or [0.0]
        scaled = [(end - begin) / speed.slowdown(begin, end) for begin, end in spans] or [0.0]
        raw_walls.append(sum(raw))
        raw_slowest.append(max(raw))
        walls.append(sum(scaled))
        slowest.append(max(scaled))
    probes = [d for _, d in speed.samples]
    print(f"host speed: {len(probes)} probes, median {statistics.median(probes) * 1e3:.2f} ms "
          f"against {PROBE_REF_S * 1e3:.2f} ms; raw setup_s {raw_setup_s:.4f}, "
          f"wall_s {statistics.median(raw_walls):.3f}, "
          f"slowest_op_s {statistics.median(raw_slowest):.3f}")
    attempted = sum(tally.values())
    answered = tally[ANSWERED] + tally[ANSWERED_UNFROZEN]
    print(f"{workload} seed {seed}: {attempted} ops, {tally[ANSWERED]} answered, "
          f"{tally[ANSWERED_UNFROZEN]} answered without frozen bytes, "
          f"{tally[REFUSED]} refused as frozen, {tally[WRONG]} wrong; "
          f"failed_frac {(attempted - answered) / attempted:.6g}")
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(walls), "s"),
        "slowest_op_s": (statistics.median(slowest), "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        "answered_frac": (answered / attempted, "frac"),
    }
    return {"correct": tally[WRONG] == 0, "attempted": attempted, "failed": tally[WRONG],
            "metrics": metrics}


# -- traced: in-process operations -----------------------------------------------


def import_package():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import qtoledo.cli  # noqa: F401  (imports every layer module)
    except ImportError as e:
        raise BenchError(f"cannot import qtoledo from {ROOT / 'src'}: {e}")
    return sys.modules["qtoledo.cli"]


def cache_clearers() -> list:
    """``cache_clear`` of every ``lru_cache``'d function in the package."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "qtoledo" or name.startswith("qtoledo."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    found[id(value)] = value.cache_clear
    return list(found.values())


def call_main(cli, op) -> tuple[int, bytes]:
    """Run ``qtoledo.cli.main`` in-process, capturing stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(op))
    return code, out.getvalue().encode()


def run_ops_inprocess(cli, ops, frozen: Frozen, tally: Counter) -> float:
    t0 = time.perf_counter()
    for op in ops:
        code, out = call_main(cli, op)
        outcome, note = frozen.check(op, code, out)
        tally[outcome] += 1
        if note:
            print(note)
    return time.perf_counter() - t0


def microbench(seed: int) -> tuple[dict, bool]:
    """Per-call time (us) of CycloNum multiply and inverse on seeded random elements."""
    from qtoledo.cyclotomic import CycloNum, euler_phi

    rng = random.Random(f"micro/{seed}")
    out, ok = {}, True
    for order in MICRO_ORDERS:
        phi = euler_phi(order)
        elems = [CycloNum(order, [Fraction(rng.randint(1, 9), rng.randint(1, 9))]
                          + [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(phi - 1)])
                 for _ in range(MICRO_MULS + 1)]
        times = []
        for a, b in zip(elems, elems[1:]):
            t0 = time.perf_counter()
            a * b
            times.append(time.perf_counter() - t0)
        out[f"cyclotomic.mul.o{order}_us"] = statistics.median(times) * 1e6
        times = []
        for a in elems[:MICRO_INVERSES]:
            t0 = time.perf_counter()
            inv = a.inverse()
            times.append(time.perf_counter() - t0)
            ok = ok and (a * inv - 1).is_zero()
        out[f"cyclotomic.inverse.o{order}_us"] = statistics.median(times) * 1e6
    return out, ok


def run_traced(workload: str, seed: int, frozen: Frozen) -> dict:
    cli = import_package()
    clearers = cache_clearers()
    batch = next(batches(workload, seed))
    micro, micro_ok = microbench(seed)
    tally = Counter()
    tracer = Tracer()
    traced_s = paired_traced_s = untraced_s = 0.0
    unpaired = 0
    restored = True
    start = time.perf_counter()
    # Each operation runs traced, then untraced, so the two passes see the
    # same host load as nearly as possible; each pass starts with cold caches.
    # The untraced pass only feeds trace.overhead_frac.  It is skipped when,
    # taking as long as the traced pass, it would end after PAIR_LIMIT_S: on
    # a host slowed 2.5 times, the two passes of a level-11 solve alone would
    # take over two minutes.
    for op in batch:
        for clear in clearers:
            clear()
        tracer.install()
        try:
            op_traced_s = run_ops_inprocess(cli, [op], frozen, tally)
        finally:
            restored = tracer.uninstall() and restored
        traced_s += op_traced_s
        if time.perf_counter() - start + op_traced_s > PAIR_LIMIT_S:
            unpaired += 1
            continue
        for clear in clearers:
            clear()
        untraced_s += run_ops_inprocess(cli, [op], frozen, Counter())
        paired_traced_s += op_traced_s

    # Self times partition the time covered by outermost spans, so
    # sum(self) + unattributed must equal the traced wall time.
    unattributed = traced_s - tracer.root_s
    balanced = abs(tracer.self_sum() + unattributed - traced_s) <= 1e-6 * traced_s + 1e-6
    for name in tracer.missing:
        print(f"trace: target {name} is missing; its metrics read 0")
    ranked = sorted(tracer.stats.items(), key=lambda kv: -kv[1].self_s)
    print(f"trace: {workload} seed {seed}, {len(batch)} ops, traced {traced_s:.3f} s, "
          f"untraced {untraced_s:.3f} s, unattributed {unattributed:.3f} s")
    if unpaired:
        print(f"trace: {unpaired} of {len(batch)} ops ran only traced (past {PAIR_LIMIT_S} s); "
              "trace.overhead_frac covers the others")
    print(f"{'span':34} {'calls':>9} {'self_s':>9} {'self%':>6} {'total_s':>9}")
    for name, s in ranked:
        if s.calls:
            print(f"{name:34} {s.calls:9d} {s.self_s:9.3f} {100 * s.self_s / traced_s:6.1f} "
                  f"{s.total_s:9.3f}")

    metrics = {}
    for name in CALLS_SELF + CALLS_SELF_TOTAL + CALLS_TOTAL:
        metrics[f"{name}.calls"] = (tracer.stat(name).calls, "count")
        if name not in CALLS_TOTAL:
            metrics[f"{name}.self_s"] = (tracer.stat(name).self_s, "s")
        if name not in CALLS_SELF:
            metrics[f"{name}.total_s"] = (tracer.stat(name).total_s, "s")
    for name in FAILED:
        metrics[f"{name}.failed"] = (tracer.stat(name).failed, "count")
    kernel = tracer.stat("hermitian.kernel_basis")
    metrics["hermitian.kernel_basis.hits"] = (kernel.hits, "count")
    metrics["hermitian.kernel_basis.hit_ratio"] = (kernel.hits / kernel.calls if kernel.calls else 0.0,
                                                   "ratio")
    metrics["cyclotomic.max_order"] = (tracer.max_order, "order")
    for name, value in micro.items():
        metrics[name] = (value, "us")
    for table in TABLE_NAMES:
        metrics[f"cli.table.{table}.total_s"] = (tracer.stat(f"cli.table.{table}").total_s, "s")
    metrics["trace.wall_s"] = (traced_s, "s")
    metrics["trace.unattributed_s"] = (unattributed, "s")
    metrics["trace.overhead_frac"] = (paired_traced_s / untraced_s - 1 if untraced_s else 0.0,
                                      "frac")
    metrics["trace.missing"] = (len(tracer.missing), "count")

    if not restored:
        print("trace: some wrapped function was not restored")
    if not balanced:
        print("trace: self times plus unattributed time do not sum to the traced wall time")
    if not micro_ok:
        print("trace: a microbenchmark inverse is wrong")
    return {"correct": tally[WRONG] == 0 and restored and balanced and micro_ok,
            "attempted": sum(tally.values()), "failed": tally[WRONG], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qtoledo benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if hasattr(os, "sched_setaffinity"):
        # one CPU for this process and its children, so the speed probes
        # and the operations share whatever else the host runs there
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        if not (ROOT / "src" / "qtoledo" / "cli.py").is_file():
            raise BenchError(f"no qtoledo source under {ROOT / 'src'}")
        frozen = Frozen()
        if args.trace:
            result = run_traced(args.workload, args.seed, frozen)
        else:
            result = run_untraced(args.workload, args.seed, args.seconds, frozen)
    except BenchError as e:
        print(f"benchmark: {e}", file=sys.stderr)
        return 2
    result["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in result["metrics"].items()}
    print(json.dumps(result, sort_keys=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
