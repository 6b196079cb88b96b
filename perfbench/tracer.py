"""Per-layer tracing of the ``qtoledo`` package, installed from outside.

The tracer wraps public functions of each layer module with a timing
wrapper and rebinds the wrapper everywhere the original object is
reachable: in every ``qtoledo`` / ``qtoledo.*`` module namespace (because
``from .hermitian import mat_mul`` copies the binding into ``qrep``), under
every class attribute that aliases it (``CycloNum.__rmul__ is __mul__``) and
in the CLI's ``TABLES`` registry.  Nothing under ``src/`` is edited;
``uninstall`` puts every original back.

Accounting: every wrapped call is a span.  A span's self time is its
duration minus the durations of the wrapped spans directly inside it, so
the self times of all spans sum to the time covered by outermost spans.
Time outside every span is unattributed.  ``total_s`` counts only the
outermost activation of a function, so recursion is not double counted.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field

# (metric prefix, module, attribute path).  A dotted attribute path names a
# method on a class of that module.
TARGETS = (
    ("cyclotomic.mul", "qtoledo.cyclotomic", "CycloNum.__mul__"),
    ("cyclotomic.inverse", "qtoledo.cyclotomic", "CycloNum.inverse"),
    ("cyclotomic.add", "qtoledo.cyclotomic", "CycloNum.__add__"),
    ("cyclotomic.lift", "qtoledo.cyclotomic", "CycloNum.lift"),
    ("cyclotomic.galois", "qtoledo.cyclotomic", "galois"),
    ("cyclotomic.sign_real", "qtoledo.cyclotomic", "sign_real"),
    ("cyclotomic.quantum_int", "qtoledo.cyclotomic", "quantum_int"),
    ("hermitian.eigen_split", "qtoledo.hermitian", "eigen_split"),
    ("hermitian.kernel_basis", "qtoledo.hermitian", "kernel_basis"),
    ("hermitian.mat_mul", "qtoledo.hermitian", "mat_mul"),
    ("hermitian.mat_inv", "qtoledo.hermitian", "mat_inv"),
    ("hermitian.charpoly", "qtoledo.hermitian", "charpoly"),
    ("hermitian.signature", "qtoledo.hermitian", "signature"),
    ("hermitian.g_function", "qtoledo.hermitian", "g_function"),
    ("hermitian.meyer_cocycle", "qtoledo.hermitian", "meyer_cocycle"),
    ("qrep.punctured_torus_rep", "qtoledo.qrep", "punctured_torus_rep"),
    ("qrep.tau_11", "qtoledo.qrep", "tau_11"),
    ("qrep.four_point_toledo", "qtoledo.qrep", "four_point_toledo"),
    ("fusion.so3_algebra", "qtoledo.fusion", "so3_algebra"),
    ("fusion.tft_value", "qtoledo.fusion", "FrobeniusAlgebra.tft_value"),
    ("rmatrix.solve_level", "qtoledo.rmatrix", "solve_level"),
    ("rmatrix.solve_r1", "qtoledo.rmatrix", "solve_r1"),
    ("rmatrix.degree2_class", "qtoledo.rmatrix", "degree2_class"),
    ("rmatrix.presentation_class", "qtoledo.rmatrix", "presentation_class"),
    ("mgnclasses.uniformization_check", "qtoledo.mgnclasses", "uniformization_check"),
    ("mgnclasses.reduce_class", "qtoledo.mgnclasses", "reduce_class"),
    ("eulerchi.chi_bar", "qtoledo.eulerchi", "chi_bar"),
    ("cli.main", "qtoledo.cli", "main"),
)

# The golden tables of ``qtoledo reproduce``; each is traced as cli.table.<name>.
TABLE_NAMES = ("fibonacci-signatures", "level7", "r1-matrices", "uniformization",
               "appendixb", "euler")


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    failed: int = 0
    hits: int = 0
    active: int = 0


@dataclass
class Tracer:
    stats: dict = field(default_factory=dict)
    missing: list = field(default_factory=list)
    max_order: int = 0
    root_s: float = 0.0
    _stack: list = field(default_factory=list)
    _undo: list = field(default_factory=list)

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name, fn, observe=None):
        stat = self.stats.setdefault(name, Stat())
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            stat.active += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.failed += 1
                raise
            else:
                if observe is not None:
                    observe(stat, result)
                return result
            finally:
                dt = clock() - t0
                stack.pop()
                stat.active -= 1
                stat.calls += 1
                stat.self_s += dt - frame[0]
                if not stat.active:
                    stat.total_s += dt
                if stack:
                    stack[-1][0] += dt
                else:
                    self.root_s += dt

        return wrapper

    def _rebind(self, holder, attr, wrapper):
        self._undo.append((holder, attr, holder.__dict__[attr]))
        setattr(holder, attr, wrapper)

    def _observer(self, name):
        if name == "cyclotomic.mul":
            def observe(_stat, result):
                if result.order > self.max_order:
                    self.max_order = result.order
            return observe
        if name == "hermitian.kernel_basis":
            def observe(stat, result):
                if result:
                    stat.hits += 1
            return observe
        if name == "cli.main":
            def observe(stat, result):
                if result:  # the CLI reports failures as a nonzero exit code
                    stat.failed += 1
            return observe
        return None

    def install(self, targets=TARGETS):
        """Wrap every target that exists; record the ones that do not."""
        self.missing = []
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "qtoledo" or n.startswith("qtoledo."))]
        for name, modname, path in targets:
            owner = sys.modules.get(modname)
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, "__dict__", {}).get(attr)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original, self._observer(name))
            if cls_path:
                # the class itself and every alias of the method on it
                for alias, value in list(vars(owner).items()):
                    if value is original:
                        self._rebind(owner, alias, wrapper)
            else:
                for module in modules:
                    for alias, value in list(vars(module).items()):
                        if value is original:
                            self._rebind(module, alias, wrapper)
        cli = sys.modules.get("qtoledo.cli")
        tables = getattr(cli, "TABLES", {})
        for table in TABLE_NAMES:
            if table not in tables:
                self.missing.append(f"cli.table.{table}")
                continue
            original = tables[table]
            wrapper = self._wrap(f"cli.table.{table}", original)
            self._undo.append((tables, table, original))
            tables[table] = wrapper

    def uninstall(self) -> bool:
        """Restore every rebinding; return True when all originals are back."""
        undo, self._undo = self._undo, []
        for holder, attr, original in reversed(undo):
            if isinstance(holder, dict):
                holder[attr] = original
            else:
                setattr(holder, attr, original)
        return all((holder[attr] if isinstance(holder, dict) else holder.__dict__[attr])
                   is original for holder, attr, original in undo)

    # -- results -------------------------------------------------------------

    def stat(self, name) -> Stat:
        return self.stats.get(name, Stat())

    def self_sum(self) -> float:
        return sum(s.self_s for s in self.stats.values())
