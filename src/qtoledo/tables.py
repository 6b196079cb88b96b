"""The golden tables of ``qtoledo reproduce``.

Each table function recomputes one published table or set of matrices
from the layers, which it imports inside the function; ``TABLES`` maps
the table names to them, and ``cmd_reproduce`` writes each as sorted,
indented JSON and compares it with the golden file of that name under
``GOLDEN_DIR``, the ``goldens`` directory shipped with the package.  The
command-line interface imports this module only for ``reproduce``, so no
other call compiles it.
"""

from __future__ import annotations

import json
import os


def _table_fibonacci() -> dict:
    from .embedding import Embedding
    from .fusion import signature_table, so3_algebra

    v = so3_algebra(5, Embedding(5, 1))
    table = signature_table(v, 3, 6)
    return {
        "name": "fibonacci-signatures",
        "entries": [
            {"g": cell["g"], "n": cell["n"], "p": cell["p"], "q": cell["q"]}
            for line in table for cell in line
        ],
    }


def _table_level7() -> dict:
    from .embedding import Embedding, frac_to_json
    from .rmatrix import solve_level, tau_from_r1_04, tau_from_r1_11

    out = {"name": "level7", "columns": {}}
    for k in (1, 2, 3):
        r1 = solve_level(7, Embedding(7, k))
        v = r1.algebra
        rows = []
        for colors in ((1, 1, 1, 1), (1, 1, 1, 2), (1, 1, 2, 2), (1, 2, 2, 2), (2, 2, 2, 2)):
            rows.append({
                "surface": "0,4", "colors": list(colors),
                "sigma": frac_to_json(v.tft_value(0, list(colors))),
                "tau": frac_to_json(tau_from_r1_04(v, r1, *colors)),
            })
        for i in range(3):
            rows.append({
                "surface": "1,1", "colors": [i],
                "sigma": frac_to_json(v.tft_value(1, [i])),
                "tau": frac_to_json(tau_from_r1_11(v, r1, i)),
            })
        out["columns"][f"q{k}"] = rows
    return out


def _table_r1() -> dict:
    from .embedding import Embedding
    from .rmatrix import solve_level

    blocks = {}
    for level, k in ((5, 1), (7, 1), (7, 2), (7, 3)):
        r1 = solve_level(level, Embedding(level, k))
        blocks[f"level{level}_q{k}"] = r1.to_json()
    return {"name": "r1-matrices", "matrices": blocks}


def _table_uniformization() -> dict:
    from .mgnclasses import UNIFORMIZATION, uniformization_check

    return {
        "name": "uniformization",
        "cases": [uniformization_check(c) for c in UNIFORMIZATION],
    }


def _table_appendixb() -> dict:
    from .rmatrix import appendixB_crosscheck

    report = appendixB_crosscheck(4, 4)
    return {"name": "appendixb", "report": report}


def _table_euler() -> dict:
    from .embedding import _is_stable, frac_to_json
    from .eulerchi import chi_bar, chi_twisted

    rows = []
    for g in range(3):
        for n in range(6):
            if not _is_stable(g, n):
                continue
            poly = chi_bar(g, n)
            rows.append({
                "g": g, "n": n,
                "coefficients": [frac_to_json(c) for c in poly.coeffs],
                "level5": frac_to_json(chi_twisted(g, n, 5)),
            })
    return {"name": "euler", "rows": rows}


TABLES = {
    "fibonacci-signatures": _table_fibonacci,
    "level7": _table_level7,
    "r1-matrices": _table_r1,
    "uniformization": _table_uniformization,
    "appendixb": _table_appendixb,
    "euler": _table_euler,
}


GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "goldens")


def cmd_reproduce(args) -> tuple[str, int]:
    names = list(TABLES) if args.all else [args.table]
    out_lines = []
    mismatched = False
    for name in names:
        payload = TABLES[name]()
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        golden = os.path.join(GOLDEN_DIR, f"{name}.json")
        if args.write_golden:
            os.makedirs(GOLDEN_DIR, exist_ok=True)
            with open(golden, "w", encoding="utf-8") as f:
                f.write(text)
            out_lines.append(f"{name}: wrote {golden}")
            continue
        if not os.path.exists(golden):
            out_lines.append(f"{name}: MISSING golden file {golden}")
            mismatched = True
            continue
        with open(golden, encoding="utf-8") as f:
            matches = f.read() == text
        if not matches:
            out_lines.append(f"{name}: MISMATCH against {golden}")
            mismatched = True
        else:
            out_lines.append(f"{name}: ok")
    return "\n".join(out_lines) + "\n", (3 if mismatched else 0)
