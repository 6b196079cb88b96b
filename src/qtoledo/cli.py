"""Command-line interface.

Every subcommand wraps a library call and emits a deterministic envelope
{command, parameters, payload, format}; rationals are serialized as exact
"p/q" strings so identical inputs give byte-identical output.  The
``reproduce`` subcommand regenerates the published tables and matrices and
diffs them against the golden files shipped with the package.

Exit codes: 0 success, 1 computation failure, 2 usage error, 3 golden
mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .cyclotomic import Embedding, cyclo_from_json, cyclo_to_json, frac_to_json
from .eulerchi import chi_bar, chi_twisted
from .fusion import gluing_checks, signature_table, so3_algebra, su2_algebra
from .hermitian import HermMatrix, IsometryWithForm, meyer_cocycle, signature
from .mgnclasses import class_from_json, reduce_class, uniformization_check
from .qrep import four_point_toledo, punctured_torus_rep, tau_11
from .rmatrix import appendixB_crosscheck, degree2_class, solve_level, tau_from_r1_04, tau_from_r1_11


def _envelope(command: str, parameters: dict, payload, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(
            {"command": command, "parameters": parameters, "payload": payload, "format": fmt},
            indent=2, sort_keys=True,
        ) + "\n"
    if fmt == "md":
        return _to_markdown(command, payload)
    if fmt == "csv":
        return _to_csv(payload)
    raise ValueError(f"unknown format {fmt}")


def _to_markdown(command: str, payload) -> str:
    lines = [f"# {command}", ""]
    if isinstance(payload, dict) and "rows" in payload:
        header = payload["header"]
        lines.append("| " + " | ".join(str(h) for h in header) + " |")
        lines.append("|" + "---|" * len(header))
        for row in payload["rows"]:
            lines.append("| " + " | ".join(str(x) for x in row) + " |")
    else:
        lines.append("```json")
        lines.append(json.dumps(payload, indent=2, sort_keys=True))
        lines.append("```")
    return "\n".join(lines) + "\n"


def _to_csv(payload) -> str:
    if isinstance(payload, dict) and "rows" in payload:
        out = [",".join(str(h) for h in payload["header"])]
        out += [",".join(str(x) for x in row) for row in payload["rows"]]
        return "\n".join(out) + "\n"
    return json.dumps(payload, sort_keys=True) + "\n"


def _algebra(args):
    if args.family == "so3":
        return so3_algebra(args.level, Embedding(args.level, args.embedding))
    return su2_algebra(args.level, Embedding(4 * args.level, args.embedding))


# -- subcommand implementations ---------------------------------------------------


def cmd_fusion_build(args) -> str:
    v = _algebra(args)
    payload = {
        "family": v.family,
        "level": v.level,
        "embedding": v.embedding.exponent,
        "rank": v.rank,
        "eps": list(v.eps),
        "omega03": [[[v.omega03[i][j][k] for k in range(v.rank)] for j in range(v.rank)]
                    for i in range(v.rank)],
        "alpha": [frac_to_json(x) for x in v.alpha],
        "omega_element": [frac_to_json(x) for x in v.omega_element],
        "semisimple_witness": frac_to_json(v.semisimple_witness()),
    }
    return _envelope("fusion build", vars_of(args), payload, args.format)


def cmd_fusion_sigtable(args) -> str:
    v = so3_algebra(args.level, Embedding(args.level, args.embedding))
    table = signature_table(v, args.gmax, args.nmax)
    rows = []
    for line in table:
        rows.append([f"{cell['p']}|{cell['q']}" for cell in line])
    payload = {
        "header": ["g\\n"] + [f"n={n}" for n in range(args.nmax + 1)],
        "rows": [[f"g={g}"] + rows[g] for g in range(args.gmax + 1)],
        "cells": [{**cell, "dim": frac_to_json(cell["dim"]),
                   "signature": frac_to_json(cell["signature"])}
                  for line in table for cell in line],
    }
    return _envelope("fusion sigtable", vars_of(args), payload, args.format)


def cmd_fusion_gluing(args) -> str:
    v = _algebra(args)
    report = gluing_checks(v, samples=args.samples, seed=args.seed)
    report["failures"] = [str(f) for f in report["failures"]]
    return _envelope("fusion gluing", vars_of(args), report, args.format)


def _read_text(path: str) -> str:
    with open(path, encoding="utf-8") as f:
        return f.read()


def _read_json(path: str):
    return json.loads(_read_text(path))


def _write_text(path: str, text: str):
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def _load_matrix(path: str):
    data = _read_json(path)
    emb = Embedding(data["embedding"]["order"], data["embedding"]["exponent"])
    entries = [[cyclo_from_json(x) for x in row] for row in data["entries"]]
    return HermMatrix(tuple(tuple(row) for row in entries), emb)


def _load_square(path: str):
    data = _read_json(path)
    return tuple(tuple(cyclo_from_json(x) for x in row) for row in data["entries"])


def cmd_herm_signature(args) -> str:
    h = _load_matrix(args.matrix)
    sig = signature(h)
    payload = {"positive": sig.positive, "negative": sig.negative, "zero": sig.zero}
    return _envelope("herm signature", vars_of(args), payload, args.format)


def cmd_herm_meyer(args) -> str:
    form = _load_matrix(args.form)
    a = IsometryWithForm(_load_square(args.a), form)
    b = IsometryWithForm(_load_square(args.b), form)
    payload = {"meyer_cocycle": meyer_cocycle(a, b)}
    return _envelope("herm meyer", vars_of(args), payload, args.format)


def cmd_qrep_tau04(args) -> str:
    value = four_point_toledo(args.level, Embedding(args.level, args.embedding), args.i, args.j)
    return _envelope("qrep tau04", vars_of(args), {"tau_04": frac_to_json(value)}, args.format)


def cmd_qrep_tau11(args) -> str:
    value = tau_11(args.level, Embedding(args.level, args.embedding), args.i)
    return _envelope("qrep tau11", vars_of(args), {"tau_11": frac_to_json(value)}, args.format)


def cmd_qrep_torus(args) -> str:
    rep = punctured_torus_rep(args.level, Embedding(args.level, args.embedding), args.i)

    def mat(m):
        return [[cyclo_to_json(x) for x in row] for row in m]

    payload = {
        "level": rep.level,
        "embedding": rep.embedding.exponent,
        "color": rep.color,
        "dim": rep.dim,
        "window": list(rep.window),
        "norms": [cyclo_to_json(x) for x in rep.norms],
        "c_gamma": mat(rep.c_gamma),
        "c_delta": mat(rep.c_delta),
        "t_gamma": mat(rep.t_gamma),
        "t_delta": mat(rep.t_delta),
    }
    if args.dump:
        _write_text(args.dump, json.dumps(payload, indent=2, sort_keys=True) + "\n")
        payload = {"written": args.dump, "dim": rep.dim}
    return _envelope("qrep torus", vars_of(args), payload, args.format)


def cmd_rmatrix_solve(args) -> str:
    r1 = solve_level(args.level, Embedding(args.level, args.embedding))
    return _envelope("rmatrix solve", vars_of(args), r1.to_json(), args.format)


def cmd_rmatrix_class(args) -> str:
    r1 = solve_level(args.level, Embedding(args.level, args.embedding))
    colors = [int(c) for c in args.colors.split(",")] if args.colors else []
    if len(colors) == 1 and args.n > 1:
        colors = colors * args.n
    cls = degree2_class(r1, args.g, args.n, colors)
    payload = {"class": cls.to_json()}
    try:
        payload["reduced"] = reduce_class(cls).to_json()
    except ValueError:
        payload["reduced"] = None
    return _envelope("rmatrix class", vars_of(args), payload, args.format)


def cmd_rmatrix_crosscheck(args) -> str:
    report = appendixB_crosscheck(args.gmax, args.nmax)
    return _envelope("rmatrix crosscheck", vars_of(args), report, args.format)


def cmd_classes_check(args) -> str:
    case = tuple(int(x) for x in args.case.split(","))
    report = uniformization_check(case)
    return _envelope("classes check", vars_of(args), report, args.format)


def cmd_classes_reduce(args) -> str:
    data = _read_json(getattr(args, "class"))
    cls = class_from_json(data)
    reduced = reduce_class(cls)
    return _envelope("classes reduce", vars_of(args), reduced.to_json(), args.format)


def cmd_euler_chibar(args) -> str:
    poly = chi_bar(args.g, args.n)
    payload = {
        "g": args.g, "n": args.n,
        "coefficients": [frac_to_json(c) for c in poly.coeffs],
        "pretty": str(poly),
    }
    return _envelope("euler chibar", vars_of(args), payload, args.format)


def cmd_euler_twisted(args) -> str:
    value = chi_twisted(args.g, args.n, args.level)
    return _envelope("euler twisted", vars_of(args), {"chi": frac_to_json(value)}, args.format)


# -- reproduce: golden tables ----------------------------------------------------


def _table_fibonacci() -> dict:
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
    blocks = {}
    for level, k in ((5, 1), (7, 1), (7, 2), (7, 3)):
        r1 = solve_level(level, Embedding(level, k))
        blocks[f"level{level}_q{k}"] = r1.to_json()
    return {"name": "r1-matrices", "matrices": blocks}


def _table_uniformization() -> dict:
    return {
        "name": "uniformization",
        "cases": [uniformization_check(c) for c in ((0, 5), (1, 2), (1, 3), (2, 1))],
    }


def _table_appendixb() -> dict:
    report = appendixB_crosscheck(4, 4)
    return {"name": "appendixb", "report": report}


def _table_euler() -> dict:
    rows = []
    for g in range(3):
        for n in range(6):
            if 2 * g - 2 + n <= 0:
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
    names = list(TABLES) if args.all else ([args.table] if args.table else [])
    if not names:
        raise SystemExit2("choose --all or --table NAME")
    out_lines = []
    mismatched = False
    for name in names:
        if name not in TABLES:
            raise SystemExit2(f"unknown table {name!r}; choose from {sorted(TABLES)}")
        payload = TABLES[name]()
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        golden = os.path.join(GOLDEN_DIR, f"{name}.json")
        if args.write_golden:
            os.makedirs(GOLDEN_DIR, exist_ok=True)
            _write_text(golden, text)
            out_lines.append(f"{name}: wrote {golden}")
            continue
        if not os.path.exists(golden):
            out_lines.append(f"{name}: MISSING golden file {golden}")
            mismatched = True
            continue
        if _read_text(golden) != text:
            out_lines.append(f"{name}: MISMATCH against {golden}")
            mismatched = True
        else:
            out_lines.append(f"{name}: ok")
    return "\n".join(out_lines) + "\n", (3 if mismatched else 0)


class SystemExit2(Exception):
    pass


def vars_of(args) -> dict:
    out = {}
    for k, v in sorted(vars(args).items()):
        if k in ("func", "format") or v is None:
            continue
        out[k] = v
    return out


# -- parser -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qtoledo", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("json", "csv", "md"), default="json")

    fusion = sub.add_parser("fusion", help="fusion Frobenius algebras")
    fsub = fusion.add_subparsers(dest="sub", required=True)
    fb = fsub.add_parser("build")
    fb.add_argument("--family", choices=("so3", "su2"), default="so3")
    fb.add_argument("--level", type=int, required=True,
                    help="odd level for so3; r for su2 (embedding order 4r)")
    fb.add_argument("--embedding", type=int, default=1)
    add_format(fb)
    fb.set_defaults(func=cmd_fusion_build)
    ft = fsub.add_parser("sigtable")
    ft.add_argument("--level", type=int, required=True)
    ft.add_argument("--embedding", type=int, default=1)
    ft.add_argument("--gmax", type=int, default=3)
    ft.add_argument("--nmax", type=int, default=6)
    add_format(ft)
    ft.set_defaults(func=cmd_fusion_sigtable)
    fg = fsub.add_parser("gluing")
    fg.add_argument("--family", choices=("so3", "su2"), default="so3")
    fg.add_argument("--level", type=int, required=True)
    fg.add_argument("--embedding", type=int, default=1)
    fg.add_argument("--samples", type=int, default=100)
    fg.add_argument("--seed", type=int, default=0)
    add_format(fg)
    fg.set_defaults(func=cmd_fusion_gluing)

    herm = sub.add_parser("herm", help="exact Hermitian linear algebra")
    hsub = herm.add_subparsers(dest="sub", required=True)
    hs = hsub.add_parser("signature")
    hs.add_argument("--matrix", required=True)
    add_format(hs)
    hs.set_defaults(func=cmd_herm_signature)
    hm = hsub.add_parser("meyer")
    hm.add_argument("--a", required=True)
    hm.add_argument("--b", required=True)
    hm.add_argument("--form", required=True)
    add_format(hm)
    hm.set_defaults(func=cmd_herm_meyer)

    qrep = sub.add_parser("qrep", help="small-surface quantum representations")
    qsub = qrep.add_subparsers(dest="sub", required=True)
    q4 = qsub.add_parser("tau04")
    q4.add_argument("--level", type=int, required=True)
    q4.add_argument("--embedding", type=int, default=1)
    q4.add_argument("--i", type=int, required=True)
    q4.add_argument("--j", type=int, required=True)
    add_format(q4)
    q4.set_defaults(func=cmd_qrep_tau04)
    q1 = qsub.add_parser("tau11")
    q1.add_argument("--level", type=int, required=True)
    q1.add_argument("--embedding", type=int, default=1)
    q1.add_argument("--i", type=int, required=True)
    add_format(q1)
    q1.set_defaults(func=cmd_qrep_tau11)
    qt = qsub.add_parser("torus")
    qt.add_argument("--level", type=int, required=True)
    qt.add_argument("--embedding", type=int, default=1)
    qt.add_argument("--i", type=int, required=True)
    qt.add_argument("--dump")
    add_format(qt)
    qt.set_defaults(func=cmd_qrep_torus)

    rmat = sub.add_parser("rmatrix", help="first-order R-matrix and Toledo classes")
    rsub = rmat.add_subparsers(dest="sub", required=True)
    rs = rsub.add_parser("solve")
    rs.add_argument("--level", type=int, required=True)
    rs.add_argument("--embedding", type=int, default=1)
    add_format(rs)
    rs.set_defaults(func=cmd_rmatrix_solve)
    rc = rsub.add_parser("class")
    rc.add_argument("--level", type=int, required=True)
    rc.add_argument("--embedding", type=int, default=1)
    rc.add_argument("--g", type=int, required=True)
    rc.add_argument("--n", type=int, required=True)
    rc.add_argument("--colors", default="1")
    add_format(rc)
    rc.set_defaults(func=cmd_rmatrix_class)
    rx = rsub.add_parser("crosscheck")
    rx.add_argument("--gmax", type=int, default=4)
    rx.add_argument("--nmax", type=int, default=4)
    add_format(rx)
    rx.set_defaults(func=cmd_rmatrix_crosscheck)

    classes = sub.add_parser("classes", help="second cohomology of moduli spaces")
    csub = classes.add_subparsers(dest="sub", required=True)
    cc = csub.add_parser("check")
    cc.add_argument("--case", required=True, help="g,n among 0,5 1,2 1,3 2,1")
    add_format(cc)
    cc.set_defaults(func=cmd_classes_check)
    cr = csub.add_parser("reduce")
    cr.add_argument("--class", required=True, dest="class")
    add_format(cr)
    cr.set_defaults(func=cmd_classes_reduce)

    euler = sub.add_parser("euler", help="orbifold Euler characteristics")
    esub = euler.add_subparsers(dest="sub", required=True)
    ec = esub.add_parser("chibar")
    ec.add_argument("--g", type=int, required=True)
    ec.add_argument("--n", type=int, required=True)
    add_format(ec)
    ec.set_defaults(func=cmd_euler_chibar)
    et = esub.add_parser("twisted")
    et.add_argument("--g", type=int, required=True)
    et.add_argument("--n", type=int, required=True)
    et.add_argument("--level", type=int, required=True)
    add_format(et)
    et.set_defaults(func=cmd_euler_twisted)

    rep = sub.add_parser("reproduce", help="regenerate published tables and diff goldens")
    rep.add_argument("--all", action="store_true")
    rep.add_argument("--table")
    rep.add_argument("--write-golden", action="store_true",
                     help="write the golden files instead of checking them")
    rep.set_defaults(func=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        if args.command == "reproduce":
            text, code = cmd_reproduce(args)
            sys.stdout.write(text)
            return code
        sys.stdout.write(args.func(args))
        return 0
    except SystemExit2 as e:
        sys.stderr.write(f"usage error: {e}\n")
        return 2
    except Exception as e:  # computation failure
        sys.stderr.write(f"error: {type(e).__name__}: {e}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
