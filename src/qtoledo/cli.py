"""Command-line interface.

Every subcommand wraps a library call and emits a deterministic envelope
{command, parameters, payload, format}; rationals are serialized as exact
"p/q" strings so identical inputs give byte-identical output.  The
`reproduce` subcommand regenerates the published tables and matrices and
diffs them against the golden files shipped with the package.

Exit codes: 0 success, 1 computation failure, 2 usage error, 3 golden
mismatch.
"""

# The docstring above is the parser's description, so it speaks to users.
# Each subcommand is declared in ``SUBCOMMANDS``, its options in ``OPTIONS``,
# and ``main`` builds every envelope.  Run as a script, each subcommand
# imports only the modules it calls, inside its own function, and the parser
# fills in only the subcommands of the group called; the golden tables are
# in ``tables``, which only ``reproduce`` imports.  Imported as a module,
# ``cli`` loads every module of the package.

from __future__ import annotations

import argparse
import json
import sys

if __name__ != "__main__":
    # Imported rather than run as a script: load every module up front.
    # perfbench's import_package, cache_clearers and tracer look for the
    # modules in sys.modules after ``import qtoledo.cli`` (the caches of
    # ``embedding``, ``realbounds`` and ``torus`` among them), and its
    # tracer wraps the golden tables in ``cli.TABLES``.  The installed
    # console script loses little by it: pip compiles its bytecode at install.
    from . import (  # noqa: F401
        cyclotomic,
        elimination,
        embedding,
        eulerchi,
        fusion,
        hermitian,
        linalg,
        mgnclasses,
        qrep,
        realbounds,
        rmatrix,
        tables,
        torus,
    )
    from .tables import TABLES  # noqa: F401


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
    from .embedding import Embedding
    from .fusion import so3_algebra, su2_algebra

    if args.family == "so3":
        return so3_algebra(args.level, Embedding(args.level, args.embedding))
    return su2_algebra(args.level, Embedding(4 * args.level, args.embedding))


# -- subcommand implementations: each returns the payload that main wraps ----------


def cmd_fusion_build(args) -> dict:
    from .embedding import frac_to_json

    v = _algebra(args)
    return {
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


def cmd_fusion_sigtable(args) -> dict:
    from .embedding import Embedding, frac_to_json
    from .fusion import signature_table, so3_algebra

    v = so3_algebra(args.level, Embedding(args.level, args.embedding))
    table = signature_table(v, args.gmax, args.nmax)
    rows = []
    for line in table:
        rows.append([f"{cell['p']}|{cell['q']}" for cell in line])
    return {
        "header": ["g\\n"] + [f"n={n}" for n in range(args.nmax + 1)],
        "rows": [[f"g={g}"] + rows[g] for g in range(args.gmax + 1)],
        "cells": [{**cell, "dim": frac_to_json(cell["dim"]),
                   "signature": frac_to_json(cell["signature"])}
                  for line in table for cell in line],
    }


def cmd_fusion_gluing(args) -> dict:
    from .fusion import gluing_checks

    v = _algebra(args)
    report = gluing_checks(v, samples=args.samples, seed=args.seed)
    report["failures"] = [str(f) for f in report["failures"]]
    return report


def _read_text(path: str) -> str:
    with open(path, encoding="utf-8") as f:
        return f.read()


def _read_json(path: str):
    return json.loads(_read_text(path))


def _write_text(path: str, text: str):
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def _load_square(data) -> tuple:
    from .cyclotomic import cyclo_from_json

    return tuple(tuple(cyclo_from_json(x) for x in row) for row in data["entries"])


def _load_matrix(path: str):
    """The HermMatrix of a file {"embedding": {"order", "exponent"}, "entries": rows}."""
    from .embedding import Embedding
    from .hermitian import HermMatrix

    data = _read_json(path)
    emb = Embedding(data["embedding"]["order"], data["embedding"]["exponent"])
    return HermMatrix(_load_square(data), emb)


def cmd_herm_signature(args) -> dict:
    from .hermitian import signature

    h = _load_matrix(args.matrix)
    sig = signature(h)
    return {"positive": sig.positive, "negative": sig.negative, "zero": sig.zero}


def cmd_herm_meyer(args) -> dict:
    from .hermitian import IsometryWithForm, meyer_cocycle

    form = _load_matrix(args.form)
    a = IsometryWithForm(_load_square(_read_json(args.a)), form)
    b = IsometryWithForm(_load_square(_read_json(args.b)), form)
    return {"meyer_cocycle": meyer_cocycle(a, b)}


def cmd_qrep_tau04(args) -> dict:
    from .embedding import Embedding, frac_to_json
    from .qrep import four_point_toledo

    value = four_point_toledo(args.level, Embedding(args.level, args.embedding), args.i, args.j)
    return {"tau_04": frac_to_json(value)}


def cmd_qrep_tau11(args) -> dict:
    from .embedding import Embedding, frac_to_json
    from .qrep import tau_11

    value = tau_11(args.level, Embedding(args.level, args.embedding), args.i)
    return {"tau_11": frac_to_json(value)}


def cmd_qrep_torus(args) -> dict:
    from .cyclotomic import cyclo_to_json
    from .embedding import Embedding
    from .torus import punctured_torus_rep

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
    return payload


def cmd_rmatrix_solve(args) -> dict:
    from .embedding import Embedding
    from .rmatrix import solve_level

    r1 = solve_level(args.level, Embedding(args.level, args.embedding))
    return r1.to_json()


def cmd_rmatrix_class(args) -> dict:
    from .embedding import Embedding
    from .mgnclasses import reduce_class
    from .rmatrix import degree2_class, solve_level

    r1 = solve_level(args.level, Embedding(args.level, args.embedding))
    colors = _ints(args.colors)
    if len(colors) == 1 and args.n != 1:
        colors = colors * args.n  # one color for every point, none for n = 0
    cls = degree2_class(r1, args.g, args.n, colors)
    payload = {"class": cls.to_json()}
    try:
        payload["reduced"] = reduce_class(cls).to_json()
    except ValueError as e:
        payload["reduced"], payload["not_reduced"] = None, str(e)
    return payload


def cmd_rmatrix_crosscheck(args) -> dict:
    from .rmatrix import appendixB_crosscheck

    return appendixB_crosscheck(args.gmax, args.nmax)


def cmd_classes_check(args) -> dict:
    from .mgnclasses import uniformization_check

    case = tuple(_ints(args.case))
    return uniformization_check(case)


def cmd_classes_reduce(args) -> dict:
    from .mgnclasses import class_from_json, reduce_class

    data = _read_json(getattr(args, "class"))
    cls = class_from_json(data)
    return reduce_class(cls).to_json()


def cmd_euler_chibar(args) -> dict:
    from .embedding import frac_to_json
    from .eulerchi import chi_bar

    poly = chi_bar(args.g, args.n)
    return {
        "g": args.g, "n": args.n,
        "coefficients": [frac_to_json(c) for c in poly.coeffs],
        "pretty": str(poly),
    }


def cmd_euler_twisted(args) -> dict:
    from .embedding import frac_to_json
    from .eulerchi import chi_twisted

    value = chi_twisted(args.g, args.n, args.level)
    return {"chi": frac_to_json(value)}


def vars_of(args) -> dict:
    out = {}
    for k, v in sorted(vars(args).items()):
        if k in ("func", "format") or v is None:
            continue
        out[k] = v
    return out


# -- parser -----------------------------------------------------------------------


def _ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",")] if text else []


def _int_list(text: str) -> str:
    """A comma-separated list of integers, possibly empty, checked and kept as written.

    The envelope echoes the parameters as given, so the text itself is the value.
    """
    try:
        _ints(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None
    return text


def _g_n(text: str) -> str:
    """Exactly two comma-separated integers g,n, checked and kept as written."""
    if len(_ints(_int_list(text))) != 2:
        raise argparse.ArgumentTypeError(f"expected two integers g,n, got {text!r}")
    return text


def _count(text: str) -> int:
    """A nonnegative integer, such as a sample count or a largest genus."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return value


# every option of a subcommand, by flag; a subcommand may override a field
OPTIONS = {
    "--family": {"choices": ("so3", "su2"), "default": "so3"},
    "--level": {"type": int, "required": True},
    "--embedding": {"type": int, "default": 1},
    "--i": {"type": int, "required": True},
    "--j": {"type": int, "required": True},
    "--g": {"type": int, "required": True},
    "--n": {"type": int, "required": True},
    "--gmax": {"type": _count},
    "--nmax": {"type": _count},
    "--samples": {"type": _count, "default": 100},
    "--seed": {"type": int, "default": 0},
    "--colors": {"type": _int_list, "default": "1"},
    "--case": {"type": _g_n, "required": True, "help": "g,n among 0,5 1,2 1,3 2,1"},
    "--matrix": {"required": True},
    "--a": {"required": True},
    "--b": {"required": True},
    "--form": {"required": True},
    "--class": {"required": True},
    "--dump": {},
    "--format": {"choices": ("json", "csv", "md"), "default": "json"},
}

# group -> subcommand -> (function, its options in order); each also takes --format
SUBCOMMANDS = {
    "fusion": {
        "build": (cmd_fusion_build, ("--family", ("--level", {
            "help": "odd level for so3; r for su2 (embedding order 4r)"}), "--embedding")),
        "sigtable": (cmd_fusion_sigtable, ("--level", "--embedding", ("--gmax", {"default": 3}),
                                           ("--nmax", {"default": 6}))),
        "gluing": (cmd_fusion_gluing, ("--family", "--level", "--embedding", "--samples",
                                       "--seed")),
    },
    "herm": {
        "signature": (cmd_herm_signature, ("--matrix",)),
        "meyer": (cmd_herm_meyer, ("--a", "--b", "--form")),
    },
    "qrep": {
        "tau04": (cmd_qrep_tau04, ("--level", "--embedding", "--i", "--j")),
        "tau11": (cmd_qrep_tau11, ("--level", "--embedding", "--i")),
        "torus": (cmd_qrep_torus, ("--level", "--embedding", "--i", "--dump")),
    },
    "rmatrix": {
        "solve": (cmd_rmatrix_solve, ("--level", "--embedding")),
        "class": (cmd_rmatrix_class, ("--level", "--embedding", "--g", "--n", "--colors")),
        "crosscheck": (cmd_rmatrix_crosscheck, (("--gmax", {"default": 4}),
                                                ("--nmax", {"default": 4}))),
    },
    "classes": {
        "check": (cmd_classes_check, ("--case",)),
        "reduce": (cmd_classes_reduce, ("--class",)),
    },
    "euler": {
        "chibar": (cmd_euler_chibar, ("--g", "--n")),
        "twisted": (cmd_euler_twisted, ("--g", "--n", "--level")),
    },
}

# the help line of each command group
GROUPS = {
    "fusion": "fusion Frobenius algebras",
    "herm": "exact Hermitian linear algebra",
    "qrep": "small-surface quantum representations",
    "rmatrix": "first-order R-matrix and Toledo classes",
    "classes": "second cohomology of moduli spaces",
    "euler": "orbifold Euler characteristics",
    "reproduce": "regenerate published tables and diff goldens",
}


def _fill(group, name: str):
    """Add the options of group name: reproduce's own, or each subcommand's from SUBCOMMANDS."""
    if name == "reproduce":
        from .tables import TABLES

        which = group.add_mutually_exclusive_group(required=True)
        which.add_argument("--all", action="store_true")
        which.add_argument("--table", choices=TABLES, metavar="TABLE")
        group.add_argument("--write-golden", action="store_true",
                           help="write the golden files instead of checking them")
        return
    subs = group.add_subparsers(dest="sub", required=True)
    for sub, (func, options) in SUBCOMMANDS[name].items():
        parser = subs.add_parser(sub)
        for option in options + ("--format",):
            flag, override = (option, {}) if isinstance(option, str) else option
            parser.add_argument(flag, **{**OPTIONS[flag], **override})
        parser.set_defaults(func=func)


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The command-line parser, with every group and, for argv, only the subcommands it calls.

    Every group parser is added with its help line from GROUPS.  Its options
    and subcommands (from SUBCOMMANDS) are filled in for every group when
    argv is None, and otherwise only for the group that the first group name
    in argv (normally argv[0]) calls: the top level takes no option with a
    value, so that is the group argparse hands the rest of argv to, and it
    reads no other group's parser.
    """
    parser = argparse.ArgumentParser(prog="qtoledo", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    called = None if argv is None else next((a for a in argv if a in GROUPS), None)
    for name, help_text in GROUPS.items():
        group = sub.add_parser(name, help=help_text)
        if argv is None or name == called:
            _fill(group, name)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        if args.command == "reproduce":
            from .tables import cmd_reproduce

            text, code = cmd_reproduce(args)
            sys.stdout.write(text)
            return code
        payload = args.func(args)
        sys.stdout.write(_envelope(f"{args.command} {args.sub}", vars_of(args), payload,
                                   args.format))
        return 0
    except Exception as e:  # computation failure
        sys.stderr.write(f"error: {type(e).__name__}: {e}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
