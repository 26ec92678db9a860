"""Command-line front end.

Exit codes: 0 on success, 1 on verification failure (nonempty table diff,
or disagreement between methods under ``--method both``), 2 on invalid
input or a non-spherical datum, 3 on a defect of the program or of its
tables: a failed theorem check (``InvariantViolation``) or a block no
table row covers (``UnclassifiedCase``, ``UnclassifiedLeaf``).  Every
error the package raises prints one line on stderr and nothing on stdout;
exit 3's line names the error class.  With ``--format json`` all output is a single JSON
document on stdout; identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from typing import NoReturn, Optional

from . import rootsystem as rsmod
from .croots import complement_levi
from .errors import (InvariantViolation, NotSpherical, SphrootsError,
                     UnclassifiedCase, UnclassifiedLeaf)
from .sphericity import knop_reduce
from .subgroup import make_subgroup


def _emit(payload, fmt: str, text_fn=None) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True))
    elif text_fn is not None:
        text_fn(payload)
    else:
        print(json.dumps(payload, sort_keys=True, indent=2))


def _parse_ints(raw: str, what: str) -> tuple[int, ...]:
    """Comma-separated integers; anything else is invalid input (exit 2)."""
    try:
        return tuple(int(x) for x in raw.split(","))
    except ValueError:
        raise SphrootsError(
            f"{what} needs comma-separated integers, got {raw!r}") from None


def _parse_psi(raw: str) -> list[tuple[int, ...]]:
    """Semicolon-separated restricted roots, comma-separated entries."""
    return [_parse_ints(part, "--psi") for part in raw.split(";")
            if part.strip()]


def _datum_from_args(args):
    rs = rsmod.build(args.type, args.rank)
    complement = sorted(set(_parse_ints(args.complement, "--complement")))
    if any(a < 1 or a > rs.rank for a in complement):
        raise SphrootsError(f"complement {complement} out of range")
    L = complement_levi(rs, complement)
    psi = _parse_psi(args.psi)
    if any(len(v) != len(complement) for v in psi):
        raise SphrootsError("each psi entry needs one value per complement node")
    return make_subgroup(L, psi)


def _cmd_roots(args) -> int:
    rs = rsmod.build(args.type, args.rank)
    payload = {
        "type": rs.type_label,
        "rank": rs.rank,
        "cartan": [list(row) for row in rs.cartan],
        "simple_roots": [list(rs.simple_root(i)) for i in range(1, rs.rank + 1)],
        "positive_roots": [list(r) for r in rs.positive_roots],
    }

    def text(p):
        label = p["type"] if p["type"][-1].isdigit() else f"{p['type']}{p['rank']}"
        print(f"type {label}, {len(p['positive_roots'])} positive roots")
        print("cartan:")
        for row in p["cartan"]:
            print("  " + " ".join(f"{x:3d}" for x in row))
        print("positive roots (height, coefficients):")
        for r in p["positive_roots"]:
            print(f"  {sum(r):3d}  {r}")

    _emit(payload, args.format, text)
    return 0


def _cmd_check(args) -> int:
    H = _datum_from_args(args)
    witness = knop_reduce(H.rs, H.L.levi, H.L.delta_l_plus, H.u_roots)
    payload = {
        "spherical": witness.spherical,
        "rank": witness.rank,
        "theta": [list(v) for v in witness.theta],
    }
    _emit(payload, args.format,
          lambda p: print("spherical" if p["spherical"] else "not spherical",
                          f"rank={p['rank']}" if p["spherical"] else ""))
    return 0


def _cmd_compute(args) -> int:
    from .solver import base_solve, optimized_solve

    H = _datum_from_args(args)
    results = {}
    if args.method in ("base", "both"):
        results["base"] = base_solve(H)
    if args.method in ("optimized", "both"):
        results["optimized"] = optimized_solve(H, "compute")
    if args.method == "both":
        results["table"] = optimized_solve(H, "table")
    chosen = results.get("optimized") or results["base"]
    agree = len({r.root_set for r in results.values()}) == 1
    payload = {
        "spherical": True,
        "rank": len(chosen.roots),
        "spherical_roots": [list(v) for v in chosen.roots],
        "method": args.method,
        "methods_agree": agree,
    }

    def text(p):
        print(f"rank {p['rank']}")
        for v in p["spherical_roots"]:
            print(f"  {v}")
        if not p["methods_agree"]:
            print("METHOD DISAGREEMENT", file=sys.stderr)

    _emit(payload, args.format, text)
    return 0 if agree else 1


def _cmd_degenerate(args) -> int:
    from .degeneration import _shifted_lines, degenerate

    H = _datum_from_args(args)
    lam = _parse_ints(getattr(args, "lambda"), "--lambda")
    d = degenerate(H, lam)
    weights = H.rs.lines
    pairs = ((weights[src.bit_length() - 1], weights[line.bit_length() - 1])
             for src, line in _shifted_lines(d, H.L.pu_mask | H.u_mask))
    shift = sorted((list(src), list(line) if any(line) else "h_delta")
                   for src, line in pairs)
    payload = {
        "delta": list(d.delta),
        "target": d.target.to_wire(),
        "u_infinity": [list(v) for v in d.u_infinity],
        "shift_map": [[s, t] for s, t in shift],
    }
    _emit(payload, args.format)
    return 0


def _cmd_enumerate(args) -> int:
    from .enumeration import enumerate_cases, enumeration_type

    rs = rsmod.build(*enumeration_type(args.type, args.rank))
    records = enumerate_cases(rs, args.complement_size, args.psi_size,
                              solve=not args.skip_solve)
    payload = [r.to_json() for r in records]
    _emit(payload, args.format,
          lambda p: [print(json.dumps(rec, sort_keys=True)) for rec in p])
    return 0


def _cmd_verify_tables(args) -> int:
    from .enumeration import verify_tables

    report = verify_tables(args.type, max_rank=args.max_rank)
    payload = report.to_json()

    def text(p):
        status = "OK" if p["empty"] else "DIFF"
        print(f"{p['scope']}: {status} ({p['checked']} cases checked)")
        for kind in ("missing", "extra", "rank_mismatches", "sigma_mismatches"):
            for item in p[kind]:
                print(f"  {kind}: {json.dumps(item, sort_keys=True)}")

    _emit(payload, args.format, text)
    return 0 if report.empty else 1


def _cmd_tables(args) -> int:
    from .tables import dump_rows

    params = _parse_ints(args.params, "--params") if args.params else None
    rows = dump_rows(args.table, n=args.n, params=params)
    _emit(rows, args.format,
          lambda p: [print(json.dumps(rec, sort_keys=True)) for rec in p])
    return 0


def _format_arg(p):
    p.add_argument("--format", choices=("json", "text"), default="text")


def _datum_args(p):
    _format_arg(p)
    p.add_argument("--type", required=True)
    p.add_argument("--rank", type=int)
    p.add_argument("--complement", required=True,
                   help="comma-separated 1-based complement nodes")
    p.add_argument("--psi", required=True,
                   help="semicolon-separated restricted roots, e.g. '1;2'")


def _roots_args(p):
    p.add_argument("--type", required=True)
    p.add_argument("--rank", type=int)
    _format_arg(p)


def _compute_args(p):
    _datum_args(p)
    p.add_argument("--method", choices=("base", "optimized", "both"),
                   default="optimized")


def _degenerate_args(p):
    _datum_args(p)
    p.add_argument("--lambda", required=True,
                   help="comma-separated restricted root to degenerate along")


def _enumerate_args(p):
    p.add_argument("--type", required=True)
    p.add_argument("--rank", type=int)
    p.add_argument("--complement-size", dest="complement_size", type=int,
                   choices=(1, 2), required=True)
    p.add_argument("--psi-size", dest="psi_size", type=int, required=True)
    p.add_argument("--skip-solve", action="store_true")
    _format_arg(p)


def _verify_tables_args(p):
    p.add_argument("--type", required=True)
    p.add_argument("--max-rank", dest="max_rank", type=int, default=10)
    _format_arg(p)


def _tables_args(p):
    from .tables import TABLE_IDS

    tsub = p.add_subparsers(dest="table_command", required=True)
    pd = tsub.add_parser("dump")
    pd.add_argument("--table", type=int, choices=TABLE_IDS, required=True)
    pd.add_argument("--n", type=int)
    pd.add_argument("--params")
    _format_arg(pd)


#: each command's help line, the function adding its arguments and its
#: handler, in the order ``sphroots --help`` lists them
_COMMANDS = {
    "roots": ("dump a root system", _roots_args, _cmd_roots),
    "check": ("sphericity and rank of a datum", _datum_args, _cmd_check),
    "compute": ("spherical roots of a datum", _compute_args, _cmd_compute),
    "degenerate": ("degenerate a datum along one active root",
                   _degenerate_args, _cmd_degenerate),
    "enumerate": ("enumerate canonical cases", _enumerate_args,
                  _cmd_enumerate),
    "verify-tables": ("regenerate tables and diff", _verify_tables_args,
                      _cmd_verify_tables),
    "tables": ("table row instantiations", _tables_args, _cmd_tables),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of every command, or of ``command`` alone.

    An argv that starts with a command needs only that command's
    subparser.  Its usage line still names every command, so that usage
    and error text are the same as the full parser's.
    """
    parser = argparse.ArgumentParser(
        prog="sphroots",
        description="Exact spherical-root computations for Levi-split subgroups")
    # the full parser keeps the default metavar: argparse names a missing
    # command by it ("required: command")
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if command is None else "{%s}" % ",".join(_COMMANDS))
    for name, (help_text, add_args, handler) in _COMMANDS.items():
        if command is None or name == command:
            p = sub.add_parser(name, help=help_text)
            add_args(p)
            p.set_defaults(func=handler)
    return parser


#: errors that are defects of the program or of its tables, not of the input
_DEFECTS = (InvariantViolation, UnclassifiedCase, UnclassifiedLeaf)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        return args.func(args)
    except NotSpherical as exc:
        print(f"not spherical: {exc}", file=sys.stderr)
        return 2
    except SphrootsError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, _DEFECTS) else 2


def run() -> NoReturn:
    """Process entry of the ``sphroots`` command and of ``python -m
    sphroots.cli``: run :func:`main` on ``sys.argv`` and exit with its code.

    Before exiting it moves every object the query built to the collector's
    permanent generation (``gc.freeze``), so the interpreter's exit-time
    collections skip objects the end of the process frees anyway.  Nothing
    in the package has a ``__del__``, and the interpreter flushes stdout
    and stderr before those collections.  ``main``, the import and every
    library call leave the collector as they find it.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
