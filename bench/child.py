"""Child-process entry points of the benchmark.

    python3 bench/child.py regen --units B3,C4,E8 [--trace FILE]
    python3 bench/child.py cli --op N --trace FILE -- <sphroots arguments>

``regen`` runs ``enumeration.verify_tables`` once per unit, in the given
order, and prints one JSON line with each unit's outcome.  ``cli`` runs the
``sphroots`` command line in-process under the tracer; untraced queries
run ``python -m sphroots.cli`` directly and never come here.  With
``--trace`` the tracer is installed before the work starts and its
summary is written to FILE when the work ends.
"""

from __future__ import annotations

import argparse
import json
import sys

import workloads


def _checks_run():
    from sphroots import degeneration
    return getattr(degeneration, "checks_run", None)


def _write_trace(path: str, tracer, checks_before) -> None:
    checks_after = _checks_run()
    summary = tracer.summary()
    known = checks_before is not None and checks_after is not None
    summary["checks_run"] = checks_after - checks_before if known else None
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)


def regen(args) -> int:
    from sphroots.enumeration import verify_tables

    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    checks_before = _checks_run()
    results = []
    try:
        for op, label in enumerate(args.units.split(",")):
            family, n = workloads.split_unit(label)
            ranks = None if n is None else [n]
            if tracer is None:
                report = verify_tables(family, ranks=ranks)
            else:
                report = tracer.run_op(op, verify_tables, family, ranks)
            entries = (len(report.missing) + len(report.extra)
                       + len(report.rank_mismatches)
                       + len(report.sigma_mismatches))
            results.append({"unit": label, "checked": report.checked,
                            "empty": report.empty, "entries": entries})
    finally:
        if tracer is not None:
            _write_trace(args.trace, tracer, checks_before)
    print(json.dumps({"units": results}))
    return 0


def cli(args) -> int:
    import sphroots.cli
    import tracer as tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    checks_before = _checks_run()
    try:
        return tracer.run_op(args.op, sphroots.cli.main, args.argv)
    finally:
        sys.stdout.flush()
        _write_trace(args.trace, tracer, checks_before)


def main() -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("regen")
    p.add_argument("--units", required=True)
    p.add_argument("--trace")
    p.set_defaults(func=regen)
    p = sub.add_parser("cli")
    p.add_argument("--op", type=int, required=True)
    p.add_argument("--trace", required=True)
    p.add_argument("argv", nargs=argparse.REMAINDER)
    p.set_defaults(func=cli)
    args = parser.parse_args()
    if getattr(args, "argv", None) and args.argv[0] == "--":
        args.argv = args.argv[1:]
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
