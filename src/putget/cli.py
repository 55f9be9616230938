"""Command-line law runner for the example registry.

Exit codes: 0 when every requested example matches its declared
profile (expected failures count as matches), 1 when any report
mismatches, 2 for usage errors, unknown names, invalid tolerances or a
comparison whose residual or threshold is not finite.

JSON output is deterministic -- keys are sorted and wall times are
left out -- so runs can be diffed byte for byte.  The text format
shows one line per law plus timing; one check run builds each
projector family and each restricted entry's base once, so an entry's
time leaves out what an earlier entry already built.  The --tol flag
overrides the default tolerance.
"""
from __future__ import annotations

import argparse
import json
import sys
import time

from .registry import ExampleReport, RunScope, get_example, names, run_example
from .tensors import DEFAULT_TOL, Tolerance

__all__ = ["main"]

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_ERROR = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="putget",
        description="check update-structure laws on the bundled example registry",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lister = sub.add_parser("list", help="list the example registry")
    lister.add_argument("--format", choices=("text", "json"), default="text")

    checker = sub.add_parser("check", help="run the law suite on examples")
    checker.add_argument("name", nargs="?", help="registry entry to check")
    checker.add_argument("--all", action="store_true", help="check every entry")
    checker.add_argument("--tol", type=float, default=None,
                         help="residual tolerance (absolute and relative)")
    checker.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def _resolve_tolerance(flag: float | None) -> Tolerance:
    if flag is None:
        return DEFAULT_TOL
    if flag <= 0:
        raise ValueError(f"tolerance must be positive, got {flag}")
    return Tolerance(absolute=flag, relative=flag)


def _render_text(report: ExampleReport, elapsed: float) -> str:
    verdict = "ok" if report.matched else "MISMATCH"
    lines = [
        f"{report.name}: {report.classification} "
        f"(expected {report.expected}) [{verdict}] {elapsed:.2f}s"
    ]
    for r in report.laws:
        mark = "+" if r.holds else "-"
        lines.append(f"  {mark} {r.law:<16} residual={r.residual:.3e}  tolerance={r.threshold:.3e}")
    for d in report.derived:
        note = f" (premises: {', '.join(d.failed_premises)})" if d.status == "vacuous" else \
            f" residual={d.residual:.3e}"
        lines.append(f"  ~ {d.name:<30} {d.status}{note}")
    for x in report.extras:
        mark = "+" if x.holds else "-"
        lines.append(f"  {mark} [extra] {x.name:<30} residual={x.residual:.3e}")
    for m in report.mismatches:
        lines.append(f"  ! {m}")
    return "\n".join(lines)


def _cmd_list(args) -> int:
    specs = [get_example(n) for n in names()]
    if args.format == "json":
        doc = {
            "examples": [
                {"name": s.name, "expected": s.expected, "description": s.description}
                for s in specs
            ]
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        width = max(len(s.name) for s in specs)
        for s in specs:
            print(f"{s.name:<{width}}  {s.expected:<9}  {s.description}")
    return EXIT_OK


def _cmd_check(args, parser: argparse.ArgumentParser) -> int:
    if args.all == (args.name is not None):
        parser.error("provide exactly one of an example name or --all")
    tol = _resolve_tolerance(args.tol)
    chosen = names() if args.all else (args.name,)

    scope = RunScope()  # shared by this command's examples, dropped when it returns
    reports: list[tuple[ExampleReport, float]] = []
    for name in chosen:
        start = time.perf_counter()
        report = run_example(name, tol, scope)
        reports.append((report, time.perf_counter() - start))

    if args.format == "json":
        if args.all:
            doc = {"results": [r.to_dict() for r, _ in reports]}
        else:
            doc = reports[0][0].to_dict()
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for report, elapsed in reports:
            print(_render_text(report, elapsed))
        if args.all:
            good = sum(1 for r, _ in reports if r.matched)
            print(f"{good}/{len(reports)} examples matched")
    return EXIT_OK if all(r.matched for r, _ in reports) else EXIT_MISMATCH


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles usage errors and --help
        return int(exc.code or 0)
    try:
        if args.command == "list":
            return _cmd_list(args)
        return _cmd_check(args, parser)
    except SystemExit as exc:
        return int(exc.code or 0)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
