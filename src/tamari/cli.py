"""Command-line front end.

Commands mirror the library: ``count`` and ``series`` evaluate formulas,
``enumerate`` streams intervals, ``map``/``unmap`` convert between the
interval text form and the canonical blossoming (meandering) JSON,
``classify`` reports family membership, ``sample`` draws uniformly,
``render`` writes an SVG, and ``verify`` runs the oracle suite.  All
numeric output is exact; ``--json`` switches to machine-readable output.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys

from .blossoming import to_meandering
from .counting import (
    FAMILY_PREDICATES,
    Family,
    count,
    count_by_canopy_matches,
    count_self_dual,
    tally,
    trivariate_coefficients,
)
from .errors import TamariError, UnsupportedSize
from .intervals import (
    canopy_type_counts,
    enumerate_intervals,
    interval_from_text,
    interval_to_json,
    interval_to_text,
    is_infinitely_modern,
    is_kreweras,
    is_modern,
    is_new,
    is_self_dual,
    is_synchronized,
    is_trivial,
    make_interval,
)
from .meandering import diagram_from_json, diagram_to_json, from_tree_pair, to_tree_pair
from .render import _diagram_figure, render_blossoming, render_smooth, save
from .sampler import RandomSource, sample_blossoming, sample_interval

__all__ = ["main", "run"]

_FROM_FILE = "@path reads it from a file and - from standard input"


def _family(text: str) -> Family:
    try:
        return Family(text)
    except ValueError:
        names = ", ".join(f.value for f in Family)
        raise argparse.ArgumentTypeError(f"unknown family {text!r}; choose from {names}")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # subparsers inherit it: run prints one JSON line
        raise ValueError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first ``run``; parsing
    leaves no state in it, so every call can share it."""
    parser = _Parser(
        prog="tamari",
        description="Tamari intervals, blossoming trees, counting and sampling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="evaluate a counting formula")
    p.add_argument("--family", type=_family, default=Family.GENERAL)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None, help="canopy-agreement refinement")
    p.add_argument("--self-dual", action="store_true")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("enumerate", help="stream all intervals of one size")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--family", type=_family, default=Family.GENERAL)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("map", help="interval text to blossoming JSON")
    p.add_argument("interval", help=f"text form '<dyckLower>|<dyckUpper>'; {_FROM_FILE}")

    p = sub.add_parser("unmap", help="blossoming JSON to interval text")
    p.add_argument("diagram", help=f"canonical blossoming JSON; {_FROM_FILE}")

    p = sub.add_parser("classify", help="family membership of one interval")
    p.add_argument("interval", help=_FROM_FILE)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("sample", help="uniform random intervals")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--format", choices=("interval", "blossoming", "svg"), default="interval"
    )
    p.add_argument("--out", default=None)

    p = sub.add_parser("render", help="write an SVG drawing of an interval")
    p.add_argument("interval", help=_FROM_FILE)
    p.add_argument(
        "--style", choices=("smooth", "meandering", "blossoming"), default="meandering"
    )
    p.add_argument("--out", default=None)

    p = sub.add_parser("series", help="trivariate canopy-type coefficients")
    p.add_argument("--n", type=int, required=True, help="maximal total degree")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser(
        "tally", help="brute-force family counts with oracle cross-checks"
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("verify", help="run the oracle suite")
    p.add_argument("--max-n", type=int, default=6)
    p.add_argument("--json", action="store_true")
    return parser


def _cmd_count(args, out) -> int:
    if args.k is not None:
        if args.family is not Family.GENERAL or args.self_dual:
            raise TamariError("--k counts all intervals; it takes no --family or --self-dual")
        value = count_by_canopy_matches(args.n, args.k)
    elif args.self_dual:
        value = count_self_dual(args.family, args.n)
    else:
        value = count(args.family, args.n)
    payload = {"family": args.family.value, "n": args.n, "count": value}
    if args.k is not None:
        payload["k"] = args.k
    if args.self_dual:
        payload["self_dual"] = True
    # counts are exact: lift the int-to-str digit limit (Python >= 3.10.7) to print
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        print(json.dumps(payload, separators=(",", ":")) if args.json else value, file=out)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    return 0


def _cmd_enumerate(args, out) -> int:
    predicate = FAMILY_PREDICATES[args.family]
    for interval in enumerate_intervals(args.n):
        if predicate(interval):
            line = interval_to_json(interval) if args.json else interval_to_text(interval)
            print(line, file=out)
    return 0


def _read_object(arg: str) -> str:
    """The object an argument names: itself, or the text of the file
    ``@path`` or of standard input ``-``, less one trailing newline.

    No interval or diagram text starts with @ or is -, so these forms take
    nothing away; reading here, not in the parser, lets ``run`` report an
    unreadable file as one JSON error line.
    """
    if arg == "-":
        text = sys.stdin.read()
    elif arg.startswith("@"):
        with open(arg[1:]) as handle:
            text = handle.read()
    else:
        return arg
    return text[:-1] if text.endswith("\n") else text


def _cmd_map(args, out) -> int:
    interval = interval_from_text(_read_object(args.interval))
    print(diagram_to_json(from_tree_pair(interval.lower, interval.upper)), file=out)
    return 0


def _cmd_unmap(args, out) -> int:
    lower, upper = to_tree_pair(diagram_from_json(_read_object(args.diagram)))
    print(interval_to_text(make_interval(lower, upper)), file=out)
    return 0


def _cmd_classify(args, out) -> int:
    interval = interval_from_text(_read_object(args.interval))
    i, j, m = canopy_type_counts(interval)
    flags = {
        "synchronized": is_synchronized(interval),
        "modern": is_modern(interval),
        "infinitely_modern": is_infinitely_modern(interval),
        "kreweras": is_kreweras(interval),
        "new": is_new(interval),
        "trivial": is_trivial(interval),
        "self_dual": is_self_dual(interval),
    }
    if args.json:
        payload = {"interval": interval_to_text(interval), "n": interval.n}
        payload.update(flags)
        payload["canopy_counts"] = [i, j, m]
        print(json.dumps(payload, separators=(",", ":")), file=out)
    else:
        bits = " ".join(f"{name}={int(value)}" for name, value in flags.items())
        print(f"{interval_to_text(interval)}  {bits}  canopy=({i},{j},{m})", file=out)
    return 0


def _cmd_sample(args, out) -> int:
    if args.count < 1:
        raise UnsupportedSize("--count must be at least 1")
    rng = RandomSource(args.seed)
    if args.format == "svg":
        if args.count != 1:
            raise TamariError("svg output requires --count 1")
        figure = render_blossoming(sample_blossoming(args.size, rng))
        _write_figure(figure, args.out, out)
        return 0
    with open(args.out, "w") if args.out else contextlib.nullcontext(out) as handle:
        for _ in range(args.count):
            if args.format == "interval":
                line = interval_to_text(sample_interval(args.size, rng))
            else:
                line = diagram_to_json(to_meandering(sample_blossoming(args.size, rng)))
            handle.write(line + "\n")
    return 0


def _write_figure(figure, path, out) -> None:
    if path:
        save(figure, path)
    else:
        out.write(figure.svg)


def _cmd_render(args, out) -> int:
    interval = interval_from_text(_read_object(args.interval))
    if args.style == "smooth":
        figure = render_smooth(interval)
    else:
        m = from_tree_pair(interval.lower, interval.upper)
        figure = _diagram_figure(m, buds=args.style == "blossoming")
    _write_figure(figure, args.out, out)
    return 0


def _cmd_series(args, out) -> int:
    coeffs = trivariate_coefficients(args.n)
    if args.json:
        payload = [
            {"i": i, "j": j, "m": m, "count": value}
            for (i, j, m), value in coeffs.items()
        ]
        print(json.dumps(payload, separators=(",", ":")), file=out)
    else:
        print("  i  j  m  count", file=out)
        for (i, j, m), value in coeffs.items():
            print(f"{i:3d}{j:3d}{m:3d}  {value}", file=out)
    return 0


def _cmd_tally(args, out) -> int:
    result = tally(args.n)
    if args.json:
        payload = {
            "n": result.n,
            "total": result.total,
            "families": {f.value: result.families[f] for f in Family},
            "self_dual": {f.value: result.self_dual[f] for f in Family},
            "self_dual_total": result.self_dual_total,
            "canopy_matches": {str(k): v for k, v in result.canopy_matches.items()},
        }
        print(json.dumps(payload, separators=(",", ":")), file=out)
    else:
        print(f"size {result.n}: {result.total} intervals", file=out)
        print(f"{'family':>22}  {'count':>8}  {'self-dual':>9}", file=out)
        for family in Family:
            print(
                f"{family.value:>22}  {result.families[family]:>8}"
                f"  {result.self_dual[family]:>9}",
                file=out,
            )
    return 0


def _cmd_verify(args, out) -> int:
    from .verify import run_checks  # only this command loads the oracle suite

    results = run_checks(max_n=args.max_n)
    failed = [r for r in results if not r.passed]
    if args.json:
        payload = [
            {
                "check": r.name,
                "passed": r.passed,
                "detail": r.detail,
                "checked": r.checked,
                "seconds": round(r.seconds, 4),
            }
            for r in results
        ]
        print(json.dumps(payload, separators=(",", ":")), file=out)
    else:
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            print(f"{status}  {r.name}  ({r.detail})", file=out)
        print(
            f"{len(results) - len(failed)}/{len(results)} checks passed "
            f"at max size {args.max_n}",
            file=out,
        )
    return 1 if failed else 0


_COMMANDS = {
    "count": _cmd_count,
    "enumerate": _cmd_enumerate,
    "map": _cmd_map,
    "unmap": _cmd_unmap,
    "classify": _cmd_classify,
    "sample": _cmd_sample,
    "render": _cmd_render,
    "series": _cmd_series,
    "tally": _cmd_tally,
    "verify": _cmd_verify,
}


def run(argv: list[str], out=None) -> int:
    """Parse and execute; returns the exit code.  Errors go to stderr as JSON."""
    out = sys.stdout if out is None else out
    try:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:  # only --help exits the parser
            return int(exc.code or 0)
        return _COMMANDS[args.command](args, out)
    except (TamariError, ArithmeticError, ValueError, KeyError, OSError, MemoryError) as exc:
        message = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(message, separators=(",", ":")), file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
