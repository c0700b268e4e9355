"""Command line front end: enumerate, poset export, verify, series.

stdout carries only the requested data (JSON, CSV, or DOT) and is
byte-stable for fixed arguments; progress and timing go to stderr.  Exit
codes: 0 success, 1 failed verification or domain error, 2 usage or size
guard.

`_emit_json` is the one JSON writer.  It writes exactly
`json.dumps(obj, sort_keys=True)` and a newline, but streams: a list field
may be a generator, and its items are encoded and written in chunks, so
`enumerate` and `poset --emit json` never hold their rows or the output
text whole.  CSV rows and DOT lines are written straight to stdout.  So an
export that fails partway exits 1 with part of its data already on stdout:
stdout is whole only when the exit code is 0.  A broken pipe
(`... | head -1`) stops the command at exit code 1, with no traceback.
"""

import argparse
import csv
import json
import os
import sys
from collections.abc import Iterator
from itertools import islice

from .bijection import admissible_exponents
from .dissections import DEFAULT_MAX_MN, enumerate_dissections, is_final
from .errors import PolyflipError, SizeGuardExceeded
from .polynomials import _factor_rows, _lead_vector, _monomial_text, _product_text
from .poset import _dot_lines, _json_fields, build_poset
from .series import series_F, series_G, series_I, series_T
from .verify import run_suite

ENV_MAX_MN = "POLYFLIP_MAX_MN"


class _UsageError(Exception):
    """A usage error found after parsing, such as a bad environment value."""


def _max_mn() -> int:
    text = os.environ.get(ENV_MAX_MN, str(DEFAULT_MAX_MN))
    try:
        return int(text)
    except ValueError:
        raise _UsageError(f"{ENV_MAX_MN}={text!r} is not an integer") from None


def _positive(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not positive")
    return value


_ENCODER = json.JSONEncoder(sort_keys=True)
_CHUNK = 512  # list items encoded per write


def _json_chunks(obj):
    # json.dumps(obj, sort_keys=True) in pieces.  Dicts are walked; a list,
    # tuple or iterator, at the top or as a dict value, is encoded _CHUNK
    # items at a time, so a generator of rows is never held whole.  Anything
    # else, list items included, is encoded whole.
    if isinstance(obj, dict):
        yield "{"
        for k, (key, value) in enumerate(sorted(obj.items())):
            # the encoder's own text for the key: {key: 0} less "{" and ": 0}"
            yield ("" if k == 0 else ", ") + _ENCODER.encode({key: 0})[1:-4] + ": "
            yield from _json_chunks(value)
        yield "}"
    elif isinstance(obj, (list, tuple, Iterator)):
        yield "["
        items, sep = iter(obj), ""
        while batch := list(islice(items, _CHUNK)):
            # a list's text is its items' texts joined by ", "
            yield sep + _ENCODER.encode(batch)[1:-1]
            sep = ", "
        yield "]"
    else:
        yield _ENCODER.encode(obj)


def _emit_json(obj) -> None:
    """Write json.dumps(obj, sort_keys=True) and a newline to stdout, in
    chunks; list-valued fields may be given as iterators."""
    sys.stdout.writelines(_json_chunks(obj))
    sys.stdout.write("\n")


def _enumerate_row(q) -> dict:
    # One lookup per chord in the order's factor table, and no polynomial
    # or monomial built: rank (one factor per non-apex diagonal), vector
    # (phi(q)), poly and leading are all read off q's factor rows.  The
    # tuples go to the encoder as they are; `json` writes a tuple as a list.
    rows = _factor_rows(q)
    vector = admissible_exponents(q.m, _lead_vector(q.m, q.n, [r.lead for r in rows]))
    return {
        "diagonals": q.diagonals,
        "rank": len(rows),
        "vector": vector,
        "poly": _product_text([r.text for r in sorted(rows)]),
        "leading": _monomial_text(q.m, vector),
    }


def cmd_enumerate(args) -> int:
    elements = enumerate_dissections(args.m, args.n, _max_mn())
    if args.final:
        elements = [q for q in elements if is_final(q)]
    rows = map(_enumerate_row, elements)
    if args.format == "json":
        _emit_json({"m": args.m, "n": args.n, "count": len(elements), "items": rows})
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["rank", "diagonals", "vector", "poly", "leading"])
        for r in rows:
            writer.writerow(
                [
                    r["rank"],
                    " ".join(map("(%d,%d)".__mod__, r["diagonals"])),
                    " ".join(map(str, r["vector"])),
                    r["poly"],
                    r["leading"],
                ]
            )
    return 0


def cmd_poset(args) -> int:
    poset = build_poset(args.m, args.n, _max_mn())
    if args.emit == "dot":
        sys.stdout.writelines(_dot_lines(poset, args.label))
    else:
        _emit_json(_json_fields(poset))
    return 0


def cmd_verify(args) -> int:
    reports = run_suite(args.suite, args.m, args.n, max_mn=_max_mn())
    _emit_json([r.to_json() for r in reports])
    for r in reports:
        status = "pass" if r.passed else "FAIL"
        print(f"{r.suite}: {status} in {r.seconds:.2f}s", file=sys.stderr)
    return 0 if all(r.passed for r in reports) else 1


def _series_payload(which: str, m: int, order: int):
    if which == "G":
        g = series_G(m, order)
        return [list(g.coefficient(k).int_coeffs()) for k in range(1, order + 1)]
    build = {"T": series_T, "F": series_F, "I": series_I}[which]
    s = build(m, order)
    return [s.coefficient(k) for k in range(1, order + 1)]


def cmd_series(args) -> int:
    coeffs = _series_payload(args.which, args.m, args.order)
    if args.format == "json":
        _emit_json(
            {
                "m": args.m,
                "which": args.which,
                "order": args.order,
                "coefficients": coeffs,
            }
        )
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["n", "coefficient"])
        for k, c in enumerate(coeffs, start=1):
            writer.writerow([k, " ".join(str(x) for x in c) if isinstance(c, list) else c])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyflip",
        description="Exact combinatorics of polygon dissection flip orders.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list all dissections for (m, n)")
    p.add_argument("--m", type=_positive, required=True)
    p.add_argument("--n", type=_positive, required=True)
    p.add_argument("--final", action="store_true", help="final dissections only")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("poset", help="export the flip order")
    p.add_argument("--m", type=_positive, required=True)
    p.add_argument("--n", type=_positive, required=True)
    p.add_argument("--emit", choices=["dot", "json"], default="dot")
    p.add_argument(
        "--label", choices=["poly", "diagonals", "dyck"], default="poly"
    )
    p.set_defaults(func=cmd_poset)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--m", type=_positive, required=True)
    p.add_argument("--n", type=_positive, required=True)
    p.add_argument(
        "--suite",
        choices=[
            "all",
            "poset",
            "bijection",
            "divisibility",
            "qsym",
            "intervals",
            "series",
        ],
        default="all",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("series", help="print exact series coefficients")
    p.add_argument("--m", type=_positive, required=True)
    p.add_argument("--which", choices=["T", "F", "G", "I"], default="T")
    p.add_argument("--order", type=_positive, default=8)
    p.add_argument("--format", choices=["csv", "json"], default="json")
    p.set_defaults(func=cmd_series)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here at the latest
        return code
    except SizeGuardExceeded as exc:
        # Only the m*n guard (payload with max_mn) is lifted by the variable.
        lifts = "max_mn" in (exc.counterexample or {})
        hint = f" (override with {ENV_MAX_MN})" if lifts else ""
        print(f"size guard: {exc}{hint}", file=sys.stderr)
        return 2
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PolyflipError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # stdout to devnull: the flush at exit must not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
