"""Command-line surface: counts, enumeration, rewriting, table
reproduction, and the cross-method discrepancy report.

CSV output uses RFC-4180-style quoting (via the csv module).  The
comparison report documents its reference policy in a leading comment
line; empty fields mean "not applicable" or "uncomputed", never 0.
"""

from __future__ import annotations

import argparse
import csv
import sys

from . import basis, counting, rewrite, terms

DEFAULT_COMPARE_ORACLE_CEILING = 2_000

# `enumerate` writes its lines in blocks of this many, one write call
# each: under write-through stdout (PYTHONUNBUFFERED) a write per line
# is a system call per line, and a bounded block joins a small string
ENUMERATE_BLOCK_LINES = 1024

_METHOD_NAMES = {tag.lower().replace("_", "-"): tag for tag in counting.METHODS}


# enumeration modes by their count-method tag, and by their `enumerate
# --mode` name: the tag without its ENUM_ prefix
_ENUM_MODES = {
    counting.ENUM_FULL: basis.EnumerationMode.FULL_RULE3,
    counting.ENUM_LEFT: basis.EnumerationMode.LEFT_NORMED,
}
_MODE_NAMES = {
    tag.removeprefix("ENUM_").lower(): mode for tag, mode in _ENUM_MODES.items()
}


def _bounds() -> dict:
    """The bounds that can stop a method, by the exception they raise.
    An except clause calls this only once something is raised, so a
    command that never asks the oracle never imports `nlie.oracle`."""
    from . import oracle

    return {
        basis.EnumerationCapExceeded: "enumeration cap",
        oracle.InstanceCeilingExceeded: "oracle ceiling",
    }


def _cell_value(tag: str, n: int, d: int, w: int, oracle_ceiling: int):
    """Value of one method on one cell, or None when it does not apply.
    Raises one of the `_bounds()` exceptions when a bound stops it."""
    if tag in _ENUM_MODES:
        return basis.count_by_enumeration(n, d, w, _ENUM_MODES[tag])
    if tag == counting.ORACLE:
        from . import oracle

        return oracle.graded_dimension(n, d, w, ceiling=oracle_ceiling)
    return counting.count_by_method(tag, n, d, w)


def cmd_count(args) -> int:
    try:
        value = _cell_value(
            _METHOD_NAMES[args.method], args.n, args.d, args.w, args.oracle_ceiling
        )
    except tuple(_bounds()) as exc:
        print(
            f"method {args.method} stopped by the {_bounds()[type(exc)]}: {exc}",
            file=sys.stderr,
        )
        return 1
    if value is None:
        print(
            f"method {args.method} does not apply to (n={args.n}, d={args.d}, w={args.w})",
            file=sys.stderr,
        )
        return 1
    try:
        text = str(value)
    except ValueError:  # raised only where Python limits int-to-str digits
        print(
            f"method {args.method} cannot print its value at (n={args.n}, d={args.d}, "
            f"w={args.w}): it has more than {sys.get_int_max_str_digits()} digits, "
            "Python's int-to-str limit",
            file=sys.stderr,
        )
        return 1
    print(text)
    return 0


def cmd_enumerate(args) -> int:
    try:
        lines = basis.enumerate_basic(args.n, args.d, args.w, _MODE_NAMES[args.mode], text=True)
    except basis.EnumerationCapExceeded as exc:
        print(str(exc), file=sys.stderr)
        return 1
    if args.format == "json":
        import json

        rec = {"weight": args.w, "length": terms.commutator_length(args.n, args.w)}
        lines = [json.dumps({"term": t, **rec}) for t in lines]
    for i in range(0, len(lines), ENUMERATE_BLOCK_LINES):
        sys.stdout.write("\n".join(lines[i : i + ENUMERATE_BLOCK_LINES]) + "\n")
    return 0


def cmd_rewrite(args) -> int:
    try:
        t = terms.parse(args.expr, args.n)
    except ValueError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        print("parse error: term nested too deeply", file=sys.stderr)
        return 1
    try:
        lc, trace = rewrite.collect(t, args.n, cap=args.budget)
        text = terms.lc_format(lc, args.n)
    except RecursionError:
        print("error: term nested too deeply to collect", file=sys.stderr)
        return 1
    print(text)
    if trace.capped:
        print("warning: step budget exhausted; residual terms may be non-basic", file=sys.stderr)
        return 2
    return 0


def _table2_rows():
    yield ["n"] + [str(w) for w in range(1, 9)]
    for n in range(2, 9):
        yield [str(n)] + [str(terms.commutator_length(n, w)) for w in range(1, 9)]


def _table3_rows():
    yield ["w"] + [f"a{i}" for i in range(1, 9)]
    for w in range(4, 11):
        coeffs = {i: a for a, i in counting._ladder_coeffs(w)}
        yield [str(w)] + [str(coeffs[i]) if i in coeffs else "" for i in range(1, 9)]


def _table4_rows():
    yield ["w"] + [str(n) for n in range(2, 11)]
    for w in range(1, 11):
        yield [str(w)] + [str(counting.ladder(n, w)) for n in range(2, 11)]


def _table5_rows():
    yield ["n"] + [f"l{s}" for s in range(2, 11)]
    for n in range(2, 11):
        exp = counting.lie_expansion(n)
        row = [str(n)]
        for s in range(2, 11):
            row.append(str(exp.coefficients[s]) if s <= n else "")
        yield row


def cmd_table(args) -> int:
    rows = {2: _table2_rows, 3: _table3_rows, 4: _table4_rows, 5: _table5_rows}[
        args.which
    ]()
    writer = csv.writer(sys.stdout, lineterminator="\n")
    if args.which == 4:
        print("# n=2 column: Witt formula; n>=3 columns: ladder closed form")
    for row in rows:
        writer.writerow(row)
    return 0


def _reference_method(n: int, d: int, values: dict):
    if n == 2 and values.get(counting.WITT) is not None:
        return counting.WITT
    if n == d and values.get(counting.LADDER) is not None:
        return counting.LADDER
    for tag in (counting.ORACLE, counting.ENUM_FULL):
        if values.get(tag) is not None:
            return tag
    return None


def discrepancy_flags(n: int, d: int, values: dict) -> list[str]:
    """Flag strings for one cell: every populated count that disagrees
    with the reference, and every count exceeding the necklace bound."""
    counts = [
        (tag, values[tag])
        for tag in counting.METHODS
        if tag != counting.NECKLACE_BOUND and values.get(tag) is not None
    ]
    flags = []
    ref = _reference_method(n, d, values)
    if ref is not None:
        rv = values[ref]
        flags += [
            f"{tag}={v} vs {ref}={rv}" for tag, v in counts if tag != ref and v != rv
        ]
    bound = values.get(counting.NECKLACE_BOUND)
    if bound is not None:
        flags += [
            f"{tag}={v} exceeds NECKLACE_BOUND={bound}" for tag, v in counts if v > bound
        ]
    return flags


def compare_rows(n: int, d: int, w_max: int, oracle_ceiling: int):
    """Rows of the comparison report: header, then one row per weight."""
    yield ["n", "d", "w"] + list(counting.METHODS) + ["flags"]
    for w in range(1, w_max + 1):
        values = {}
        for tag in counting.METHODS:
            try:
                values[tag] = _cell_value(tag, n, d, w, oracle_ceiling)
            except tuple(_bounds()):
                values[tag] = None
        flags = discrepancy_flags(n, d, values)
        row = [str(n), str(d), str(w)]
        row += ["" if values[t] is None else str(values[t]) for t in counting.METHODS]
        row.append("; ".join(flags))
        yield row


def cmd_compare(args) -> int:
    print("# reference count: WITT for n=2, LADDER for n=d, else ORACLE/ENUM_FULL")
    print("# empty fields: method not applicable or instance above the oracle ceiling")
    writer = csv.writer(sys.stdout, lineterminator="\n")
    for row in compare_rows(args.n, args.d, args.w_max, args.oracle_ceiling):
        writer.writerow(row)
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports bad input as one line on stderr (no usage block), exit 2."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _int_at_least(low: int):
    def convert(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    convert.__name__ = "int"  # argparse's "invalid int value" message
    return convert


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="nlie",
        description="Basic commutators of free n-Lie algebras: counting, "
        "enumeration, rewriting, and exact validation.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("count", help="evaluate one counting method on one cell")
    c.add_argument("--n", type=_int_at_least(2), required=True)
    c.add_argument("--d", type=_int_at_least(1), required=True)
    c.add_argument("--w", type=_int_at_least(1), required=True)
    c.add_argument("--method", choices=sorted(_METHOD_NAMES), required=True)
    c.add_argument(
        "--oracle-ceiling", type=_int_at_least(0), default=DEFAULT_COMPARE_ORACLE_CEILING
    )
    c.set_defaults(func=cmd_count)

    e = sub.add_parser("enumerate", help="list basic commutators")
    e.add_argument("--n", type=_int_at_least(2), required=True)
    e.add_argument("--d", type=_int_at_least(1), required=True)
    e.add_argument("--w", type=_int_at_least(1), required=True)
    e.add_argument("--mode", choices=list(_MODE_NAMES), default="full")
    e.add_argument("--format", choices=["text", "json"], default="text")
    e.set_defaults(func=cmd_enumerate)

    r = sub.add_parser("rewrite", help="collect a bracket expression into basic form")
    r.add_argument("--n", type=_int_at_least(2), required=True)
    r.add_argument("--budget", type=_int_at_least(0), default=rewrite.DEFAULT_STEP_BUDGET)
    r.add_argument("expr")
    r.set_defaults(func=cmd_rewrite)

    t = sub.add_parser("table", help="reproduce a reference table as CSV")
    t.add_argument("--which", type=int, choices=[2, 3, 4, 5], required=True)
    t.set_defaults(func=cmd_table)

    m = sub.add_parser("compare", help="cross-method discrepancy report")
    m.add_argument("--n", type=_int_at_least(2), required=True)
    m.add_argument("--d", type=_int_at_least(1), required=True)
    m.add_argument("--w-max", type=_int_at_least(1), required=True)
    m.add_argument(
        "--oracle-ceiling", type=_int_at_least(0), default=DEFAULT_COMPARE_ORACLE_CEILING
    )
    m.set_defaults(func=cmd_compare)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
