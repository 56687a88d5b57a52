"""Command-line surface: counts, enumeration, rewriting, table
reproduction, and the cross-method discrepancy report.

The comparison report is CSV with RFC-4180-style quoting (via the csv
module).  A table's fields are integers, fractions, empty fields and
plain header names, which CSV never quotes, so a table is joined with
commas and does not load csv.  The comparison report documents its
reference policy in a leading comment line; empty fields mean "not
applicable" or "uncomputed", never 0.

Each command imports only the modules it runs, from inside the
functions that run them: `--help`, `table --which 3|4` and the
closed-form counts but necklace-bound and via-lie load `nlie.counting`
alone.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from itertools import islice

from . import counting

DEFAULT_COMPARE_ORACLE_CEILING = 2_000

# `enumerate` writes its lines in blocks of this many, one write call
# each: under write-through stdout (PYTHONUNBUFFERED) a write per line
# is a system call per line, and a bounded block joins a small string
ENUMERATE_BLOCK_LINES = 1024

_METHOD_NAMES = {tag.lower().replace("_", "-"): tag for tag in counting.METHODS}


# the enumeration count-method tags, by their `enumerate --mode` name:
# the tag without its ENUM_ prefix
_MODE_NAMES = {
    tag.removeprefix("ENUM_").lower(): tag for tag in (counting.ENUM_FULL, counting.ENUM_LEFT)
}


def _enum_mode(tag: str):
    """The `basis.EnumerationMode` of an enumeration count-method tag.
    Only a command that enumerates imports `nlie.basis`."""
    from . import basis

    return {
        counting.ENUM_FULL: basis.EnumerationMode.FULL_RULE3,
        counting.ENUM_LEFT: basis.EnumerationMode.LEFT_NORMED,
    }[tag]


def _bounds() -> dict:
    """The bounds that can stop a method, by the exception they raise.
    An except clause calls this only once something is raised, so a
    command that never asks the oracle never imports `nlie.oracle`."""
    from . import basis, oracle

    return {
        basis.EnumerationCapExceeded: "enumeration cap",
        oracle.InstanceCeilingExceeded: "oracle ceiling",
    }


def _cell_value(tag: str, n: int, d: int, w: int, oracle_ceiling: int):
    """Value of one method on one cell, or None when it does not apply.
    Raises one of the `_bounds()` exceptions when a bound stops it."""
    if tag in _MODE_NAMES.values():
        from . import basis

        return basis.count_by_enumeration(n, d, w, _enum_mode(tag))
    if tag == counting.ORACLE:
        from . import oracle

        return oracle.graded_dimension(n, d, w, ceiling=oracle_ceiling)
    return counting.count_by_method(tag, n, d, w)


class _Unprintable(ValueError):
    """A value with more digits than Python's int-to-str limit."""


def _value_text(method: str, value, n: int, d: int, w: int) -> str:
    """str(value), or _Unprintable naming the method and cell."""
    try:
        return str(value)
    except ValueError:  # raised only where Python limits int-to-str digits
        raise _Unprintable(
            f"method {method} cannot print its value at (n={n}, d={d}, w={w}): it has "
            f"more than {sys.get_int_max_str_digits()} digits, Python's int-to-str limit"
        ) from None


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
        text = _value_text(args.method, value, args.n, args.d, args.w)
    except _Unprintable as exc:
        print(exc, file=sys.stderr)
        return 1
    print(text)
    if value < 0:
        print(
            f"note: method {args.method} gives a negative value at (n={args.n}, d={args.d}, "
            f"w={args.w}), which no count can be",
            file=sys.stderr,
        )
    return 0


def cmd_enumerate(args) -> int:
    from . import basis, terms

    mode = _enum_mode(_MODE_NAMES[args.mode])
    try:
        lines = basis.iter_basic(args.n, args.d, args.w, mode, text=True)
    except basis.EnumerationCapExceeded as exc:
        print(str(exc), file=sys.stderr)
        return 1
    if args.format == "json":  # texts of [ ] , x and digits, which JSON never escapes
        length = terms.commutator_length(args.n, args.w)
        lines = (f'{{"term": "{t}", "weight": {args.w}, "length": {length}}}' for t in lines)
    while block := list(islice(lines, ENUMERATE_BLOCK_LINES)):
        sys.stdout.write("\n".join(block) + "\n")
    return 0


def cmd_rewrite(args) -> int:
    from . import basis, rewrite, terms

    try:
        t = terms.parse(args.expr, args.n)
    except ValueError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        print("parse error: term nested too deeply", file=sys.stderr)
        return 1
    try:
        budget = rewrite.DEFAULT_STEP_BUDGET if args.budget is None else args.budget
        lc, trace = rewrite.collect(t, args.n, cap=budget)
        text = terms.lc_format(lc, args.n)
        if trace.capped:
            steps = sum(step[0] == rewrite.JACOBI for step in trace.steps)
            nonbasic = sum(not basis.is_basic(u, args.n) for u in lc)
    except RecursionError:
        print("error: term nested too deeply to collect", file=sys.stderr)
        return 1
    print(text)
    if trace.capped:
        print(
            f"warning: step budget exhausted after {steps} step{'s' * (steps != 1)}; "
            f"{nonbasic} of {len(lc)} output terms are not basic",
            file=sys.stderr,
        )
        return 2
    return 0


def _table2_rows():
    from . import terms

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
    text = "".join(",".join(row) + "\n" for row in rows)
    if args.which == 4:
        text = "# n=2 column: Witt formula; n>=3 columns: ladder closed form\n" + text
    sys.stdout.write(text)
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
    with the reference, every count exceeding the necklace bound, and
    every negative count, which no dimension can be."""
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
    flags += [f"{tag}={v} is negative" for tag, v in counts if v < 0]
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
        row = [str(n), str(d), str(w)]
        row += [
            "" if values[t] is None else _value_text(t, values[t], n, d, w)
            for t in counting.METHODS
        ]
        row.append("; ".join(discrepancy_flags(n, d, values)))  # every value prints
        yield row


def cmd_compare(args) -> int:
    import csv  # flags are free text, quoted should they ever need it

    print("# reference count: WITT for n=2, LADDER for n=d, else ORACLE/ENUM_FULL")
    print("# empty fields: method not applicable or instance above the oracle ceiling")
    writer = csv.writer(sys.stdout, lineterminator="\n")
    try:
        for row in compare_rows(args.n, args.d, args.w_max, args.oracle_ceiling):
            writer.writerow(row)
    except _Unprintable as exc:
        print(exc, file=sys.stderr)
        return 1
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
    # None stands for rewrite.DEFAULT_STEP_BUDGET, read only when rewriting
    r.add_argument("--budget", type=_int_at_least(0))
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


def _warning_line(message, *_):
    """Shows a warning as one line on stderr, with no source line."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _warning_line
        try:
            return args.func(args)
        except BrokenPipeError:
            return 0


if __name__ == "__main__":
    sys.exit(main())
