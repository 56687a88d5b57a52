import csv
import io
import json
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import pytest

from nlie import basis, cli, counting, terms


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def python_with_src(*argv, **kwargs):
    """A child interpreter with this checkout's src first on its path."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.Popen([sys.executable, *argv], env=env, **kwargs)


def parse_csv(text):
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    return list(csv.reader(io.StringIO("\n".join(lines))))


def test_count_ladder(capsys):
    code, out, _ = run(capsys, "count", "--n", "3", "--d", "3", "--w", "4",
                       "--method", "ladder")
    assert code == 0 and out.strip() == "6"


def test_count_witt(capsys):
    code, out, _ = run(capsys, "count", "--n", "2", "--d", "3", "--w", "4",
                       "--method", "witt")
    assert code == 0 and out.strip() == "18"


def test_count_oracle(capsys):
    code, out, _ = run(capsys, "count", "--n", "2", "--d", "2", "--w", "5",
                       "--method", "oracle")
    assert code == 0 and out.strip() == "6"


def test_count_inapplicable_method(capsys):
    code, out, err = run(capsys, "count", "--n", "3", "--d", "3", "--w", "4",
                         "--method", "witt")
    assert code == 1
    assert out == ""
    assert "does not apply" in err


def test_count_above_the_int_str_limit_is_one_line_error(capsys):
    code, out, err = run(capsys, "count", "--n", "2", "--d", "3", "--w", "99999",
                         "--method", "witt")
    assert (code, out) == (1, "")
    assert err == (
        "method witt cannot print its value at (n=2, d=3, w=99999): it has more "
        f"than {sys.get_int_max_str_digits()} digits, Python's int-to-str limit\n"
    )


# (argv, the start of the one stderr line): numbers past Python's
# int-to-str limit (4300 digits) in a bound message, and indices that are
# digits to str.isdigit but not to the grammar's INT
ONE_LINE_ERRORS = [
    (("count", "--n", "2", "--d", "1" + "0" * 1000, "--w", "5", "--method", "oracle"),
     "method oracle stopped by the oracle ceiling: <a 5000-digit number> monomials at "),
    (("count", "--n", "3", "--d", "1" + "0" * 2200, "--w", "3", "--method", "enum-left"),
     "method enum-left stopped by the enumeration cap: at least <a 4400-digit number> "),
    (("enumerate", "--n", "2", "--d", "5", "--w", "1" + "0" * 1100, "--mode", "left"),
     "<a 4400-digit number> basic commutators at (n=2, d=5, w=1000"),
    (("rewrite", "--n", "2", "[x\uff11,x2]"),
     "parse error: expected generator index after 'x' at position 2"),
    (("rewrite", "--n", "2", "x\u0663"),
     "parse error: expected generator index after 'x' at position 1"),
    (("rewrite", "--n", "2", "[x\u00b2,x1]"),
     "parse error: expected generator index after 'x' at position 2"),
    (("rewrite", "--n", "2", "[x\u0661,x2]"),
     "parse error: expected generator index after 'x' at position 2"),
]


@pytest.mark.parametrize("argv, start", ONE_LINE_ERRORS, ids=range(len(ONE_LINE_ERRORS)))
def test_bad_input_is_one_line_error(capsys, argv, start):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(start) and err.count("\n") == 1 and err.endswith("\n")


def test_compare_stops_at_the_first_unprintable_value(capsys):
    d = "1" + "0" * 1000  # WITT at w = 5 has 5000 digits; at w = 4, 4000
    code, out, err = run(capsys, "compare", "--n", "2", "--d", d, "--w-max", "5")
    assert code == 1
    assert err == (
        f"method WITT cannot print its value at (n=2, d={d}, w=5): it has more "
        f"than {sys.get_int_max_str_digits()} digits, Python's int-to-str limit\n"
    )
    rows = parse_csv(out)
    assert rows[0][:4] == ["n", "d", "w", "WITT"]
    assert [r[2] for r in rows[1:]] == ["1", "2", "3", "4"]  # the rows before that cell
    assert [r[counting.METHODS.index(counting.ORACLE) + 3] for r in rows[1:]] == [""] * 4


def test_count_with_a_cache_path_that_is_a_file(tmp_path, monkeypatch):
    # the real entry point, so the warning is shown as Python shows it
    path = tmp_path / "not-a-directory"
    path.write_text("")
    monkeypatch.setenv("NLIE_ORACLE_CACHE", str(path))
    proc = python_with_src(
        "-m", "nlie.cli", "count", "--n", "2", "--d", "2", "--w", "4", "--method", "oracle",
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    out, err = proc.communicate(timeout=60)
    assert (proc.returncode, out) == (0, "3\n")
    assert err == (
        f"warning: oracle cache file {path / 'cell_n2_d2_w4.json'} is unwritable "
        "(FileExistsError(17, 'File exists')); the value is not cached\n"
    )
    assert path.read_text() == ""


def test_enumerate_text(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "3", "--d", "3", "--w", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert "[[x3,x2,x1],x2,x1]" in lines


def test_enumerate_json_schema(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "3", "--d", "3", "--w", "3",
                       "--format", "json")
    assert code == 0
    for line in out.strip().splitlines():
        rec = json.loads(line)
        assert set(rec) == {"term", "weight", "length"}
        assert rec["weight"] == 3
        assert rec["length"] == 5


@pytest.mark.parametrize("cell", [(3, 4, 5), (4, 6, 5)])
@pytest.mark.parametrize("mode", ["full", "left"])
def test_enumerate_json_lines_are_json_dumps(monkeypatch, cell, mode):
    n, d, w = cell
    text, json_out = io.StringIO(), io.StringIO()
    args = ["enumerate", "--n", str(n), "--d", str(d), "--w", str(w), "--mode", mode]
    for out, extra in ((text, []), (json_out, ["--format", "json"])):
        monkeypatch.setattr(sys, "stdout", out)
        assert cli.main(args + extra) == 0
    length = terms.commutator_length(n, w)
    expected = [json.dumps({"term": t, "weight": w, "length": length})
                for t in text.getvalue().splitlines()]
    assert expected and json_out.getvalue().splitlines() == expected


def test_enumerate_modes_differ(capsys):
    _, full, _ = run(capsys, "enumerate", "--n", "3", "--d", "3", "--w", "4")
    _, left, _ = run(capsys, "enumerate", "--n", "3", "--d", "3", "--w", "4",
                     "--mode", "left")
    assert len(full.strip().splitlines()) == 7
    assert len(left.strip().splitlines()) == 6


class WriteThroughStdout(io.StringIO):
    """Stands in for stdout under PYTHONUNBUFFERED, where every write
    call is one system call; counts the calls."""

    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize("fmt, cell, count", [("text", (4, 6, 5), 88511),
                                              ("json", (3, 4, 5), 612)])
def test_enumerate_writes_in_blocks(monkeypatch, fmt, cell, count):
    n, d, w = cell
    items = basis.enumerate_basic(n, d, w, basis.EnumerationMode.FULL_RULE3)
    lines = [terms.format_term(t) for t in items]
    if fmt == "json":
        length = terms.commutator_length(n, w)
        lines = [json.dumps({"term": t, "weight": w, "length": length}) for t in lines]
    out = WriteThroughStdout()
    monkeypatch.setattr(sys, "stdout", out)
    assert cli.main(["enumerate", "--n", str(n), "--d", str(d), "--w", str(w),
                     "--format", fmt]) == 0
    assert len(lines) == count
    assert out.getvalue() == "".join(line + "\n" for line in lines)
    assert out.writes <= -(-count // cli.ENUMERATE_BLOCK_LINES) + 1


class ByteCounter:
    """Stands in for stdout and keeps only the number of bytes written."""

    def __init__(self):
        self.bytes = 0

    def write(self, text):
        self.bytes += len(text.encode())
        return len(text)


def test_enumerate_holds_less_than_its_output(monkeypatch):
    # the top weight is written as it is made: only the lower weights'
    # texts and the top weight's id tuples are held, not its 4.2 MB of text
    out = ByteCounter()
    monkeypatch.setattr(sys, "stdout", out)
    tracemalloc.start()
    try:
        assert cli.main(["enumerate", "--n", "4", "--d", "6", "--w", "5"]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.bytes == 4_160_017
    assert peak <= 14_000_000


def test_enumerate_refuses_the_cap_before_any_output(capsys):
    code, out, err = run(capsys, "enumerate", "--n", "3", "--d", "9", "--w", "7")
    assert (code, out) == (1, "")
    assert err == "basic commutators of weight 5 at (n=3, d=9, w=7) exceed cap 200000\n"


@pytest.mark.parametrize("unbuffered", ["1", None], ids=["unbuffered", "buffered"])
def test_enumerate_streams_to_a_reader_that_stops_early(monkeypatch, unbuffered):
    if unbuffered:
        monkeypatch.setenv("PYTHONUNBUFFERED", unbuffered)
    else:
        monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    proc = python_with_src(
        "-m", "nlie.cli", "enumerate", "--n", "4", "--d", "6", "--w", "5",
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert first == b"[[[[x4,x3,x2,x1],x3,x2,x1],x3,x2,x1],x3,x2,x1]\n"
    assert proc.returncode == 0 and err == b""


def test_cli_import_leaves_out_dataclasses():
    proc = python_with_src(
        "-S", "-c", "import sys, nlie.cli; print('dataclasses' in sys.modules)",
        stdout=subprocess.PIPE, text=True,
    )
    out, _ = proc.communicate(timeout=60)
    assert proc.returncode == 0 and out == "False\n"


def test_cli_import_leaves_out_json():
    # only the oracle's cell cache uses it
    proc = python_with_src(
        "-S", "-c", "import sys, nlie.cli; print('json' in sys.modules)",
        stdout=subprocess.PIPE, text=True,
    )
    out, _ = proc.communicate(timeout=60)
    assert proc.returncode == 0 and out == "False\n"


def test_cli_import_leaves_out_the_oracle():
    # a cold command that never asks the oracle does not compile it
    proc = python_with_src(
        "-S", "-c", "import sys, nlie.cli; print('nlie.oracle' in sys.modules)",
        stdout=subprocess.PIPE, text=True,
    )
    out, _ = proc.communicate(timeout=60)
    assert proc.returncode == 0 and out == "False\n"


PUBLIC_NAMES = [
    "EnumerationCapExceeded", "EnumerationMode",
    "InstanceCeilingExceeded", "LieExpansion", "NonbasicBreakdown",
    "RewriteTrace", "SignedTerm", "Term", "basis", "canonicalize", "collect",
    "collect_lc", "compare", "count_by_enumeration", "count_via_lie",
    "count_weight2", "counting", "enumerate_basic", "expand_jacobi",
    "format_term", "graded_dimension", "graded_monomials", "is_basic", "ladder",
    "ladder_recursive", "lc_format", "lcs_quotient_dim", "length",
    "lie_expansion", "membership", "moebius", "necklace_bound",
    "nonbasic_breakdown", "oracle", "parse", "relation_rows", "rewrite", "terms",
    "weight", "weight3_closed_form", "weight4_closed_form", "weightw_closed_form",
    "witt",
]


def child_output(code):
    """stdout of `code` run in a fresh interpreter without site packages."""
    proc = python_with_src("-S", "-c", code, stdout=subprocess.PIPE, text=True)
    out, _ = proc.communicate(timeout=60)
    assert proc.returncode == 0
    return out


LOADED = "print(sorted(m for m in sys.modules if m.startswith('nlie.')))"


# the stdlib packages that only some commands need: fractions (which
# loads decimal) and csv
UNUSED = ("csv", "decimal", "fractions")


def loaded_after_main(*argv, among=None):
    """The nlie modules, or given `among` those of its module names, that a
    fresh interpreter has loaded once `cli.main` has run `argv`, its stdout
    discarded."""
    report = LOADED if among is None else f"print(sorted(set({among!r}) & set(sys.modules)))"
    code = textwrap.dedent(f"""
        import contextlib, io, sys
        from nlie import cli
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main({list(argv)!r}) == 0
        {report}
    """)
    return child_output(code)


def test_count_loads_neither_basis_nor_rewrite():
    loaded = loaded_after_main("count", "--n", "3", "--d", "4", "--w", "3", "--method", "eq14")
    assert loaded == "['nlie.cli', 'nlie.counting']\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--n", "3", "--d", "5", "--w", "3", "--method", "eq14"),
        ("count", "--n", "3", "--d", "3", "--w", "6", "--method", "ladder-recursive"),
        ("table", "--which", "3"),
        ("table", "--which", "4"),
    ],
    ids=["count-eq14", "count-ladder-recursive", "table-3", "table-4"],
)
def test_closed_forms_load_neither_fractions_nor_csv(argv):
    assert loaded_after_main(*argv) == "['nlie.cli', 'nlie.counting']\n"
    assert loaded_after_main(*argv, among=UNUSED) == "[]\n"


def test_enumerate_loads_neither_fractions_nor_csv():
    for fmt in ("text", "json"):
        argv = ("enumerate", "--n", "3", "--d", "4", "--w", "4", "--format", fmt)
        assert loaded_after_main(*argv, among=("csv", "fractions")) == "[]\n"


def test_help_entry_point_loads_only_cli_and_counting():
    # the real `python -m nlie.cli` entry point; -v names every module it
    # loads, nlie.cli itself running as __main__
    proc = python_with_src(
        "-S", "-v", "-m", "nlie.cli", "--help",
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0 and out.startswith("usage: nlie")
    loaded = set(re.findall(r"^import '([\w.]+)'", err, re.MULTILINE))
    assert sorted(m for m in loaded if m.startswith("nlie")) == ["nlie", "nlie.counting"]
    assert loaded & {"nlie.terms", *UNUSED} == set()


def test_enumerate_loads_neither_rewrite_nor_the_oracle():
    loaded = loaded_after_main("enumerate", "--n", "3", "--d", "4", "--w", "4")
    assert loaded == "['nlie.basis', 'nlie.cli', 'nlie.counting', 'nlie.terms']\n"


def test_import_nlie_loads_no_submodule():
    assert child_output("import sys, nlie; " + LOADED) == "[]\n"


def test_a_public_name_loads_only_the_modules_it_needs():
    code = "import sys; from nlie import graded_dimension; " + LOADED
    assert child_output(code) == "['nlie.oracle', 'nlie.terms']\n"


def test_the_oracle_is_independent_of_the_predicate_and_the_closed_forms():
    # the oracle loads the term core alone, and the predicate no oracle
    assert child_output("import sys, nlie.oracle; " + LOADED) == "['nlie.oracle', 'nlie.terms']\n"
    assert "nlie.oracle" not in child_output("import sys, nlie.basis; " + LOADED)


def test_public_names_resolve_on_first_use():
    # dir() is read before any name is used; a name resolves when it is
    # one of the loaded submodules or the same object as in one of them
    code = textwrap.dedent("""
        import json, sys, nlie
        listed = sorted(set(nlie.__all__) - set(dir(nlie)))
        mods = ["basis", "counting", "oracle", "rewrite", "terms"]
        unresolved = []
        for name in nlie.__all__:
            obj = getattr(nlie, name)
            homes = [sys.modules[f"nlie.{m}"] for m in mods if f"nlie.{m}" in sys.modules]
            if obj not in homes and not any(getattr(h, name, None) is obj for h in homes):
                unresolved.append(name)
        try:
            nlie.no_such_name
            unknown = None
        except AttributeError as exc:
            unknown = str(exc)
        print(json.dumps([nlie.__all__, listed, unresolved, unknown]))
    """)
    names, not_in_dir, unresolved, unknown = json.loads(child_output(code))
    assert names == PUBLIC_NAMES
    assert not_in_dir == [] and unresolved == []
    assert unknown == "module 'nlie' has no attribute 'no_such_name'"


def test_rewrite(capsys):
    code, out, _ = run(capsys, "rewrite", "--n", "3", "[x1,x2,x3]")
    assert code == 0 and out.strip() == "-1*[x3,x2,x1]"
    code, out, _ = run(capsys, "rewrite", "--n", "3", "[x2,x1,x1]")
    assert code == 0 and out.strip() == "0"


def test_rewrite_parse_error(capsys):
    code, _, err = run(capsys, "rewrite", "--n", "3", "[x1,x2]")
    assert code == 1 and "parse error" in err


@pytest.mark.parametrize(
    "depth, message",
    [(1200, "parse error: term nested too deeply"),
     (700, "error: term nested too deeply to collect")],
)
def test_rewrite_deep_term_is_one_line_error(capsys, depth, message):
    # letters alternate, so collecting compares terms that differ deep down
    expr = "[" * depth + "x1" + "".join(f",x{2 - k % 2}]" for k in range(depth))
    code, out, err = run(capsys, "rewrite", "--n", "2", expr)
    assert code == 1
    assert out == ""
    assert err == message + "\n"


def test_rewrite_prints_a_deep_basic_term():
    # depth 900, basic: collected with no step, then keyed and formatted in
    # a cold interpreter, where term walks take one frame per level
    expr = "[" * 900 + "x2,x1]" + ",x1]" * 899
    proc = python_with_src(
        "-m", "nlie.cli", "rewrite", "--n", "2", expr,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    out, err = proc.communicate(timeout=60)
    assert (proc.returncode, out, err) == (0, f"+1*{expr}\n", "")  # 4506 bytes


def test_oracle_ceiling_zero_blanks_the_oracle(capsys):
    code, _, err = run(capsys, "count", "--n", "2", "--d", "2", "--w", "3",
                       "--method", "oracle", "--oracle-ceiling", "0")
    assert code == 1
    assert err == (
        "method oracle stopped by the oracle ceiling: "
        "2 monomials at (n=2, d=2, w=3) exceeds ceiling 0\n"
    )
    _, out, _ = run(capsys, "compare", "--n", "2", "--d", "2", "--w-max", "2",
                    "--oracle-ceiling", "0")
    rows = parse_csv(out)
    assert [dict(zip(rows[0], r))[counting.ORACLE] for r in rows[1:]] == ["", ""]


def test_count_names_the_enumeration_cap(capsys, monkeypatch):
    real = basis.count_by_enumeration
    monkeypatch.setattr(basis, "count_by_enumeration", lambda *a: real(*a, cap=10))
    code, out, err = run(capsys, "count", "--n", "3", "--d", "5", "--w", "6",
                         "--method", "enum-full")
    assert (code, out) == (1, "")
    assert err == (
        "method enum-full stopped by the enumeration cap: "
        "basic commutators of weight 3 at (n=3, d=5, w=6) exceed cap 10\n"
    )


@pytest.mark.parametrize("method", ["enum-full", "oracle"])
def test_count_at_a_large_n_prints_zero(capsys, method):
    # d < n: no brackets, and the weight profiles of 2000 parts are walked
    # without recursion
    code, out, err = run(capsys, "count", "--n", "2000", "--d", "3", "--w", "3",
                         "--method", method)
    assert (code, out, err) == (0, "0\n", "")


def test_enumerate_and_compare_at_a_large_n(capsys):
    assert run(capsys, "enumerate", "--n", "2000", "--d", "3", "--w", "3") == (0, "", "")
    code, out, err = run(capsys, "compare", "--n", "2000", "--d", "3", "--w-max", "3")
    assert (code, err) == (0, "")
    rows = parse_csv(out)
    cells = [dict(zip(rows[0], r)) for r in rows[1:]]
    assert [c[counting.ENUM_FULL] for c in cells] == ["3", "0", "0"]
    assert [c[counting.ORACLE] for c in cells] == ["3", "0", "0"]


def test_rewrite_budget_exhaustion(capsys):
    code, out, err = run(capsys, "rewrite", "--n", "3", "--budget", "0",
                         "[[[x3,x2,x1],x3,x2],x2,x1]")
    assert code == 2
    assert "budget" in err
    assert out.strip() != "0"
    assert "after 0 steps; 1 of 1 output terms are not basic" in err
    # a capped run names the steps it took and the non-basic terms it printed
    code, out, err = run(capsys, "rewrite", "--n", "3", "--budget", "3",
                         "[[[[x4,x3,x2],x4,x2],x3,x1],x4,x1]")
    assert code == 2
    printed = [terms.parse(part.split("*")[1], 3) for part in out.split()]
    assert len(printed) == 5
    assert sum(not basis.is_basic(u, 3) for u in printed) == 2
    assert err == ("warning: step budget exhausted after 3 steps; "
                   "2 of 5 output terms are not basic\n")


def test_table_2(capsys):
    code, out, _ = run(capsys, "table", "--which", "2")
    rows = parse_csv(out)
    assert code == 0
    assert rows[0] == ["n", "1", "2", "3", "4", "5", "6", "7", "8"]
    assert rows[4] == ["5", "1", "5", "9", "13", "17", "21", "25", "29"]


def test_table_3(capsys):
    code, out, _ = run(capsys, "table", "--which", "3")
    rows = parse_csv(out)
    assert code == 0
    # weight-6 row carries the 1,3,3,1 pattern
    w6 = next(r for r in rows if r[0] == "6")
    assert w6[1:5] == ["1", "3", "3", "1"]


def test_table_4(capsys):
    code, out, _ = run(capsys, "table", "--which", "4")
    assert code == 0
    assert out.splitlines()[0].startswith("#")
    rows = parse_csv(out)
    w4 = next(r for r in rows if r[0] == "4")
    assert w4[1:] == ["3", "6", "10", "15", "21", "28", "36", "45", "55"]


def test_table_5(capsys):
    code, out, _ = run(capsys, "table", "--which", "5")
    rows = parse_csv(out)
    n3 = next(r for r in rows if r[0] == "3")
    assert n3[1:3] == ["-1", "1/2"]
    assert n3[3] == ""  # l4 column empty for n=3, never 0


@pytest.mark.parametrize("which", ["2", "3", "4", "5"])
def test_table_writes_what_a_csv_writer_writes(capsys, which):
    # a table is joined with commas, not written by the csv module: its
    # fields never need quoting, so the bytes are the writer's
    code, out, _ = run(capsys, "table", "--which", which)
    assert code == 0
    written = io.StringIO()
    csv.writer(written, lineterminator="\n").writerows(parse_csv(out))
    assert "".join(l for l in out.splitlines(True) if not l.startswith("#")) == written.getvalue()


def test_compare_schema(capsys):
    code, out, _ = run(capsys, "compare", "--n", "3", "--d", "3",
                       "--w-max", "3")
    assert code == 0
    comments = [l for l in out.splitlines() if l.startswith("#")]
    assert len(comments) == 2
    rows = parse_csv(out)
    header = rows[0]
    assert header[:3] == ["n", "d", "w"]
    assert header[-1] == "flags"
    assert set(counting.METHODS) <= set(header)
    assert len(rows) == 4  # header + w = 1..3


def test_compare_columns_and_count_names_follow_methods(capsys):
    _, out, _ = run(capsys, "compare", "--n", "3", "--d", "3", "--w-max", "1")
    assert parse_csv(out)[0] == ["n", "d", "w", *counting.METHODS, "flags"]
    with pytest.raises(SystemExit):
        cli.main(["count", "--help"])
    choices = re.search(r"--method \{([^}]*)\}", capsys.readouterr().out).group(1)
    assert choices.split(",") == sorted(cli._METHOD_NAMES)
    assert sorted(cli._METHOD_NAMES.values()) == sorted(counting.METHODS)
    for tag in counting.METHODS:
        assert cli._METHOD_NAMES[tag.lower().replace("_", "-")] == tag


# Frozen output of `nlie compare --n 4 --d 4 --w-max 4`: pins the column
# order, the flag order and every value.
COMPARE_4_4_4 = """\
# reference count: WITT for n=2, LADDER for n=d, else ORACLE/ENUM_FULL
# empty fields: method not applicable or instance above the oracle ceiling
n,d,w,WITT,NECKLACE_BOUND,WEIGHT2,LADDER,LADDER_RECURSIVE,EQ14,EQ15,EQ16,VIA_LIE,ENUM_FULL,ENUM_LEFT,ORACLE,flags
4,4,1,,4,,4,4,,,,,4,4,4,
4,4,2,,60,1,1,1,,,,,1,1,1,
4,4,3,,2340,,4,4,11,,4,4,4,4,4,EQ14=11 vs LADDER=4
4,4,4,,104754,,10,10,,10,10,10,13,10,10,ENUM_FULL=13 vs LADDER=10
"""


def test_compare_output_frozen(capsys):
    code, out, _ = run(capsys, "compare", "--n", "4", "--d", "4", "--w-max", "4")
    assert code == 0
    assert out == COMPARE_4_4_4


def test_compare_flags_disagreements(capsys):
    _, out, _ = run(capsys, "compare", "--n", "4", "--d", "4", "--w-max", "3")
    assert "EQ14=11 vs LADDER=4" in out
    _, out, _ = run(capsys, "compare", "--n", "2", "--d", "2", "--w-max", "3")
    assert "EQ14=0 vs WITT=2" in out


def test_compare_empty_fields_not_zero(capsys):
    _, out, _ = run(capsys, "compare", "--n", "3", "--d", "4", "--w-max", "2")
    rows = parse_csv(out)
    header = rows[0]
    w1 = rows[1]
    cell = dict(zip(header, w1))
    assert cell[counting.WITT] == ""  # n != 2: not applicable, not "0"
    assert cell[counting.LADDER] == ""  # n != d


def test_discrepancy_flag_mechanism_synthetic():
    values = {
        counting.ORACLE: 99,
        counting.NECKLACE_BOUND: 5,
        counting.ENUM_FULL: 99,
    }
    flags = cli.discrepancy_flags(3, 4, values)
    assert "ORACLE=99 exceeds NECKLACE_BOUND=5" in flags
    values = {counting.WITT: 2, counting.EQ14: 0}
    flags = cli.discrepancy_flags(2, 2, values)
    assert flags == ["EQ14=0 vs WITT=2"]


def test_compare_flags_negative_counts(capsys):
    _, out, _ = run(capsys, "compare", "--n", "3", "--d", "7", "--w-max", "5")
    rows = {row[2]: row for row in parse_csv(out)[1:]}
    assert "EQ16=-210 is negative; VIA_LIE=-210 is negative" in rows["3"][-1]
    assert "EQ15=-2310 is negative; EQ16=-2310 is negative" in rows["4"][-1]
    assert rows["5"][-1].endswith("EQ16=-17710 is negative; VIA_LIE=-17710 is negative")
    assert "is negative" not in rows["1"][-1] + rows["2"][-1]


@pytest.mark.parametrize("w, value", [(3, "-210"), (4, "-2310")])
def test_count_notes_a_negative_value_on_stderr(capsys, w, value):
    code, out, err = run(capsys, "count", "--n", "3", "--d", "7", "--w", str(w), "--method", "eq16")
    assert (code, out) == (0, value + "\n")
    assert err == (
        f"note: method eq16 gives a negative value at (n=3, d=7, w={w}), "
        "which no count can be\n"
    )
    code, out, err = run(capsys, "count", "--n", "3", "--d", "7", "--w", str(w), "--method", "enum-left")
    assert code == 0 and int(out) > 0 and err == ""


@pytest.mark.parametrize(
    "argv, option",
    [
        (["count", "--n", "1", "--d", "2", "--w", "3", "--method", "oracle"], "--n"),
        (["count", "--n", "2", "--d", "0", "--w", "3", "--method", "witt"], "--d"),
        (["count", "--n", "2", "--d", "2", "--w", "0", "--method", "witt"], "--w"),
        (["enumerate", "--n", "1", "--d", "2", "--w", "3"], "--n"),
        (["rewrite", "--n", "2", "--budget", "-1", "[x1,x2]"], "--budget"),
        (["rewrite", "--n", "1", "x1"], "--n"),
        (["compare", "--n", "2", "--d", "2", "--w-max", "0"], "--w-max"),
        (["count", "--n", "3", "--d", "3", "--w", "4", "--method", "oracle",
          "--oracle-ceiling", "-5"], "--oracle-ceiling"),
        (["compare", "--n", "2", "--d", "2", "--w-max", "2",
          "--oracle-ceiling", "-1"], "--oracle-ceiling"),
    ],
)
def test_out_of_range_arguments_rejected_in_one_line(capsys, argv, option):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code != 0
    assert out == ""
    assert len(err.splitlines()) == 1
    assert f"argument {option}: must be >=" in err


def test_unknown_command_rejected(capsys):
    with pytest.raises(SystemExit):
        cli.main(["frobnicate"])
