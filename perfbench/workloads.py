"""The three workloads: set-up, one timed pass, checks, and the traced run.

Every workload is a closed loop with one client: items run one after
another, with at most one child process at a time.  A pass runs the
workload's whole fixed job once and returns one record per item:
{"id", "seconds", "failures"}; an item fails when any check on its output
fails, it raises, it exits non-zero or it times out.  Checks run outside
the timed part of an item.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import re
import statistics
import subprocess
import sys
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import expected
import guard
import inputs
import tracing

CHILD = Path(__file__).resolve().with_name("child.py")
CHILD_TIMEOUT_S = 150
PROBE_CALLS = 1000
PROBE_TERMS = 200
STARTUP_RUNS = 5


# --------------------------------------------------------------------------
# Child processes


def run_child(args, timeout=CHILD_TIMEOUT_S):
    """Run `python child.py args`; return (start, wall seconds, result, error)."""
    start = perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), *map(str, args)],
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return start, perf_counter() - start, None, "timeout"
    seconds = perf_counter() - start
    if proc.returncode != 0:
        last = proc.stderr.strip().splitlines()[-1:] or [""]
        return start, seconds, None, f"exit {proc.returncode}: {last[0]}"
    return start, seconds, json.loads(proc.stdout.splitlines()[-1]), None


def setup_in_child(workload: str, seed: int) -> tuple[float, float, float]:
    """Time one set-up in a child: (set-up seconds, start, end of the child)."""
    start, seconds, out, err = run_child(["setup", workload, seed])
    if err:
        raise RuntimeError(f"set-up of {workload} failed in a child: {err}")
    return out["setup_s"], start, start + seconds


# --------------------------------------------------------------------------
# Layer probes and the oracle breakdown


def probe_layers(raw_terms, n: int) -> dict:
    """Mean cost of canonicalize on raw terms, and of term_key and is_basic
    on their canonical forms: {name: [seconds, calls]}."""
    from nlie import basis, terms

    canon = [ct for s, ct in (terms.canonicalize(t, n) for t in raw_terms) if s]
    reps = max(1, PROBE_CALLS // max(1, len(raw_terms)))

    def clock(fn, args):
        start = perf_counter()
        for _ in range(reps):
            for a in args:
                fn(a, n)
        return [perf_counter() - start, reps * len(args)]

    return {
        "terms.canonicalize": clock(terms.canonicalize, raw_terms),
        "terms.term_key": clock(terms.term_key, canon),
        "basis.is_basic": clock(basis.is_basic, canon),
    }


def merge_probes(probes) -> dict:
    out: dict = {}
    for probe in probes:
        for name, (seconds, calls) in probe.items():
            acc = out.setdefault(name, [0.0, 0])
            acc[0] += seconds
            acc[1] += calls
    return {f"{name}_us": 1e6 * s / c for name, (s, c) in out.items() if c}


def check_cell(cell, out) -> list:
    """Compare an oracle cell against the frozen ladder values."""
    if tuple(cell) not in expected.LADDER:
        return []
    dim, monomials, rows, rank = expected.LADDER[tuple(cell)]
    want = {"dim": dim, "monomials": monomials, "rank": rank, "rows": rows}
    got = {"dim": out["dim"], "monomials": out["monomials"], "rank": out["monomials"] - out["dim"]}
    if "rows" in out:
        got["rows"] = out["rows"]
    return [f"{k} {v} != {want[k]}" for k, v in got.items() if v != want[k]]


def oracle_cells(cells, seed: int, ceiling=None, probe=True):
    """Run the traced layer sequence (graded_monomials, relation_rows,
    graded_dimension) cold in one child per cell.  Returns the items, the
    spans and the per-cell outputs."""
    items, span_lists, outs = [], [], []
    for cell in cells:
        args = ["cell", *cell, "--layers", "--trace"]
        if probe:
            args += ["--probe", seed]
        if ceiling is not None:
            args += ["--ceiling", ceiling]
        start, seconds, out, err = run_child(args)
        name = inputs.cell_name(*cell)
        if out is not None and out.get("skipped"):
            continue
        failures = [err] if err else check_cell(cell, out)
        items.append({"id": name, "start": start, "seconds": seconds, "failures": failures})
        if out is not None:
            span_lists.append(out["spans"])
            outs.append(out)
    return items, span_lists, outs


def oracle_breakdown(outs) -> tuple[dict, dict]:
    """Summed oracle layer metrics over cells, and the same per cell."""
    keys = ["monomials_s", "rows_s", "elim_s", "monomials", "rows", "rank"]
    summed = dict.fromkeys((f"oracle.{k}" for k in keys), 0)
    per_cell = {}
    for out in outs:
        spans = out["spans"]
        selfs = tracing.self_times(spans)
        rows_total = tracing.total(spans, "oracle.relation_rows")
        cell = {
            "oracle.monomials_s": tracing.total(spans, "oracle.graded_monomials"),
            "oracle.rows_s": sum(t for s, t in zip(spans, selfs) if s[0] == "oracle.relation_rows"),
            "oracle.elim_s": tracing.total(spans, "oracle.graded_dimension") - rows_total,
            "oracle.monomials": out["monomials"],
            "oracle.rows": out["rows"],
            "oracle.rank": out["monomials"] - out["dim"],
        }
        name = inputs.cell_name(*out["cell"])
        for key, value in cell.items():
            summed[key] += value
            per_cell[f"{key}.{name}"] = value
    summed["oracle.cells"] = len(outs)
    summed["oracle.redundant_rows"] = summed["oracle.rows"] - summed["oracle.rank"]
    rows = summed["oracle.rows"]
    summed["oracle.useful_row_ratio"] = summed["oracle.rank"] / rows if rows else 0.0
    return summed, per_cell


def traced_metrics(span_lists, outs, probes, traced: float, untraced: float, stdout_bytes: int = 0):
    """The per-layer metrics of a traced run, the report-only ones, and the
    merged spans.  `traced` and `untraced` are wall times of the same work
    with and without tracing."""
    spans = tracing.merge(span_lists)
    common, report = span_metrics(spans)
    summed, per_cell = oracle_breakdown(outs)
    metrics = {**summed, **common, **merge_probes(probes)}
    metrics["trace.overhead_frac"] = traced / untraced - 1
    metrics["cli.stdout_bytes"] = stdout_bytes
    return metrics, {**report, **per_cell}, spans


def span_metrics(spans) -> tuple[dict, dict]:
    """Per-layer metrics read off the spans of a traced run: those every
    workload reports, and the report-only ones."""
    acc = tracing.layer_totals(spans)
    busy = tracing.layer_busy(spans)
    steps = tracing.info_sum(spans, "rewrite.collect", "steps")
    collect_s = tracing.total(spans, "rewrite.collect")
    collects = [s[5] for s in tracing.by_name(spans, "rewrite.collect") if s[5]]
    common = {
        "oracle.membership_calls": len(tracing.by_name(spans, "oracle.membership")),
        "rewrite.steps": steps,
        "rewrite.capped": tracing.info_sum(spans, "rewrite.collect", "capped"),
        "rewrite.peak_work": max((info["peak_work"] for info in collects), default=0),
        "basis.enumerated": tracing.info_sum(spans, "basis.enumerate_basic", "enumerated"),
        "trace.wall_s": acc["wall_s"],
        "trace.unattributed_s": acc["unattributed_s"],
    }
    report = {f"self.{layer}_s": t for layer, t in sorted(acc["layers"].items())}
    report.update(
        {
            "oracle.membership_s": tracing.total(spans, "oracle.membership"),
            "rewrite.collect_s": collect_s,
            "rewrite.us_per_step": 1e6 * collect_s / steps if steps else None,
            "basis.enumerate_s": busy.get("basis", 0.0),
            "counting.count_s": busy.get("counting", 0.0),
        }
    )
    for cmd in ("compare", "enumerate", "table", "count", "rewrite"):
        report[f"cli.{cmd}_s"] = tracing.total(spans, f"cli.cmd_{cmd}")
    return common, report


# --------------------------------------------------------------------------
# oracle-ladder


def ladder_setup(seed: int) -> dict:
    guard.install()
    guard.check_child()
    cells = inputs.ladder_order(seed)
    return {"cells": cells, "inputs": cells}


def ladder_pass(ctx) -> list:
    items = []
    for cell in ctx["cells"]:
        start, seconds, out, err = run_child(["cell", *cell])
        failures = [err] if err else check_cell(cell, out)
        items.append(
            {"id": inputs.cell_name(*cell), "start": start, "seconds": seconds, "failures": failures}
        )
    return items


def ladder_traced(ctx, seed: int):
    untraced, traced_items, span_lists, outs = 0.0, [], [], []
    for cell in ctx["cells"]:
        *_, out, err = run_child(["cell", *cell, "--layers"])
        if err:
            traced_items.append({"id": inputs.cell_name(*cell), "seconds": 0.0, "failures": [err]})
            continue
        untraced += out["seconds"]
        items, spans, cell_outs = oracle_cells([cell], seed)
        traced_items += items
        span_lists += spans
        outs += cell_outs
    traced = sum(o["seconds"] for o in outs)
    probes = [o["probe"] for o in outs]
    metrics, report, spans = traced_metrics(span_lists, outs, probes, traced, untraced)
    return traced_items, metrics, report, spans


# --------------------------------------------------------------------------
# rewrite-corpus


def corpus_setup(seed: int) -> dict:
    guard.install()
    guard.check_child()
    from nlie import oracle

    items = inputs.rewrite_corpus(seed, inputs.load_strata())
    for n, d, w in inputs.CORPUS_PICKS:
        oracle.graded_dimension(n, d, w)
    return {"items": items, "inputs": [(i["cell"], inputs.format_term(i["term"])) for i in items]}


def corpus_item(item, tracer=None) -> dict:
    from nlie import basis, oracle, rewrite, terms

    (n, d, _), t = item["cell"], item["term"]
    name = f"{inputs.cell_name(*item['cell'])}:{inputs.format_term(t)}"
    failures = []
    start = perf_counter()
    try:
        with tracer.root("item", name) if tracer else nullcontext():
            lc, trace = rewrite.collect(t, n)
            diff = terms.lc_from_term(t, n)
            terms.lc_merge(diff, lc, -1)
            member = oracle.membership(diff, n, d)
    except Exception as exc:  # an item that raises fails; the loop goes on
        seconds = perf_counter() - start
        return {"id": name, "start": start, "seconds": seconds, "failures": [f"exception: {exc!r}"]}
    seconds = perf_counter() - start
    if trace.capped:
        failures.append("capped")
    if not member:
        failures.append("t - collect(t) is not in the relation span")
    try:
        nonbasic = [u for u in lc if not basis.is_basic(u, n)]
    except ValueError as exc:
        nonbasic = [str(exc)]
    if nonbasic:
        failures.append(f"{len(nonbasic)} output terms are not basic")
    return {"id": name, "start": start, "seconds": seconds, "failures": failures, "outputs": list(lc)}


def corpus_pass(ctx) -> list:
    return [corpus_item(item) for item in ctx["items"]]


def corpus_traced(ctx, seed: int):
    def untraced_pass() -> float:
        gc.collect()
        return sum(r["seconds"] for r in corpus_pass(ctx))

    # untraced passes on both sides of the traced one, so drift in machine
    # speed does not show up as tracing overhead
    before = untraced_pass()
    tracer = tracing.Tracer()
    gc.collect()
    with tracer.wrapped():
        results = [corpus_item(item, tracer) for item in ctx["items"]]
    traced = sum(r["seconds"] for r in results)
    untraced = (before + untraced_pass()) / 2
    cell_items, span_lists, outs = oracle_cells(list(inputs.CORPUS_PICKS), seed, probe=False)
    probes = []
    for n in sorted({item["cell"][0] for item in ctx["items"]}):
        mine = [(r, i) for r, i in zip(results, ctx["items"]) if i["cell"][0] == n]
        raw = [i["term"] for _, i in mine] + [u for r, _ in mine for u in r.get("outputs", [])]
        probes.append(probe_layers(inputs.probe_sample(raw, PROBE_TERMS, seed, f"corpus-n{n}"), n))
    span_lists = [tracer.spans, *span_lists]
    metrics, report, spans = traced_metrics(span_lists, outs, probes, traced, untraced)
    return results + cell_items, metrics, report, spans


# --------------------------------------------------------------------------
# cli-session


def cli_setup(seed: int) -> dict:
    guard.install()
    guard.check_child()
    script = inputs.cli_script(seed, inputs.load_strata())
    return {"script": script, "inputs": script}


def summarize_output(argv, rc, out: bytes) -> dict:
    summary = {
        "id": " ".join(argv),
        "rc": rc,
        "sha256": hashlib.sha256(out).hexdigest(),
        "bytes": len(out),
    }
    if argv[0] == "rewrite":
        summary["text"] = out.decode()
    return summary


def _parse_lc(text: str, n: int) -> dict:
    from nlie import terms

    lc: dict = {}
    if text.strip() == "0":
        return lc
    for token in text.split():
        coeff, term = token.split("*", 1)
        terms.lc_add(lc, terms.parse(term, n), Fraction(coeff))
    return lc


def check_rewrite(argv, text: str) -> list:
    """The output of `rewrite` is basic and congruent to its input."""
    from nlie import basis, oracle, terms

    n, expr = int(argv[2]), argv[3]
    t = terms.parse(expr, n)
    lc = _parse_lc(text, n)
    failures = []
    try:
        if not all(basis.is_basic(u, n) for u in lc):
            failures.append("output has a non-basic term")
    except ValueError as exc:
        failures.append(str(exc))
    diff = terms.lc_from_term(t, n)
    terms.lc_merge(diff, lc, -1)
    d = max(int(x) for x in re.findall(r"x(\d+)", expr))
    if not oracle.membership(diff, n, d):
        failures.append("input - output is not in the relation span")
    return failures


def check_cli(summary) -> list:
    if summary["rc"] != 0:
        return [f"exit code {summary['rc']}"]
    want = expected.CLI.get(summary["id"])
    if want is not None:
        if (summary["sha256"], summary["bytes"]) != want:
            return ["stdout differs from the expected output"]
        return []
    try:
        return check_rewrite(summary["id"].split(" ", 3), summary["text"])
    except Exception as exc:  # malformed output fails the item
        return [f"cannot check output: {exc!r}"]


def cli_command(argv) -> dict:
    start = perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "nlie.cli", *argv], capture_output=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        seconds = perf_counter() - start
        return {"id": " ".join(argv), "start": start, "seconds": seconds, "failures": ["timeout"]}
    seconds = perf_counter() - start
    summary = summarize_output(argv, proc.returncode, proc.stdout)
    return cli_item(summary, start, seconds)


def cli_item(summary, start: float, seconds: float) -> dict:
    failures = check_cli(summary)
    return {
        "id": summary["id"],
        "start": start,
        "seconds": seconds,
        "failures": failures,
        "bytes": summary["bytes"],
    }


def cli_pass(ctx) -> list:
    return [cli_command(argv) for argv in ctx["script"]]


def cli_inprocess(script, tracer) -> list:
    """Run the script through cli.main in this process, stdout captured."""
    from nlie import cli

    out = []
    for argv in script:
        buf, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        with tracer.root("command", " ".join(argv)), redirect_stdout(buf), redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code or 0
        seconds = perf_counter() - start
        summary = summarize_output(argv, rc, buf.getvalue().encode())
        out.append({**summary, "start": start, "seconds": seconds})
    return out


def cli_traced(ctx, seed: int):
    *_, base, err = run_child(["cli-pass", seed])
    if err:
        raise RuntimeError(f"untraced in-process pass failed: {err}")
    *_, run, err = run_child(["cli-pass", seed, "--trace"])
    if err:
        raise RuntimeError(f"traced in-process pass failed: {err}")
    results = [cli_item(s, s["start"], s["seconds"]) for s in run["commands"]]
    compare_cells = []
    for argv in ctx["script"]:
        if argv[0] == "compare":
            n, d, w_max = int(argv[2]), int(argv[4]), int(argv[6])
            compare_cells += [(n, d, w) for w in range(3, w_max + 1)]
    from nlie import cli

    ceiling = cli.DEFAULT_COMPARE_ORACLE_CEILING
    cell_items, span_lists, outs = oracle_cells(compare_cells, seed, ceiling=ceiling)
    traced = sum(c["seconds"] for c in run["commands"])
    untraced = sum(c["seconds"] for c in base["commands"])
    probes = [o["probe"] for o in outs]
    stdout_bytes = sum(r["bytes"] for r in results)
    metrics, report, spans = traced_metrics(
        [run["spans"], *span_lists], outs, probes, traced, untraced, stdout_bytes
    )
    startup = [cli_command(["--help"])["seconds"] for _ in range(STARTUP_RUNS)]
    report["cli.startup_s"] = statistics.median(startup)
    return results + cell_items, metrics, report, spans


WORKLOADS = {
    "oracle-ladder": {
        "setup": ladder_setup,
        "pass": ladder_pass,
        "traced": ladder_traced,
        "rss": "children",
    },
    "rewrite-corpus": {
        "setup": corpus_setup,
        "pass": corpus_pass,
        "traced": corpus_traced,
        "rss": "self",
    },
    "cli-session": {
        "setup": cli_setup,
        "pass": cli_pass,
        "traced": cli_traced,
        "rss": "children",
    },
}
