"""Benchmark of nlie, run against this checkout's src/.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 it times the workload with tracing off and prints the
end-to-end metrics; with --trace 1 it prints the per-layer metrics of a
traced run on the same inputs.  Human-readable lines come first (every
metric by name and unit, the seed, a digest of the inputs, the failed
share); the last line is one JSON object
{"correct", "attempted", "failed", "metrics"}.  The full record (and, when
traced, the spans) is written to perfbench/out/.  Without a src/nlie
package next to perfbench/ it exits with status 2 and prints no result.

Workloads (closed loop, one client, at most one child process at a time):

  oracle-ladder   one oracle.graded_dimension call per ROADMAP ladder cell,
                  (2,2,8) (2,2,10) (2,3,6) (2,3,7) (3,3,6) (3,4,5) (3,5,4)
                  (4,5,4), each cold in its own interpreter with no cell
                  cache: what `nlie count --method oracle` costs.  This is
                  where ground truth costs time; row generation and
                  canonicalization do about 90 % of it, while rewrite and
                  the basic predicate are idle (the oracle is independent
                  of them by design), so it isolates `oracle` and `terms`.
                  The seed orders the cells; values are checked against
                  frozen literals (expected.py).
  rewrite-corpus  rewrite.collect(t), then oracle.membership(t - collect(t)),
                  timed as one item, for a stratified seeded corpus of 248
                  left-normed terms: n=2 words on 2-3 letters at weights
                  7-9 (heavy-tailed, up to ~300 steps) and n=3, n=4
                  brackets of distinct letters (0-16 steps).  The relation
                  spaces of its cells are built during set-up.  It
                  exercises rewrite, basis.is_basic and terms, and reads
                  the oracle instead of building it, so a build-side
                  change that slows queries shows here.  Per-item latency
                  is what an interactive `nlie rewrite` waits for.  An item
                  fails when capped, when t - collect(t) is not a member,
                  or when an output term is not basic; none is filtered.
  cli-session     a fixed script of `python -m nlie.cli` subprocesses: all
                  four tables, `count` with every closed-form method,
                  `enumerate` in both modes up to (4,6,5) (88 511 lines),
                  three `compare` runs under the default oracle ceiling,
                  and one seeded `rewrite` per cell of
                  inputs.CLI_REWRITE_CELLS, in seeded order.  The only
                  workload that pays interpreter and import start-up, CSV
                  and JSON output and basis enumeration, and many small
                  cold oracle cells, so a gain on big cells that costs
                  small ones shows here.  Stdout is checked against frozen
                  digests; `rewrite` output is checked to be basic and
                  congruent to its input.

End-to-end metrics (--trace 0), each the median over the run.  Times are
paced (pace.py): the benchmark and its children run pinned to one CPU,
a thread samples the machine's speed with a fixed kernel every 20 ms, and
each measured time is scaled to the reference speed of that kernel, so
that drift in the speed of a shared machine does not read as a change in
nlie.  The raw times are printed beside them (setup_raw_s, wall_raw_s),
with machine_slowness, the run's median kernel time over the reference.

  setup_s      time before the first timed item (imports, inputs, the
               guard's child interpreter and, for rewrite-corpus, the
               relation-space builds), set up at least SETUP_RUNS times
               and until the set-ups total SETUP_SECONDS: once here, the
               rest in child processes run between passes
  wall_s       time of the workload's whole fixed job (a pass), each item
               taken at its median over the run's passes; passes repeat
               until they have taken --seconds.  A full garbage collection
               runs before each pass, outside the timing, so no pass pays
               for garbage left by set-up or by the pass before
  peak_rss_mb  peak resident set of the process doing the work (this one
               for rewrite-corpus, the largest child otherwise)

Printed alongside them, not in the JSON: latency_p50_s and latency_tail_s,
the median per-item latency and the highest percentile with at least ten
items beyond it (with its sample count), each item taken at its median
over the passes, omitted below 11 items, as on oracle-ladder; and
failed_frac, failed over attempted items.  They are not in BENCHMARK.json,
which lists only metrics that every workload reports and that are never 0;
failures are in the result's "failed" and "attempted".

Per-layer metrics (--trace 1).  Spans are recorded around calls into the
public functions of terms, basis, rewrite, counting, oracle and cli
(tracing.WRAPPED).  Every workload reports every metric in PER_LAYER; a
count is 0 where the workload does not use that layer.  The oracle
breakdown is measured at the oracle cells the workload touches: the ladder
cells, the corpus cells, or the cells the compare commands compute (w >= 3,
under the CLI ceiling), each cold in its own interpreter running
graded_monomials, relation_rows and graded_dimension in turn.

  layer metric                           measured as                    should move       on
  oracle.monomials_s, oracle.monomials   graded_monomials spans         wall_s (2-4 %)    oracle-ladder
  oracle.rows_s, oracle.rows             relation_rows span minus its   wall_s (84-90 %)  oracle-ladder;
                                         monomials (contexts and                          cli-session via
                                         canonicalization included)                       compare
  oracle.elim_s                          graded_dimension span minus    wall_s (7-12 %)   oracle-ladder
                                         relation_rows span, monomials
                                         and contexts already warm
  oracle.rank, oracle.redundant_rows,    exact counts                   wall_s,           oracle-ladder
  oracle.useful_row_ratio (rank/rows)                                   peak_rss_mb
  oracle.membership_s (report),          membership spans               latency_p50_s     rewrite-corpus
  oracle.membership_calls
  terms.canonicalize_us,                 mean per call, probed on       wall_s            oracle-ladder,
  terms.term_key_us                      seeded raw terms at the                          rewrite-corpus
                                         workload's cells
  basis.is_basic_us                      mean per call (corpus inputs   latency_p50_s     rewrite-corpus
                                         and outputs on rewrite-corpus)
  basis.enumerate_s (report),            enumerate_basic /              wall_s            cli-session
  basis.enumerated                       count_by_enumeration spans
  rewrite.collect_s (report),            collect spans and the          wall_s,           rewrite-corpus
  rewrite.us_per_step (report),          RewriteTrace they return       latency_tail_s
  rewrite.steps, rewrite.peak_work,
  rewrite.capped
  counting.count_s (report)              count_by_method /              latency_p50_s     cli-session
                                         lie_expansion spans
  cli.startup_s (report)                 median wall of --help          latency_p50_s     cli-session
  cli.{compare,enumerate,table,count,    cmd_* spans (in process) and   wall_s            cli-session
  rewrite}_s (report), cli.stdout_bytes  stdout bytes
  trace.wall_s, trace.unattributed_s     sum of root spans, and the     (none)            every workload
                                         root spans' self time
  trace.overhead_frac                    traced / untraced wall of the  (none)            every workload
                                         same work, minus 1

Metrics marked (report) are times of layers some workload never calls;
they are printed and written to perfbench/out/ but kept out of the JSON,
which carries only times that every workload measures.  Layer self times
(self.<layer>_s) plus trace.unattributed_s add up to trace.wall_s; the
run prints the difference.  Oracle metrics are also printed per cell, as
oracle.rows_s.n2_d2_w10.  For cli-session the traced pass runs the same
argv in process through cli.main, and its overhead is measured against an
untraced in-process pass.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

import guard
import inputs
import pace
import stats
import tracing
import workloads

SETUP_RUNS = 3  # at least this many set-ups ...
SETUP_SECONDS = 1.5  # ... and as many more as take this long in all
SETUP_ROUND_S = 2.0  # set-ups after one pass stop after this long
OUT_DIR = Path(__file__).resolve().parent / "out"

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "oracle.monomials_s": "s",
    "oracle.rows_s": "s",
    "oracle.elim_s": "s",
    "oracle.monomials": "count",
    "oracle.rows": "count",
    "oracle.rank": "count",
    "oracle.redundant_rows": "count",
    "oracle.useful_row_ratio": "ratio",
    "oracle.cells": "count",
    "oracle.membership_calls": "count",
    "terms.canonicalize_us": "us",
    "terms.term_key_us": "us",
    "basis.is_basic_us": "us",
    "basis.enumerated": "count",
    "rewrite.steps": "count",
    "rewrite.peak_work": "count",
    "rewrite.capped": "count",
    "cli.stdout_bytes": "bytes",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_frac": "ratio",
}


UNIT_SUFFIXES = (
    ("_s", "s"),
    ("_us", "us"),
    ("_mb", "MB"),
    ("_frac", "ratio"),
    ("_ratio", "ratio"),
    ("_bytes", "bytes"),
    ("_pct", "%"),
    ("_per_step", "us"),
    ("_slowness", "ratio"),
)


def unit_of(name: str) -> str:
    metric = ".".join(name.split(".")[:2])
    for suffix, unit in UNIT_SUFFIXES:
        if metric.endswith(suffix):
            return unit
    return "count"


def peak_rss_mb(who: str) -> float:
    which = resource.RUSAGE_SELF if who == "self" else resource.RUSAGE_CHILDREN
    return resource.getrusage(which).ru_maxrss / 1024


def latency_report(latencies) -> dict:
    """Median and tail of per-item latencies, omitted below 11 items."""
    tail = stats.tail(latencies)
    if tail is None:
        return {}
    value, pct, n = tail
    return {
        "latency_p50_s": stats.median(latencies),
        "latency_tail_s": value,
        "latency_tail_pct": pct,
        "latency_samples": n,
    }


def failure_counts(items) -> tuple[int, int, float]:
    """(attempted, failed, failed_frac) over item records."""
    failed = sum(1 for i in items if i["failures"])
    return len(items), failed, failed / len(items)


def per_item_medians(passes, key: str) -> list:
    """Each item's median over the passes."""
    return [stats.median(item) for item in zip(*[[i[key] for i in p] for p in passes])]


def enough_setups(setups) -> bool:
    return len(setups) >= SETUP_RUNS and sum(s[0] for s in setups) >= SETUP_SECONDS


def timed_run(name: str, seed: int, seconds: int):
    wl = workloads.WORKLOADS[name]
    setups = []  # (seconds, start, end)
    passes, measured = [], 0.0
    with pace.Sampler() as sampler:
        start = perf_counter()
        ctx = wl["setup"](seed)
        end = perf_counter()
        setups.append((end - start, start, end))
        while measured < seconds:
            gc.collect()
            start = perf_counter()
            passes.append(wl["pass"](ctx))
            measured += perf_counter() - start
            start = perf_counter()
            while not enough_setups(setups) and perf_counter() - start < SETUP_ROUND_S:
                setups.append(workloads.setup_in_child(name, seed))
        while not enough_setups(setups):
            setups.append(workloads.setup_in_child(name, seed))
    for item in (i for p in passes for i in p):
        item["paced"] = sampler.paced(item["seconds"], item["start"], item["start"] + item["seconds"])
    items = [i for p in passes for i in p]
    latencies = per_item_medians(passes, "paced")
    metrics = {
        "setup_s": stats.median([sampler.paced(*s) for s in setups]),
        "wall_s": sum(latencies),
        "peak_rss_mb": peak_rss_mb(wl["rss"]),
    }
    report = {
        "passes": len(passes),
        "setups": len(setups),
        "setup_raw_s": stats.median([s[0] for s in setups]),
        "wall_raw_s": sum(per_item_medians(passes, "seconds")),
        "machine_slowness": stats.median(sampler.probes) / pace.REFERENCE_S,
        **latency_report(latencies),
    }
    return ctx, items, metrics, report, None


def traced_run(name: str, seed: int):
    wl = workloads.WORKLOADS[name]
    ctx = wl["setup"](seed)
    items, metrics, report, spans = wl["traced"](ctx, seed)
    acc = tracing.layer_totals(spans)
    report["trace.accounting_error_s"] = acc["wall_s"] - sum(acc["layers"].values())
    return ctx, items, metrics, report, spans


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not (guard.SRC / "nlie" / "__init__.py").is_file():
        print(f"perfbench: no nlie package under {guard.SRC}", file=sys.stderr)
        return 2
    pace.pin()

    if args.trace:
        ctx, items, metrics, report, spans = traced_run(args.workload, args.seed)
        wanted = PER_LAYER
    else:
        ctx, items, metrics, report, spans = timed_run(args.workload, args.seed, args.seconds)
        wanted = END_TO_END
    missing = sorted(set(wanted) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    attempted, failed, report["failed_frac"] = failure_counts(items)
    digest = inputs.digest(ctx["inputs"])

    print(f"{args.workload}  seed {args.seed}  inputs sha256:{digest}  trace {args.trace}")
    for key, value in {**metrics, **report}.items():
        if value is not None:
            print(f"  {key:<34} {value:.6g} {wanted.get(key) or unit_of(key)}")
    for item in items:
        if item["failures"]:
            print(f"  FAILED {item['id']}: {'; '.join(item['failures'])}")

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-trace{args.trace}-seed{args.seed}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "inputs_sha256": digest,
        "metrics": metrics,
        "report": report,
        "items": [{k: i[k] for k in ("id", "seconds", "paced", "failures") if k in i} for i in items],
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        Path(f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in wanted.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
