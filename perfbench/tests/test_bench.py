"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import expected  # noqa: E402
import guard  # noqa: E402
import inputs  # noqa: E402
import pace  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module", autouse=True)
def nlie_from_src():
    guard.install()


def test_tail_is_highest_percentile_with_ten_beyond():
    value, pct, n = stats.tail(list(range(1, 101)))
    assert (value, pct, n) == (90, 90.0, 100)
    assert sum(1 for x in range(1, 101) if x > value) == 10
    value, pct, n = stats.tail([5.0, 1.0, 4.0, 3.0, 2.0, 9.0, 8.0, 7.0, 6.0, 10.0, 11.0])
    assert (value, n) == (1.0, 11)
    assert pct == pytest.approx(100 / 11)
    assert stats.tail(list(range(10))) is None


def test_self_times_of_nested_spans():
    # root [0, 10] > a [1, 4] > b [2, 3];  root > c [5, 9]
    spans = [
        ["bench.item", 0.0, 10.0, None, "i", None],
        ["oracle.graded_dimension", 1.0, 4.0, 0, "i", None],
        ["oracle.graded_monomials", 2.0, 3.0, 1, "i", None],
        ["rewrite.collect", 5.0, 9.0, 0, "i", None],
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    acc = tracing.layer_totals(spans)
    assert acc["layers"] == {"bench": 3.0, "oracle": 3.0, "rewrite": 4.0}
    assert acc["wall_s"] == 10.0 == sum(acc["layers"].values())
    assert acc["unattributed_s"] == 3.0
    assert tracing.layer_busy(spans) == {"bench": 10.0, "oracle": 3.0, "rewrite": 4.0}
    merged = tracing.merge([spans, spans])
    assert [s[3] for s in merged] == [None, 0, 1, 0, None, 4, 5, 4]
    assert tracing.layer_totals(merged)["wall_s"] == 20.0


def test_paced_time_scales_by_mean_speed_in_its_window():
    sampler = pace.Sampler()
    # a fast state (kernel 1 ms) for half of [10, 12], a slow one (3 ms) for the rest
    sampler.times = [0.0, 10.0, 10.5, 11.0, 11.5, 12.0, 30.0]
    sampler.probes = [9.0, 0.001, 0.001, 0.003, 0.003, 0.003, 9.0]
    window = (10.0 + pace.MARGIN_S, 12.0 - pace.MARGIN_S)
    # harmonic mean of 1, 1, 3, 3, 3 ms
    assert sampler.speed(*window) == pytest.approx(5 / (2 / 0.001 + 3 / 0.003))
    seconds = 2.0
    paced = sampler.paced(seconds, *window)
    assert paced == pytest.approx(seconds * pace.REFERENCE_S / sampler.speed(*window))
    # no sample in the window: the nearest ones stand in
    assert sampler.speed(20.0, 20.1) == pytest.approx(2 / (1 / 0.003 + 1 / 9.0))
    with pace.Sampler(interval=0.001) as live:
        pace.kernel()
    assert len(live.times) >= 2 and all(p > 0 for p in live.probes)


def test_tracer_spans_nest_and_restore():
    from nlie import oracle

    original = oracle.graded_dimension
    tracer = tracing.Tracer()
    with tracer.wrapped(["oracle"]):
        oracle.graded_dimension(2, 2, 3)  # outside a root: not recorded
        with tracer.root("item", "x"):
            assert oracle.graded_dimension(2, 2, 4) == 3
    assert oracle.graded_dimension is original
    names = [(s[0], s[3], s[4]) for s in tracer.spans]
    assert names == [
        ("bench.item", None, "x"),
        ("oracle.graded_dimension", 0, "x"),
        ("oracle.graded_monomials", 1, "x"),
    ]
    assert tracer.spans[2][5] == {"monomials": 4}
    acc = tracing.layer_totals(tracer.spans)
    assert sum(acc["layers"].values()) == pytest.approx(acc["wall_s"])


def test_inputs_depend_only_on_the_seed():
    strata = inputs.load_strata()
    a = inputs.rewrite_corpus(7, strata)
    assert len(a) == sum(inputs.CORPUS_PICKS.values())
    assert inputs.digest([inputs.format_term(i["term"]) for i in a]) == inputs.digest(
        [inputs.format_term(i["term"]) for i in inputs.rewrite_corpus(7, strata)]
    )
    assert a != inputs.rewrite_corpus(8, strata)
    assert inputs.cli_script(3, strata) == inputs.cli_script(3, strata)
    for cell, k in inputs.CORPUS_PICKS.items():
        assert len(strata[inputs.cell_name(*cell)]) == len(inputs.left_normed_classes(*cell)) >= k


def test_wrong_expected_value_fails_the_item(monkeypatch):
    ok = workloads.ladder_pass({"cells": [(3, 3, 6)]})
    assert [i["failures"] for i in ok] == [[]]
    dim, monomials, rows, rank = expected.LADDER[(3, 3, 6)]
    monkeypatch.setitem(expected.LADDER, (3, 3, 6), (dim + 1, monomials, rows, rank))
    items = workloads.ladder_pass({"cells": [(3, 3, 6)]})
    assert run.failure_counts(items) == (1, 1, 1.0)

    _, size = expected.CLI["table --which 2"]
    monkeypatch.setitem(expected.CLI, "table --which 2", ("0" * 64, size))
    items = [workloads.cli_command(["table", "--which", w]) for w in ("2", "3")]
    assert run.failure_counts(items) == (2, 1, 0.5)


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
