"""Self-tests of the benchmark's helpers.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
import os

import pytest
from measure import (
    REFERENCE_S,
    core_counts,
    deviation_pct,
    group_self_time,
    is_failure,
    knee,
    lateness,
    layer_of,
    percentile,
    reference_s,
    registry_total,
    slowdowns,
    summary,
    window_sums,
)

import run


def test_percentile_interpolates_and_rejects_empty():
    assert percentile([3.0, 1.0, 2.0], 0.5) == 2.0
    assert percentile([0.0, 10.0], 0.25) == 2.5
    assert percentile([7.0], 0.99) == 7.0
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_summary_reports_sample_count_and_honest_tail():
    big = [float(i) for i in range(1000)]
    stats = summary(big)
    assert stats["n"] == 1000
    assert stats["tail_q"] == 0.99
    assert stats["p99"] == pytest.approx(percentile(big, 0.99))
    # 200 samples: only the 95th percentile has ten samples beyond it.
    small = summary([float(i) for i in range(200)])
    assert small["n"] == 200
    assert small["tail_q"] == pytest.approx(0.95)


def test_lateness_counts_from_due_time_and_never_negative():
    assert lateness([1.0, 2.0, 3.0], [1.0, 2.5, 2.9]) == [0.0, 0.5, 0.0]
    with pytest.raises(ValueError):
        lateness([1.0], [])


def test_window_sums_keeps_only_whole_windows():
    events = [(0.5, 1.0), (3.9, 2.0), (4.0, 4.0), (8.5, 8.0), (-1.0, 16.0)]
    assert window_sums(events, 0.0, 9.0, 4.0) == [3.0, 4.0]


def test_deviation_is_against_min_of_offered_and_reservation():
    # Overdriven subscriber: judged against its reservation (10).
    over = deviation_pct({"a": [9.0, 11.0]}, {"a": [15.0, 15.0]}, {"a": 10.0})
    assert over == pytest.approx(10.0)
    # Conforming subscriber: judged against what it offered.
    under = deviation_pct({"b": [4.0, 6.0]}, {"b": [5.0, 5.0]}, {"b": 10.0})
    assert under == pytest.approx(20.0)
    # The worst subscriber is reported.
    both = deviation_pct(
        {"a": [9.0, 11.0], "b": [4.0, 6.0]},
        {"a": [15.0, 15.0], "b": [5.0, 5.0]},
        {"a": 10.0, "b": 10.0},
    )
    assert both == pytest.approx(20.0)


def test_failure_rule_separates_conforming_from_admission_refusal():
    assert not is_failure(200, True, conforming=True)
    assert is_failure(200, False, conforming=True)  # short body
    assert is_failure(503, True, conforming=True)  # conforming refused
    assert not is_failure(503, True, conforming=False)  # guarantee working
    assert not is_failure(None, False, conforming=False)  # held back at run end
    assert is_failure(None, False, conforming=False, lost=True)
    assert is_failure(None, False, conforming=True)
    assert is_failure(502, True, conforming=False)


def test_profile_entries_group_by_repro_package():
    assert layer_of("/x/src/repro/sim/engine.py") == "sim"
    assert layer_of("/x/src/repro/resources.py") == "resources"
    assert layer_of("/usr/lib/python3.11/asyncio/events.py") == "asyncio"
    assert layer_of("~") == "builtins"
    assert layer_of("/x/perfbench/sims.py") == "perfbench"
    assert layer_of("/usr/lib/python3.11/heapq.py") == "other"
    stats = {
        ("/x/src/repro/net/link.py", 1, "f"): (1, 1, 0.25, 0.5, {}),
        ("/x/src/repro/net/tcp.py", 9, "g"): (2, 2, 0.5, 0.5, {}),
        ("~", 0, "<built-in method len>"): (5, 5, 0.125, 0.125, {}),
    }
    assert group_self_time(stats) == {"net": 0.75, "builtins": 0.125}


def test_benchmark_json_matches_the_metrics_the_command_prints():
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    with open(path) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_knee_interpolates_between_last_pass_and_first_fail():
    ladder = [(60.0, 10.0, True), (80.0, 20.0, True), (100.0, 120.0, False), (120.0, 400.0, False)]
    # The tail crosses 50 ms 30% of the way from 80 to 100 requests/s.
    assert knee(ladder, 50.0) == pytest.approx(86.0)
    assert knee(ladder[:2], 50.0) == 80.0  # never failed: the top rate
    # A step that failed on backlog alone adds nothing beyond the last pass.
    assert knee([(60.0, 10.0, True), (80.0, 30.0, False)], 50.0) == 60.0


def test_registry_total_sums_label_sets_of_one_metric_only():
    snapshot = {
        "repro.core.dispatches": {"value": 1.0},
        "repro.core.dispatches{site=a}": {"value": 2.0},
        "repro.core.dispatches{site=b}": {"value": 4.0},
        "repro.core.dispatches_total": {"value": 100.0},
    }
    assert registry_total(snapshot, "repro.core.dispatches") == 7.0
    counts = core_counts(snapshot)
    assert counts["core.dispatches"] == 7.0
    assert counts["core.queue_drops"] == 0.0


def test_slowdowns_average_the_references_around_each_piece_of_work():
    assert slowdowns([REFERENCE_S, 3 * REFERENCE_S, REFERENCE_S]) == pytest.approx([2.0, 2.0])
    assert slowdowns([REFERENCE_S]) == []
    assert reference_s() > 0.0
