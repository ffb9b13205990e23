"""BENCH_subscriber_scale — the million-subscriber control plane.

Two records:

* ``cycle_cost_100k`` — per-cycle scheduling/accounting cost with 10⁵
  registered subscribers of which ~512 are active.  The lazy O(active)
  walk must make the cycle cost a function of the *active* population:
  the benchmark measures the same 512-active steady state over a 10⁵
  and a 4×10³ registration base and asserts the cost ratio stays near
  1× (an O(registered) walk would show ~25×).
* ``churn_admission_100k`` — replays a seeded join/leave stream of ~10⁵
  subscriber offers through the placement engine (utilization
  objective, k=1 backup), recording the acceptance ratio, the p95
  admission-decision latency, and — after killing the most-loaded node
  — the guarantee-violation counter, which must be **zero**: every
  accepted reservation has a fully-reserved backup.

Figures from fixed seeds (acceptance ratio, violation counts) gate at
the tight figure tolerance; timing-derived numbers are ``perf_`` keys.
"""

import statistics
import time

from repro.core import (
    GageConfig,
    NodeScheduler,
    PlacementEngine,
    RDNAccounting,
    RequestScheduler,
    Subscriber,
    SubscriberQueues,
)
from repro.core.grps import ResourceVector
from repro.workload import ChurnWorkload
from repro.workload.churn import JOIN

from .conftest import print_banner

#: Serialized as BENCH_subscriber_scale.json regardless of the filename.
BENCHSTORE_SUITE = "subscriber_scale"

#: Registered populations: the headline scale and the control base.
TOTAL = 100_000
CONTROL = 4_000

#: Subscribers with traffic in the steady-state cycle measurements.
ACTIVE = 512

#: The O(active) acceptance bound: 25× more registered subscribers may
#: not make the steady-state cycle more than this much slower.
MAX_COST_RATIO = 3.0

#: Placement cluster for the churn record: 32 nodes of 3750 GRPS.
PLACEMENT_NODES = 32
PLACEMENT_NODE_CAPACITY = ResourceVector(37.5, 37.5, 7_500_000.0)


def _build_plane(total):
    """A scheduler over ``total`` registered subscribers, shared table."""
    config = GageConfig(spare_policy="none", dispatch_window_s=3600.0)
    queues = SubscriberQueues()
    accounting = RDNAccounting(queues.table)
    nodes = NodeScheduler(
        policy=config.node_policy, window_s=config.dispatch_window_s
    )
    for index in range(total):
        sub = Subscriber(
            "sub{:06d}".format(index),
            reservation_grps=100.0,
            queue_capacity=8,
        )
        queues.register(sub)
        accounting.register(sub)
    for index in range(8):
        nodes.add_node(
            "rpn{}".format(index), ResourceVector(1000.0, 1000.0, 1.25e10)
        )
    scheduler = RequestScheduler(
        config,
        queues,
        accounting,
        nodes,
        dispatch_fn=lambda req, rpn, name, predicted: None,
    )
    return scheduler, queues


def _settle(scheduler):
    """Run cycles until the idle population drops out of the walk."""
    for _ in range(20):
        scheduler.run_cycle()
        if scheduler.active_count() == 0:
            return
    raise AssertionError(
        "population never settled: {} still active".format(
            scheduler.active_count()
        )
    )


def _steady_state_cycle_s(scheduler, queues, names, rounds):
    """Median wall time of one cycle with exactly ``names`` active."""
    times = []
    for _ in range(rounds):
        for name in names:
            queues.get(name).offer("req")
        start = time.perf_counter()
        scheduler.run_cycle()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def test_cycle_cost_100k(benchmark):
    """Steady-state cycle cost is O(active), not O(registered)."""
    active_names = ["sub{:06d}".format(i * (TOTAL // ACTIVE)) for i in range(ACTIVE)]

    scheduler, queues = _build_plane(TOTAL)
    _settle(scheduler)

    control_names = [
        "sub{:06d}".format(i * (CONTROL // ACTIVE)) for i in range(ACTIVE)
    ]
    control_sched, control_queues = _build_plane(CONTROL)
    _settle(control_sched)
    control_s = _steady_state_cycle_s(
        control_sched, control_queues, control_names, rounds=30
    )

    # Warm the 100k plane, then measure (pedantic owns the official
    # median; the manual sample feeds the machine-local cost ratio).
    _steady_state_cycle_s(scheduler, queues, active_names, rounds=5)
    scale_s = _steady_state_cycle_s(scheduler, queues, active_names, rounds=30)

    def one_cycle():
        for name in active_names:
            queues.get(name).offer("req")
        scheduler.run_cycle()

    benchmark.pedantic(one_cycle, rounds=30, warmup_rounds=5)

    ratio = scale_s / control_s if control_s > 0 else float("inf")
    active_after = scheduler.active_count()

    print_banner("BENCH_subscriber_scale: cycle cost at 100k subscribers")
    print(
        "  registered {}   active {}   cycle {:.0f} us "
        "(control@{}: {:.0f} us, ratio {:.2f}x, bound {:.1f}x)".format(
            TOTAL,
            ACTIVE,
            scale_s * 1e6,
            CONTROL,
            control_s * 1e6,
            ratio,
            MAX_COST_RATIO,
        )
    )

    # The walk really was O(active): only offered queues were visited.
    assert active_after <= ACTIVE
    assert ratio < MAX_COST_RATIO, (
        "cycle cost grew {:.2f}x going from {} to {} registered "
        "subscribers with a fixed {}-subscriber active set".format(
            ratio, CONTROL, TOTAL, ACTIVE
        )
    )

    benchmark.extra_info["registered"] = TOTAL
    benchmark.extra_info["active"] = ACTIVE
    benchmark.extra_info["min_cores"] = 2
    benchmark.extra_info["perf_cycle_cost_ratio"] = round(ratio, 2)
    benchmark.extra_info["info_cycle_us_100k"] = "{:.0f}".format(scale_s * 1e6)
    benchmark.extra_info["info_cycle_us_4k"] = "{:.0f}".format(control_s * 1e6)


def _replay_churn():
    """Replay the seeded churn stream through a fresh placement engine."""
    workload = ChurnWorkload(
        initial=0,
        joins_per_s=2500.0,
        leaves_per_s=500.0,
        duration_s=40.0,
        reservation_grps=1.0,
        seed=17,
    )
    events = workload.generate()
    engine = PlacementEngine(k_backup=1, objective="utilization")
    for index in range(PLACEMENT_NODES):
        engine.add_node("rpn{:02d}".format(index), PLACEMENT_NODE_CAPACITY)
    placed = set()
    latencies = []
    for event in events:
        if event.kind == JOIN:
            start = time.perf_counter()
            accepted = engine.place(event.subscriber)
            latencies.append(time.perf_counter() - start)
            if accepted:
                placed.add(event.name)
        elif event.name in placed:
            engine.release(event.name)
            placed.discard(event.name)
    return engine, events, latencies


def test_churn_admission_100k(benchmark):
    """~10⁵ join/leave offers: acceptance, latency, and failover."""
    outcome = {}

    def replay():
        outcome["result"] = _replay_churn()

    benchmark.pedantic(replay, rounds=1, warmup_rounds=0)
    engine, events, latencies = outcome["result"]

    joins = sum(1 for e in events if e.kind == JOIN)
    stats = engine.stats
    acceptance_pct = 100.0 * stats.acceptance_ratio()
    latencies.sort()
    p50_us = latencies[len(latencies) // 2] * 1e6
    p95_us = latencies[int(len(latencies) * 0.95)] * 1e6

    # Kill the most committed node: with k=1 every accepted reservation
    # must fail over onto reserved backup capacity — zero violations.
    busiest = max(
        ("rpn{:02d}".format(i) for i in range(PLACEMENT_NODES)),
        key=lambda rpn: engine.node_view(rpn).utilization(),
    )
    report = engine.on_node_death(busiest)

    print_banner("BENCH_subscriber_scale: churn admission at 100k offers")
    print(
        "  offers {} (joins {})   accepted {}   rejected {}   "
        "acceptance {:.1f}%".format(
            len(events), joins, stats.accepted, stats.rejected, acceptance_pct
        )
    )
    print(
        "  place() p50 {:.1f} us   p95 {:.1f} us   death of {}: "
        "promoted {}   violations {}".format(
            p50_us, p95_us, busiest, len(report.promoted), stats.violations
        )
    )

    assert joins > 90_000  # the stream really offered ~10⁵ subscribers
    assert stats.accepted > 0 and stats.rejected > 0  # admission exercised
    assert report.promoted  # the dead node carried primaries
    assert stats.violations == 0, (
        "node death violated {} guarantees despite k=1 backup "
        "reservations".format(stats.violations)
    )

    benchmark.extra_info["nodes"] = PLACEMENT_NODES
    benchmark.extra_info["min_cores"] = 2
    benchmark.extra_info["offers"] = joins
    benchmark.extra_info["acceptance_pct"] = round(acceptance_pct, 1)
    benchmark.extra_info["violations_after_death"] = stats.violations
    benchmark.extra_info["promoted_after_death"] = len(report.promoted)
    benchmark.extra_info["perf_place_p95_us"] = round(p95_us, 1)
    benchmark.extra_info["info_place_p50_us"] = "{:.1f}".format(p50_us)
