"""Edge-case tests for the request scheduler."""

import pytest

from repro.core import (
    GageConfig,
    NodeScheduler,
    RDNAccounting,
    RequestScheduler,
    Subscriber,
    SubscriberQueues,
)
from repro.core.feedback import AccountingMessage, RPNUsageReport
from repro.core.grps import GENERIC_REQUEST, ResourceVector

CAPACITY = ResourceVector(1.0, 1.0, 12_500_000)


def build(subscribers, rpns=2, config=None):
    config = config or GageConfig()
    queues = SubscriberQueues()
    accounting = RDNAccounting(queues.table)
    nodes = NodeScheduler(policy=config.node_policy, window_s=config.dispatch_window_s)
    for sub in subscribers:
        queues.register(sub)
        accounting.register(sub)
    for index in range(rpns):
        nodes.add_node("rpn{}".format(index), CAPACITY)
    dispatched = []
    scheduler = RequestScheduler(
        config, queues, accounting, nodes,
        dispatch_fn=lambda req, rpn, name, predicted: dispatched.append((req, rpn, name)),
    )
    return scheduler, queues, dispatched


def test_cycle_with_no_subscribers():
    scheduler, _queues, dispatched = build([])
    assert scheduler.run_cycle() == []
    assert dispatched == []


def test_cycle_with_empty_queues_accumulates_credit_only():
    scheduler, queues, dispatched = build([Subscriber("a", 100)])
    for _ in range(5):
        assert scheduler.run_cycle() == []
    assert dispatched == []


def test_all_zero_reservations_spare_splits_equally():
    """Degenerate weights: every subscriber has reservation zero, so the
    spare pass falls back to equal shares."""
    subs = [Subscriber("a", 0.0), Subscriber("b", 0.0)]
    scheduler, queues, dispatched = build(subs, rpns=4)
    for name in ("a", "b"):
        queue = queues.get(name)
        for i in range(500):
            queue.offer("{}-{}".format(name, i))
    for _ in range(50):
        scheduler.run_cycle()
    a_count = sum(1 for _r, _p, n in dispatched if n == "a")
    b_count = sum(1 for _r, _p, n in dispatched if n == "b")
    assert a_count > 0
    assert b_count > 0
    assert a_count == pytest.approx(b_count, rel=0.2)


def test_feedback_for_unregistered_subscriber_ignored():
    scheduler, _queues, _dispatched = build([Subscriber("a", 100)])
    message = AccountingMessage(
        rpn_id="rpn0",
        cycle_start_s=0.0,
        cycle_end_s=0.1,
        total_usage=ResourceVector.ZERO,
        per_subscriber={"ghost": RPNUsageReport(GENERIC_REQUEST, 1)},
    )
    scheduler.apply_feedback(message)  # must not raise


def test_visit_order_rotates_across_cycles():
    """With room for exactly one dispatch per cycle, the rotation ensures
    both subscribers eventually dispatch first."""
    subs = [Subscriber("a", 100), Subscriber("b", 100)]
    config = GageConfig(spare_policy="none")
    scheduler, queues, dispatched = build(subs, rpns=1, config=config)
    for name in ("a", "b"):
        queue = queues.get(name)
        for i in range(100):
            queue.offer("{}-{}".format(name, i))
    firsts = []
    for _ in range(6):
        before = len(dispatched)
        scheduler.run_cycle()
        if len(dispatched) > before:
            firsts.append(dispatched[before][2])
    assert "a" in firsts and "b" in firsts


def test_decisions_report_spare_flag():
    subs = [Subscriber("a", 100)]
    scheduler, queues, _dispatched = build(subs, rpns=4)
    queue = queues.get("a")
    for i in range(100):
        queue.offer(i)
    decisions = scheduler.run_cycle()
    reserved = [d for d in decisions if not d.spare]
    spare = [d for d in decisions if d.spare]
    assert len(reserved) == 1  # 100 GRPS x 10ms
    assert spare  # 3 idle RPNs' worth of spare flows to the only queue
    for decision in decisions:
        assert decision.subscriber == "a"
        assert decision.predicted == GENERIC_REQUEST


def test_spare_disabled_entirely():
    subs = [Subscriber("a", 100)]
    config = GageConfig(spare_policy="none")
    scheduler, queues, dispatched = build(subs, rpns=4, config=config)
    queue = queues.get("a")
    for i in range(100):
        queue.offer(i)
    decisions = scheduler.run_cycle()
    assert all(not d.spare for d in decisions)
    assert scheduler.spare_dispatches == 0


def test_counters_track_cycles_and_dispatches():
    subs = [Subscriber("a", 200)]
    scheduler, queues, _dispatched = build(subs)
    queue = queues.get("a")
    for i in range(1000):
        queue.offer(i)
    for _ in range(10):
        scheduler.run_cycle()
    assert scheduler.cycles == 10
    assert scheduler.reserved_dispatches == pytest.approx(20, abs=2)
