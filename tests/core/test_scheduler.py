"""Tests for the credit-based WRR request scheduler and node scheduler."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

#: An RPN that can deliver 100 generic requests per second.
RPN_CAPACITY = ResourceVector(1.0, 1.0, 12_500_000)


def build(subscribers, rpns=4, config=None):
    """Assemble a scheduler over in-memory queues; returns the parts."""
    config = config or GageConfig()
    queues = SubscriberQueues()
    accounting = RDNAccounting(queues.table)
    nodes = NodeScheduler(policy=config.node_policy, window_s=config.dispatch_window_s)
    for sub in subscribers:
        queues.register(sub)
        accounting.register(sub)
    for index in range(rpns):
        nodes.add_node("rpn{}".format(index), RPN_CAPACITY)
    dispatched = []
    scheduler = RequestScheduler(
        config,
        queues,
        accounting,
        nodes,
        dispatch_fn=lambda req, rpn, name, predicted: dispatched.append((req, rpn, name)),
    )
    return scheduler, queues, accounting, nodes, dispatched


def fill(queues, name, count):
    queue = queues.get(name)
    for i in range(count):
        queue.offer("{}-{}".format(name, i))


def feedback(scheduler, rpn_id, usage_per_request, completed_by_name, now=1.0):
    """Deliver one accounting message for completed requests."""
    message = AccountingMessage(
        rpn_id=rpn_id,
        cycle_start_s=now - 0.1,
        cycle_end_s=now,
        total_usage=ResourceVector.ZERO,
        per_subscriber={
            name: RPNUsageReport(usage_per_request.scaled(count), count)
            for name, count in completed_by_name.items()
        },
    )
    scheduler.apply_feedback(message)


def test_reserved_credit_limits_dispatch_rate():
    """A 100-GRPS subscriber gets exactly 1 generic request per 10ms cycle."""
    sub = Subscriber("a", reservation_grps=100)
    scheduler, queues, _acc, _nodes, dispatched = build([sub])
    fill(queues, "a", 50)
    decisions = scheduler.run_cycle()
    reserved = [d for d in decisions if not d.spare]
    assert len(reserved) == 1  # 100 GRPS * 0.01s = 1 request of credit


def test_credit_accumulates_when_idle_then_bursts_capped():
    sub = Subscriber("a", reservation_grps=100)
    config = GageConfig(credit_cap_cycles=4.0, spare_policy="none", dispatch_window_s=10.0)
    scheduler, queues, _acc, _nodes, dispatched = build([sub], config=config)
    for _ in range(10):  # 10 idle cycles; cap limits accumulation to 4
        scheduler.run_cycle()
    fill(queues, "a", 50)
    decisions = scheduler.run_cycle()
    # 4 cycles of accumulated credit + 1 fresh = 5 requests, but cap is
    # applied after refill, so exactly credit_cap worth dispatches.
    assert len(decisions) == 4


def test_dispatch_proportional_to_reservations():
    """Two saturated queues dispatch in proportion to reservations."""
    subs = [Subscriber("a", 200), Subscriber("b", 100)]
    # No feedback in this test, so use an effectively unlimited dispatch
    # window to keep the saturation throttle out of the way.
    config = GageConfig(spare_policy="none", dispatch_window_s=100.0)
    scheduler, queues, _acc, _nodes, dispatched = build(subs, rpns=8, config=config)
    fill(queues, "a", 10_000)
    fill(queues, "b", 10_000)
    for _ in range(100):  # one simulated second
        scheduler.run_cycle()
    by_name = {"a": 0, "b": 0}
    for _req, _rpn, name in dispatched:
        by_name[name] += 1
    assert by_name["a"] == pytest.approx(200, rel=0.05)
    assert by_name["b"] == pytest.approx(100, rel=0.05)


def test_spare_distributed_by_reservation():
    """Table 2's policy: spare shares proportional to reservations."""
    subs = [Subscriber("a", 250), Subscriber("b", 200)]
    scheduler, queues, _acc, _nodes, dispatched = build(subs, rpns=8)
    # Cluster capacity 800 GRPS, reserved 450, spare 350.
    fill(queues, "a", 100_000)
    fill(queues, "b", 100_000)
    for _ in range(100):
        scheduler.run_cycle()
    # Count spare dispatches from scheduler counters instead.
    assert scheduler.spare_dispatches > 0
    # Ratio check via accounting dispatch counts:
    a_total = sum(1 for _r, _p, n in dispatched if n == "a")
    b_total = sum(1 for _r, _p, n in dispatched if n == "b")
    assert a_total / b_total == pytest.approx(250 / 200, rel=0.15)


def test_spare_policy_none_serves_only_reservations():
    subs = [Subscriber("a", 100)]
    config = GageConfig(spare_policy="none")
    scheduler, queues, _acc, _nodes, dispatched = build(subs, rpns=8, config=config)
    fill(queues, "a", 10_000)
    for _ in range(100):
        scheduler.run_cycle()
    assert len(dispatched) <= 100 * 1 + 4  # reservation only (+cap burst)


def test_spare_policy_input_load_weighting():
    subs = [Subscriber("a", 50), Subscriber("b", 50)]
    config = GageConfig(spare_policy="input_load")
    scheduler, queues, _acc, _nodes, dispatched = build(subs, rpns=8, config=config)
    # b has 3x the arrivals of a.
    fill(queues, "a", 5_000)
    fill(queues, "b", 15_000)
    for _ in range(50):
        scheduler.run_cycle()
    a_total = sum(1 for _r, _p, n in dispatched if n == "a")
    b_total = sum(1 for _r, _p, n in dispatched if n == "b")
    assert b_total > a_total  # higher input load won more spare


def test_no_dispatch_when_cluster_saturated():
    """With predicted work filling every RPN's window, dispatch stalls."""
    sub = Subscriber("a", 400)
    config = GageConfig(dispatch_window_s=0.02)
    scheduler, queues, _acc, nodes, dispatched = build([sub], rpns=1, config=config)
    fill(queues, "a", 1_000)
    for _ in range(10):
        scheduler.run_cycle()
    # 1 RPN x 0.02s window / 0.01s per generic request = ~2 outstanding.
    assert len(dispatched) <= 3
    assert nodes.node("rpn0").outstanding.cpu_s <= 0.02 + 1e-9


def test_feedback_releases_outstanding_load():
    sub = Subscriber("a", 400)
    config = GageConfig(dispatch_window_s=0.02)
    scheduler, queues, _acc, nodes, dispatched = build([sub], rpns=1, config=config)
    fill(queues, "a", 1_000)
    scheduler.run_cycle()
    first_wave = len(dispatched)
    assert first_wave >= 1
    feedback(scheduler, "rpn0", GENERIC_REQUEST, {"a": first_wave})
    assert nodes.node("rpn0").outstanding == ResourceVector.ZERO
    scheduler.run_cycle()
    assert len(dispatched) > first_wave


def test_feedback_corrects_balance_with_measured_usage():
    """Cheaper-than-predicted requests refund the balance."""
    sub = Subscriber("a", 100)
    # One RPN so every dispatch (and hence every pending prediction)
    # lands on the node we report feedback from.
    scheduler, queues, accounting, _nodes, dispatched = build([sub], rpns=1)
    fill(queues, "a", 10)
    scheduler.run_cycle()
    count = len(dispatched)
    balance_before = accounting.account("a").balance
    cheap = ResourceVector(0.001, 0.0, 100)  # one tenth of a generic
    feedback(scheduler, dispatched[0][1], cheap, {"a": count})
    balance_after = accounting.account("a").balance
    # Refund: predicted (generic) backed out, cheap usage charged.
    refund = (GENERIC_REQUEST - cheap).scaled(count)
    assert balance_after.cpu_s == pytest.approx(balance_before.cpu_s + refund.cpu_s)


def test_estimator_learns_from_feedback():
    sub = Subscriber("a", 100)
    scheduler, queues, _acc, _nodes, dispatched = build([sub])
    fill(queues, "a", 10)
    scheduler.run_cycle()
    cheap = ResourceVector(0.001, 0.0, 100)
    feedback(scheduler, dispatched[0][1], cheap, {"a": len(dispatched)})
    predicted = scheduler.estimator("a").predict()
    assert predicted.cpu_s < GENERIC_REQUEST.cpu_s


def test_zero_reservation_subscriber_only_gets_spare():
    subs = [Subscriber("paid", 100), Subscriber("free", 0)]
    scheduler, queues, _acc, _nodes, dispatched = build(subs, rpns=2)
    fill(queues, "free", 1_000)
    scheduler.run_cycle()
    free_reserved = sum(
        1 for d in scheduler.run_cycle() if d.subscriber == "free" and not d.spare
    )
    assert free_reserved == 0


def test_least_load_balances_across_rpns():
    sub = Subscriber("a", 800)
    scheduler, queues, _acc, nodes, dispatched = build([sub], rpns=4)
    fill(queues, "a", 10_000)
    for _ in range(10):
        scheduler.run_cycle()
    per_rpn = {}
    for _req, rpn, _name in dispatched:
        per_rpn[rpn] = per_rpn.get(rpn, 0) + 1
    counts = sorted(per_rpn.values())
    assert len(counts) == 4
    assert counts[-1] - counts[0] <= 2  # near-perfect balance


def test_node_scheduler_round_robin_policy():
    nodes = NodeScheduler(policy="round_robin", window_s=10.0)
    for index in range(3):
        nodes.add_node("rpn{}".format(index), RPN_CAPACITY)
    picks = [nodes.pick(GENERIC_REQUEST) for _ in range(6)]
    assert picks == ["rpn0", "rpn1", "rpn2", "rpn0", "rpn1", "rpn2"]


def test_node_scheduler_random_policy_seeded():
    import random

    nodes = NodeScheduler(policy="random", window_s=10.0, rng=random.Random(1))
    for index in range(3):
        nodes.add_node("rpn{}".format(index), RPN_CAPACITY)
    picks = {nodes.pick(GENERIC_REQUEST) for _ in range(50)}
    assert picks == {"rpn0", "rpn1", "rpn2"}


def test_node_scheduler_locality_policy():
    """§3.6: same-directory requests map to the same node; the policy
    falls back to least-load when the preferred node is full."""
    from repro.core.node_scheduler import locality_key
    from repro.workload import WebRequest

    nodes = NodeScheduler(policy="locality", window_s=10.0)
    for index in range(4):
        nodes.add_node("rpn{}".format(index), RPN_CAPACITY)

    def req(path):
        return WebRequest("site1", path, 2000)

    # Same directory -> same node, stably.
    picks = {
        nodes.pick(GENERIC_REQUEST, request=req("/dir01/file{}".format(i)))
        for i in range(10)
    }
    assert len(picks) == 1
    # Different directories spread over the cluster.
    spread = {
        nodes.pick(GENERIC_REQUEST, request=req("/dir{:02d}/f".format(i)))
        for i in range(32)
    }
    assert len(spread) >= 3
    # Fallback: fill the preferred node; the pick moves elsewhere.
    preferred = nodes.pick(GENERIC_REQUEST, request=req("/dir01/x"))
    nodes.node(preferred).outstanding = RPN_CAPACITY.scaled(100.0)
    fallback = nodes.pick(GENERIC_REQUEST, request=req("/dir01/x"))
    assert fallback is not None and fallback != preferred
    # No URL structure -> degrades to least-load without crashing.
    assert nodes.pick(GENERIC_REQUEST, request=object()) is not None
    assert locality_key(object()) is None
    assert locality_key(req("/a/b/c.html")) == "site1|/a/b"
    assert locality_key(req("top.html")) == "site1|/"


def test_node_scheduler_validation():
    with pytest.raises(ValueError):
        NodeScheduler(policy="bogus")
    nodes = NodeScheduler()
    nodes.add_node("rpn0", RPN_CAPACITY)
    with pytest.raises(RuntimeError):
        nodes.add_node("rpn0", RPN_CAPACITY)


def test_node_outstanding_never_negative_after_feedback():
    nodes = NodeScheduler()
    nodes.add_node("rpn0", RPN_CAPACITY)
    nodes.on_dispatch("rpn0", GENERIC_REQUEST)
    nodes.on_feedback("rpn0", GENERIC_REQUEST.scaled(5))  # over-report
    assert nodes.node("rpn0").outstanding == ResourceVector.ZERO


@settings(max_examples=30, deadline=None)
@given(
    res_a=st.integers(10, 300),
    res_b=st.integers(10, 300),
    cycles=st.integers(10, 60),
)
def test_reserved_dispatch_conservation_property(res_a, res_b, cycles):
    """Reserved-pass dispatches never exceed reservation x time + cap burst."""
    subs = [Subscriber("a", res_a), Subscriber("b", res_b)]
    config = GageConfig(spare_policy="none", credit_cap_cycles=4.0)
    scheduler, queues, _acc, _nodes, dispatched = build(subs, rpns=16, config=config)
    fill(queues, "a", 100_000)
    fill(queues, "b", 100_000)
    for _ in range(cycles):
        scheduler.run_cycle()
    for name, reservation in (("a", res_a), ("b", res_b)):
        total = sum(1 for _r, _p, n in dispatched if n == name)
        budget = reservation * (cycles * 0.01) + 4 * reservation * 0.01 + 1
        assert total <= budget
