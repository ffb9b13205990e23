"""O(active) scheduler walk: settling, waking, and every-subscriber equivalence."""

import pytest

from repro.core import (
    GageConfig,
    NodeScheduler,
    RDNAccounting,
    RequestScheduler,
    Subscriber,
    SubscriberQueues,
    SubscriberTable,
)
from repro.core.feedback import AccountingMessage, RPNUsageReport
from repro.core.grps import GENERIC_REQUEST, ResourceVector

#: An RPN that can deliver 100 generic requests per second.
RPN_CAPACITY = ResourceVector(1.0, 1.0, 12_500_000)


def build(subscribers, rpns=4, config=None):
    """Assemble a scheduler over queues and accounting sharing one table."""
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


def subs(count, reservation_grps=100):
    # 100 GRPS => one generic request of credit per cycle, so the hoard
    # cap (4 cycles' worth) is reached — and idle subscribers settle —
    # within a handful of cycles.
    return [
        Subscriber("sub{:04d}".format(i), reservation_grps=reservation_grps)
        for i in range(count)
    ]


def test_scheduler_rejects_separate_tables():
    config = GageConfig()
    queues = SubscriberQueues()
    accounting = RDNAccounting(SubscriberTable())
    nodes = NodeScheduler(window_s=config.dispatch_window_s)
    with pytest.raises(ValueError):
        RequestScheduler(
            config, queues, accounting, nodes, lambda req, rpn, name, predicted: None
        )


def test_idle_subscribers_settle_out_of_the_walk():
    scheduler, queues, _acc, _nodes, _d = build(subs(100))
    assert scheduler.active_count() == 100
    # One cycle caps every idle balance at the hoard cap; a second cycle
    # confirms the fixed point and settles everyone.
    for _ in range(10):
        scheduler.run_cycle()
    assert scheduler.active_count() == 0


def test_only_backlogged_subscribers_stay_active():
    scheduler, queues, _acc, _nodes, dispatched = build(subs(50), rpns=1)
    for _ in range(10):
        scheduler.run_cycle()
    assert scheduler.active_count() == 0
    fill(queues, "sub0001", 1_000)  # more than its credit can drain
    scheduler.run_cycle()
    assert scheduler.active_count() == 1
    assert dispatched  # the woken subscriber actually dispatched


def test_offer_wakes_a_settled_subscriber():
    scheduler, queues, _acc, _nodes, dispatched = build(subs(10))
    for _ in range(10):
        scheduler.run_cycle()
    assert scheduler.active_count() == 0
    fill(queues, "sub0003", 1)
    scheduler.run_cycle()
    assert ("sub0003-0", dispatched[-1][1], "sub0003") == dispatched[-1]


def test_feedback_wakes_a_settled_subscriber():
    scheduler, queues, _acc, _nodes, _d = build(subs(10))
    for _ in range(10):
        scheduler.run_cycle()
    assert scheduler.active_count() == 0
    feedback(scheduler, "rpn0", GENERIC_REQUEST, {"sub0005": 1})
    assert scheduler.active_count() == 1


def test_estimator_access_wakes_a_settled_subscriber():
    scheduler, queues, _acc, _nodes, _d = build(subs(10))
    for _ in range(10):
        scheduler.run_cycle()
    assert scheduler.active_count() == 0
    scheduler.estimator("sub0007")
    assert scheduler.active_count() == 1


def test_active_walk_and_full_walk_make_identical_decisions():
    """The settled-subscriber skip must be a behavioral no-op.

    The reference run calls ``accounting.accounts()`` before every cycle:
    that marks every account dirty, so the walk visits every subscriber,
    as the historic eager walk did.  The trace mixes offers, feedback, a
    supervisor-style ``credit`` grant and a hedge-style ``on_cancel``
    refund — the balance mutations the proxy makes.
    """

    def run(walk_everyone):
        scheduler, queues, accounting, _nodes, _d = build(
            subs(20, reservation_grps=50), rpns=4
        )
        trace = []
        refunds = 0
        last = None
        for cycle in range(300):
            # Deterministic, bursty workload: different subscribers go
            # active/idle at different times.
            if cycle % 7 == 0:
                fill(queues, "sub{:04d}".format((cycle // 7) % 20), 5)
            if cycle % 13 == 0:
                fill(queues, "sub0002", 3)
            if cycle == 150:
                accounting.credit("sub0011", GENERIC_REQUEST.scaled(3.0))
            if walk_everyone:
                accounting.accounts()
            decisions = scheduler.run_cycle()
            trace.extend(
                (cycle, d.subscriber, d.rpn_id, d.spare) for d in decisions
            )
            if cycle % 11 == 0 and decisions:
                feedback(
                    scheduler,
                    decisions[0].rpn_id,
                    GENERIC_REQUEST,
                    {decisions[0].subscriber: 1},
                    now=float(cycle),
                )
            if decisions:
                last = decisions[-1]
            if cycle % 17 == 3 and last is not None:
                refunds += accounting.on_cancel(last.subscriber, last.rpn_id, last.predicted)
        assert refunds > 5
        balances = [account.balance for account in accounting.accounts()]
        return trace, balances

    lazy_trace, lazy_balances = run(walk_everyone=False)
    eager_trace, eager_balances = run(walk_everyone=True)
    assert len(lazy_trace) > 100  # the workload actually dispatched
    assert lazy_trace == eager_trace
    assert lazy_balances == eager_balances


def test_settled_balances_match_eager_balances():
    def balances(walk_everyone):
        scheduler, queues, accounting, _nodes, _d = build(subs(10))
        fill(queues, "sub0000", 50)
        for cycle in range(30):
            if cycle == 12:
                accounting.credit("sub0004", GENERIC_REQUEST.scaled(2.0))
            if walk_everyone:
                accounting.accounts()
            scheduler.run_cycle()
        return {
            name: accounting.account(name).balance
            for name in ("sub0000", "sub0004", "sub0009")
        }

    assert balances(walk_everyone=False) == balances(walk_everyone=True)


def test_churn_while_settled():
    """Unregistering a settled subscriber and reusing its id is safe."""
    scheduler, queues, accounting, _nodes, dispatched = build(subs(10))
    for _ in range(10):
        scheduler.run_cycle()
    assert scheduler.active_count() == 0
    accounting.unregister("sub0004")
    queues.unregister("sub0004")
    newcomer = Subscriber("fresh", reservation_grps=100)
    queues.register(newcomer)  # reuses sub0004's interned id
    accounting.register(newcomer)
    fill(queues, "fresh", 2)
    decisions = scheduler.run_cycle()
    assert {d.subscriber for d in decisions} == {"fresh"}
