"""The per-worker credit hooks of the multi-worker proxy.

Each worker's :class:`GageProxy` reports the credit its idle subscribers
hoard (``credit_report``) and applies the supervisor's answer
(``apply_credit_grant``).  These tests drive the hooks the way
``WorkerSupervisor._rebalance`` does, through a :class:`GlobalAllocator`,
on proxies that are constructed but never started: no sockets.
"""

import pytest

from repro.core import GageConfig, GlobalAllocator, ShardCreditReport, Subscriber
from repro.proxy import GageProxy

#: Never dialled: the proxies below are not started.
BACKENDS = {"backend0": ("127.0.0.1", 9)}


def make_proxy(subscribers, config, worker_id=0):
    return GageProxy(subscribers, BACKENDS, config=config, worker_id=worker_id)


def rebalance(allocator, proxies):
    """One supervisor round: reports in, net grants applied."""
    reports = []
    for worker_id, proxy in enumerate(proxies):
        unused, backlog = proxy.credit_report()
        reports.append(ShardCreditReport(worker_id, unused=unused, backlog=backlog))
    answers = allocator.rebalance(reports)
    for worker_id, proxy in enumerate(proxies):
        answer = answers.get(worker_id)
        if answer is not None:
            proxy.apply_credit_grant(answer.net())
    return answers


def test_credit_report_offers_hoard_and_reports_backlog():
    config = GageConfig(spare_policy="none", dispatch_window_s=10.0)
    subscribers = [Subscriber("a", 100), Subscriber("b", 100)]
    proxy = make_proxy(subscribers, config)
    for _ in range(5):  # both idle: balances accrue toward the cap
        proxy.scheduler.run_cycle()
    proxy.queues.get("b").offer("req-held")  # backlogged but never scheduled here
    unused, backlog = proxy.credit_report()
    assert backlog == {"b": 1}
    assert "b" not in unused
    # "a" hoards 4 cycles of credit (the cap); it offers all but one
    # cycle's refill back to the pool.
    credit, _ = proxy.scheduler.ledger.cycle_credit(subscribers[0])
    assert unused["a"].cpu_s == pytest.approx(credit.scaled(3.0).cpu_s)


def test_cross_shard_grant_moves_balance_between_shards():
    """Two workers: idle hoards fund the subscriber backlogged on worker 1."""
    config = GageConfig(spare_policy="reservation", dispatch_window_s=10.0)
    subscribers = [Subscriber("idle", 100), Subscriber("busy", 100)]
    proxies = [make_proxy(subscribers, config, worker_id=i) for i in range(2)]
    allocator = GlobalAllocator({sub.name: sub.reservation_grps for sub in subscribers})
    for proxy in proxies:
        for _ in range(5):  # everyone idle: every balance hoards credit
            proxy.scheduler.run_cycle()
    idle_worker, busy_worker = proxies
    for i in range(500):
        busy_worker.queues.get("busy").offer("r{}".format(i))
    before = busy_worker.balances()["busy"]
    answers = rebalance(allocator, proxies)
    after = busy_worker.balances()["busy"]
    assert set(answers) == {0, 1}
    # The grant landed: busy's own hoard on worker 0 plus both workers'
    # idle hoards (the cross-subscriber spare).
    credit, _ = idle_worker.scheduler.ledger.cycle_credit(subscribers[0])
    assert (after - before).cpu_s == pytest.approx(credit.scaled(9.0).cpu_s)
    # Every hoard was reclaimed down to one cycle's refill.
    for proxy, name in ((idle_worker, "idle"), (idle_worker, "busy"), (busy_worker, "idle")):
        assert proxy.balances()[name].cpu_s == pytest.approx(credit.cpu_s)
