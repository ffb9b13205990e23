"""Tests for the shard map and the global credit allocator (repro.core.shard)."""

import random

import pytest

from repro.core import GlobalAllocator, ShardCreditReport, ShardMap
from repro.core.grps import ResourceVector


# -- ShardMap ---------------------------------------------------------------


def test_shard_map_is_stable_across_instances():
    names = ["site{}".format(i) for i in range(50)]
    first = ShardMap(4)
    second = ShardMap(4)
    assert first.assignments(names) == second.assignments(names)
    for name in names:
        assert 0 <= first.shard_of(name) < 4


def test_shard_map_partition_covers_every_name_once():
    names = ["s{}".format(i) for i in range(40)]
    groups = ShardMap(3).partition(names)
    assert len(groups) == 3
    flat = [name for group in groups for name in group]
    assert sorted(flat) == sorted(names)


def test_shard_map_single_shard_takes_everything():
    names = ["a", "b", "c"]
    assert ShardMap(1).partition(names) == [names]


def test_shard_map_rejects_zero_shards():
    with pytest.raises(ValueError):
        ShardMap(0)


def test_shard_map_is_independent_of_registration_order():
    shuffled = ["x{}".format(i) for i in range(20)]
    rng = random.Random(3)
    rng.shuffle(shuffled)
    by_order = ShardMap(4).assignments(shuffled)
    by_sorted = ShardMap(4).assignments(sorted(shuffled))
    assert by_order == by_sorted


# -- GlobalAllocator --------------------------------------------------------


def vec(grps_amount):
    """grps_amount generic requests worth of resource."""
    return ResourceVector(0.010, 0.010, 2000.0).scaled(grps_amount)


def total(mapping):
    out = ResourceVector.ZERO
    for v in mapping.values():
        out = out + v
    return out


def assert_conserved(reports, answers, carry_used=ResourceVector.ZERO):
    """Sum of grants equals sum of reclaims plus consumed carry."""
    reclaimed = ResourceVector.ZERO
    granted = ResourceVector.ZERO
    for answer in answers.values():
        reclaimed = reclaimed + total(answer.reclaims)
        granted = granted + total(answer.grants)
    expect = reclaimed + carry_used
    assert granted.cpu_s == pytest.approx(expect.cpu_s)
    assert granted.disk_s == pytest.approx(expect.disk_s)
    assert granted.net_bytes == pytest.approx(expect.net_bytes)


def test_rebalance_with_no_backlog_is_a_net_noop():
    allocator = GlobalAllocator({"a": 100.0, "b": 50.0})
    reports = [
        ShardCreditReport(0, unused={"a": vec(3)}),
        ShardCreditReport(1, unused={"b": vec(1)}),
    ]
    answers = allocator.rebalance(reports)
    assert answers[0].grants == answers[0].reclaims == {"a": vec(3)}
    assert answers[1].grants == answers[1].reclaims == {"b": vec(1)}
    assert_conserved(reports, answers)


def test_same_subscriber_credit_chases_its_backlog():
    """A subscriber's idle-shard credit moves to its backlogged shards."""
    allocator = GlobalAllocator({"a": 100.0})
    reports = [
        ShardCreditReport(0, unused={"a": vec(6)}),
        ShardCreditReport(1, backlog={"a": 2}),
        ShardCreditReport(2, backlog={"a": 1}),
    ]
    answers = allocator.rebalance(reports)
    # Backlog-weighted: shard 1 (depth 2) gets 2/3, shard 2 gets 1/3.
    assert answers[1].grants["a"].cpu_s == pytest.approx(vec(4).cpu_s)
    assert answers[2].grants["a"].cpu_s == pytest.approx(vec(2).cpu_s)
    assert answers[0].reclaims == {"a": vec(6)}
    assert answers[0].grants == {}
    assert_conserved(reports, answers)


def test_globally_idle_credit_becomes_grps_proportional_spare():
    """Credit of an everywhere-idle subscriber is re-granted by reservation."""
    allocator = GlobalAllocator({"idle": 300.0, "gold": 200.0, "bronze": 100.0})
    reports = [
        ShardCreditReport(0, unused={"idle": vec(9)}),
        ShardCreditReport(1, backlog={"gold": 5}),
        ShardCreditReport(2, backlog={"bronze": 5}),
    ]
    answers = allocator.rebalance(reports)
    gold = answers[1].grants["gold"]
    bronze = answers[2].grants["bronze"]
    assert gold.cpu_s == pytest.approx(vec(6).cpu_s)  # 200:100 split of 9
    assert bronze.cpu_s == pytest.approx(vec(3).cpu_s)
    assert_conserved(reports, answers)


def test_spare_split_is_equal_when_reservations_are_zero():
    allocator = GlobalAllocator({"idle": 100.0, "x": 0.0, "y": 0.0})
    reports = [
        ShardCreditReport(0, unused={"idle": vec(4)}),
        ShardCreditReport(1, backlog={"x": 1}),
        ShardCreditReport(2, backlog={"y": 1}),
    ]
    answers = allocator.rebalance(reports)
    assert answers[1].grants["x"].cpu_s == pytest.approx(vec(2).cpu_s)
    assert answers[2].grants["y"].cpu_s == pytest.approx(vec(2).cpu_s)
    assert_conserved(reports, answers)


def test_dead_shard_carry_rides_the_next_backlogged_rebalance():
    allocator = GlobalAllocator({"a": 100.0})
    allocator.reclaim({"a": vec(5)})
    assert allocator.carry_total() == vec(5)

    # No backlog yet: the carry is retained, not granted into the void.
    idle = allocator.rebalance([ShardCreditReport(0)])
    assert idle[0].grants == {}
    assert allocator.carry_total() == vec(5)

    # Once someone is backlogged, the carry re-enters the pool.
    reports = [ShardCreditReport(0, backlog={"a": 3})]
    answers = allocator.rebalance(reports)
    assert answers[0].grants["a"].cpu_s == pytest.approx(vec(5).cpu_s)
    assert allocator.carry_total() == ResourceVector.ZERO
    assert_conserved(reports, answers, carry_used=vec(5))


def test_reclaim_ignores_negative_balances():
    """A dead worker's debt is written off, never re-granted as credit."""
    allocator = GlobalAllocator({"a": 100.0})
    allocator.reclaim({"a": ResourceVector(-1.0, -1.0, -100.0)})
    assert allocator.carry_total() == ResourceVector.ZERO


def test_rebalance_conserves_credit_under_random_reports():
    rng = random.Random(11)
    names = ["s{}".format(i) for i in range(6)]
    allocator = GlobalAllocator({name: rng.uniform(0, 300) for name in names})
    for _ in range(20):
        reports = []
        for shard_id in range(4):
            unused = {
                name: vec(rng.uniform(0, 10))
                for name in names
                if rng.random() < 0.4
            }
            backlog = {name: rng.randrange(0, 5) for name in names}
            reports.append(
                ShardCreditReport(shard_id, unused=unused, backlog=backlog)
            )
        answers = allocator.rebalance(reports)
        assert_conserved(reports, answers)  # no dead-shard carry in play
