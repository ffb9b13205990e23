"""Tests for the online placement / admission-control engine."""

import pytest

from repro.core.grps import GENERIC_REQUEST, ResourceVector
from repro.core.placement import (
    PLACEMENT_PROFIT,
    PLACEMENT_UTILIZATION,
    PROFIT_MAX_UTILIZATION,
    PlacementEngine,
)
from repro.core.subscriber import Subscriber

#: 100 generic requests per second of capacity.
NODE_CAPACITY = ResourceVector(1.0, 1.0, 200_000.0)


def engine(k=1, objective=PLACEMENT_UTILIZATION, nodes=3):
    eng = PlacementEngine(k_backup=k, objective=objective)
    for index in range(nodes):
        eng.add_node("rpn{}".format(index), NODE_CAPACITY)
    return eng


def test_place_restricts_dispatch_to_primary():
    eng = engine()
    assert eng.place(Subscriber("a", reservation_grps=10))
    allowed = eng.allowed_nodes("a")
    assert allowed is not None and len(allowed) == 1
    embedding = eng.embedding_of("a")
    assert allowed == frozenset({embedding.primary})
    assert len(embedding.backups) == 1
    assert embedding.primary not in embedding.backups


def test_unknown_subscriber_is_unrestricted():
    eng = engine()
    assert eng.allowed_nodes("never-placed") is None


def test_admission_rejects_overcommit():
    # Each subscriber demands 60 of the node's 100 GRPS; with k=1 every
    # embedding reserves 60 on a second node too, so two subscribers
    # exhaust both dimensions of a 2-node cluster and the third offer
    # must be rejected with nothing committed.
    eng = engine(k=1, nodes=2)
    assert eng.place(Subscriber("a", reservation_grps=60))
    fractions_before = eng.committed_fraction()
    assert not eng.place(Subscriber("b", reservation_grps=60))
    assert eng.committed_fraction() == fractions_before  # atomic reject
    assert eng.allowed_nodes("b") == frozenset()
    assert eng.stats.rejected == 1
    assert eng.stats.accepted == 1
    assert eng.stats.acceptance_ratio() == 0.5


def test_rejects_when_too_few_backup_nodes():
    eng = engine(k=2, nodes=2)  # k=2 needs 3 distinct nodes
    assert not eng.place(Subscriber("a", reservation_grps=1))
    assert eng.stats.rejected == 1


def test_k_zero_places_without_backups():
    eng = engine(k=0, nodes=1)
    assert eng.place(Subscriber("a", reservation_grps=10))
    assert eng.embedding_of("a").backups == []


def test_utilization_objective_packs_best_fit():
    eng = engine(k=0, objective=PLACEMENT_UTILIZATION, nodes=3)
    assert eng.place(Subscriber("a", reservation_grps=40))
    first = eng.embedding_of("a").primary
    # Best-fit: the second subscriber lands on the already-loaded node
    # (highest post-placement utilization that still fits).
    assert eng.place(Subscriber("b", reservation_grps=40))
    assert eng.embedding_of("b").primary == first


def test_profit_objective_spreads():
    eng = engine(k=0, objective=PLACEMENT_PROFIT, nodes=3)
    assert eng.place(Subscriber("a", reservation_grps=40))
    assert eng.place(Subscriber("b", reservation_grps=40))
    assert eng.embedding_of("a").primary != eng.embedding_of("b").primary


def test_profit_objective_refuses_nearly_full_nodes():
    eng = engine(k=0, objective=PLACEMENT_PROFIT, nodes=1)
    assert eng.place(
        Subscriber("a", reservation_grps=100 * PROFIT_MAX_UTILIZATION)
    )
    # The node still has headroom, but past the profit threshold the
    # marginal placement is refused (admission control by objective).
    assert not eng.place(Subscriber("b", reservation_grps=1))


def test_custom_objective_callable():
    eng = PlacementEngine(
        k_backup=0, custom_objective=lambda view, demand: -view.utilization()
    )
    eng.add_node("rpn0", NODE_CAPACITY)
    eng.add_node("rpn1", NODE_CAPACITY)
    assert eng.place(Subscriber("a", reservation_grps=30))
    assert eng.place(Subscriber("b", reservation_grps=30))
    # Least-utilized-wins custom objective spreads like profit.
    assert eng.embedding_of("a").primary != eng.embedding_of("b").primary


def test_release_frees_capacity():
    eng = engine(k=1, nodes=2)
    assert eng.place(Subscriber("a", reservation_grps=60))
    assert not eng.place(Subscriber("b", reservation_grps=60))
    assert eng.release("a")
    assert eng.allowed_nodes("a") is None
    assert eng.committed_fraction() == 0.0
    assert eng.place(Subscriber("b2", reservation_grps=60))


def test_release_unknown_is_noop():
    eng = engine()
    assert not eng.release("ghost")


def test_node_death_promotes_to_reserved_backup():
    eng = engine(k=1, nodes=3)
    assert eng.place(Subscriber("a", reservation_grps=50))
    embedding = eng.embedding_of("a")
    primary, backup = embedding.primary, embedding.backups[0]
    report = eng.on_node_death(primary)
    assert report.promoted == ["a"]
    assert report.violated == []
    assert eng.stats.violations == 0
    assert eng.allowed_nodes("a") == frozenset({backup})
    # The promotion consumed the reservation and re-reserved a new
    # backup on the remaining live node.
    new_embedding = eng.embedding_of("a")
    assert new_embedding.primary == backup
    assert len(new_embedding.backups) == 1
    assert new_embedding.backups[0] not in (primary, backup)


def test_single_death_never_violates_with_k1_even_when_full():
    # Fill a 3-node cluster so every node carries primaries AND backup
    # reservations, then kill one node: because backup reservations are
    # summed per node (never statistically shared), every promotion
    # fits and zero guarantees break.
    eng = engine(k=1, nodes=3)
    placed = []
    index = 0
    while True:
        name = "s{}".format(index)
        if not eng.place(Subscriber(name, reservation_grps=20)):
            break
        placed.append(name)
        index += 1
    assert len(placed) >= 2
    report = eng.on_node_death("rpn0")
    assert report.violated == []
    assert eng.stats.violations == 0
    for name in placed:
        allowed = eng.allowed_nodes(name)
        assert allowed is not None and len(allowed) == 1
        assert "rpn0" not in allowed


def test_death_without_backup_counts_violation():
    eng = engine(k=0, nodes=1)
    assert eng.place(Subscriber("a", reservation_grps=10))
    report = eng.on_node_death("rpn0")
    assert report.violated == ["a"]
    assert eng.stats.violations == 1
    assert eng.allowed_nodes("a") == frozenset()


def test_backup_on_dead_node_re_reserves_elsewhere():
    eng = engine(k=1, nodes=3)
    assert eng.place(Subscriber("a", reservation_grps=10))
    embedding = eng.embedding_of("a")
    backup = embedding.backups[0]
    eng.on_node_death(backup)
    refreshed = eng.embedding_of("a")
    assert refreshed.primary == embedding.primary
    assert len(refreshed.backups) == 1
    assert refreshed.backups[0] != backup
    assert eng.stats.reembedded == 1


def test_degraded_when_no_replacement_backup():
    eng = engine(k=1, nodes=2)
    assert eng.place(Subscriber("a", reservation_grps=10))
    backup = eng.embedding_of("a").backups[0]
    report = eng.on_node_death(backup)
    # Only the primary survives: no third node to re-reserve on.
    assert report.degraded == ["a"]
    assert eng.stats.degraded == 1
    assert eng.embedding_of("a").backups == []


def test_recovery_restores_capacity():
    eng = engine(k=0, nodes=1)
    assert eng.place(Subscriber("a", reservation_grps=10))
    eng.on_node_death("rpn0")
    assert not eng.place(Subscriber("b", reservation_grps=10))
    eng.on_node_recovery("rpn0")
    assert eng.place(Subscriber("c", reservation_grps=10))


def test_double_place_raises():
    eng = engine()
    assert eng.place(Subscriber("a", reservation_grps=1))
    with pytest.raises(RuntimeError):
        eng.place(Subscriber("a", reservation_grps=1))


def test_rejects_unknown_objective():
    with pytest.raises(ValueError):
        PlacementEngine(objective="nonsense")
    with pytest.raises(ValueError):
        PlacementEngine(k_backup=-1)


def _two_tier_engine():
    # "prim" and "b1" are small (100 GRPS), "b2" is big (300 GRPS): the
    # same absolute reservations utilize b2 three times less.
    eng = PlacementEngine(k_backup=2)
    eng.add_node("prim", NODE_CAPACITY)
    eng.add_node("b1", NODE_CAPACITY)
    eng.add_node("b2", ResourceVector(3.0, 3.0, 600_000.0))
    # Best-fit primaries tie-break to insertion order, so both land on
    # "prim"; backups sort least-utilized-first.
    assert eng.place(Subscriber("s1", reservation_grps=50))
    assert eng.place(Subscriber("s2", reservation_grps=10))
    assert eng.embedding_of("s1").primary == "prim"
    assert eng.embedding_of("s2").primary == "prim"
    assert eng.embedding_of("s1").backups == ["b1", "b2"]
    assert eng.embedding_of("s2").backups == ["b2", "b1"]
    return eng


def test_promotion_picks_the_least_loaded_backup():
    # At death time b1 is 60% utilized (both reservations on 100 GRPS)
    # and b2 only 20% (same 60 on 300 GRPS): promotion must land on b2
    # even though s1 reserved b1 first.
    eng = _two_tier_engine()
    report = eng.on_node_death("prim")
    assert report.violated == []
    assert sorted(report.promoted) == ["s1", "s2"]
    assert eng.embedding_of("s1").primary == "b2"
    assert eng.embedding_of("s2").primary == "b2"


def test_repeated_deaths_keep_rekeyed_reservations():
    # After the first promotion the surviving backup's reservation is
    # re-keyed to the new primary, so a second death still finds it and
    # promotes without violating any guarantee.
    eng = _two_tier_engine()
    eng.on_node_death("prim")
    assert eng.embedding_of("s1").backups == ["b1"]
    report = eng.on_node_death("b2")
    assert report.violated == []
    assert sorted(report.promoted) == ["s1", "s2"]
    assert eng.embedding_of("s1").primary == "b1"
    assert eng.embedding_of("s2").primary == "b1"
    assert eng.stats.violations == 0
    # b1 now carries both promoted demands as primary use.
    view = eng.node_view("b1")
    assert view.committed.in_generic_requests(GENERIC_REQUEST) == pytest.approx(60.0)


def test_backup_reservations_are_summed_not_shared():
    # Two 40-GRPS primaries on different nodes both backing up on the
    # same third node must reserve 80 there — so a 30-GRPS primary no
    # longer fits that node.
    eng = PlacementEngine(k_backup=1)
    eng.add_node("p1", NODE_CAPACITY)
    eng.add_node("p2", NODE_CAPACITY)
    eng.add_node("shared", ResourceVector(0.85, 0.85, 170_000.0))
    assert eng.place(Subscriber("a", reservation_grps=40))
    assert eng.place(Subscriber("b", reservation_grps=40))
    view = eng.node_view("shared")
    reserved_grps = view.committed.in_generic_requests(GENERIC_REQUEST)
    assert reserved_grps == pytest.approx(80.0)
