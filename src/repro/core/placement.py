"""Online virtual-cluster embedding of subscriber reservations onto RPNs.

An extension beyond the paper (off by default): the paper's Gage
scheduler assumes every RPN can serve every subscriber, which stops
scaling once subscriber state (content, sessions, models) must actually
*live* somewhere.  Gage's GRPS reservations are virtual-cluster
embeddings, so this layer follows the online-embedding-with-admission-
control literature — "Opposites Attract: Virtual Cluster Embedding for
Profit" (profit-driven accept/reject) and "Survivable and
Bandwidth-Guaranteed Embedding of Virtual Clusters in Cloud Data
Centers" (backup capacity reserved ahead of failures):

- each subscriber is embedded on one **primary** RPN plus ``k`` backup
  RPNs whose capacity is *reserved* (not used) for it;
- **admission control**: a reservation that cannot be embedded without
  overcommitting any node — primaries plus reserved backups — is
  rejected outright, instead of being admitted and violated later;
- the placement **objective is pluggable**: ``utilization`` packs
  (best-fit, maximize utilization of touched nodes), ``profit`` spreads
  (prefer low-utilization nodes and refuse marginal-profit placements
  on nearly-full ones), or any callable scoring (node view, demand);
- on **node death** every subscriber whose primary died is promoted to
  a backup whose capacity was reserved in advance — because backup
  reservations are summed per node (never statistically shared across
  primaries), the promotion can never overcommit the backup, so a
  single node death breaks **zero** guarantees when ``k >= 1``.

The scheduler consults :meth:`PlacementEngine.allowed_nodes` per
dispatch; with the policy off the engine is absent and dispatch is
unrestricted — fixed-seed paper runs are untouched (golden digest).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.core.config import (
    PLACEMENT_OFF,
    PLACEMENT_PROFIT,
    PLACEMENT_UTILIZATION,
)
from repro.core.grps import GENERIC_REQUEST, ResourceVector
from repro.core.subscriber import Subscriber
from repro.telemetry.registry import get_registry

__all__ = [
    "PLACEMENT_OFF",
    "PLACEMENT_UTILIZATION",
    "PLACEMENT_PROFIT",
    "PlacementEngine",
    "PlacementStats",
    "NodeView",
    "Embedding",
    "DeathReport",
    "utilization_objective",
    "profit_objective",
]

#: The profit objective refuses placements that would push a node's
#: dominant utilization past this fraction — the "marginal revenue no
#: longer covers marginal congestion cost" cutoff, simplified to a
#: threshold.
PROFIT_MAX_UTILIZATION = 0.90

#: Feasibility slack for float comparisons against capacity.
_EPSILON = 1e-9


@dataclass(frozen=True)
class NodeView:
    """Read-only node state handed to placement objectives."""

    rpn_id: str
    capacity: ResourceVector
    #: Primary demand plus summed backup reservations.
    committed: ResourceVector

    def utilization(self) -> float:
        """Dominant-component committed fraction of capacity."""
        return self.committed.dominant_fraction_of(self.capacity)

    def utilization_with(self, demand: ResourceVector) -> float:
        """Dominant utilization if ``demand`` were added."""
        return (self.committed + demand).dominant_fraction_of(self.capacity)


#: Scores one candidate node for one demand: higher wins; ``None``
#: rejects the candidate outright (admission control).
Objective = Callable[[NodeView, float], Optional[float]]


def utilization_objective(view: NodeView, demand_grps: float) -> Optional[float]:
    """Best-fit packing: prefer the node the placement fills the most."""
    return view.utilization()


def profit_objective(view: NodeView, demand_grps: float) -> Optional[float]:
    """Profit-driven spread: revenue weighted by remaining headroom.

    Refuses candidates already past :data:`PROFIT_MAX_UTILIZATION` —
    the marginal congestion cost of a nearly-full node exceeds the
    marginal revenue of one more reservation.
    """
    utilization = view.utilization()
    if utilization > PROFIT_MAX_UTILIZATION:
        return None
    return demand_grps * (1.0 - utilization)


_OBJECTIVES: Dict[str, Objective] = {
    PLACEMENT_UTILIZATION: utilization_objective,
    PLACEMENT_PROFIT: profit_objective,
}


@dataclass
class _Node:
    """Mutable per-RPN embedding state."""

    rpn_id: str
    capacity: ResourceVector
    up: bool = True
    #: Demand of subscribers whose primary is this node.
    primary_used: ResourceVector = field(
        default_factory=lambda: ResourceVector.ZERO
    )
    #: primary rpn_id → summed demand of subscribers backed up here
    #: whose primary is that node.  Backup reservation is the *sum* of
    #: the values: conservative, but what makes promotion overflow-free.
    backup_by_primary: Dict[str, ResourceVector] = field(default_factory=dict)
    #: Running sum of ``backup_by_primary`` values.  ``fits``/``view``
    #: run once per candidate node per admission, so recomputing the sum
    #: there would make every placement O(primaries backed up per node);
    #: mutate the map only through ``add_backup``/``drop_backup``.
    _backup_total: ResourceVector = field(
        default_factory=lambda: ResourceVector.ZERO
    )

    def backup_reserved(self) -> ResourceVector:
        return self._backup_total

    def add_backup(self, primary: str, demand: ResourceVector) -> None:
        self.backup_by_primary[primary] = (
            self.backup_by_primary.get(primary, ResourceVector.ZERO) + demand
        )
        self._backup_total = self._backup_total + demand

    def drop_backup(self, primary: str, demand: ResourceVector) -> None:
        current = self.backup_by_primary.get(primary)
        if current is None:
            return
        remaining = (current - demand).clamped_min(0.0)
        removed = current - remaining
        self._backup_total = (self._backup_total - removed).clamped_min(0.0)
        if (
            remaining.cpu_s <= _EPSILON
            and remaining.disk_s <= _EPSILON
            and remaining.net_bytes <= _EPSILON
        ):
            del self.backup_by_primary[primary]
        else:
            self.backup_by_primary[primary] = remaining
        if not self.backup_by_primary:
            # Pin the running total back to exact zero so float drift
            # from repeated add/subtract cannot accumulate across churn.
            self._backup_total = ResourceVector.ZERO

    def clear_backups(self) -> None:
        self.backup_by_primary.clear()
        self._backup_total = ResourceVector.ZERO

    def committed(self) -> ResourceVector:
        return self.primary_used + self._backup_total

    def view(self) -> NodeView:
        return NodeView(self.rpn_id, self.capacity, self.committed())

    def fits(self, extra: ResourceVector) -> bool:
        after = self.committed() + extra
        cap = self.capacity
        return (
            after.cpu_s <= cap.cpu_s + _EPSILON
            and after.disk_s <= cap.disk_s + _EPSILON
            and after.net_bytes <= cap.net_bytes + _EPSILON
        )


@dataclass
class Embedding:
    """Where one subscriber's reservation lives."""

    name: str
    demand: ResourceVector
    demand_grps: float
    primary: str
    backups: List[str]


@dataclass
class PlacementStats:
    """Admission and survivability counters."""

    offered: int = 0
    accepted: int = 0
    rejected: int = 0
    released: int = 0
    #: Primaries promoted to a pre-reserved backup after a node death.
    promoted: int = 0
    #: Guarantee violations: a primary died with no live backup.
    violations: int = 0
    #: Embeddings left short of k backups after a death (best-effort
    #: re-reservation failed) — degraded resilience, not a violation.
    degraded: int = 0
    #: Replacement backups successfully re-reserved after a death.
    reembedded: int = 0

    def acceptance_ratio(self) -> float:
        return self.accepted / self.offered if self.offered else 1.0


@dataclass
class DeathReport:
    """What :meth:`PlacementEngine.on_node_death` did."""

    promoted: List[str] = field(default_factory=list)
    violated: List[str] = field(default_factory=list)
    degraded: List[str] = field(default_factory=list)


class PlacementEngine:
    """Online embedding with admission control and k-resilient backups."""

    def __init__(
        self,
        k_backup: int = 1,
        objective: str = PLACEMENT_UTILIZATION,
        generic: ResourceVector = GENERIC_REQUEST,
        custom_objective: Optional[Objective] = None,
    ) -> None:
        if k_backup < 0:
            raise ValueError("k_backup must be non-negative")
        if custom_objective is None and objective not in _OBJECTIVES:
            raise ValueError("unknown placement objective: {!r}".format(objective))
        self.k_backup = k_backup
        self.objective_name = objective if custom_objective is None else "custom"
        self._objective: Objective = (
            custom_objective if custom_objective is not None else _OBJECTIVES[objective]
        )
        self._generic = generic
        #: rpn_id → node state, in registration order.
        self._nodes: Dict[str, _Node] = {}
        self._embeddings: Dict[str, Embedding] = {}
        #: name → frozen allowed-node set (the primary); empty set for
        #: known-but-unhosted subscribers (rejected/awaiting capacity).
        self._hosts: Dict[str, FrozenSet[str]] = {}
        self.stats = PlacementStats()
        registry = get_registry()
        self._tm_accepted = registry.counter("repro.core.placement_accepted")
        self._tm_rejected = registry.counter("repro.core.placement_rejected")
        self._tm_violations = registry.counter("repro.core.placement_violations")
        self._tm_promoted = registry.counter("repro.core.placement_promoted")

    def __len__(self) -> int:
        return len(self._embeddings)

    def __repr__(self) -> str:
        return "<PlacementEngine {} embedded on {} nodes (k={}, {})>".format(
            len(self._embeddings), len(self._nodes), self.k_backup, self.objective_name
        )

    # -- topology -----------------------------------------------------------

    def add_node(self, rpn_id: str, capacity_per_s: ResourceVector) -> None:
        """Admit one RPN's capacity into the embedding substrate."""
        node = self._nodes.get(rpn_id)
        if node is not None:
            node.capacity = capacity_per_s
            node.up = True
            return
        self._nodes[rpn_id] = _Node(rpn_id, capacity_per_s)

    def node_view(self, rpn_id: str) -> Optional[NodeView]:
        node = self._nodes.get(rpn_id)
        return None if node is None else node.view()

    # -- admission (online embedding) ---------------------------------------

    def place(self, subscriber: Subscriber) -> bool:
        """Embed one subscriber; False = rejected (admission control).

        The primary must fit the demand on top of everything already
        committed (primaries + backup reservations); each of the ``k``
        backups must fit it as a *reservation*.  Nothing is committed
        unless the whole embedding is feasible — accept/reject is
        atomic.
        """
        self.stats.offered += 1
        name = subscriber.name
        if name in self._embeddings:
            raise RuntimeError("subscriber {!r} already placed".format(name))
        demand = subscriber.reservation_vector(self._generic)
        primary = self._choose_primary(demand, subscriber.reservation_grps)
        if primary is None:
            return self._reject(name)
        backups = self._choose_backups(primary, demand, self.k_backup)
        if backups is None:
            return self._reject(name)
        # Commit.
        primary_node = self._nodes[primary]
        primary_node.primary_used = primary_node.primary_used + demand
        for backup in backups:
            self._nodes[backup].add_backup(primary, demand)
        self._embeddings[name] = Embedding(
            name, demand, subscriber.reservation_grps, primary, list(backups)
        )
        self._hosts[name] = frozenset((primary,))
        self.stats.accepted += 1
        self._tm_accepted.inc()
        return True

    def _reject(self, name: str) -> bool:
        self._hosts[name] = frozenset()
        self.stats.rejected += 1
        self._tm_rejected.inc()
        return False

    def _choose_primary(
        self, demand: ResourceVector, demand_grps: float
    ) -> Optional[str]:
        best: Optional[str] = None
        best_score = 0.0
        for node in self._nodes.values():
            if not node.up or not node.fits(demand):
                continue
            view = NodeView(node.rpn_id, node.capacity, node.committed() + demand)
            score = self._objective(view, demand_grps)
            if score is None:
                continue
            if best is None or score > best_score:
                best = node.rpn_id
                best_score = score
        return best

    def _choose_backups(
        self, primary: str, demand: ResourceVector, k: int
    ) -> Optional[List[str]]:
        """Pick ``k`` distinct backup nodes that can reserve ``demand``.

        Preference: least-utilized first, so backup reservations spread
        and survive node deaths elsewhere.  Returns None when fewer than
        ``k`` feasible backups exist (the embedding is rejected).
        """
        chosen: List[str] = []
        if k == 0:
            return chosen
        candidates: List[Tuple[float, int, str]] = []
        for index, node in enumerate(self._nodes.values()):
            if not node.up or node.rpn_id == primary:
                continue
            if not node.fits(demand):
                continue
            candidates.append((node.view().utilization(), index, node.rpn_id))
        candidates.sort()
        for _, _, rpn_id in candidates:
            chosen.append(rpn_id)
            if len(chosen) == k:
                return chosen
        return None

    # -- release (churn) ----------------------------------------------------

    def release(self, name: str) -> bool:
        """Free a departing subscriber's primary demand and reservations."""
        self._hosts.pop(name, None)
        embedding = self._embeddings.pop(name, None)
        if embedding is None:
            return False
        node = self._nodes.get(embedding.primary)
        if node is not None:
            node.primary_used = (node.primary_used - embedding.demand).clamped_min(0.0)
        for backup in embedding.backups:
            self._drop_backup(backup, embedding.primary, embedding.demand)
        self.stats.released += 1
        return True

    def _drop_backup(
        self, backup: str, primary: str, demand: ResourceVector
    ) -> None:
        node = self._nodes.get(backup)
        if node is not None:
            node.drop_backup(primary, demand)

    # -- dispatch restriction ------------------------------------------------

    def allowed_nodes(self, name: str) -> Optional[FrozenSet[str]]:
        """The RPNs a subscriber may be dispatched to.

        The frozen primary singleton for a placed subscriber; the empty
        set for a known-but-unhosted one (rejected, or awaiting
        capacity) — its requests stay queued; ``None`` for a name this
        engine has never seen (unrestricted, so an engine can be wired
        in front of subscribers it does not manage).
        """
        return self._hosts.get(name)

    # -- failure handling ----------------------------------------------------

    def on_node_death(self, rpn_id: str) -> DeathReport:
        """Promote every affected subscriber to a pre-reserved backup.

        For each embedding whose primary died, the first live backup
        becomes the new primary; the capacity was already *reserved*
        there (summed, never shared), so the promotion cannot overcommit
        — with ``k >= 1`` and a single death there are zero guarantee
        violations, which a test pins.  Afterwards a replacement backup
        is re-reserved best-effort (failure = degraded, counted, not a
        violation).  Embeddings that merely *backed up* on the dead node
        also re-reserve elsewhere best-effort.
        """
        report = DeathReport()
        node = self._nodes.get(rpn_id)
        if node is None:
            return report
        node.up = False
        for embedding in list(self._embeddings.values()):
            if embedding.primary == rpn_id:
                self._promote(embedding, report)
            elif rpn_id in embedding.backups:
                embedding.backups.remove(rpn_id)
                self._replenish_backups(embedding, report)
        # The dead node's own state is void: its primaries were promoted
        # away and its reservations protect nobody while it is down.
        node.primary_used = ResourceVector.ZERO
        node.clear_backups()
        return report

    def _promote(self, embedding: Embedding, report: DeathReport) -> None:
        dead = embedding.primary
        new_primary = self._pick_promotion(embedding, dead)
        if new_primary is None:
            # No live backup: the guarantee is broken until re-admission.
            self.stats.violations += 1
            self._tm_violations.inc()
            report.violated.append(embedding.name)
            del self._embeddings[embedding.name]
            self._hosts[embedding.name] = frozenset()
            return
        primary_node = self._nodes[new_primary]
        primary_node.primary_used = primary_node.primary_used + embedding.demand
        embedding.primary = new_primary
        self._hosts[embedding.name] = frozenset((new_primary,))
        self.stats.promoted += 1
        self._tm_promoted.inc()
        report.promoted.append(embedding.name)
        self._replenish_backups(embedding, report)

    def _pick_promotion(self, embedding: Embedding, dead: str) -> Optional[str]:
        """Choose (and claim) the backup to promote; ``None`` = violation.

        The chosen backup's reservation (keyed by the dead primary) is
        dropped — its capacity converts into primary use in ``_promote``
        — as are the reservations of any dead backups encountered, whose
        reserved capacity protects nobody.

        Every live backup is scanned and the one with the lowest
        committed utilization is promoted (ties keep backup-list order),
        so repeated deaths re-balance instead of piling onto whichever
        backup was reserved first.
        """
        best: Optional[str] = None
        best_utilization = 0.0
        for candidate in embedding.backups:
            node = self._nodes.get(candidate)
            if node is None or not node.up:
                continue
            utilization = node.view().utilization()
            if best is None or utilization < best_utilization:
                best = candidate
                best_utilization = utilization
        if best is None:
            # No live backup: every reservation in the list is moot.
            for candidate in embedding.backups:
                self._drop_backup(candidate, dead, embedding.demand)
            embedding.backups.clear()
            return None
        embedding.backups.remove(best)
        self._drop_backup(best, dead, embedding.demand)
        for candidate in list(embedding.backups):
            node = self._nodes.get(candidate)
            if node is None or not node.up:
                embedding.backups.remove(candidate)
                self._drop_backup(candidate, dead, embedding.demand)
                continue
            # Re-key the surviving reservation under the incoming
            # primary, so a future death of *that* primary finds and
            # releases it (the totals are unchanged).
            node.drop_backup(dead, embedding.demand)
            node.add_backup(best, embedding.demand)
        return best

    def _replenish_backups(self, embedding: Embedding, report: DeathReport) -> None:
        """Re-reserve replacement backups up to ``k``, best-effort."""
        missing = self.k_backup - len(embedding.backups)
        while missing > 0:
            candidate = self._pick_replacement(embedding)
            if candidate is None:
                self.stats.degraded += 1
                report.degraded.append(embedding.name)
                return
            self._nodes[candidate].add_backup(embedding.primary, embedding.demand)
            embedding.backups.append(candidate)
            self.stats.reembedded += 1
            missing -= 1

    def _pick_replacement(self, embedding: Embedding) -> Optional[str]:
        best: Optional[str] = None
        best_utilization = 0.0
        taken = set(embedding.backups)
        taken.add(embedding.primary)
        for node in self._nodes.values():
            if not node.up or node.rpn_id in taken:
                continue
            if not node.fits(embedding.demand):
                continue
            utilization = node.view().utilization()
            if best is None or utilization < best_utilization:
                best = node.rpn_id
                best_utilization = utilization
        return best

    def on_node_recovery(self, rpn_id: str) -> None:
        """Re-admit a recovered node as empty capacity."""
        node = self._nodes.get(rpn_id)
        if node is not None:
            node.up = True

    # -- introspection -------------------------------------------------------

    def embedding_of(self, name: str) -> Optional[Embedding]:
        return self._embeddings.get(name)

    def committed_fraction(self) -> float:
        """Cluster-wide dominant committed fraction (primaries+backups)."""
        total_capacity = ResourceVector.ZERO
        total_committed = ResourceVector.ZERO
        for node in self._nodes.values():
            if not node.up:
                continue
            total_capacity = total_capacity + node.capacity
            total_committed = total_committed + node.committed()
        if total_capacity == ResourceVector.ZERO:
            return 0.0
        return total_committed.dominant_fraction_of(total_capacity)
