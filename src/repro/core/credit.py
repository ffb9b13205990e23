"""The credit ledger: per-subscriber credit vectors and spare-pool state.

Extracted from :class:`~repro.core.scheduler.RequestScheduler`; every
scheduler instance — the simulated RDN's or one proxy worker's — owns
one.  The ledger owns the three pieces of state the WRR cycle needs beyond the balances
themselves:

- the **credit memo** — each subscriber's per-cycle refill vector and
  hoard cap depend only on its reservation and two config constants, so
  they are computed once and reused every 10 ms cycle.  The memo is
  array-backed by the interned subscriber id on the hot path
  (:meth:`cycle_credit_by_id`), with the name-keyed :meth:`cycle_credit`
  kept for standalone use;
- the **reserved sum** — the summed reservation vector behind the
  spare-pool computation (capacity minus reservations).  The scheduler
  feeds registrations through :meth:`add_reservation` /
  :meth:`remove_reservation` so the sum is maintained incrementally:
  O(1) per cycle;
- the **spare deficit** — deficit-round-robin rollover of unused spare
  share, without which each queue forfeits its fractional share every
  cycle.

All arithmetic is kept in exactly the order the scheduler performed it
before the extraction: a fixed-seed run through the ledger is
byte-identical to one through the pre-extraction scheduler (the golden
digest pins this).  In particular the incremental reserved sum adds
vectors in registration order — the same float-summation order as the
historical full rebuild — so no-churn runs are bit-equal; only a
removal (churn) produces a sum the rebuild would not, and nothing is
pinned under churn.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.core.config import (
    SPARE_BY_INPUT_LOAD,
    SPARE_BY_RESERVATION,
    GageConfig,
)
from repro.core.grps import ResourceVector
from repro.core.queues import RequestQueue
from repro.core.subscriber import Subscriber

#: One credit-memo entry: (reservation_grps, refill, hoard cap).
_CreditEntry = Tuple[float, ResourceVector, ResourceVector]


class CreditLedger:
    """Credit vectors, spare-pool math, and deficit rollover for one
    scheduler instance."""

    def __init__(self, config: GageConfig) -> None:
        self.config = config
        #: Per-subscriber (reservation_grps, credit, capped_credit) memo.
        self._credit_cache: Dict[str, _CreditEntry] = {}
        #: Dense-id mirror of the credit memo for the scheduler hot path.
        self._credit_by_id: List[Optional[_CreditEntry]] = []
        #: Incrementally-tracked reservation sum (per cycle) over the
        #: subscribers fed through add_reservation/remove_reservation.
        self._tracked_reserved = ResourceVector.ZERO
        #: name → tracked per-cycle reservation vector, for exact removal.
        self._tracked: Dict[str, ResourceVector] = {}
        #: Deficit-round-robin rollover of unused spare share.
        self._spare_deficit: Dict[str, ResourceVector] = {}

    # -- reserved credit ----------------------------------------------------

    def cycle_credit(
        self, subscriber: Subscriber
    ) -> Tuple[ResourceVector, ResourceVector]:
        """(one cycle's refill, hoard cap) for one subscriber.

        The cap bounds idle-time credit hoarding at
        ``credit_cap_cycles`` refills; callers further raise it to at
        least 1.5 predicted requests so heavy-tailed workloads can
        always dispatch (see :meth:`refill_cap`).
        """
        grps = subscriber.reservation_grps
        cached = self._credit_cache.get(subscriber.name)
        if cached is not None and cached[0] == grps:
            return cached[1], cached[2]
        entry = self._compute_credit(subscriber)
        self._credit_cache[subscriber.name] = entry
        return entry[1], entry[2]

    def cycle_credit_by_id(
        self, sid: int, subscriber: Subscriber
    ) -> Tuple[ResourceVector, ResourceVector]:
        """Dense-id variant of :meth:`cycle_credit` (the hot path)."""
        cache = self._credit_by_id
        if sid < len(cache):
            cached = cache[sid]
            if cached is not None and cached[0] == subscriber.reservation_grps:
                return cached[1], cached[2]
        entry = self._compute_credit(subscriber)
        while len(cache) <= sid:
            cache.append(None)
        cache[sid] = entry
        self._credit_cache[subscriber.name] = entry
        return entry[1], entry[2]

    def forget_credit(self, name: str, sid: int = -1) -> None:
        """Drop a departed subscriber's memo entries (churn)."""
        self._credit_cache.pop(name, None)
        if 0 <= sid < len(self._credit_by_id):
            self._credit_by_id[sid] = None

    def _compute_credit(self, subscriber: Subscriber) -> _CreditEntry:
        cycle = self.config.scheduling_cycle_s
        credit = subscriber.reservation_vector(self.config.generic_request).scaled(cycle)
        capped = credit.scaled(self.config.credit_cap_cycles)
        return (subscriber.reservation_grps, credit, capped)

    @staticmethod
    def refill_cap(
        capped: ResourceVector, predicted: ResourceVector
    ) -> ResourceVector:
        """The effective hoard cap: never below 1.5 predicted requests.

        A subscriber whose requests are larger than
        ``credit_cap_cycles``' worth of credit (heavy-tailed workloads)
        could otherwise never dispatch again.
        """
        return capped.max(predicted.scaled(1.5))

    # -- spare pool ---------------------------------------------------------

    def add_reservation(self, subscriber: Subscriber) -> None:
        """Fold one subscriber's reservation into the tracked sum.

        Idempotent per name (re-adding with an unchanged reservation is
        a no-op); a changed reservation replaces the old contribution.
        """
        cycle = self.config.scheduling_cycle_s
        vec = subscriber.reservation_vector(self.config.generic_request).scaled(cycle)
        old = self._tracked.get(subscriber.name)
        if old is not None:
            if old == vec:
                return
            self._tracked_reserved = self._tracked_reserved - old
        self._tracked[subscriber.name] = vec
        self._tracked_reserved = self._tracked_reserved + vec

    def remove_reservation(self, name: str) -> None:
        """Subtract a departing subscriber's reservation from the sum."""
        vec = self._tracked.pop(name, None)
        if vec is not None:
            self._tracked_reserved = self._tracked_reserved - vec

    def spare_pool_tracked(self, capacity_per_s: ResourceVector) -> ResourceVector:
        """Capacity this cycle beyond the tracked reservation sum.

        O(1): uses the incrementally-maintained sum instead of walking
        every subscriber — the scheduler keeps the tracked set in sync
        through its queue-registration hooks.
        """
        capacity = capacity_per_s.scaled(self.config.scheduling_cycle_s)
        return (capacity - self._tracked_reserved).clamped_min(0.0)

    def spare_weights(self, backlogged: List[RequestQueue]) -> Dict[str, float]:
        """Normalized spare-share weights over the backlogged queues."""
        weights: Dict[str, float]
        if self.config.spare_policy == SPARE_BY_RESERVATION:
            weights = {
                q.subscriber.name: q.subscriber.reservation_grps for q in backlogged
            }
        elif self.config.spare_policy == SPARE_BY_INPUT_LOAD:
            weights = {q.subscriber.name: float(q.arrived) for q in backlogged}
        else:
            return {}
        total = sum(weights.values())
        if total <= 0:
            # Degenerate case (all-zero reservations/loads): equal shares.
            return {name: 1.0 / len(weights) for name in weights}
        return {name: weight / total for name, weight in weights.items()}

    # -- spare deficit (DRR rollover) ---------------------------------------

    def roll_in_deficit(
        self, name: str, share: ResourceVector, predicted: ResourceVector
    ) -> ResourceVector:
        """``share`` plus the rolled-over unused share from previous cycles.

        The rollover cap is two cycles' share, but never below 1.5
        predicted requests — otherwise a subscriber whose requests cost
        more than 2x its per-cycle share could never accumulate enough
        spare to dispatch even one.
        """
        deficit = self._spare_deficit.get(name, ResourceVector.ZERO)
        cap = share.scaled(2.0).max(predicted.scaled(1.5))
        return share + ResourceVector(
            min(deficit.cpu_s, cap.cpu_s),
            min(deficit.disk_s, cap.disk_s),
            min(deficit.net_bytes, cap.net_bytes),
        )

    def store_deficit(self, name: str, remainder: ResourceVector) -> None:
        """Roll a queue's unspent first-round share over to the next cycle."""
        self._spare_deficit[name] = remainder.clamped_min(0.0)

    def drop_stale_deficits(self, active: Set[str]) -> None:
        """Queues that were never backlogged this cycle hoard no deficit.

        Stale entries are deleted outright (a missing entry reads as
        zero in :meth:`roll_in_deficit`, so this is observationally the
        zeroing the ledger used to do) — the dict stays sized by the
        backlogged set, not by every subscriber ever backlogged.
        """
        for name in list(self._spare_deficit):
            if name not in active:
                del self._spare_deficit[name]
