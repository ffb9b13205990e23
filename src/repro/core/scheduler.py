"""The "which request" decision: credit-based weighted round-robin (§3.4).

Every scheduling cycle (10 ms) the scheduler visits each subscriber queue
in a cyclic fashion:

1. **Reserved pass** — the queue's balance gains one cycle's worth of its
   reservation; requests are dispatched (predicted usage deducted from the
   balance, a least-loaded RPN selected) until the balance would go
   negative in any resource dimension, the queue empties, or no RPN has
   headroom.
2. **Spare pass** — "whatever spare resource remains after the first
   round of scheduling is then distributed in a weighted fashion among
   those queues that are still not empty according to their resource
   reservations" — the policy Table 2 demonstrates ("higher reservation
   gets larger share of spare resource").

Scale notes (the million-subscriber refactor): the per-cycle walk is
**O(active)**, not O(registered).  A subscriber *settles* out of the
walk once it is idle and its refill is an exact fixed point — queue
empty, and per resource component either the balance already sits at
the hoard cap or the refill component is zero.  Skipping such a
subscriber is provably a no-op: the refill would not change the balance,
the drain would not dispatch, and the balance gauge would re-export the
same value.  It re-enters the walk ("wakes") when its queue sees an
``offer``/``requeue`` (the queues' activity set) or any non-refill
balance mutation lands (the accounting's dirty set) — feedback,
spare credit, cancellation refunds, node death, or an external by-name
account access.  Because settling requires the *exact* fixed point, the
fixed-seed dispatch/accounting stream is byte-identical to the historic
every-subscriber walk (the golden digest pins this).

The walk addresses a queue and its account by one dense id, so the
queues and the accounting must share one
:class:`~repro.core.subscriber.SubscriberTable`; the constructor rejects
separate tables.  The simulated RDN and the proxy front end both wire
them that way, so both run this one walk.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set

from repro.core.accounting import RDNAccounting, SubscriberAccount
from repro.core.config import (
    SPARE_NONE,
    GageConfig,
)
from repro.core.credit import CreditLedger
from repro.core.estimator import UsageEstimator
from repro.core.grps import ResourceVector
from repro.core.node_scheduler import NodeScheduler
from repro.core.placement import PlacementEngine
from repro.core.queues import RequestQueue, SubscriberQueues
from repro.telemetry.registry import get_registry

#: Invoked for every dispatched request as (request, rpn_id, subscriber,
#: predicted) — the exact prediction charged at dispatch rides along so
#: downstream layers (hedging, retries) can refund it on cancellation.
DispatchFn = Callable[[object, str, str, ResourceVector], None]

#: Bucket bounds for the prediction-error histogram, in percent.
PREDICTION_ERROR_BUCKETS_PCT = [1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0]


@dataclass(frozen=True)
class ScheduleDecision:
    """One dispatch made during a scheduling cycle."""

    subscriber: str
    rpn_id: str
    predicted: ResourceVector
    spare: bool  # True if dispatched on spare (not reserved) credit


class RequestScheduler:
    """Gage's request scheduler, run once per scheduling cycle."""

    def __init__(
        self,
        config: GageConfig,
        queues: SubscriberQueues,
        accounting: RDNAccounting,
        node_scheduler: NodeScheduler,
        dispatch_fn: DispatchFn,
        placement: Optional[PlacementEngine] = None,
    ) -> None:
        if queues.table is not accounting.table:
            raise ValueError(
                "the queues and the accounting must share one SubscriberTable"
            )
        self.config = config
        self.queues = queues
        self.accounting = accounting
        self.node_scheduler = node_scheduler
        self.dispatch_fn = dispatch_fn
        #: Credit vectors, the reserved sum, and the deficit-round-robin
        #: rollover.
        self.ledger = CreditLedger(config)
        #: Optional placement layer: when present, each subscriber may
        #: only be dispatched to the RPNs its embedding allows.
        self.placement = placement
        self._estimators: Dict[str, UsageEstimator] = {}
        #: O(active) machinery: ids scheduled next cycle.
        self._active: Set[int] = set(queues.sorted_ids())
        for queue in queues:
            self.ledger.add_reservation(queue.subscriber)
        queues.on_register.append(self._on_queue_registered)
        queues.on_unregister.append(self._on_queue_unregistered)
        self.cycles = 0
        self.reserved_dispatches = 0
        self.spare_dispatches = 0
        registry = get_registry()
        self._cycle_counter = registry.counter("repro.core.wrr_cycles")
        self._reserved_counter = registry.counter(
            "repro.core.dispatches", credit="reserved"
        )
        self._spare_counter = registry.counter("repro.core.dispatches", credit="spare")
        self._spare_round_counter = registry.counter("repro.core.spare_rounds")
        #: Per-node spare GRPS absorbed, lazily created per rpn_id —
        #: makes heterogeneous spare distribution (fast nodes absorb
        #: proportionally more) observable in snapshots.
        self._spare_share_counters: Dict[str, object] = {}
        self._prediction_error = registry.histogram(
            "repro.core.prediction_error_pct", bounds=PREDICTION_ERROR_BUCKETS_PCT
        )
        self._balance_gauges: Dict[str, object] = {}

    # -- registration hooks (subscriber churn) -------------------------------

    def _on_queue_registered(self, queue: RequestQueue) -> None:
        self.ledger.add_reservation(queue.subscriber)
        self._active.add(queue.sid)

    def _on_queue_unregistered(self, queue: RequestQueue) -> None:
        name = queue.subscriber.name
        self.ledger.remove_reservation(name)
        self.ledger.forget_credit(name, queue.sid)
        self._active.discard(queue.sid)
        self._estimators.pop(name, None)
        self._balance_gauges.pop(name, None)

    def estimator(self, name: str) -> UsageEstimator:
        """The usage estimator for one subscriber's queue.

        External access wakes the subscriber: the caller may mutate the
        estimator, which changes the refill cap a settled subscriber was
        judged against.
        """
        estimator = self._estimator(name)
        queue = self.queues.get(name)
        if queue is not None:
            self._active.add(queue.sid)
        return estimator

    def _estimator(self, name: str) -> UsageEstimator:
        estimator = self._estimators.get(name)
        if estimator is None:
            estimator = UsageEstimator(
                policy=self.config.estimator_policy,
                alpha=self.config.estimator_alpha,
                initial=self.config.generic_request,
            )
            self._estimators[name] = estimator
        return estimator

    def active_count(self) -> int:
        """Subscribers currently in the per-cycle scheduling walk."""
        return len(self._active)

    # -- one scheduling cycle -------------------------------------------------

    def run_cycle(self) -> List[ScheduleDecision]:
        """Execute one 10-ms scheduling cycle; returns the dispatches made."""
        self.cycles += 1
        self._cycle_counter.inc()
        decisions: List[ScheduleDecision] = []
        queues = self.queues
        active = self._active

        # Wake subscribers with activity since the last cycle.
        for sid in queues.drain_activity():
            active.add(sid)
        for sid in self.accounting.drain_dirty():
            active.add(sid)

        # Pass 1: reserved credit, weighted round-robin over the active
        # queues.  The visit order rotates each cycle over the *full*
        # registered order ("visits each subscriber's queue in a cyclic
        # fashion", §3.4), so no queue systematically claims node
        # headroom first; the active subset is visited in that same
        # rotated cyclic order.
        order = queues.sorted_ids()
        if order and active:
            pivot = order[self.cycles % len(order)]
            ready = sorted(active)
            split = bisect.bisect_left(ready, pivot)
            for sid in ready[split:] + ready[:split]:
                queue = queues.get_by_id(sid)
                if queue is None:
                    active.discard(sid)
                    continue
                subscriber = queue.subscriber
                name = subscriber.name
                credit, capped = self.ledger.cycle_credit_by_id(sid, subscriber)
                # The cap bounds idle-time credit hoarding, but must always
                # admit at least one predicted request or a subscriber whose
                # requests are larger than credit_cap_cycles' worth of credit
                # (heavy-tailed workloads) could never dispatch again.
                estimator = self._estimator(name)
                predicted = estimator.predict()
                cap = self.ledger.refill_cap(capped, predicted)
                account = self.accounting.account_by_id(sid)
                if account is None:
                    raise KeyError(name)
                self.accounting.refill_account(account, credit, cap)
                decisions.extend(self._drain_reserved(queue, account, estimator))
                self._note_balance(name, account)
                if not queue.backlogged:
                    # Settle once the refill is an exact fixed point:
                    # skipping this subscriber next cycle is a no-op.
                    balance = account.balance
                    if (
                        (balance[0] >= cap[0] or credit[0] == 0.0)
                        and (balance[1] >= cap[1] or credit[1] == 0.0)
                        and (balance[2] >= cap[2] or credit[2] == 0.0)
                    ):
                        active.discard(sid)

        # Pass 2: spare resource for still-backlogged queues.
        if self.config.spare_policy != SPARE_NONE:
            decisions.extend(self._spare_pass())

        return decisions

    def _drain_reserved(
        self,
        queue: RequestQueue,
        account: SubscriberAccount,
        estimator: UsageEstimator,
    ) -> List[ScheduleDecision]:
        decisions: List[ScheduleDecision] = []
        name = queue.subscriber.name
        allowed = (
            None if self.placement is None else self.placement.allowed_nodes(name)
        )
        neg = -ResourceVector.EPSILON
        while queue.backlogged:
            predicted = estimator.predict()
            # (balance - predicted).any_negative without the intermediate
            # vector: same subtractions, same epsilon, no allocation.
            balance = account.balance
            if (
                balance[0] - predicted[0] < neg
                or balance[1] - predicted[1] < neg
                or balance[2] - predicted[2] < neg
            ):
                break
            rpn_id = self.node_scheduler.pick(
                predicted, request=queue.peek(), allowed=allowed
            )
            if rpn_id is None:
                break  # cluster saturated; leave the request queued
            request = queue.take()
            self.accounting.on_dispatch(name, rpn_id, predicted)
            self.node_scheduler.on_dispatch(rpn_id, predicted)
            self.dispatch_fn(request, rpn_id, name, predicted)
            self.reserved_dispatches += 1
            self._reserved_counter.inc()
            decisions.append(ScheduleDecision(name, rpn_id, predicted, spare=False))
        return decisions

    def _note_balance(self, name: str, account: SubscriberAccount) -> None:
        """Export one subscriber's post-cycle credit balance, in GRPS."""
        gauge = self._balance_gauges.get(name)
        if gauge is None:
            gauge = get_registry().gauge(
                "repro.core.credit_balance_grps", subscriber=name
            )
            self._balance_gauges[name] = gauge
        gauge.set(account.balance.in_generic_requests(self.config.generic_request))

    # -- spare resource allocation ---------------------------------------------

    def _spare_pool(self) -> ResourceVector:
        """Capacity this cycle beyond the sum of all reservations.

        O(1): the ledger's reservation sum is maintained incrementally
        through the queue-registration hooks.
        """
        return self.ledger.spare_pool_tracked(
            self.node_scheduler.total_capacity_per_s()
        )

    #: Bound on spare-pass redistribution rounds per cycle (the loop
    #: terminates long before this in practice).
    MAX_SPARE_ROUNDS = 10

    def _spare_pass(self) -> List[ScheduleDecision]:
        """Water-filling spare allocation.

        Each round splits the remaining pool among *currently* backlogged
        queues in proportion to their reservations; a queue that empties
        without using its share leaves the remainder to be redistributed
        in the next round.  This is what makes Table 1 come out: site1
        and site2 take only slivers of spare, and site3 absorbs the rest.
        """
        decisions: List[ScheduleDecision] = []
        pool = self._spare_pool()
        if pool == ResourceVector.ZERO:
            return decisions
        first_round_names = set()
        for _round in range(self.MAX_SPARE_ROUNDS):
            backlogged = self.queues.backlogged()
            if not backlogged:
                break
            self._spare_round_counter.inc()
            weights = self.ledger.spare_weights(backlogged)
            consumed_total = ResourceVector.ZERO
            for queue in backlogged:
                name = queue.subscriber.name
                share = pool.scaled(weights.get(name, 0.0))
                estimator = self._estimator(name)
                if _round == 0:
                    # Roll in the unused share from previous cycles
                    # (deficit round-robin): without it each queue
                    # forfeits its fractional share every cycle (up to
                    # one request per queue per cycle — a large bias at
                    # 10 ms cycles).
                    first_round_names.add(name)
                    share = self.ledger.roll_in_deficit(
                        name, share, estimator.predict()
                    )
                allowed = (
                    None
                    if self.placement is None
                    else self.placement.allowed_nodes(name)
                )
                neg = -ResourceVector.EPSILON
                while queue.backlogged:
                    predicted = estimator.predict()
                    if (
                        share[0] - predicted[0] < neg
                        or share[1] - predicted[1] < neg
                        or share[2] - predicted[2] < neg
                    ):
                        break
                    rpn_id = self.node_scheduler.pick(
                        predicted, request=queue.peek(), allowed=allowed
                    )
                    if rpn_id is None:
                        if allowed is not None:
                            # Only this subscriber's allowed nodes are
                            # saturated (or it is unplaced); others may
                            # still have headroom.
                            break
                        return decisions  # cluster saturated for everyone
                    request = queue.take()
                    share = share - predicted
                    consumed_total = consumed_total + predicted
                    # A spare dispatch must not eat into the reserved
                    # balance: grant uncapped credit equal to the
                    # prediction, so the dispatch's net balance effect is
                    # zero and the spare budget lives in the share alone.
                    self.accounting.credit(name, predicted)
                    self.accounting.on_dispatch(name, rpn_id, predicted)
                    self.node_scheduler.on_dispatch(rpn_id, predicted)
                    self.dispatch_fn(request, rpn_id, name, predicted)
                    self.spare_dispatches += 1
                    self._spare_counter.inc()
                    share_counter = self._spare_share_counters.get(rpn_id)
                    if share_counter is None:
                        share_counter = get_registry().counter(
                            "repro.scheduler.spare_share", node=rpn_id
                        )
                        self._spare_share_counters[rpn_id] = share_counter
                    share_counter.inc(
                        predicted.in_generic_requests(self.config.generic_request)
                    )
                    decisions.append(
                        ScheduleDecision(name, rpn_id, predicted, spare=True)
                    )
                if _round == 0:
                    # Whatever the queue could not spend this round rolls
                    # over (the queue emptied => share stays for bursts,
                    # still capped on the way back in next cycle).
                    self.ledger.store_deficit(name, share)
            if consumed_total == ResourceVector.ZERO:
                break
            pool = (pool - consumed_total).clamped_min(0.0)
            if pool == ResourceVector.ZERO:
                break
        self.ledger.drop_stale_deficits(first_round_names)
        return decisions

    # -- feedback path ------------------------------------------------------------

    def apply_feedback(self, message) -> None:
        """Apply an accounting message: balances, estimators, node loads."""
        generic = self.config.generic_request
        for name, report in message.per_subscriber.items():
            queue = self.queues.get(name)
            if queue is not None:
                # Feedback mutates the estimator (refill cap) and the
                # balance: wake the subscriber for the next cycle.
                self._active.add(queue.sid)
                estimator = self._estimator(name)
                if report.completed > 0:
                    # Prediction error: how far the dispatch-time estimate
                    # was from the measured per-request usage this cycle.
                    predicted_g = estimator.predict().in_generic_requests(generic)
                    measured_g = report.per_request().in_generic_requests(generic)
                    if predicted_g > 0:
                        self._prediction_error.observe(
                            100.0 * abs(measured_g - predicted_g) / predicted_g
                        )
                estimator.observe_cycle(report.usage, report.completed)
        backed_out = self.accounting.apply_message(message)
        total = ResourceVector.ZERO
        for vec in backed_out.values():
            total = total + vec
        self.node_scheduler.on_feedback(message.rpn_id, total)
