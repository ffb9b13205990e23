"""RDN-side balances and estimated-usage bookkeeping (§3.5).

For each subscriber the RDN maintains:

- the current **balance** — credits accumulate each scheduling cycle from
  the reservation; predicted usage is deducted at dispatch; when an
  accounting message reveals the *measured* usage of completed requests,
  the prediction is backed out and replaced by the measurement;
- the **estimated resource usage array** — per RPN, the summed predicted
  usage of requests dispatched there and not yet reported complete.

Scale notes: accounts live in a flat list indexed by the interned
subscriber id (shared :class:`~repro.core.subscriber.SubscriberTable`),
and the collection keeps a **dirty id set** — every balance mutation
that is *not* the scheduler's own refill (credit, dispatch, cancel,
feedback, node death, or any by-name account lookup that might mutate)
marks the subscriber dirty, which is the signal the scheduler uses to
wake a settled subscriber.  The refill itself must not mark, or no
subscriber would ever settle.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.core.feedback import AccountingMessage
from repro.core.grps import ResourceVector
from repro.core.subscriber import Subscriber, SubscriberTable
from repro.telemetry.registry import get_registry


@dataclass
class SubscriberAccount:
    """The RDN's per-subscriber QoS state."""

    subscriber: Subscriber
    balance: ResourceVector = field(default_factory=lambda: ResourceVector.ZERO)
    #: Dense interned id; -1 until registered with RDNAccounting.
    sid: int = -1
    #: Per-RPN sum of predicted usage of in-flight requests.
    estimated: Dict[str, ResourceVector] = field(default_factory=dict)
    #: Per-RPN FIFO of individual dispatch-time predictions, so feedback
    #: can back out exactly the predictions of completed requests.
    pending: Dict[str, Deque[ResourceVector]] = field(default_factory=dict)
    dispatched: int = 0
    reported_complete: int = 0
    measured_usage_total: ResourceVector = field(
        default_factory=lambda: ResourceVector.ZERO
    )

    def estimated_total(self) -> ResourceVector:
        """In-flight predicted usage across all RPNs."""
        total = ResourceVector.ZERO
        for vec in self.estimated.values():
            total = total + vec
        return total


class RDNAccounting:
    """All subscriber accounts plus the feedback-application logic.

    ``table`` is the queues' id table, so the scheduler can address
    accounts by dense id.  The accounting never releases an id: that
    belongs to the table's owner, after every component let go.
    """

    def __init__(self, table: SubscriberTable) -> None:
        self._accounts: Dict[str, SubscriberAccount] = {}
        self.table = table
        #: id → account; None marks an unregistered (or foreign-id) slot.
        self._by_id: List[Optional[SubscriberAccount]] = []
        #: Ids whose balance may have changed outside the refill path
        #: since the scheduler last drained the set.
        self._dirty: Set[int] = set()
        #: (time, subscriber, usage) samples, for deviation analysis.
        self.usage_log: List[Tuple[float, str, ResourceVector]] = []
        self.keep_usage_log = True
        #: Conservation ledger: every prediction charged at dispatch is
        #: eventually backed out by feedback, refunded by cancellation,
        #: or restored by a node death — or is still pending.  See
        #: :meth:`conservation_delta`.
        self.total_charged = ResourceVector.ZERO
        self.total_backed_out = ResourceVector.ZERO
        self.total_refunded = ResourceVector.ZERO
        self.total_forgotten = ResourceVector.ZERO
        registry = get_registry()
        self._tm_messages = registry.counter("repro.core.accounting_messages")
        self._tm_completions = registry.counter("repro.core.completions_reported")

    def __len__(self) -> int:
        return len(self._accounts)

    def register(self, subscriber: Subscriber) -> SubscriberAccount:
        """Create the account for a new subscriber."""
        if subscriber.name in self._accounts:
            raise RuntimeError("account {!r} already exists".format(subscriber.name))
        account = SubscriberAccount(subscriber)
        sid = self.table.intern(subscriber.name)
        account.sid = sid
        self._accounts[subscriber.name] = account
        while len(self._by_id) <= sid:
            self._by_id.append(None)
        self._by_id[sid] = account
        self._dirty.add(sid)
        return account

    def unregister(self, name: str) -> Optional[SubscriberAccount]:
        """Retire a subscriber's account (churn).

        Any predictions still pending against RPNs are folded into
        ``total_forgotten`` so the conservation invariant
        (Σcharged == Σbacked_out + Σrefunded + Σforgotten + Σpending)
        survives the departure.
        """
        account = self._accounts.pop(name, None)
        if account is None:
            return None
        for queue in account.pending.values():
            for predicted in queue:
                self.total_forgotten = self.total_forgotten + predicted
        account.pending.clear()
        account.estimated.clear()
        self._by_id[account.sid] = None
        self._dirty.discard(account.sid)
        return account

    def account(self, name: str) -> SubscriberAccount:
        """Look up an account (KeyError if unknown).

        The caller may mutate the returned account, so its subscriber is
        conservatively marked dirty (woken for the next cycle).
        """
        account = self._accounts[name]
        self._dirty.add(account.sid)
        return account

    def account_by_id(self, sid: int) -> Optional[SubscriberAccount]:
        """Dense-id lookup for the scheduler's hot path (no dirty mark)."""
        if 0 <= sid < len(self._by_id):
            return self._by_id[sid]
        return None

    def get(self, name: str) -> Optional[SubscriberAccount]:
        """Look up an account, or None."""
        account = self._accounts.get(name)
        if account is not None:
            self._dirty.add(account.sid)
        return account

    def accounts(self) -> List[SubscriberAccount]:
        """All accounts in visit (ascending-id) order."""
        out: List[SubscriberAccount] = []
        for account in self._by_id:
            if account is not None:
                self._dirty.add(account.sid)
                out.append(account)
        return out

    def drain_dirty(self) -> List[int]:
        """Ids mutated outside the refill path since the last drain."""
        if not self._dirty:
            return []
        out = list(self._dirty)
        self._dirty.clear()
        return out

    # -- scheduler-side operations ----------------------------------------

    def refill(self, name: str, credit: ResourceVector, cap: ResourceVector) -> None:
        """Add one cycle's credit; accrual stops at ``cap``.

        Two invariants matter here:

        - negative balances (debt from past overuse) are *not* forgiven —
          the credit always pays debt down;
        - a balance already above the cap (restored there by a feedback
          correction after an over-predicted dispatch) is *kept*, not
          clipped — the cap limits how much an idle queue can hoard, but
          destroying correction-restored balance would systematically
          underdeliver against the reservation on noisy workloads.

        Deliberately does **not** mark the subscriber dirty: the refill
        is the scheduler's own act, and a subscriber whose refill is a
        fixed point (at cap, or zero reservation) must be allowed to
        settle out of the per-cycle walk.
        """
        self.refill_account(self._accounts[name], credit, cap)

    def refill_by_id(
        self, sid: int, credit: ResourceVector, cap: ResourceVector
    ) -> None:
        """Dense-id refill for the scheduler's hot path."""
        account = self._by_id[sid]
        if account is not None:
            self.refill_account(account, credit, cap)

    @staticmethod
    def refill_account(
        account: SubscriberAccount, credit: ResourceVector, cap: ResourceVector
    ) -> None:
        """Refill an already-resolved account (no lookup, no dirty mark)."""
        def refill_component(balance: float, add: float, limit: float) -> float:
            if balance >= limit:
                return balance  # above cap: keep, but accrue no further
            return min(balance + add, limit)

        balance = account.balance
        account.balance = ResourceVector(
            refill_component(balance.cpu_s, credit.cpu_s, cap.cpu_s),
            refill_component(balance.disk_s, credit.disk_s, cap.disk_s),
            refill_component(balance.net_bytes, credit.net_bytes, cap.net_bytes),
        )

    def credit(self, name: str, amount: ResourceVector) -> None:
        """Add uncapped credit (used to fund spare-pass dispatches)."""
        account = self._accounts[name]
        account.balance = account.balance + amount
        self._dirty.add(account.sid)

    def on_dispatch(self, name: str, rpn_id: str, predicted: ResourceVector) -> None:
        """Charge a dispatch: balance down, estimated array up."""
        account = self._accounts[name]
        account.balance = account.balance - predicted
        account.estimated[rpn_id] = (
            account.estimated.get(rpn_id, ResourceVector.ZERO) + predicted
        )
        account.pending.setdefault(rpn_id, deque()).append(predicted)
        account.dispatched += 1
        self.total_charged = self.total_charged + predicted
        self._dirty.add(account.sid)

    def on_cancel(self, name: str, rpn_id: str, predicted: ResourceVector) -> bool:
        """Refund the prediction of a cancelled (hedge-loser) dispatch.

        The newest matching prediction in the (subscriber, RPN) pending
        FIFO is removed and its value restored to the balance — the
        cancelled request will never appear in that RPN's completion
        counts, so leaving the prediction queued would misalign the
        count-based back-out forever.  Searching from the *right* keeps
        feedback for already-completed older requests matched with their
        own (older) predictions.  Returns ``False`` when there is
        nothing to refund — the node died first and ``forget_rpn``
        already restored everything (refund and forget are idempotent
        with each other), or feedback already consumed the queue.
        """
        account = self._accounts.get(name)
        if account is None:
            return False
        queue = account.pending.get(rpn_id)
        if not queue:
            return False
        index = len(queue) - 1
        while index >= 0 and queue[index] != predicted:
            index -= 1
        if index < 0:
            # The exact vector is gone (already backed out by a racing
            # feedback message); drop the newest so the count alignment
            # of future feedback stays intact.
            index = len(queue) - 1
        removed = queue[index]
        del queue[index]
        account.balance = account.balance + removed
        element = account.estimated.get(rpn_id, ResourceVector.ZERO)
        account.estimated[rpn_id] = (element - removed).clamped_min(0.0)
        self.total_refunded = self.total_refunded + removed
        self._dirty.add(account.sid)
        return True

    # -- feedback-side operations -------------------------------------------

    def apply_message(self, message: AccountingMessage) -> Dict[str, ResourceVector]:
        """Apply one RPN accounting message.

        For every reported subscriber: back out the dispatch-time
        predictions of the completed requests, charge the measured usage
        instead, and shrink the estimated-usage array element.

        Returns per-subscriber predicted usage that was backed out, which
        the node scheduler uses to shrink the RPN's outstanding load.
        """
        backed_out: Dict[str, ResourceVector] = {}
        self._tm_messages.inc()
        for name, report in message.per_subscriber.items():
            account = self._accounts.get(name)
            if account is None:
                continue
            removed = self._pop_predictions(account, message.rpn_id, report.completed)
            # Replace prediction with measurement: the net balance effect
            # of each completed request becomes exactly its measured usage.
            account.balance = account.balance + removed - report.usage
            element = account.estimated.get(message.rpn_id, ResourceVector.ZERO)
            account.estimated[message.rpn_id] = (element - removed).clamped_min(0.0)
            account.reported_complete += report.completed
            self._tm_completions.inc(report.completed)
            account.measured_usage_total = account.measured_usage_total + report.usage
            self.total_backed_out = self.total_backed_out + removed
            backed_out[name] = removed
            self._dirty.add(account.sid)
            if self.keep_usage_log:
                self.usage_log.append((message.cycle_end_s, name, report.usage))
        return backed_out

    def forget_rpn(self, rpn_id: str) -> Dict[str, ResourceVector]:
        """Back out every in-flight prediction charged against one RPN.

        Called when the failure detector declares the node dead: the
        dispatched requests will never be reported complete by it, so
        their predicted usage is restored to the balances (the requests
        themselves are re-enqueued by the RDN and will be charged again
        at re-dispatch).  Returns the per-subscriber restored usage.
        """
        restored: Dict[str, ResourceVector] = {}
        for account in self._by_id:
            if account is None:
                continue
            queue = account.pending.pop(rpn_id, None)
            account.estimated.pop(rpn_id, None)
            if not queue:
                continue
            total = ResourceVector.ZERO
            for predicted in queue:
                total = total + predicted
            account.balance = account.balance + total
            self.total_forgotten = self.total_forgotten + total
            self._dirty.add(account.sid)
            restored[account.subscriber.name] = total
        return restored

    # -- conservation -------------------------------------------------------

    def pending_total(self) -> ResourceVector:
        """Predictions charged but not yet backed out/refunded/forgotten."""
        total = ResourceVector.ZERO
        for account in self._accounts.values():
            for queue in account.pending.values():
                for predicted in queue:
                    total = total + predicted
        return total

    def conservation_delta(self) -> ResourceVector:
        """How far the credit ledger is from exact conservation.

        Every charge must be accounted for exactly once:

            Σcharged == Σbacked_out + Σrefunded + Σforgotten + Σpending

        The returned vector is the left side minus the right side; it is
        zero (up to float summation noise) whenever the invariant holds,
        with hedging and cancellation on or off — and across subscriber
        churn, since :meth:`unregister` folds a departing subscriber's
        pending predictions into ``total_forgotten``.
        """
        settled = (
            self.total_backed_out
            + self.total_refunded
            + self.total_forgotten
            + self.pending_total()
        )
        return self.total_charged - settled

    @staticmethod
    def _pop_predictions(
        account: SubscriberAccount, rpn_id: str, count: int
    ) -> ResourceVector:
        """Remove up to ``count`` oldest predictions for (subscriber, RPN)."""
        queue = account.pending.get(rpn_id)
        total = ResourceVector.ZERO
        if queue is None:
            return total
        for _ in range(min(count, len(queue))):
            total = total + queue.popleft()
        return total
