"""Tests for RDN-side accounting and feedback messages."""

import pytest

from repro.core import RDNAccounting, Subscriber, SubscriberTable
from repro.core.feedback import AccountingMessage, RPNUsageReport
from repro.core.grps import GENERIC_REQUEST, ResourceVector


def make_accounting():
    accounting = RDNAccounting(SubscriberTable())
    accounting.register(Subscriber("a", 100))
    accounting.register(Subscriber("b", 50))
    return accounting


def message(rpn="rpn0", **reports):
    return AccountingMessage(
        rpn_id=rpn,
        cycle_start_s=0.0,
        cycle_end_s=0.1,
        total_usage=ResourceVector.ZERO,
        per_subscriber={
            name: RPNUsageReport(usage, count) for name, (usage, count) in reports.items()
        },
    )


def test_register_and_lookup():
    accounting = make_accounting()
    assert len(accounting) == 2
    assert accounting.account("a").subscriber.name == "a"
    assert accounting.get("missing") is None
    with pytest.raises(RuntimeError):
        accounting.register(Subscriber("a", 1))
    assert [acct.subscriber.name for acct in accounting.accounts()] == ["a", "b"]


def test_refill_caps_positive_only():
    accounting = make_accounting()
    cap = ResourceVector(0.04, 0.04, 8000)
    for _ in range(10):
        accounting.refill("a", ResourceVector(0.01, 0.01, 2000), cap)
    assert accounting.account("a").balance == cap

    # Debt is not forgiven by the cap.
    accounting.account("a").balance = ResourceVector(-1.0, -1.0, -1000)
    accounting.refill("a", ResourceVector(0.01, 0.01, 2000), cap)
    balance = accounting.account("a").balance
    assert balance.cpu_s == pytest.approx(-0.99)


def test_dispatch_updates_balance_and_estimates():
    accounting = make_accounting()
    accounting.on_dispatch("a", "rpn0", GENERIC_REQUEST)
    accounting.on_dispatch("a", "rpn1", GENERIC_REQUEST)
    account = accounting.account("a")
    assert account.balance.cpu_s == pytest.approx(-0.02)
    assert account.estimated["rpn0"].cpu_s == pytest.approx(0.01)
    assert account.estimated_total().cpu_s == pytest.approx(0.02)
    assert account.dispatched == 2


def test_apply_message_replaces_prediction_with_measurement():
    accounting = make_accounting()
    accounting.on_dispatch("a", "rpn0", GENERIC_REQUEST)
    actual = ResourceVector(0.002, 0.001, 500)
    backed = accounting.apply_message(message(a=(actual, 1)))
    account = accounting.account("a")
    # Net effect on the balance: -actual (prediction fully backed out).
    assert account.balance.cpu_s == pytest.approx(-0.002)
    assert account.estimated["rpn0"] == ResourceVector.ZERO
    assert backed["a"].cpu_s == pytest.approx(0.01)
    assert account.reported_complete == 1


def test_apply_message_for_unknown_subscriber_is_ignored():
    accounting = make_accounting()
    backed = accounting.apply_message(message(zz=(GENERIC_REQUEST, 1)))
    assert backed == {}


def test_apply_message_with_more_completions_than_pending():
    """A count larger than pending predictions pops only what exists."""
    accounting = make_accounting()
    accounting.on_dispatch("a", "rpn0", GENERIC_REQUEST)
    backed = accounting.apply_message(message(a=(GENERIC_REQUEST.scaled(3), 3)))
    assert backed["a"].cpu_s == pytest.approx(0.01)  # only one pending


def test_apply_message_pops_fifo_order():
    accounting = make_accounting()
    first = ResourceVector(0.01, 0.01, 2000)
    second = ResourceVector(0.02, 0.02, 4000)
    accounting.on_dispatch("a", "rpn0", first)
    accounting.on_dispatch("a", "rpn0", second)
    backed = accounting.apply_message(message(a=(first, 1)))
    assert backed["a"].cpu_s == pytest.approx(0.01)  # oldest prediction
    assert accounting.account("a").estimated["rpn0"].cpu_s == pytest.approx(0.02)


def test_usage_log_collected():
    accounting = make_accounting()
    accounting.on_dispatch("a", "rpn0", GENERIC_REQUEST)
    accounting.apply_message(message(a=(GENERIC_REQUEST, 1)))
    assert accounting.usage_log == [(0.1, "a", GENERIC_REQUEST)]
    accounting.keep_usage_log = False
    accounting.on_dispatch("a", "rpn0", GENERIC_REQUEST)
    accounting.apply_message(message(a=(GENERIC_REQUEST, 1)))
    assert len(accounting.usage_log) == 1


def test_report_per_request_average():
    report = RPNUsageReport(GENERIC_REQUEST.scaled(4), 4)
    assert report.per_request() == GENERIC_REQUEST
    empty = RPNUsageReport(ResourceVector.ZERO, 0)
    assert empty.per_request() == ResourceVector.ZERO


def test_message_cycle_length():
    msg = message()
    assert msg.cycle_length_s == pytest.approx(0.1)
