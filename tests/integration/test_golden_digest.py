"""The golden-digest determinism gate.

``golden_fig3.sha256`` pins the paper's Figure-3 setup in flow fidelity;
``golden_packet.sha256`` pins the same scenario in packet fidelity, and
``golden_spare.sha256`` pins spare allocation on (the default policy)
with reservations that leave half the cluster spare.
``golden_frames.sha256`` pins the packet-fidelity run frame by frame:
every delivery to every switch port and host interface, with its time.

``golden_fig3.sha256`` was computed from the pre-refactor engine
(dataclass packets, Event-per-``call_later``, per-slice CPU processes).
Every later engine change must reproduce it byte-for-byte: same
accounting stream, same completions, same latencies, down to the last
float ulp.  If an intentional *semantic* change to the scenario ever
lands (new workload model, different topology), recompute the digest
with ``python -m repro.harness.golden`` style driver below and say so
loudly in the commit message — never update this file to paper over an
unexplained mismatch.
"""

from pathlib import Path

import pytest

from repro.core.config import SPARE_BY_RESERVATION

from repro.harness.golden import (
    FRAME_SCENARIO,
    SCENARIO,
    accounting_digest,
    accounting_lines,
    frames_digest,
    golden_fig3_cluster,
    golden_frame_lines,
)

GOLDEN_FILE = Path(__file__).with_name("golden_fig3.sha256")
FRAMES_FILE = Path(__file__).with_name("golden_frames.sha256")

#: Digest file -> ``golden_fig3_cluster`` arguments for the variants.
VARIANTS = {
    "golden_packet.sha256": dict(fidelity="packet"),
    "golden_spare.sha256": dict(spare_policy=SPARE_BY_RESERVATION, reservation_grps=60.0),
}


def test_fixed_seed_run_matches_committed_digest():
    committed = GOLDEN_FILE.read_text().strip()
    cluster = golden_fig3_cluster()
    assert accounting_digest(cluster) == committed, (
        "fixed-seed accounting output diverged from the committed golden "
        "digest ({}) — the engine is no longer bit-exact".format(SCENARIO)
    )


def test_golden_run_produces_substantial_output():
    # Guard against the scenario silently degenerating (e.g. the workload
    # no longer reaching the back ends) while the digest still "matches"
    # a trivially empty log.
    cluster = golden_fig3_cluster()
    lines = accounting_lines(cluster)
    assert len(lines) > 500
    kinds = {line.split(" ", 1)[0] for line in lines}
    assert kinds == {"arr", "done", "lat", "usage"}


def test_digest_is_order_canonical():
    # The digest must not depend on log append order for same-instant
    # entries: serialization sorts, so two identical runs always agree.
    a = golden_fig3_cluster()
    b = golden_fig3_cluster()
    assert accounting_lines(a) == accounting_lines(b)
    assert accounting_digest(a) == accounting_digest(b)


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_variant_run_matches_committed_digest(name):
    committed = Path(__file__).with_name(name).read_text().strip()
    cluster = golden_fig3_cluster(**VARIANTS[name])
    assert len(accounting_lines(cluster)) > 500
    assert accounting_digest(cluster) == committed, (
        "fixed-seed accounting output of {} diverged from its committed "
        "golden digest".format(name)
    )


def test_spare_variant_dispatches_on_spare_credit():
    # The spare digest only pins the spare rounds if they run.
    cluster = golden_fig3_cluster(**VARIANTS["golden_spare.sha256"])
    assert cluster.rdn.scheduler.spare_dispatches > 100


def test_frame_trace_matches_committed_digest():
    lines = golden_frame_lines()
    assert len(lines) > 10_000
    assert frames_digest(lines) == FRAMES_FILE.read_text().strip(), (
        "the packet-fidelity golden run delivered different frames, or the "
        "same frames at different times ({})".format(FRAME_SCENARIO)
    )
