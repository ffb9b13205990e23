"""Golden-digest determinism checks for the simulation hot path.

The engine refactors this repo performs (slotted events, callback heap
items, batched resource bookkeeping) are only admissible if a fixed-seed
run produces *identical accounting output* before and after.  This module
defines the canonical small scenario and its digest so the guarantee is
enforceable by a committed hash instead of by review.

The digest covers everything the paper's evaluation reads out of a run:
the RDN-observed accounting stream (``accounting.usage_log``), the
completion log, and per-request latencies.  Entries are serialized with
``repr`` (shortest round-trip float form, so any numeric change — even in
the last ulp — changes the digest) and canonically sorted, which makes
the digest insensitive to the one simulator-internal freedom the engine
does not pin down: the relative order of log appends that happen at the
exact same simulated instant on different nodes.
"""

from __future__ import annotations

import hashlib
import itertools
from typing import List

from repro.core.config import GageConfig
from repro.core.simulation import GageCluster
from repro.core.subscriber import Subscriber
from repro.net import packet as packet_module
from repro.net.link import Interface
from repro.net.packet import Packet
from repro.net.tracer import PacketTracer
from repro.sim.engine import Environment
from repro.workload import request as request_module
from repro.workload.synthetic import SyntheticWorkload

#: Bump only when the golden scenario itself (not the engine) changes.
SCENARIO = "golden-fig3/1"
#: Bump only when the frame serialization (not the network) changes.
FRAME_SCENARIO = "golden-frames/1"


def golden_fig3_cluster(
    duration_s: float = 3.0,
    seed: int = 7,
    fidelity: str = "flow",
    spare_policy: str = "none",
    reservation_grps: float = 120.0,
) -> GageCluster:
    """Build and run :func:`build_golden_fig3_cluster`'s scenario; return the cluster."""
    cluster = build_golden_fig3_cluster(
        duration_s, seed, fidelity, spare_policy, reservation_grps
    )
    cluster.run(duration_s)
    return cluster


def build_golden_fig3_cluster(
    duration_s: float = 3.0,
    seed: int = 7,
    fidelity: str = "flow",
    spare_policy: str = "none",
    reservation_grps: float = 120.0,
) -> GageCluster:
    """Build the canonical small Figure-3-style scenario, trace loaded, unrun.

    Two subscribers driven above reservation, a 100 ms accounting cycle,
    two RPNs — small enough for a test, busy enough to exercise the CPU
    slicer, the disk channel, the credit scheduler, and the accounting
    walk.  The defaults (flow fidelity, spare allocation off, reservations
    that fill the cluster) are the paper's Figure-3 setup;
    ``fidelity="packet"`` adds the simulated network, and ``spare_policy``
    with a ``reservation_grps`` below capacity exercises the spare rounds.
    """
    env = Environment()
    names = ["site1", "site2"]
    subscribers = [Subscriber(name, reservation_grps, queue_capacity=256) for name in names]
    config = GageConfig(accounting_cycle_s=0.1, spare_policy=spare_policy)
    workload = SyntheticWorkload(
        rates={name: 60.0 for name in names},
        duration_s=duration_s,
        file_bytes=6 * 1024,
        arrival="poisson",
        seed=seed,
    )
    site_files = {name: workload.site_files(name) for name in names}
    cluster = GageCluster(
        env,
        subscribers,
        site_files,
        num_rpns=2,
        config=config,
        fidelity=fidelity,
        rpn_cache_bytes=8 * 1024 * 1024,
    )
    cluster.load_trace(workload.generate())
    return cluster


def accounting_lines(cluster: GageCluster) -> List[str]:
    """The canonical serialized accounting output of a finished run."""
    lines = []
    for at, name, usage in cluster.rdn.accounting.usage_log:
        lines.append(
            "usage {!r} {} {!r} {!r} {!r}".format(
                at, name, usage.cpu_s, usage.disk_s, usage.net_bytes
            )
        )
    for at, host in cluster.completions:
        lines.append("done {!r} {}".format(at, host))
    for at, host, latency in cluster.latencies:
        lines.append("lat {!r} {} {!r}".format(at, host, latency))
    for at, host, ok in cluster.arrivals:
        lines.append("arr {!r} {} {}".format(at, host, ok))
    lines.sort()
    return lines


def accounting_digest(cluster: GageCluster) -> str:
    """SHA-256 over the canonical accounting output of a finished run."""
    payload = "\n".join([SCENARIO] + accounting_lines(cluster)).encode()
    return hashlib.sha256(payload).hexdigest()


def golden_fig3_digest(duration_s: float = 3.0, seed: int = 7) -> str:
    """Digest of the canonical scenario — what the golden test compares."""
    return accounting_digest(golden_fig3_cluster(duration_s=duration_s, seed=seed))


def golden_frame_lines(duration_s: float = 3.0, seed: int = 7) -> List[str]:
    """Every frame the packet-fidelity golden run delivers, in order.

    One line per delivery to a switch port or the interface wired to it:
    ``repr`` of the arrival time, the interface name, then every
    :class:`Packet` slot.  Packet and request ids come from process-wide
    counters, so the run numbers both from 1 on counters of its own and
    hands the process's counters back afterwards.
    """
    saved = packet_module._packet_ids, request_module._request_ids
    packet_module._packet_ids = itertools.count(1)
    request_module._request_ids = itertools.count(1)
    try:
        cluster = build_golden_fig3_cluster(duration_s, seed, fidelity="packet")
        interfaces: List[Interface] = []
        for switch in cluster.switches:
            for port in switch.ports:
                for iface in (port, port.peer):
                    if iface is not None and iface not in interfaces:
                        interfaces.append(iface)
        tracer = PacketTracer(cluster.env, interfaces, max_packets=10_000_000)
        with tracer:
            cluster.run(duration_s)
    finally:
        packet_module._packet_ids, request_module._request_ids = saved
    if tracer.dropped_over_limit:
        raise RuntimeError("frame capture truncated")
    return [
        "{!r} {} {}".format(
            entry.at_s,
            entry.interface,
            " ".join(repr(getattr(entry.packet, slot)) for slot in Packet.__slots__),
        )
        for entry in tracer.captured
    ]


def frames_digest(lines: List[str]) -> str:
    """SHA-256 over serialized frame lines."""
    return hashlib.sha256("\n".join([FRAME_SCENARIO] + lines).encode()).hexdigest()


def golden_frames_digest(duration_s: float = 3.0, seed: int = 7) -> str:
    """Digest of the packet-fidelity golden run's frames — the frame golden."""
    return frames_digest(golden_frame_lines(duration_s, seed))
