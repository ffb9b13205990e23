"""Point-to-point network interfaces and links.

An :class:`Interface` is one end of a full-duplex link.  Frames wait in a
bounded FIFO whose head is the frame on the wire, serialized at the link's
bandwidth; each reaches the peer after the propagation latency.  A frame
costs two scheduled callbacks and no process runs per interface.  Loss
injection (for failure tests) drops frames after serialization.
"""

from __future__ import annotations

import random
from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, Optional

from repro.sim.engine import Environment

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.packet import Packet

#: Default: Fast Ethernet, as in the paper's testbed.
DEFAULT_BANDWIDTH_BPS = 100e6
#: One switch hop of propagation/forwarding latency.
DEFAULT_LATENCY_S = 20e-6
#: Default transmit queue depth, in frames.
DEFAULT_QUEUE_FRAMES = 512

ReceiveHook = Callable[["Packet", "Interface"], None]


class Interface:
    """One end of a full-duplex link."""

    def __init__(
        self,
        env: Environment,
        name: str,
        bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS,
        latency_s: float = DEFAULT_LATENCY_S,
        queue_frames: int = DEFAULT_QUEUE_FRAMES,
        loss_rate: float = 0.0,
        loss_rng: Optional[random.Random] = None,
    ) -> None:
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if latency_s < 0:
            raise ValueError("latency must be non-negative")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss_rate must lie in [0, 1)")
        if queue_frames <= 0:
            raise ValueError("queue_frames must be positive")
        self.env = env
        self.name = name
        self.bandwidth_bps = float(bandwidth_bps)
        self.latency_s = float(latency_s)
        self.loss_rate = float(loss_rate)
        self._loss_rng = loss_rng or random.Random(0)
        self.peer: Optional[Interface] = None
        #: Administrative state: a downed interface neither transmits nor
        #: receives (frames are counted as losses) — failure injection.
        self.up = True
        #: Called with (packet, this interface) on frame arrival.
        self.on_receive: Optional[ReceiveHook] = None
        self._queue: Deque["Packet"] = deque()
        self._queue_frames = queue_frames
        self.tx_frames = 0
        self.tx_bytes = 0
        self.rx_frames = 0
        self.rx_bytes = 0
        self.dropped_full = 0
        self.dropped_loss = 0

    def __repr__(self) -> str:
        return "<Interface {} tx={} rx={}>".format(self.name, self.tx_frames, self.rx_frames)

    def connect(self, other: "Interface") -> None:
        """Wire this interface and ``other`` as the two ends of one link."""
        if self.peer is not None or other.peer is not None:
            raise RuntimeError("interface already connected")
        self.peer = other
        other.peer = self

    @property
    def queue_depth(self) -> int:
        """Frames currently waiting to be serialized."""
        return max(len(self._queue) - 1, 0)

    def send(self, packet: "Packet") -> bool:
        """Queue a frame for transmission; False (and a drop) if full."""
        if len(self._queue) > self._queue_frames:
            self.dropped_full += 1
            return False
        self._queue.append(packet)
        if len(self._queue) == 1:
            self.env.call_later(self.serialization_delay(packet), self._tx_done, packet)
        return True

    def serialization_delay(self, packet: "Packet") -> float:
        """Seconds needed to clock the frame onto the wire."""
        return packet.total_len * 8.0 / self.bandwidth_bps

    def _tx_done(self, packet: "Packet") -> None:
        self._queue.popleft()
        self.tx_frames += 1
        self.tx_bytes += packet.total_len
        if self.peer is not None and self.up and not (self.loss_rate and self._loss_rng.random() < self.loss_rate):
            self.env.call_later(self.latency_s, self.peer._deliver, packet)
        elif self.peer is not None:
            self.dropped_loss += 1
        if self._queue:
            self.env.call_later(self.serialization_delay(self._queue[0]), self._tx_done, self._queue[0])

    def _deliver(self, packet: "Packet") -> None:
        if not self.up:
            self.dropped_loss += 1
            return
        self.rx_frames += 1
        self.rx_bytes += packet.total_len
        if self.on_receive is not None:
            self.on_receive(packet, self)
