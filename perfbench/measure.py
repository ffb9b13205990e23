"""Pure helpers the workloads share: percentiles, lateness, deviation,
the failure rule, profile grouping, registry counters, peak memory and
the host-speed reference.

Nothing here imports ``repro``: a change to the program cannot change
how it is measured, and the helpers are testable on their own
(``perfbench/test_measure.py``).
"""

from __future__ import annotations

import gc
import heapq
import math
import os
import random
import resource
import time
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) of ``values``, linearly interpolated."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must be in [0, 1]")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median and 99th percentile of a sample, with its size.

    The 99th percentile is reported only when at least ten samples lie
    beyond it (n >= 1000); below that it is the highest percentile that
    does, and ``tail_q`` says which one it is.
    """
    n = len(values)
    if n == 0:
        raise ValueError("summary of an empty sample")
    tail_q = 0.99 if n >= 1000 else max(0.5, 1.0 - 10.0 / n)
    return {
        "p50": percentile(values, 0.5),
        "p99": percentile(values, tail_q),
        "tail_q": tail_q,
        "n": n,
    }


def lateness(due: Sequence[float], sent: Sequence[float]) -> List[float]:
    """How late each send ran against its due time (never negative)."""
    if len(due) != len(sent):
        raise ValueError("due and sent differ in length")
    return [max(0.0, s - d) for d, s in zip(due, sent)]


def window_sums(
    events: Iterable[Tuple[float, float]], start_s: float, end_s: float, interval_s: float
) -> List[float]:
    """Sum (time, weight) events into whole windows of ``interval_s``."""
    if interval_s <= 0:
        raise ValueError("interval must be positive")
    count = int(math.floor((end_s - start_s) / interval_s + 1e-9))
    sums = [0.0] * max(0, count)
    for at, weight in events:
        index = int((at - start_s) // interval_s)
        if 0 <= index < count:
            sums[index] += weight
    return sums


def deviation_pct(
    delivered: Mapping[str, Sequence[float]],
    offered: Mapping[str, Sequence[float]],
    reservation: Mapping[str, float],
) -> float:
    """The guarantee deviation, in percent.

    For each subscriber and window, the delivered amount is compared
    with ``min(offered, reservation)``; windows are averaged per
    subscriber and the worst subscriber is reported.  All three mappings
    use the same unit per window (GRPS-seconds or requests).
    """
    worst = 0.0
    for name, got in delivered.items():
        wanted = offered[name]
        if len(got) != len(wanted):
            raise ValueError("window count differs for {!r}".format(name))
        errors = []
        for d, o in zip(got, wanted):
            target = min(o, reservation[name])
            if target > 0:
                errors.append(abs(d - target) / target)
        if errors:
            worst = max(worst, 100.0 * sum(errors) / len(errors))
    return worst


def knee(steps: Sequence[Tuple[float, float, bool]], limit: float) -> float:
    """Capacity from a rising rate ladder.

    ``steps`` holds (offered rate, tail latency, passed) in ladder order;
    a step passes when its tail meets ``limit`` and its backlog did not
    grow.  The result is the last passing rate plus the share of the way
    to the first failing rate at which the tail, interpolated linearly
    between the two steps, reaches ``limit``.  A ladder that never fails
    reports its top rate.
    """
    rate0, tail0 = 0.0, 0.0
    for rate, tail, passed in steps:
        if passed:
            rate0, tail0 = rate, tail
            continue
        share = (limit - tail0) / (tail - tail0) if tail > limit else 0.0
        return rate0 + (rate - rate0) * min(1.0, max(0.0, share))
    return rate0


def is_failure(status: Optional[int], body_ok: bool, conforming: bool, lost: bool = False) -> bool:
    """Whether one request counts against ``fail_pct``.

    ``status`` is None for a request never answered: ``lost`` when the
    connection failed under it, otherwise still waiting in the server
    when the run ended.  Refusing traffic above its reservation (a 503,
    or holding it back until the run ends) is the guarantee working, not
    a failure; the same treatment of conforming traffic is one, as is
    any error or lost request.
    """
    if status == 200:
        return not body_ok
    if conforming or lost:
        return True
    return status is not None and status != 503


def layer_of(filename: str) -> str:
    """The layer a profiled function belongs to, from its source file.

    ``repro/<package>/...`` maps to the package name, a top-level
    ``repro/<module>.py`` to the module name, the stdlib ``asyncio``
    package to ``asyncio``, C functions (cProfile's ``~``) to
    ``builtins`` and the benchmark's own files to ``perfbench``.
    """
    if filename == "~" or filename.startswith("<"):
        return "builtins"
    parts = filename.replace("\\", "/").split("/")
    if "repro" in parts:
        index = len(parts) - 1 - parts[::-1].index("repro")
        rest = parts[index + 1:]
        if len(rest) == 1:
            return os.path.splitext(rest[0])[0]
        if rest:
            return rest[0]
    if "perfbench" in parts:
        return "perfbench"
    if "asyncio" in parts:
        return "asyncio"
    return "other"


def group_self_time(stats: Mapping[tuple, tuple]) -> Dict[str, float]:
    """Sum cProfile self time by layer.

    ``stats`` is ``pstats.Stats(...).stats``: (file, line, function) ->
    (primitive calls, calls, self time, cumulative time, callers).
    """
    groups: Dict[str, float] = {}
    for (filename, _line, _func), entry in stats.items():
        layer = layer_of(filename)
        groups[layer] = groups.get(layer, 0.0) + entry[2]
    return groups


#: Scheduler counters every workload reports, ``repro.core.<name>`` in
#: the telemetry registry and ``core.<name>`` in the benchmark's output.
CORE_COUNTERS = ("wrr_cycles", "dispatches", "queue_drops", "spare_rounds", "accounting_messages")


def registry_total(snapshot: Mapping[str, Mapping[str, float]], prefix: str) -> float:
    """Sum a registry snapshot's metric ``prefix`` over all its label sets.

    ``snapshot`` is ``get_registry().snapshot()["metrics"]``: the key is
    the metric name, followed by ``{labels}`` when it has labels.
    """
    return float(sum(
        entry.get("value", 0.0) for key, entry in snapshot.items()
        if key == prefix or key.startswith(prefix + "{")
    ))


def core_counts(snapshot: Mapping[str, Mapping[str, float]]) -> Dict[str, float]:
    """The :data:`CORE_COUNTERS` of a registry snapshot, named ``core.<name>``."""
    return {"core." + name: registry_total(snapshot, "repro.core." + name) for name in CORE_COUNTERS}


def peak_rss_mb() -> float:
    """This process's peak resident memory, in MB.

    ``VmHWM`` belongs to the running image.  ``ru_maxrss``, the fallback
    where ``/proc`` is missing, also counts the parent's size at fork,
    which Linux carries across ``execve``.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: Host seconds :func:`reference_s` takes on the host the bounds were set
#: on (2 cores, CPython 3.11) when no neighbour loads it.
REFERENCE_S = 0.025


class _Job:
    """One job of :func:`reference_s`."""

    def __init__(self, size: float) -> None:
        self.size = size
        self.log: Dict[str, float] = {}


def reference_s() -> float:
    """Host seconds for a fixed simulation that uses nothing from ``repro``.

    One FIFO queue, 40,000 jobs, its events on a heap: the same kind of
    Python work the simulators do (heap operations, small objects,
    dictionaries, seeded random numbers).  Its time measures how fast
    the host runs such code at that moment, whatever the program does.
    """
    gc.collect()
    started = time.perf_counter()
    rng = random.Random(1)
    events = [(0.0, 0, None)]
    waiting: List[_Job] = []
    busy: Optional[_Job] = None
    sequence = done = 0
    while done < 40000:
        at, _seq, leaving = heapq.heappop(events)
        sequence += 1
        if leaving is None:
            waiting.append(_Job(rng.expovariate(1.0)))
            heapq.heappush(events, (at + rng.expovariate(0.9), sequence, None))
        else:
            busy, done = None, done + 1
        if busy is None and waiting:
            busy = waiting.pop(0)
            busy.log["start"] = at
            heapq.heappush(events, (at + busy.size, sequence, busy))
    return time.perf_counter() - started


def slowdowns(references: Sequence[float]) -> List[float]:
    """How much slower than usual the host ran between consecutive references.

    ``references`` are :func:`reference_s` timings taken before each
    measured piece of work and once after the last.  A shared host's
    speed drifts by tens of percent within minutes, and a run's medians
    with it; the reference drifts alike.  Dividing each piece's timings
    by the mean of the references around it over :data:`REFERENCE_S`
    leaves the program's own speed, in seconds of a host where the
    reference takes :data:`REFERENCE_S`.
    """
    return [(before + after) / (2.0 * REFERENCE_S) for before, after in zip(references, references[1:])]
