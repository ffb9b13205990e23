"""The two simulator workloads, ``flow_fig3`` and ``packet_mixed``.

Each repetition builds a fresh cluster from the seed (set-up), then
runs it to its end (the run phase).  The first repetition is a warm-up;
the measured ones alternate between two ways of running.  A whole
repetition advances the cluster in one ``cluster.run`` call, as the
program's own callers do; the simulator's throughput is timed on these.
A stepped repetition advances it one 10 ms scheduling cycle per call,
timing each; it pays the per-call overhead of ``cluster.run`` (3% of
the run phase on ``flow_fig3``, under 1% on ``packet_mixed``) and gives
the per-cycle times.  Every repetition simulates exactly the same
cycles, so it must reproduce the first one's output digest, and the
typical host time of cycle *i* is the median over stepped repetitions:
a pause of the host lands in one repetition's cycle, not in the median.
Each repetition's timings are divided by the host's slowdown around it,
from the benchmark's own reference timed before every repetition (see
``measure.slowdowns``).
"""

from __future__ import annotations

import cProfile
import gc
import hashlib
import pstats
import random
import statistics
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from measure import (
    core_counts,
    deviation_pct,
    group_self_time,
    peak_rss_mb,
    reference_s,
    slowdowns,
    summary,
    window_sums,
)
from spans import Spans

from repro import Environment, GageCluster, Subscriber
from repro.core.config import GageConfig
from repro.core.scheduler import RequestScheduler
from repro.resources import GENERIC_REQUEST, ResourceVector
from repro.telemetry import registry as telemetry
from repro.workload.request import CostModel, RequestRecord
from repro.workload.specweb import FILES_PER_CLASS, SpecWeb99Config, SpecWeb99Workload, zipf_weights
from repro.workload.synthetic import SyntheticWorkload

#: The averaging interval the guarantee is judged at (Figure 3: >= 4 s).
INTERVAL_S = 4.0
#: The paper's bound on deviation at intervals of 4 s and up.
DEVIATION_LIMIT_PCT = 8.0
#: Simulated time per timed step: one scheduling cycle of the default
#: ``GageConfig``.
STEP_S = 0.010


@dataclass
class Built:
    """One cluster ready to run, plus what the checks need to know."""

    cluster: GageCluster
    records: list
    reservations: Dict[str, float]
    #: Subscribers offered less than their reservation: every one of
    #: their requests must complete.
    conforming: List[str]
    #: Window over which the guarantee is judged, in simulated seconds.
    judge_from_s: float
    judge_to_s: float
    #: Simulated time the run advances to (trace plus drain).
    run_to_s: float
    gen_s: float = 0.0
    step_s: List[float] = field(default_factory=list)


def _grps(size_bytes: int, cost: CostModel) -> float:
    """A cache-hit request's cost in generic requests (the offered load)."""
    cpu = cost.base_cpu_s + cost.per_kb_cpu_s * size_bytes / 1024.0
    return ResourceVector(cpu, 0.0, float(size_bytes)).in_generic_requests(GENERIC_REQUEST)


def build_flow_fig3(seed: int) -> Built:
    """Figure 3: 8 RPNs, 4 equal subscribers overdriven 1.5x, spare off.

    Constant-rate arrivals of 6 KB pages as in the paper; the seed sets
    each subscriber's phase within its arrival period.
    """
    duration_s, reservation = 42.0, 150.0
    names = ["site{}".format(i + 1) for i in range(4)]
    rate = reservation / _grps(6 * 1024, CostModel()) * 1.5
    started = time.perf_counter()
    rng = random.Random(seed)
    synthetic = SyntheticWorkload(
        rates={name: rate for name in names}, duration_s=duration_s, file_bytes=6 * 1024, seed=seed
    )
    phase = {name: rng.uniform(-0.5, 0.5) / rate for name in names}
    records = sorted(
        (replace(record, at_s=record.at_s + phase[record.host]) for record in synthetic.generate()),
        key=lambda record: record.at_s,
    )
    site_files = {name: synthetic.site_files(name) for name in names}
    gen_s = time.perf_counter() - started
    cluster = GageCluster(
        Environment(),
        [Subscriber(name, reservation, queue_capacity=2048) for name in names],
        site_files,
        num_rpns=8,
        config=GageConfig(accounting_cycle_s=0.1, spare_policy="none"),
        fidelity="flow",
        rpn_cache_bytes=64 * 1024 * 1024,
    )
    cluster.load_trace(records)
    return Built(
        cluster=cluster,
        records=records,
        reservations={name: reservation for name in names},
        conforming=[],
        judge_from_s=2.0,
        judge_to_s=duration_s,
        run_to_s=duration_s,
        gen_s=gen_s,
    )


#: packet_mixed subscribers: name -> (offered requests/s, reservation as a
#: multiple of the offered load in generic requests, SPECWeb99 class mix).
#: The conforming sites ask for pages of classes 0-1 (0.1-9 KB); the
#: misbehaver adds class 2 (10-90 KB), bodies of many segments that do
#: not all fit in the buffer caches.  (One 90 KB answer is ~45 GRPS, so
#: in a conforming site's mix it alone would swing a 4 s window's
#: delivered usage by several percent as it straddles a window edge.)
PACKET_PLAN = {
    "shop.example": (60.0, 2.5, (0.4, 0.6, 0.0, 0.0)),
    "api.example": (40.0, 2.5, (0.4, 0.6, 0.0, 0.0)),
    "bulk.example": (200.0, 0.1, (0.35, 0.50, 0.15, 0.0)),
}


def apportion(total: int, weights: List[float]) -> List[int]:
    """Split ``total`` into whole counts proportional to ``weights`` (largest remainder)."""
    scale = total / sum(weights)
    counts = [int(w * scale) for w in weights]
    by_remainder = sorted(range(len(weights)), key=lambda i: counts[i] - weights[i] * scale)
    for i in by_remainder[: total - sum(counts)]:
        counts[i] += 1
    return counts


def specweb_trace(
    host: str, rate: float, duration_s: float, spec: SpecWeb99Config, rng: random.Random
) -> List[RequestRecord]:
    """Constant-rate SPECWeb99 requests with the class and file mix fixed.

    How many requests go to each (class, file rank) follows the
    SPECWeb99 weights exactly; the seed picks the order, the directories
    (Zipf) and the phase.  Every seed thus asks for the same work, laid
    out differently, so seeds vary the inputs without varying the load.
    """
    file_weights = zipf_weights(FILES_PER_CLASS, spec.zipf_theta)
    dir_weights = zipf_weights(spec.directories, spec.zipf_theta)
    cells = [
        (klass, rank, p * w)
        for klass, p in enumerate(spec.class_probabilities) if p > 0
        for rank, w in enumerate(file_weights)
    ]
    picks = [
        (klass, rank)
        for (klass, rank, _w), count in zip(cells, apportion(int(duration_s * rate), [c[2] for c in cells]))
        for _ in range(count)
    ]
    rng.shuffle(picks)
    phase = rng.random()
    records = []
    for index, (klass, rank) in enumerate(picks):
        directory = rng.choices(range(spec.directories), weights=dir_weights)[0]
        records.append(RequestRecord(
            at_s=(index + phase) / rate,
            host=host,
            path="/dir{:05d}/class{}_{}".format(directory, klass, rank),
            size_bytes=spec.file_size(klass, rank),
        ))
    return records


def build_packet_mixed(seed: int) -> Built:
    """Packet fidelity, 3 RPNs, SPECWeb99 sizes, two conforming + one misbehaver.

    Constant-rate arrivals (the paper's clients); the buffer caches hold
    only part of the file set, so some requests read disk.  Spare
    allocation stays at its default (on).
    """
    trace_s, drain_s = 14.0, 1.0
    cost = CostModel()
    started = time.perf_counter()
    records, site_files, reservations = [], {}, {}
    rng = random.Random(seed)
    for name, (rate, multiple, classes) in PACKET_PLAN.items():
        spec = SpecWeb99Config(directories=6, class_probabilities=classes)
        site_files[name] = SpecWeb99Workload(spec).site_files()
        trace = specweb_trace(name, rate, trace_s, spec, rng)
        offered_grps = sum(_grps(record.size_bytes, cost) for record in trace) / trace_s
        reservations[name] = round(offered_grps * multiple, 1)
        records.extend(trace)
    records.sort(key=lambda record: record.at_s)
    gen_s = time.perf_counter() - started
    cluster = GageCluster(
        Environment(),
        [Subscriber(name, grps, queue_capacity=64) for name, grps in reservations.items()],
        site_files,
        num_rpns=3,
        fidelity="packet",
        workers_per_site=6,
        rpn_cache_bytes=2 * 1024 * 1024,
    )
    cluster.load_trace(records)
    return Built(
        cluster=cluster,
        records=records,
        reservations=reservations,
        conforming=[name for name, (_rate, multiple, _mix) in PACKET_PLAN.items() if multiple > 1.0],
        judge_from_s=2.0,
        judge_to_s=trace_s,
        run_to_s=trace_s + drain_s,
        gen_s=gen_s,
    )


BUILDERS = {"flow_fig3": build_flow_fig3, "packet_mixed": build_packet_mixed}


def run_phase(built: Built, stepped: bool) -> None:
    """Advance the cluster to its end: in one call, or one timed step at a time."""
    cluster = built.cluster
    if not stepped:
        cluster.run(built.run_to_s)
        return
    clock = time.perf_counter
    for index in range(1, int(round(built.run_to_s / STEP_S)) + 1):
        started = clock()
        cluster.run(index * STEP_S)
        built.step_s.append(clock() - started)


def completed(built: Built) -> Dict[str, int]:
    """Completed requests per subscriber, as the clients (or RPNs) saw them."""
    cluster = built.cluster
    source = cluster.fleet.stats.completions if cluster.fleet is not None else cluster.completions
    counts: Dict[str, int] = {}
    for _at, host in source:
        counts[host] = counts.get(host, 0) + 1
    return counts


def digest(built: Built) -> str:
    """sha256 over the simulated outputs: completions and the usage log."""
    cluster = built.cluster
    sha = hashlib.sha256()
    for at, host in cluster.completions:
        sha.update("c {!r} {}\n".format(at, host).encode())
    for at, name, usage in cluster.rdn.accounting.usage_log:
        sha.update("u {!r} {} {!r} {!r} {!r}\n".format(at, name, *usage).encode())
    return sha.hexdigest()


def guarantee_deviation(built: Built) -> float:
    """Max over guaranteed subscribers of delivered vs min(offered, reservation).

    Delivered load is each completed request's usage, as its RPN
    measured it, by completion time.  Offered load is the same usage by
    arrival time, plus the requests never served (the tail of an
    overdriven queue) priced at their cache-hit cost.  Subscribers with
    a conforming load are judged; without any, every subscriber is.
    """
    cost = CostModel()
    cluster = built.cluster
    start, end = built.judge_from_s, built.judge_to_s
    delivered, offered = {}, {}
    for name in built.conforming or list(built.reservations):
        done = [
            (at, latency, grps)
            for (at, host, grps), (_at, _host, latency) in zip(cluster.usage_events, cluster.latencies)
            if host == name
        ]
        unserved = [r for r in built.records if r.host == name][len(done):]
        arrivals = [(at - latency, grps) for at, latency, grps in done]
        arrivals += [(r.at_s, _grps(r.size_bytes, cost)) for r in unserved]
        completions = [(at, grps) for at, _latency, grps in done]
        delivered[name] = [s / INTERVAL_S for s in window_sums(completions, start, end, INTERVAL_S)]
        offered[name] = [s / INTERVAL_S for s in window_sums(arrivals, start, end, INTERVAL_S)]
    return deviation_pct(delivered, offered, built.reservations)


def layer_counts(built: Built) -> Dict[str, float]:
    """Deterministic per-layer counts of one repetition."""
    cluster = built.cluster
    env = cluster.env
    done = len(cluster.fleet.stats.completions) if cluster.fleet is not None else len(cluster.completions)
    interfaces = []
    for switch in cluster.switches:
        for port in switch.ports:
            interfaces.append(port)
            if port.peer is not None:
                interfaces.append(port.peer)
    unique = list({id(iface): iface for iface in interfaces}.values())
    frames = sum(iface.tx_frames for iface in unique)
    hits = sum(machine.cache.hits for machine in cluster.machines)
    lookups = hits + sum(machine.cache.misses for machine in cluster.machines)
    counts = core_counts(telemetry.get_registry().snapshot()["metrics"])
    counts.update({
        "completed": float(done),
        "sim.events": float(env.events_dispatched),
        "sim.events_per_req": env.events_dispatched / max(1, done),
        "sim.heap_peak": float(env.queue_depth_peak),
        "net.frames_per_req": frames / max(1, done),
        "net.switch_forwarded": float(sum(switch.forwarded for switch in cluster.switches)),
        "net.drops": float(sum(iface.dropped_full + iface.dropped_loss for iface in unique)),
        "cluster.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "cluster.disk_ios": float(sum(machine.disk.io_count for machine in cluster.machines)),
    })
    return counts


@dataclass
class Repetition:
    """What one build-and-run of a sim workload produced."""

    setup_s: float
    #: :func:`reference_s` timed just before this repetition.
    reference_s: float
    stepped: bool
    run_wall_s: float
    run_cpu_s: float
    steps_s: List[float]
    completed: int
    attempted: int
    failed: int
    deviation: float
    digest: str
    gen_s: float
    #: Per-layer counts; only collected when asked for.
    counts: Optional[Dict[str, float]] = None


def repetition(
    name: str,
    seed: int,
    stepped: bool = False,
    profiler: Optional[cProfile.Profile] = None,
    counts: bool = False,
) -> Repetition:
    """Build and run one cluster; check nothing, report everything.

    The cluster itself is dropped before returning, so memory does not
    grow with the number of repetitions.
    """
    reference = reference_s()
    telemetry.reset()
    started = time.perf_counter()
    built = BUILDERS[name](seed)
    setup_s = time.perf_counter() - started
    # Every repetition starts its run phase from the same collector
    # state, so collection pauses fall at the same points each time.
    gc.collect()
    cpu0, wall0 = time.process_time(), time.perf_counter()
    if profiler is not None:
        profiler.enable()
    run_phase(built, stepped)
    if profiler is not None:
        profiler.disable()
    run_wall_s, run_cpu_s = time.perf_counter() - wall0, time.process_time() - cpu0
    done = completed(built)
    issued: Dict[str, int] = {}
    for record in built.records:
        issued[record.host] = issued.get(record.host, 0) + 1
    lost = sum(issued[host] - done.get(host, 0) for host in built.conforming)
    failed = lost + built.cluster.lost_in_flight
    return Repetition(
        setup_s=setup_s,
        reference_s=reference,
        stepped=stepped,
        run_wall_s=run_wall_s,
        run_cpu_s=run_cpu_s,
        steps_s=built.step_s,
        completed=sum(done.values()),
        attempted=len(built.records),
        failed=failed,
        deviation=guarantee_deviation(built),
        digest=digest(built),
        gen_s=built.gen_s,
        counts=layer_counts(built) if counts else None,
    )


def _check(reps: List[Repetition], problems: List[str]) -> None:
    first = reps[0]
    for rep in reps[1:]:
        if rep.digest != first.digest:
            problems.append("output digest changed between repetitions of one seed")
            break
    if first.deviation >= DEVIATION_LIMIT_PCT:
        problems.append("deviation {:.2f}% breaks the paper's {}% bound".format(
            first.deviation, DEVIATION_LIMIT_PCT))
    if any(rep.failed for rep in reps):
        problems.append("conforming requests were lost")


def run(name: str, seed: int, seconds: float, trace: bool, dump: str) -> dict:
    """Run a sim workload for about ``seconds``; see ``run.py`` for the result shape."""
    problems: List[str] = []
    deadline = time.perf_counter() + seconds
    reps = [repetition(name, seed, stepped=True)]  # warm-up: imports, first-touch allocations
    if not trace:
        while time.perf_counter() < deadline or len(reps) < 5:
            reps.append(repetition(name, seed, stepped=len(reps) % 2 == 0))
        _check(reps, problems)
        measured = list(zip(reps, slowdowns([rep.reference_s for rep in reps] + [reference_s()])))[1:]
        whole = [(rep, slow) for rep, slow in measured if not rep.stepped]
        stepped = [(rep, slow) for rep, slow in measured if rep.stepped]
        per_cycle = zip(*([step / slow for step in rep.steps_s] for rep, slow in stepped))
        step = summary([statistics.median(cycle) * 1e3 for cycle in per_cycle])
        cpu_us = statistics.median([rep.run_cpu_s / rep.completed * 1e6 for rep, _slow in whole])
        host_rps = statistics.median([rep.completed / rep.run_wall_s for rep, _slow in whole])
        metrics = {
            "setup_s": (statistics.median([rep.setup_s / slow for rep, slow in measured]), len(measured)),
            "peak_rss_mb": (peak_rss_mb(), 1),
            "capacity_rps": (statistics.median([rep.completed / rep.run_wall_s * slow for rep, slow in whole]),
                             len(whole)),
            "p50_ms": (step["p50"], step["n"]),
            "p99_ms": (step["p99"], step["n"]),
        }
        info = {
            "host_slowdown": (statistics.median([slow for _rep, slow in measured]), len(measured)),
            "host_capacity_rps": (host_rps, len(whole)),
            "cpu_us_per_req": (cpu_us, len(whole)),
            "deviation_pct": (reps[0].deviation, 1),
            "fail_pct": (100.0 * sum(r.failed for r in reps) / sum(r.attempted for r in reps), len(reps)),
            "digest": reps[0].digest[:16],
        }
        return _result(reps, problems, metrics, info)

    # Traced: alternate untraced and traced repetitions of the same seed.
    plain, traced, self_times, span_us = [], [], [], []
    while not traced or time.perf_counter() < deadline:
        plain.append(repetition(name, seed))
        spans = Spans()
        spans.wrap(RequestScheduler, "run_cycle", "core.run_cycle")
        profiler = cProfile.Profile()
        try:
            rep = repetition(name, seed, profiler=profiler, counts=True)
        finally:
            spans.restore()
        traced.append(rep)
        self_times.append(group_self_time(pstats.Stats(profiler).stats))
        span_us.append(statistics.median(spans.durations("core.run_cycle")) * 1e6)
        last_spans = spans
    reps.extend(plain + traced)
    _check(reps, problems)
    counts = traced[-1].counts
    last_spans.dump(dump, counts)
    metrics = {key: (value, 1) for key, value in counts.items() if key != "completed"}
    for layer in ("sim", "net", "core", "resources", "cluster", "telemetry", "proxy", "asyncio"):
        value = statistics.median([times.get(layer, 0.0) for times in self_times])
        metrics[layer + ".self_s"] = (value, len(self_times))
    metrics["core.run_cycle_us"] = (statistics.median(span_us), len(span_us))
    metrics["workload.gen_s"] = (statistics.median([rep.gen_s for rep in plain]), len(plain))
    metrics["core.deviation_pct"] = (reps[0].deviation, 1)
    metrics["trace.overhead_x"] = (
        statistics.median([rep.run_wall_s for rep in traced])
        / statistics.median([rep.run_wall_s for rep in plain]),
        len(traced))
    return _result(reps, problems, metrics, {})


def _result(reps: List[Repetition], problems: List[str], metrics: dict, info: dict) -> dict:
    return {
        "problems": problems,
        "attempted": sum(rep.attempted for rep in reps),
        "failed": sum(rep.failed for rep in reps),
        "metrics": metrics,
        "info": info,
    }
