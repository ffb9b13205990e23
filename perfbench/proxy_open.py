"""The ``proxy_open`` workload: real sockets on loopback, open-loop load.

The process under test (``proxy_server.py``: GageProxy plus two back
ends, default ``GageConfig``) runs as a subprocess; this process is the
load generator, holding one keep-alive connection for the conforming
subscriber and one for the flooder.  Phases: set-up (21 launches,
median reported), warm-up, a short rate ladder for capacity, then the
measured phase at the fixed operating rate.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import select
import statistics
import subprocess
import sys
from typing import Dict, List, Tuple

from loadgen import Stream, drive, paced_schedule
from measure import deviation_pct, is_failure, knee, percentile, summary, window_sums
from proxy_server import BULK, CONFORM, FLOOD, PAGE, SITES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: The fixed operating point: conforming and flooder offered rates (1/s).
CONFORM_RPS = 50.0
FLOOD_RPS = 40.0
#: Capacity ladder of conforming rates, each held for LADDER_STEP_S.  The
#: default 10 ms scheduling cycle serves at most one request per cycle on
#: a keep-alive connection, so the knee lies below 100 requests/s.
LADDER_RPS = (60.0, 70.0, 80.0, 90.0, 100.0, 110.0)
LADDER_STEP_S = 1.5
WARMUP_S = 1.0
#: Latency limit on the conforming p99 that defines capacity.
LATENCY_LIMIT_MS = 50.0
#: The generator is behind, and the run invalid, past this p99 lateness.
LATE_LIMIT_MS = 10.0
#: Pipeline bound on the flooder's connection.
FLOOD_OUTSTANDING = 8
INTERVAL_S = 4.0
DEVIATION_LIMIT_PCT = 8.0
SETUP_LAUNCHES = 21
REPLY_TIMEOUT_S = 30.0


class ServerProcess:
    """The proxy subprocess and its line-per-command control channel."""

    def __init__(self, trace: bool, dump: str) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        # The back ends write their sendfile body file to the temp dir;
        # keep it inside the checkout.
        tmp = os.path.join(ROOT, ".perfbench_out", "tmp")
        os.makedirs(tmp, exist_ok=True)
        env["TMPDIR"] = tmp
        # Fixed string hashing: one less difference between server processes.
        env["PYTHONHASHSEED"] = "0"
        command = [sys.executable, os.path.join(HERE, "proxy_server.py"), "--dump", dump]
        if trace:
            command.append("--trace")
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, env=env
        )
        try:
            ready = self._read()
        except BaseException:
            self.proc.kill()
            self.stop()
            raise
        self.port = ready["port"]
        #: The server's own set-up time: importing ``repro`` and starting
        #: the deployment, without the interpreter's start-up.
        self.setup_s = ready["setup_s"]

    def _read(self) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [], REPLY_TIMEOUT_S)
        if not ready:
            raise RuntimeError("proxy server did not answer within {} s".format(REPLY_TIMEOUT_S))
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("proxy server exited (code {})".format(self.proc.wait()))
        return json.loads(line)

    def ask(self, command: str) -> dict:
        self.proc.stdin.write((command + "\n").encode())
        self.proc.stdin.flush()
        reply = self._read()
        if "error" in reply:
            raise RuntimeError(reply["error"])
        return reply

    def stop(self) -> None:
        """Stop the server and wait for it; kill it if it does not go."""
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write(b"stop\n")
                self.proc.stdin.close()
                self.proc.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
        self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def streams(seed: int, conform_rps: float, duration_s: float, flood: bool) -> List[Stream]:
    """Seeded schedules: a conforming stream and, with ``flood``, the flooder.

    Both clients are paced: one request per period, jittered by the seed.
    """
    rng = random.Random(seed)
    out = [Stream(CONFORM, PAGE, SITES[CONFORM][PAGE],
                  paced_schedule(conform_rps, duration_s, rng), conforming=True)]
    if flood:
        out.append(Stream(FLOOD, BULK, SITES[FLOOD][BULK],
                          paced_schedule(FLOOD_RPS, duration_s, rng), conforming=False,
                          max_outstanding=FLOOD_OUTSTANDING))
    return out


def _tally(all_streams: List[Stream]) -> Dict[str, int]:
    attempted = failed = 0
    for stream in all_streams:
        for request in stream.requests:
            attempted += 1
            failed += is_failure(request.status, request.body_ok, stream.conforming, request.lost)
    return {"attempted": attempted, "failed": failed}


def _ladder(port: int, seed: int, flood: bool) -> Tuple[float, List[List[Stream]]]:
    """Capacity: the conforming rate at which the tail reaches the latency limit.

    Climbs the ladder until a step's tail exceeds the limit or leaves a
    backlog, then interpolates (see ``measure.knee``).  Also returns the
    streams of every step run, for the failure tally.
    """
    results, steps = [], []
    for index, rate in enumerate(LADDER_RPS):
        step = streams(seed * 1000 + index + 1, rate, LADDER_STEP_S, flood)
        start = asyncio.run(drive(port, step))
        steps.append(step)
        conform = step[0]
        latencies = conform.latencies_ms()
        tail = percentile(latencies, summary(latencies)["tail_q"]) if latencies else float("inf")
        backlog = conform.outstanding_at(start + LADDER_STEP_S)
        passed = tail <= LATENCY_LIMIT_MS and backlog <= rate * LATENCY_LIMIT_MS / 1e3 + 1
        results.append((rate, tail, passed))
        if not passed:
            break
    return knee(results, LATENCY_LIMIT_MS), steps


def _deviation(conform: Stream, start: float, duration_s: float) -> float:
    """Delivered vs offered requests of the conforming subscriber per 4 s window."""
    offered = window_sums(((r.due - start, 1.0) for r in conform.requests), 0.0, duration_s, INTERVAL_S)
    delivered = window_sums(((r.done - start, 1.0) for r in conform.requests if r.done is not None),
                            0.0, duration_s, INTERVAL_S)
    return deviation_pct({CONFORM: delivered}, {CONFORM: offered}, {CONFORM: float("inf")})


def _check(phase: List[Stream], start: float, duration_s: float, problems: List[str]) -> dict:
    conform = phase[0]
    bad = [r for s in phase for r in s.requests if is_failure(r.status, r.body_ok, s.conforming, r.lost)]
    if bad:
        problems.append("{} responses failed the status/byte check".format(len(bad)))
    late = summary(conform.lateness_ms() + [x for s in phase[1:] for x in s.lateness_ms()])
    if late["p99"] > LATE_LIMIT_MS:
        problems.append("generator fell behind: p99 lateness {:.1f} ms > {} ms".format(
            late["p99"], LATE_LIMIT_MS))
    deviation = _deviation(conform, start, duration_s)
    if deviation >= DEVIATION_LIMIT_PCT:
        problems.append("conforming delivered rate deviates {:.2f}% from offered".format(deviation))
    return {"late": late, "deviation": deviation}


def _launch(trace: bool, dump: str, launches: int) -> Tuple[ServerProcess, List[float]]:
    """Launch the server ``launches`` times, keep the last; return its set-up times."""
    times, server = [], None
    for index in range(launches):
        candidate = ServerProcess(trace, dump)
        times.append(candidate.setup_s)
        if index < launches - 1:
            candidate.stop()
        else:
            server = candidate
    return server, times


def run(seed: int, seconds: float, trace: bool, dump: str) -> dict:
    """Run ``proxy_open``; see ``run.py`` for the result shape."""
    problems: List[str] = []
    connections = min(2, os.cpu_count() or 1)
    flood = connections >= 2
    server, setup_times = _launch(trace, dump, SETUP_LAUNCHES if not trace else 1)
    try:
        asyncio.run(drive(server.port, streams(seed + 7, CONFORM_RPS, WARMUP_S, flood)))
        if trace:
            return _traced(server, seed, seconds, flood, problems)
        capacity, ladder = _ladder(server.port, seed, flood)
        ladder_tally = _tally([s for step in ladder for s in step])
        phase = streams(seed, CONFORM_RPS, seconds, flood)
        before = server.ask("mark")
        start = asyncio.run(drive(server.port, phase))
        after = server.ask("mark")
        checked = _check(phase, start, seconds, problems)
    finally:
        server.stop()
    served = after["counts"]["completed"] - before["counts"]["completed"]
    latency = summary(phase[0].latencies_ms())
    tally = _tally(phase)
    flood_done = sum(1 for r in phase[-1].requests if r.status == 200) if flood else 0
    metrics = {
        "setup_s": (statistics.median(setup_times), len(setup_times)),
        "peak_rss_mb": (after["rss_mb"], 1),
        "capacity_rps": (capacity, len(ladder)),
        "p50_ms": (latency["p50"], latency["n"]),
        "p99_ms": (latency["p99"], latency["n"]),
    }
    info = {
        "cpu_us_per_req": ((after["cpu_s"] - before["cpu_s"]) / max(1, served) * 1e6, served),
        "deviation_pct": (checked["deviation"], 1),
        "fail_pct": (100.0 * (tally["failed"] + ladder_tally["failed"])
                     / max(1, tally["attempted"] + ladder_tally["attempted"]),
                     tally["attempted"] + ladder_tally["attempted"]),
        "loadgen.late_p99_ms": (checked["late"]["p99"], checked["late"]["n"]),
        "flood_served_rps": (flood_done / seconds, flood_done),
        "flood_held": (phase[-1].held if flood else 0, 1),
        "core.queue_drops": (after["counts"]["core.queue_drops"], 1),
        "connections": (connections, 1),
    }
    return {
        "problems": problems,
        "attempted": tally["attempted"] + ladder_tally["attempted"],
        "failed": tally["failed"] + ladder_tally["failed"],
        "metrics": metrics,
        "info": info,
    }


def _traced(server: ServerProcess, seed: int, seconds: float, flood: bool, problems: List[str]) -> dict:
    """Half the time untraced, half traced, at the operating rate."""
    window = max(2.0, seconds / 2.0)
    plain = streams(seed, CONFORM_RPS, window, flood)
    before = server.ask("mark")
    plain_start = asyncio.run(drive(server.port, plain))
    after = server.ask("mark")
    plain_cpu = (after["cpu_s"] - before["cpu_s"]) / max(1, after["counts"]["completed"] - before["counts"]["completed"])
    traced = streams(seed + 1, CONFORM_RPS, window, flood)
    server.ask("trace on")
    start = asyncio.run(drive(server.port, traced))
    server.ask("trace off")
    report = server.ask("report")
    checked = _check(traced, start, window, problems)
    _check(plain, plain_start, window, problems)
    counts = report["counts"]
    traced_cpu = report["traced_cpu_s"] / max(1, counts["completed"])
    spans = report["spans"]

    def p(name: str, q: float, scale: float) -> float:
        values = spans[name]
        return percentile(values, q) * scale if values else 0.0

    self_s = report["self_s"]
    metrics = {key: (value, 1) for key, value in counts.items() if key != "completed"}
    metrics.update({
        "proxy.queue_wait_ms_p50": (p("proxy.queue_wait", 0.5, 1e3), len(spans["proxy.queue_wait"])),
        "proxy.queue_wait_ms_p99": (p("proxy.queue_wait", 0.99, 1e3), len(spans["proxy.queue_wait"])),
        "proxy.parse_us": (p("proxy.parse", 0.5, 1e6), len(spans["proxy.parse"])),
        "proxy.acquire_us": (p("proxy.acquire", 0.5, 1e6), len(spans["proxy.acquire"])),
        "proxy.splice_us": (p("proxy.splice", 0.5, 1e6), len(spans["proxy.splice"])),
        "core.run_cycle_us": (p("core.run_cycle", 0.5, 1e6), len(spans["core.run_cycle"])),
        "loadgen.late_p99_ms": (checked["late"]["p99"], checked["late"]["n"]),
        "core.deviation_pct": (checked["deviation"], 1),
        "trace.overhead_x": (traced_cpu / plain_cpu if plain_cpu > 0 else 0.0, 2),
    })
    for layer in ("core", "resources", "telemetry", "proxy", "asyncio"):
        metrics[layer + ".self_s"] = (self_s.get(layer, 0.0), 1)
    tally = _tally(plain + traced)
    return {
        "problems": problems,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": metrics,
        "info": {},
    }
