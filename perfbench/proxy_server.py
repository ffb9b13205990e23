"""The process under test for ``proxy_open``: GageProxy plus its back ends.

Run as ``python3 perfbench/proxy_server.py --dump FILE [--trace]`` with
``src`` on ``PYTHONPATH``.  It starts two ``BackendServer`` instances and
one ``GageProxy`` (default ``GageConfig``) on loopback, prints one JSON
line ``{"port": ..., "setup_s": ...}`` and then answers one JSON line per
command read from standard input:

- ``mark``  : CPU seconds and peak RSS of this process, proxy counters;
- ``trace on`` / ``trace off`` : start or stop cProfile and the span
  wrappers (only with ``--trace``);
- ``report``: self time by layer, span summaries and counts of the
  traced window, and the spans themselves written to ``--dump``;
- ``stop``  : shut down and exit.  End of input does the same.

The constants below define the deployment; the load generator imports
them, so importing this module must stay free of side effects.
"""

from __future__ import annotations

import argparse
import asyncio
import cProfile
import json
import os
import pstats
import resource
import sys
import time

from measure import core_counts, group_self_time, peak_rss_mb
from spans import Spans

CONFORM = "conform.example"
FLOOD = "flood.example"
PAGE = "/page.html"
BULK = "/bulk.bin"
#: host -> {path -> body bytes}: 2 KB pages for the conforming subscriber,
#: 64 KB bodies for the flooder.
SITES = {CONFORM: {PAGE: 2048}, FLOOD: {BULK: 65536}}
#: Reservations in generic requests per second.  The conforming rates
#: used (at most 110 requests/s of 2 KB, about 1 GRPS each) stay under
#: 200 GRPS; the flooder offers 40 requests/s of 64 KB at ~33 GRPS each,
#: about twice its reservation.
RESERVATIONS = {CONFORM: 200.0, FLOOD: 600.0}
BACKENDS = 2


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class Server:
    """The deployment plus the optional profiler and span wrappers."""

    def __init__(self, dump: str) -> None:
        self.dump = dump
        self.backends = []
        self.proxy = None
        self.profiler = None
        self.spans = None
        self.traced_cpu_s = 0.0
        self._traced_from = 0.0
        self._stats_at_on = {}

    async def start(self) -> int:
        from repro.core.subscriber import Subscriber
        from repro.proxy import BackendServer, GageProxy

        addrs = {}
        for index in range(BACKENDS):
            backend = BackendServer(SITES, time_scale=0.0)
            port = await backend.start()
            self.backends.append(backend)
            addrs["backend{}".format(index)] = ("127.0.0.1", port)
        subscribers = [Subscriber(host, grps) for host, grps in RESERVATIONS.items()]
        self.proxy = GageProxy(subscribers, addrs)
        return await self.proxy.start()

    async def stop(self) -> None:
        await self.proxy.stop()
        for backend in self.backends:
            await backend.stop()

    def counts(self) -> dict:
        from repro.telemetry.registry import get_registry

        counts = core_counts(get_registry().snapshot()["metrics"])
        counts.update({
            "completed": self.proxy.stats.completed,
            "pool_hits": self.proxy.pool.hits,
            "pool_misses": self.proxy.pool.misses,
        })
        return counts

    def trace_on(self) -> None:
        from repro.core.queues import RequestQueue
        from repro.core.scheduler import RequestScheduler
        from repro.proxy import client_session, frontend

        spans = Spans()
        spans.wrap_queue_wait(
            RequestQueue, "proxy.queue_wait", only=lambda queue: queue.subscriber.name == CONFORM
        )
        spans.wrap_async(client_session, "read_request_head", "proxy.parse", busy=True)
        spans.wrap_async(frontend.GageProxy, "_acquire", "proxy.acquire")
        spans.wrap_async(frontend, "splice_exactly", "proxy.splice", total=True)
        spans.wrap(RequestScheduler, "run_cycle", "core.run_cycle")
        self.spans = spans
        self._stats_at_on = self.counts()
        self.profiler = cProfile.Profile()
        self._traced_from = _cpu_s()
        self.profiler.enable()

    def trace_off(self) -> None:
        self.profiler.disable()
        self.traced_cpu_s += _cpu_s() - self._traced_from
        self.spans.restore()

    def report(self) -> dict:
        spans: Spans = self.spans
        now, then = self.counts(), self._stats_at_on
        delta = {key: now[key] - then.get(key, 0) for key in now}
        lookups = delta["pool_hits"] + delta["pool_misses"]
        counts = {key: value for key, value in delta.items() if key.startswith("core.")}
        counts["proxy.pool_hit_ratio"] = delta["pool_hits"] / lookups if lookups else 0.0
        counts["proxy.bytes_relayed"] = spans.totals.get("proxy.splice", 0)
        counts["completed"] = delta["completed"]
        spans.dump(self.dump, counts)
        names = ("proxy.queue_wait", "proxy.parse", "proxy.acquire", "proxy.splice", "core.run_cycle")
        return {
            "self_s": group_self_time(pstats.Stats(self.profiler).stats),
            "spans": {name: spans.durations(name) for name in names},
            "counts": counts,
            "traced_cpu_s": self.traced_cpu_s,
        }


async def serve(trace: bool, dump: str) -> None:
    # Set-up is timed from here: importing ``repro`` and starting the
    # deployment, not the interpreter's own start-up.
    started = time.perf_counter()
    server = Server(dump)
    port = await server.start()
    setup_s = time.perf_counter() - started
    loop = asyncio.get_running_loop()
    reader = asyncio.StreamReader()
    await loop.connect_read_pipe(lambda: asyncio.StreamReaderProtocol(reader), sys.stdin)

    def reply(payload: dict) -> None:
        sys.stdout.write(json.dumps(payload) + "\n")
        sys.stdout.flush()

    reply({"port": port, "pid": os.getpid(), "setup_s": setup_s})
    try:
        while True:
            line = (await reader.readline()).decode().strip()
            if line in ("", "stop"):
                break
            if line == "mark":
                reply({"cpu_s": _cpu_s(), "rss_mb": peak_rss_mb(), "counts": server.counts()})
            elif line == "trace on" and trace:
                server.trace_on()
                reply({"ok": True})
            elif line == "trace off" and trace:
                server.trace_off()
                reply({"ok": True})
            elif line == "report" and trace:
                reply(server.report())
            else:
                reply({"error": "unknown command {!r}".format(line)})
    finally:
        await server.stop()
        reply({"stopped": True})


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", action="store_true", help="allow the trace commands")
    parser.add_argument("--dump", required=True, help="where 'report' writes the spans")
    args = parser.parse_args()
    asyncio.run(serve(args.trace, args.dump))


if __name__ == "__main__":
    main()
