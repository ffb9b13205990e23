"""BENCH_proxy — throughput of the real-socket proxy data plane.

Unlike the table/figure suites, this one measures *this machine's*
serving stack: a full in-process deployment (two back ends behind one
:class:`~repro.proxy.frontend.GageProxy`) driven by the closed- and
open-loop load generator from :mod:`repro.harness.loadgen`.  The
exported figures (RPS, latency quantiles, pool hit rate) carry the
``perf_`` prefix so the CI gate applies the forgiving timing tolerance,
not the fixed-seed figure tolerance.

The closed-loop keep-alive workload is the data-plane acceptance
workload: the pool and client keep-alive should hold TCP connects to
roughly the client population while RPS at least doubles the
pre-rework (connection-per-request) baseline.
"""

import asyncio

from repro.harness.loadgen import ProxyRig, closed_loop, open_loop
from repro.proxy.splice import splice_stats

from .conftest import print_banner

#: Serialized as BENCH_proxy.json regardless of this module's filename.
BENCHSTORE_SUITE = "proxy"

#: Closed-loop client population and per-round request budget.
CONCURRENCY = 16
REQUESTS = 600

#: Open-loop offered rate (requests/s) and window.
OPEN_RATE = 200.0
OPEN_DURATION_S = 1.0


def _closed_round(keep_alive: bool):
    async def go():
        rig = ProxyRig()
        port = await rig.start()
        try:
            await closed_loop(
                "127.0.0.1",
                port,
                site=rig.site,
                concurrency=4,
                total_requests=50,
                keep_alive=keep_alive,
            )
            splice_stats.reset()
            result = await closed_loop(
                "127.0.0.1",
                port,
                site=rig.site,
                concurrency=CONCURRENCY,
                total_requests=REQUESTS,
                keep_alive=keep_alive,
            )
            zero_copy = dict(splice_stats.snapshot())
            zero_copy["sendfile_served"] = sum(
                backend.sendfile_served for backend in rig.backends
            )
            return result, rig.proxy.pool.hit_rate, zero_copy
        finally:
            await rig.stop()

    return asyncio.run(go())


def _open_round():
    async def go():
        rig = ProxyRig()
        port = await rig.start()
        try:
            return await open_loop(
                "127.0.0.1",
                port,
                site=rig.site,
                rate=OPEN_RATE,
                duration_s=OPEN_DURATION_S,
            )
        finally:
            await rig.stop()

    return asyncio.run(go())


def test_closed_loop_keepalive(benchmark):
    """16 keep-alive clients, back-to-back requests through the proxy."""
    outcome = {}

    def one_round():
        (
            outcome["result"],
            outcome["hit_rate"],
            outcome["zero_copy"],
        ) = _closed_round(keep_alive=True)

    benchmark.pedantic(one_round, rounds=3, warmup_rounds=1)
    result, hit_rate = outcome["result"], outcome["hit_rate"]
    zero_copy = outcome["zero_copy"]

    print_banner("BENCH_proxy: closed-loop keep-alive")
    print(
        "  rps {:.1f}   p50 {:.2f} ms   p95 {:.2f} ms   "
        "connects {}   pool hit rate {:.3f}".format(
            result.rps,
            result.latency_s(0.5) * 1e3,
            result.latency_s(0.95) * 1e3,
            result.connects,
            hit_rate,
        )
    )
    print(
        "  sendmsg {} writes/{} B   sendfile {} bodies/{} B".format(
            zero_copy["sendmsg_writes"],
            zero_copy["sendmsg_bytes"],
            zero_copy["sendfile_served"],
            zero_copy["sendfile_bytes"],
        )
    )

    assert result.errors == 0
    assert result.completed == REQUESTS
    # Keep-alive + pooling: connections stay bound to the client
    # population instead of scaling with the request count.
    assert result.connects <= CONCURRENCY * 2
    assert hit_rate > 0.8
    # The zero-copy paths must actually engage: warm bodies leave via
    # sendfile and at least some head+body writes go out vectored.
    assert zero_copy["sendfile_served"] > 0
    assert zero_copy["sendmsg_writes"] > 0

    benchmark.extra_info["perf_rps"] = round(result.rps, 1)
    benchmark.extra_info["perf_p50_ms"] = round(result.latency_s(0.5) * 1e3, 3)
    benchmark.extra_info["perf_p95_ms"] = round(result.latency_s(0.95) * 1e3, 3)
    benchmark.extra_info["perf_pool_hit_rate"] = round(hit_rate, 4)
    benchmark.extra_info["perf_sendmsg_writes"] = zero_copy["sendmsg_writes"]
    benchmark.extra_info["perf_sendfile_bodies"] = zero_copy["sendfile_served"]
    benchmark.extra_info["requests"] = REQUESTS
    benchmark.extra_info["concurrency"] = CONCURRENCY


def test_open_loop(benchmark):
    """A fixed 200 req/s offered load on fresh connections per request."""
    outcome = {}

    def one_round():
        outcome["result"] = _open_round()

    benchmark.pedantic(one_round, rounds=2, warmup_rounds=1)
    result = outcome["result"]

    print_banner("BENCH_proxy: open-loop {} req/s".format(int(OPEN_RATE)))
    print(
        "  completed {}   errors {}   p50 {:.2f} ms   p95 {:.2f} ms".format(
            result.completed,
            result.errors,
            result.latency_s(0.5) * 1e3,
            result.latency_s(0.95) * 1e3,
        )
    )

    assert result.errors == 0
    # The proxy must keep up with the offered rate (all fired requests
    # answered within the drain window).
    assert result.completed >= int(OPEN_RATE * OPEN_DURATION_S * 0.95)

    benchmark.extra_info["perf_open_p50_ms"] = round(result.latency_s(0.5) * 1e3, 3)
    benchmark.extra_info["perf_open_p95_ms"] = round(result.latency_s(0.95) * 1e3, 3)
    benchmark.extra_info["offered_rps"] = OPEN_RATE
