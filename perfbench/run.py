"""The repository benchmark: one command, three workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload flow_fig3 --seed 1 --seconds 30 --trace 0

Workloads: ``flow_fig3`` (flow-fidelity Figure 3), ``packet_mixed``
(packet fidelity, SPECWeb99 sizes, a misbehaving subscriber) and
``proxy_open`` (the real-socket proxy under open-loop load); ``all``
runs the three in turn, each in a process of its own so that one
workload's peak memory is not reported as the next one's.  ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` is a separate run that profiles and wraps entry points to
split the work by layer and writes its spans to ``.perfbench_out/``.

Every run checks the program's outputs.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit).  The exit code is 0 only when
every check passed.  See ``perfbench/README.md`` for what each metric
means on each workload.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("flow_fig3", "packet_mixed", "proxy_open")

#: End-to-end metrics (untraced runs), reported on every workload.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "capacity_rps": "1/s",
    "p50_ms": "ms",
    "p99_ms": "ms",
}

#: Per-layer metrics (traced runs).  A layer a workload does not touch
#: reports 0: that is the "no change" control for work on that layer.
PER_LAYER = {
    "sim.self_s": "s",
    "sim.events": "count",
    "sim.events_per_req": "ratio",
    "sim.heap_peak": "count",
    "net.self_s": "s",
    "net.frames_per_req": "ratio",
    "net.switch_forwarded": "count",
    "net.drops": "count",
    "core.self_s": "s",
    "core.wrr_cycles": "count",
    "core.dispatches": "count",
    "core.queue_drops": "count",
    "core.spare_rounds": "count",
    "core.accounting_messages": "count",
    "core.run_cycle_us": "us",
    "core.deviation_pct": "%",
    "resources.self_s": "s",
    "cluster.self_s": "s",
    "cluster.cache_hit_ratio": "ratio",
    "cluster.disk_ios": "count",
    "telemetry.self_s": "s",
    "workload.gen_s": "s",
    "proxy.queue_wait_ms_p50": "ms",
    "proxy.queue_wait_ms_p99": "ms",
    "proxy.parse_us": "us",
    "proxy.acquire_us": "us",
    "proxy.pool_hit_ratio": "ratio",
    "proxy.splice_us": "us",
    "proxy.bytes_relayed": "B",
    "proxy.self_s": "s",
    "asyncio.self_s": "s",
    "loadgen.late_p99_ms": "ms",
    "trace.overhead_x": "x",
}

#: Printed beside the end-to-end metrics, never gated: each is 0 in a
#: healthy run, exists on only some workloads, or spreads too much from
#: run to run on a shared host to bound (see README.md).
INFO_UNITS = {
    "host_slowdown": "x",
    "host_capacity_rps": "1/s",
    "cpu_us_per_req": "us",
    "deviation_pct": "%",
    "fail_pct": "%",
    "loadgen.late_p99_ms": "ms",
    "flood_served_rps": "1/s",
    "flood_held": "count",
    "core.queue_drops": "count",
    "connections": "count",
    "digest": "sha256",
}


def trace_dump_path(workload: str, seed: int) -> str:
    """Where a traced run writes its spans and counts (inside the checkout)."""
    out = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out, exist_ok=True)
    return os.path.join(out, "trace-{}-{}.json".format(workload, seed))


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload and return its raw result (see the module doc)."""
    dump = trace_dump_path(workload, seed) if trace else ""
    if workload == "proxy_open":
        import proxy_open

        return proxy_open.run(seed, seconds, trace, dump)
    import sims

    return sims.run(workload, seed, seconds, trace, dump)


def report(workload: str, result: dict, trace: bool) -> dict:
    """Print the table for one run and return the contract's JSON object."""
    wanted = PER_LAYER if trace else END_TO_END
    metrics = {}
    print("== {} ({}) ==".format(workload, "traced, per layer" if trace else "end to end"))
    for name, unit in wanted.items():
        value, samples = result["metrics"].get(name, (0.0, 0))
        metrics[name] = {"value": float(value), "unit": unit}
        print("  {:<28} {:>14.6g} {:<6} n={}".format(name, value, unit, samples))
    for name, entry in result["info"].items():
        if name == "digest":
            print("  {:<28} {:>14} {:<6}".format(name, entry, INFO_UNITS[name]))
            continue
        value, samples = entry
        print("  {:<28} {:>14.6g} {:<6} n={}".format(name, value, INFO_UNITS[name], samples))
    for problem in result["problems"]:
        print("  CHECK FAILED: {}".format(problem))
    return {
        "correct": not result["problems"],
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0, help="length of the measured phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: no src/repro under {}; nothing to measure".format(ROOT), file=sys.stderr)
        return 2
    if args.workload == "all":
        codes = [
            subprocess.call([sys.executable, os.path.abspath(__file__), "--workload", workload,
                             "--seed", str(args.seed), "--seconds", str(args.seconds),
                             "--trace", str(args.trace)])
            for workload in WORKLOADS
        ]
        return 0 if not any(codes) else 1
    sys.path.insert(0, os.path.join(ROOT, "src"))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    line = report(args.workload, result, bool(args.trace))
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
