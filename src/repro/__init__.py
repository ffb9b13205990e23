"""Gage — performance guarantees for cluster-based Internet services.

A from-scratch Python reproduction of *Performance Guarantees for
Cluster-Based Internet Services* (Li, Peng, Gopalan, Chiueh — ICDCS
2003): the Gage QoS-aware request distribution system, every substrate it
runs on (discrete-event kernel, packet-level network with TCP splicing,
cluster-node models, workload generators), an asyncio real-socket
implementation of the same architecture, and the benchmark harness that
regenerates every table and figure of the paper's evaluation.

Quick start::

    from repro import Environment, GageCluster, Subscriber, SyntheticWorkload

    env = Environment()
    subs = [Subscriber("gold.example.com", reservation_grps=200),
            Subscriber("bronze.example.com", reservation_grps=50)]
    load = SyntheticWorkload(
        rates={"gold.example.com": 190.0, "bronze.example.com": 400.0},
        duration_s=10.0, file_bytes=2000)
    cluster = GageCluster(
        env, subs, {s.name: load.site_files(s.name) for s in subs},
        num_rpns=4)
    cluster.load_trace(load.generate())
    cluster.run(10.0)
    for report in cluster.all_reports(2.0, 10.0):
        print(report.subscriber, report.served_rate, report.dropped_rate)

Package map (see DESIGN.md for the full inventory):

- :mod:`repro.sim` — deterministic discrete-event kernel;
- :mod:`repro.net` — packets, links, switch, TCP, splice remapping;
- :mod:`repro.cluster` — CPU/disk/cache/process-accounting node model;
- :mod:`repro.workload` — synthetic and SPECWeb99-shaped workloads;
- :mod:`repro.core` — the Gage layer (the paper's contribution);
- :mod:`repro.baselines` — best-effort and strict-priority comparators;
- :mod:`repro.proxy` — asyncio implementation on real sockets;
- :mod:`repro.harness` — per-table/figure experiment runners.
"""

from repro.core import (
    GageCluster,
    GageConfig,
    GENERIC_REQUEST,
    PrimaryRDN,
    ServiceReport,
    Subscriber,
    grps,
)
from repro.resources import ResourceVector
from repro.sim import Environment
from repro.workload import SpecWeb99Workload, SyntheticWorkload

__version__ = "1.0.0"

__all__ = [
    "Environment",
    "GageCluster",
    "GageConfig",
    "GENERIC_REQUEST",
    "PrimaryRDN",
    "ResourceVector",
    "ServiceReport",
    "SpecWeb99Workload",
    "Subscriber",
    "SyntheticWorkload",
    "__version__",
    "grps",
]
