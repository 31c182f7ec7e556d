"""Benchmark workloads: YCSB and TPC-C."""

from .tpcc import (
    TpccScale,
    TpccTerminal,
    load_tpcc,
    run_tpcc,
    tpcc_partitioner,
)
from .ycsb import YcsbConfig, YcsbWorkload, bulk_load, run_ycsb

__all__ = [
    "TpccScale",
    "TpccTerminal",
    "YcsbConfig",
    "YcsbWorkload",
    "bulk_load",
    "load_tpcc",
    "run_tpcc",
    "run_ycsb",
    "tpcc_partitioner",
]
