"""The reconstructed experiments, each defined once.

Every entry is one module: its docstring is the reconstructed claim,
``run(quick) -> rows`` produces its table (``quick`` shrinks the sweep
for CI), ``check(rows, quick)`` asserts every bar it holds, ``TITLE``
heads the printed table, and an optional ``SERIES`` names the figure
series to print. Two runners execute the same entries:
``pytest benchmarks`` (one case per entry, full size) and
``python -m benchmarks`` (see ``__main__``).
"""

from benchmarks import (
    e1_restart_time,
    e2_recovery_breakdown,
    e3_throughput_overhead,
    e4_nvm_latency,
    e5_scan_merge,
    e6_checkpoint_ablation,
    e7_index_ablation,
    e8_merge_cost,
    e10_write_throughput,
    e11_query_throughput,
    e12_concurrent_writes,
    e13_online_merge,
    e14_replication,
    e15_server,
    e16_recovery_scaling,
    obs_overhead,
)

EXPERIMENTS = {
    "E1": e1_restart_time,
    "E2": e2_recovery_breakdown,
    "E3": e3_throughput_overhead,
    "E4": e4_nvm_latency,
    "E5": e5_scan_merge,
    "E6": e6_checkpoint_ablation,
    "E7": e7_index_ablation,
    "E8": e8_merge_cost,
    "E10": e10_write_throughput,
    "E11": e11_query_throughput,
    "E12": e12_concurrent_writes,
    "E13": e13_online_merge,
    "E14": e14_replication,
    "E15": e15_server,
    "E16": e16_recovery_scaling,
    "OBS": obs_overhead,
}
