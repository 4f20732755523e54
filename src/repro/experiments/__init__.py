"""Experiment harness: one module per paper table/figure.

Every module exposes ``run(fast=True, seed=42) -> ExperimentResult``.
The registry below maps experiment ids to modules (the benchmarks and
the ``python -m repro.experiments`` CLI run its entries).
"""

from . import (
    e01_invocation_overhead,
    e02_noisy_neighbor,
    e03_fig5_transfer_mechanisms,
    e04_fig6_throughput_grid,
    e05_fig7_latency,
    e06_innova,
    e07_isolation,
    e08_vca_sgx,
    e09_fig8a_lenet,
    e10_fig8b_scaleout,
    e11_fig8c_projection,
    e12_fig9_memcached,
    e13_facever,
    e14_vma_stack,
    e15_consistency_barrier,
    e16_faults,
    e17_slo_frontier,
    e18_cluster,
)
from .base import ExperimentResult
from .testbed import Testbed

REGISTRY = {
    "E01": e01_invocation_overhead,
    "E02": e02_noisy_neighbor,
    "E03": e03_fig5_transfer_mechanisms,
    "E04": e04_fig6_throughput_grid,
    "E05": e05_fig7_latency,
    "E06": e06_innova,
    "E07": e07_isolation,
    "E08": e08_vca_sgx,
    "E09": e09_fig8a_lenet,
    "E10": e10_fig8b_scaleout,
    "E11": e11_fig8c_projection,
    "E12": e12_fig9_memcached,
    "E13": e13_facever,
    "E14": e14_vma_stack,
    "E15": e15_consistency_barrier,
    "E16": e16_faults,
    "E17": e17_slo_frontier,
    "E18": e18_cluster,
}


__all__ = ["REGISTRY", "ExperimentResult", "Testbed"]
