"""Machine models: the experimental platform of §6.1.

The paper's cluster nodes are dual-socket Intel Xeon E5-2695v2 machines
(24 cores at 2.4 GHz, 128 GB of memory); GPU experiments use an Nvidia
K80.  The CPU model is a simple roofline: a kernel's runtime is the
maximum of its compute time (flops over attainable flop rate) and its
memory time (bytes over attainable bandwidth), where the attainable
rates depend on how much parallelism, vectorisation and locality the
compiler/schedule extracts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping


@dataclass(frozen=True)
class MachineModel:
    """A CPU node described by its peak rates."""

    name: str
    cores: int
    frequency_ghz: float
    vector_width: int               # doubles per SIMD lane
    flops_per_cycle_per_core: float  # scalar FMA throughput
    memory_bandwidth_gbs: float
    cache_bandwidth_gbs: float       # effective bandwidth when tiles fit in cache
    parallel_overhead_us: float = 25.0

    def peak_gflops(self, cores: int, vector_width: int) -> float:
        """Attainable GFLOP/s for a given degree of parallelism and SIMD width."""
        cores = max(1, min(cores, self.cores))
        vector_width = max(1, min(vector_width, self.vector_width))
        return cores * self.frequency_ghz * self.flops_per_cycle_per_core * vector_width

    def attainable_bandwidth(self, cores: int, locality: float) -> float:
        """Attainable GB/s: memory bandwidth blended toward cache bandwidth by locality.

        ``locality`` in [0, 1] expresses how much of the working set is
        served from cache thanks to tiling/fusion; a single core cannot
        saturate the memory system, so bandwidth also scales (sub-linearly)
        with the number of active cores.
        """
        cores = max(1, min(cores, self.cores))
        locality = min(max(locality, 0.0), 1.0)
        core_fraction = min(1.0, 0.25 + 0.75 * (cores / self.cores))
        stream = self.memory_bandwidth_gbs * core_fraction
        return stream * (1.0 - locality) + self.cache_bandwidth_gbs * locality


def fit_parallel_fraction(times: Mapping[int, float]) -> float:
    """Amdahl's-law fit of the parallel fraction from measured timings.

    ``times`` maps a thread count to measured seconds and must include
    ``1`` (the serial baseline).  Inverting Amdahl's law, each
    multi-thread point ``t(n) = t(1) * ((1 - p) + p / n)`` yields an
    estimate ``p = (1 - t(n)/t(1)) / (1 - 1/n)``; the estimates are
    clamped to [0, 1] (timing noise can push a raw estimate outside the
    physical range) and averaged.  This turns the thread-sweep rows the
    benchmarks measure into the parallelism ground truth the roofline
    model's core-scaling assumptions can be validated against.

    Returns 0.0 when no usable multi-thread point exists.
    """
    baseline = times.get(1)
    if baseline is None or baseline <= 0.0:
        return 0.0
    estimates = []
    for threads, seconds in times.items():
        if threads <= 1 or seconds <= 0.0:
            continue
        estimate = (1.0 - seconds / baseline) / (1.0 - 1.0 / threads)
        estimates.append(min(max(estimate, 0.0), 1.0))
    if not estimates:
        return 0.0
    return sum(estimates) / len(estimates)


XEON_NODE = MachineModel(
    name="2x Xeon E5-2695v2 (24 cores, 2.4 GHz)",
    cores=24,
    frequency_ghz=2.4,
    vector_width=4,                 # AVX over doubles
    flops_per_cycle_per_core=2.0,   # mul + add
    memory_bandwidth_gbs=95.0,
    cache_bandwidth_gbs=400.0,
)


@dataclass(frozen=True)
class GPUModelSpec:
    """K80-class accelerator parameters."""

    name: str
    peak_gflops: float
    memory_bandwidth_gbs: float
    pcie_bandwidth_gbs: float
    kernel_launch_us: float
    occupancy: float


GPU_K80 = GPUModelSpec(
    name="Nvidia K80 (one GK210 die)",
    peak_gflops=1400.0,
    memory_bandwidth_gbs=240.0,
    # Effective host<->device rate with pinned buffers and copy/compute overlap.
    pcie_bandwidth_gbs=22.0,
    kernel_launch_us=12.0,
    occupancy=0.55,
)
