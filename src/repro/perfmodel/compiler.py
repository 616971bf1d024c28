"""Compiler behaviour models: who can optimise what, and how well.

Table 1's columns are ratios of the same kernel built four ways; the
differences come from how much parallelism, vectorisation and locality
each toolchain extracts and how badly hand-optimisations confuse it:

* **gfortran -O3** (baseline): serial; vectorises only simple innermost
  loops; no parallelisation.  All speedups are relative to it.
* **ifort -parallel** on the *original* code: auto-parallelisation
  succeeds only on clean affine nests; on hand-tiled / unrolled /
  non-affine code it typically gives no speedup (≈1×), and on the
  challenge problems its heuristics misfire badly (orders of magnitude
  slower — §6.5).
* **ifort -parallel** on the *regenerated clean C*: the same compiler on
  the deoptimized code parallelises and vectorises successfully.
* **Halide + autotuning**: parallel across cores, vectorised, tiled for
  locality; quality depends on the autotuned schedule.

Every model maps a :class:`~repro.perfmodel.workload.KernelWorkload`
(plus, for Halide, a :class:`~repro.halide.schedule.Schedule`) to an
estimated runtime on the :class:`~repro.perfmodel.machine.MachineModel`.
A small deterministic per-kernel perturbation (hashed from the kernel
name) models the benchmark-to-benchmark variation that gives the paper
its spread of speedups without changing any ordering produced by the
mechanisms above.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

from repro.halide.schedule import Schedule
from repro.perfmodel.machine import GPU_K80, GPUModelSpec, MachineModel, XEON_NODE
from repro.perfmodel.workload import KernelWorkload


def _jitter(name: str, tag: str, spread: float = 0.15) -> float:
    """Deterministic multiplicative perturbation in [1-spread, 1+spread]."""
    digest = hashlib.sha256(f"{name}:{tag}".encode()).digest()
    unit = int.from_bytes(digest[:4], "big") / 0xFFFFFFFF
    return 1.0 - spread + 2.0 * spread * unit


def _roofline_time(
    workload: KernelWorkload,
    machine: MachineModel,
    cores: int,
    vector_width: int,
    locality: float,
    efficiency: float,
) -> float:
    """Runtime of one kernel invocation under a roofline with an efficiency factor."""
    gflops = machine.peak_gflops(cores, vector_width) * efficiency
    bandwidth = machine.attainable_bandwidth(cores, locality)
    compute_time = workload.flops / (gflops * 1e9)
    memory_time = workload.bytes_moved / (bandwidth * 1e9)
    time = max(compute_time, memory_time)
    if cores > 1:
        time += machine.parallel_overhead_us * 1e-6
    return time


@dataclass(frozen=True)
class CompilerModel:
    """One toolchain's ability to exploit the machine on a given kernel."""

    name: str
    parallel: bool
    auto_vectorize: bool
    handles_hand_tiled: bool
    base_efficiency: float
    pathological_on_nonaffine: bool = False

    def runtime(
        self,
        workload: KernelWorkload,
        machine: MachineModel = XEON_NODE,
        clean_input: bool = False,
    ) -> float:
        """Estimated runtime of this compiler's build of the kernel.

        ``clean_input`` marks the regenerated (deoptimized) source: the
        hand-optimisation penalties do not apply to it.
        """
        dirty = workload.hand_tiled and not clean_input
        cores = machine.cores if self.parallel else 1
        vector = machine.vector_width if self.auto_vectorize else 1
        efficiency = self.base_efficiency
        # Hand-tiled code is tuned for serial cache behaviour, so a serial
        # compiler benefits from its locality even though it cannot vectorise
        # or parallelise it.
        locality = 0.45 if workload.hand_tiled else 0.15

        if self.parallel:
            # Auto-parallelisation is fragile: vendor compilers prove
            # independence only for a minority of real loop nests (this is why
            # the paper's median ifort speedup is 1.0x).  Success is a
            # deterministic per-kernel coin weighted by how simple the nest is.
            succeeds = self._auto_parallel_succeeds(workload, clean_input)
            if not succeeds:
                cores = 1
        if self.parallel and dirty and not self.handles_hand_tiled:
            # Hand-optimisations always defeat the dependence analysis.
            cores = 1
            vector = 1
            efficiency *= 0.95
        if self.auto_vectorize and dirty and not self.handles_hand_tiled:
            vector = 1
        if dirty and self.pathological_on_nonaffine:
            # §6.5: the vendor compiler's heuristics misfire on the deeply
            # tiled challenge kernels and the generated code is orders of
            # magnitude slower than the plain serial build.
            efficiency *= 1.0 / 8000.0
            cores = 1
            vector = 1
        if workload.transcendental:
            efficiency *= 0.8

        time = _roofline_time(workload, machine, cores, vector, locality, efficiency)
        return time * _jitter(workload.name, self.name)

    def _auto_parallel_succeeds(self, workload: KernelWorkload, clean_input: bool) -> bool:
        """Deterministic per-kernel coin for auto-parallelisation success.

        Clean regenerated loop nests are easier to analyse (higher success
        rate), and originally hand-tiled kernels always succeed once
        deoptimized — that recovery is the §6.5 result.
        """
        if clean_input and workload.hand_tiled:
            return True
        digest = hashlib.sha256(f"autopar:{workload.name}".encode()).digest()
        unit = int.from_bytes(digest[:4], "big") / 0xFFFFFFFF
        threshold = 0.35 if clean_input else 0.15
        if workload.loads_per_point <= 2 and workload.dimensionality >= 3:
            threshold += 0.2
        return unit < threshold


GFORTRAN = CompilerModel(
    name="gfortran-O3",
    parallel=False,
    auto_vectorize=True,
    handles_hand_tiled=False,
    base_efficiency=0.55,
)

IFORT_PARALLEL = CompilerModel(
    name="ifort-parallel",
    parallel=True,
    auto_vectorize=True,
    handles_hand_tiled=False,
    base_efficiency=0.60,
    pathological_on_nonaffine=True,
)

IFORT_PARALLEL_CLEAN = CompilerModel(
    name="ifort-parallel-clean",
    parallel=True,
    auto_vectorize=True,
    handles_hand_tiled=True,
    base_efficiency=0.45,
)


@dataclass(frozen=True)
class HalideCPUModel:
    """Halide + autotuned schedule on the 24-core node."""

    name: str = "halide-autotuned"

    def runtime(
        self,
        workload: KernelWorkload,
        schedule: Schedule,
        machine: MachineModel = XEON_NODE,
    ) -> float:
        cores = machine.cores if schedule.parallel_dim is not None else 1
        vector = schedule.vector_width
        tiled = bool(schedule.tile_sizes) and any(schedule.tile_sizes)
        locality = 0.65 if tiled else 0.25
        if schedule.unroll > 1:
            locality += 0.05
        # Halide's generated loop nests are clean, so efficiency is high; the
        # schedule determines how close to the roofline the kernel lands.
        efficiency = 0.80
        if schedule.dim_order is not None and schedule.dim_order[0] != 0:
            # traversing the fast dimension last wrecks spatial locality
            locality *= 0.3
            efficiency *= 0.6
        time = _roofline_time(workload, machine, cores, vector, locality, efficiency)
        return time * _jitter(workload.name, self.name)


HALIDE_CPU = HalideCPUModel()


@dataclass(frozen=True)
class HalideGPUModel:
    """Halide's naive GPU schedule on the K80 (§6.4)."""

    spec: GPUModelSpec = GPU_K80
    name: str = "halide-gpu"

    def runtime(self, workload: KernelWorkload, include_transfer: bool) -> float:
        flops = workload.flops
        bytes_on_device = workload.bytes_moved
        compute = flops / (self.spec.peak_gflops * 1e9 * self.spec.occupancy)
        memory = bytes_on_device / (self.spec.memory_bandwidth_gbs * 1e9)
        time = max(compute, memory) + self.spec.kernel_launch_us * 1e-6
        if include_transfer:
            if workload.is_reduction_like:
                # Reduction-style kernels keep their grids resident on the
                # device and only ship a tiny result back (§6.4: "many of
                # these compute reductions, so have little data to
                # communicate").
                transferred = workload.points * 8.0 * 0.002
            else:
                # One input grid in, one output grid back, overlapped with
                # compute on the copy engines.
                transferred = workload.points * 8.0 * 2.0
            time += transferred / (self.spec.pcie_bandwidth_gbs * 1e9)
        return time * _jitter(workload.name, self.name)


HALIDE_GPU = HalideGPUModel()


def estimate_runtime(
    workload: KernelWorkload,
    toolchain: str,
    schedule: Optional[Schedule] = None,
    clean_input: bool = False,
    machine: MachineModel = XEON_NODE,
) -> float:
    """Convenience dispatcher used by the benchmark harness."""
    if toolchain == "gfortran":
        return GFORTRAN.runtime(workload, machine)
    if toolchain == "ifort-parallel":
        return IFORT_PARALLEL.runtime(workload, machine, clean_input=clean_input)
    if toolchain == "ifort-parallel-clean":
        return IFORT_PARALLEL_CLEAN.runtime(workload, machine, clean_input=True)
    if toolchain == "halide":
        return HALIDE_CPU.runtime(workload, schedule or Schedule.baseline_parallel(workload.dimensionality), machine)
    if toolchain == "halide-gpu":
        return HALIDE_GPU.runtime(workload, include_transfer=True)
    if toolchain == "halide-gpu-notransfer":
        return HALIDE_GPU.runtime(workload, include_transfer=False)
    raise ValueError(f"unknown toolchain {toolchain!r}")
