"""Analytic task performance model.

A *task* is the computation between two consecutive MPI calls on one rank
(a DAG edge in the paper's terminology).  Its execution time in a
configuration (frequency f, threads n, duty d) follows a two-component
model:

``t(f, n, d) = [ T_cpu * g(n) * (fmax / f)  +  T_mem * h(n) ] / d``

* The **compute** component scales inversely with clock frequency and with
  thread count through an Amdahl term ``g(n) = (1 - pf) + pf / n``.
* The **memory** component is frequency-insensitive (DRAM latency and
  bandwidth do not track core clocks) and scales with threads only up to a
  bandwidth-saturation point, beyond which extra threads add *cache
  contention*: ``h(n) = ((1 - pm) + pm / min(n, sat)) * (1 + cp * max(0, n - ct))``.

The contention term is what makes fewer-than-max threads Pareto-optimal at
moderate power for LULESH (Table 3 of the paper: 5 threads beat 8 at a
50 W cap) while CoMD-like kernels keep 8 threads on the frontier except at
the lowest frequency (Table 1).

Clock modulation (duty < 1) stalls the entire core for (1-d) of each
window, so both components stretch by 1/d.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .cpu import CpuSpec, XEON_E5_2670

__all__ = ["KernelArrays", "TaskKernel", "TaskTimeModel", "batch_task_durations"]


@dataclass(frozen=True)
class TaskKernel:
    """Computational character of one task (DAG edge).

    Attributes
    ----------
    cpu_seconds:
        Single-thread execution time of the frequency-scalable portion at
        ``fmax``.
    mem_seconds:
        Single-thread execution time of the memory-bound portion.
    parallel_fraction:
        Amdahl parallel fraction of the compute portion.
    mem_parallel_fraction:
        Parallelizable fraction of the memory portion.
    bw_saturation_threads:
        Thread count at which memory bandwidth saturates; additional threads
        do not speed up the memory portion.
    contention_threshold:
        Thread count beyond which shared-cache contention sets in.
    contention_penalty:
        Fractional slowdown of the memory portion per thread beyond the
        threshold.
    activity:
        Dynamic-power activity factor kappa for the power model.
    mem_intensity:
        Memory-system activity in [0, 1] for the uncore power term.
    name:
        Optional label for tracing / reporting.
    """

    cpu_seconds: float
    mem_seconds: float = 0.0
    parallel_fraction: float = 0.99
    mem_parallel_fraction: float = 0.95
    bw_saturation_threads: int = 8
    contention_threshold: int = 8
    contention_penalty: float = 0.0
    activity: float = 1.0
    mem_intensity: float = 0.2
    name: str = ""

    def __post_init__(self) -> None:
        if self.cpu_seconds < 0 or self.mem_seconds < 0:
            raise ValueError("work components must be >= 0")
        if self.cpu_seconds == 0 and self.mem_seconds == 0:
            raise ValueError("task must have some work")
        for frac_name in ("parallel_fraction", "mem_parallel_fraction", "mem_intensity"):
            v = getattr(self, frac_name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{frac_name} must be in [0,1], got {v}")
        if self.bw_saturation_threads < 1 or self.contention_threshold < 1:
            raise ValueError("thread thresholds must be >= 1")
        if self.contention_penalty < 0:
            raise ValueError("contention_penalty must be >= 0")
        if self.activity < 0:
            raise ValueError("activity must be >= 0")

    def scaled(self, factor: float) -> "TaskKernel":
        """A kernel with all work multiplied by ``factor`` (load imbalance)."""
        if factor <= 0:
            raise ValueError(f"scale factor must be positive, got {factor}")
        return replace(
            self,
            cpu_seconds=self.cpu_seconds * factor,
            mem_seconds=self.mem_seconds * factor,
        )

    @property
    def total_reference_seconds(self) -> float:
        """Single-thread time at fmax — a convenient magnitude handle."""
        return self.cpu_seconds + self.mem_seconds


class TaskTimeModel:
    """Evaluate task duration for arbitrary configurations.

    Stateless aside from the CPU spec; shared by the simulator, the tracer,
    and configuration-space enumeration.
    """

    def __init__(self, spec: CpuSpec = XEON_E5_2670) -> None:
        self.spec = spec

    def compute_speedup_denominator(self, kernel: TaskKernel, threads: int) -> float:
        """g(n): the Amdahl term of the compute component."""
        pf = kernel.parallel_fraction
        return (1.0 - pf) + pf / threads

    def memory_time_factor(self, kernel: TaskKernel, threads: int) -> float:
        """h(n): bandwidth-saturating scaling with the contention penalty."""
        pm = kernel.mem_parallel_fraction
        effective = min(threads, kernel.bw_saturation_threads)
        base = (1.0 - pm) + pm / effective
        over = max(0, threads - kernel.contention_threshold)
        return base * (1.0 + kernel.contention_penalty * over)

    def duration(
        self,
        kernel: TaskKernel,
        freq_ghz: float,
        threads: int,
        duty: float = 1.0,
    ) -> float:
        """Task execution time in seconds for the given configuration."""
        if not (1 <= threads <= self.spec.cores):
            raise ValueError(
                f"threads must be in [1, {self.spec.cores}], got {threads}"
            )
        if freq_ghz <= 0:
            raise ValueError(f"freq_ghz must be positive, got {freq_ghz}")
        if not (0.0 < duty <= 1.0):
            raise ValueError(f"duty must be in (0,1], got {duty}")
        cpu = (
            kernel.cpu_seconds
            * self.compute_speedup_denominator(kernel, threads)
            * (self.spec.fmax_ghz / freq_ghz)
        )
        mem = kernel.mem_seconds * self.memory_time_factor(kernel, threads)
        return (cpu + mem) / duty

    def best_duration(self, kernel: TaskKernel) -> float:
        """Fastest achievable duration over all admissible configurations."""
        return min(
            self.duration(kernel, self.spec.fmax_ghz, n)
            for n in self.spec.thread_counts()
        )

    def best_threads(self, kernel: TaskKernel) -> int:
        """Thread count minimizing duration at fmax (ties -> fewer threads)."""
        counts = self.spec.thread_counts()
        durations = [self.duration(kernel, self.spec.fmax_ghz, n) for n in counts]
        best = min(range(len(counts)), key=lambda i: (durations[i], counts[i]))
        return counts[best]


#: TaskKernel attributes behind the KernelArrays parameter fields, in order.
_KERNEL_PARAMS = (
    ("cpu_seconds", np.float64),
    ("mem_seconds", np.float64),
    ("parallel_fraction", np.float64),
    ("mem_parallel_fraction", np.float64),
    ("bw_saturation_threads", np.int64),
    ("contention_threshold", np.int64),
    ("contention_penalty", np.float64),
    ("activity", np.float64),
    ("mem_intensity", np.float64),
)


class KernelArrays(NamedTuple):
    """Task-kernel parameters as arrays for the batch evaluators.

    The fields broadcast against the configuration arrays handed to
    :func:`batch_task_durations` and
    :func:`~repro.machine.power.batch_task_powers`: dense ``[n_tasks]``
    arrays evaluate one configuration per task (the plan path),
    ``[n_tasks, 1]`` columns evaluate a ``[n_tasks, n_points]`` sweep, and
    plain scalars evaluate one kernel over a whole configuration grid.
    """

    kernels: list
    cpu: np.ndarray
    mem: np.ndarray
    pf: np.ndarray
    pm: np.ndarray
    sat: np.ndarray
    ct: np.ndarray
    cp: np.ndarray
    activity: np.ndarray
    mem_int: np.ndarray

    @classmethod
    def from_kernels(cls, kernels: list[TaskKernel]) -> "KernelArrays":
        """One ``[n_tasks]`` array per parameter, in task order."""
        return cls(kernels, *(
            np.array([getattr(k, attr) for k in kernels], dtype=dtype)
            for attr, dtype in _KERNEL_PARAMS
        ))

    @classmethod
    def of(cls, kernel: TaskKernel) -> "KernelArrays":
        """One kernel's parameters as Python scalars (broadcast to any grid)."""
        return cls([kernel], *(getattr(kernel, attr) for attr, _ in _KERNEL_PARAMS))

    def as_columns(self) -> "KernelArrays":
        """The same parameters shaped ``[n_tasks, 1]`` so they broadcast
        against ``[n_tasks, n_points]`` configuration arrays (cheap views;
        the elementwise expressions, and so the result bits, are unchanged)."""
        return KernelArrays(self.kernels, *(a[:, None] for a in self[1:]))


def batch_task_durations(
    time_model: TaskTimeModel,
    ka: KernelArrays,
    freq_ghz: np.ndarray,
    threads: np.ndarray,
    duty: np.ndarray,
) -> np.ndarray:
    """Vectorized :meth:`TaskTimeModel.duration`.

    Replicates the scalar model's expression order term for term, and
    numpy's ``+ - * /`` round exactly like Python's, so the results are
    bit-identical to per-configuration calls (asserted by tests).  Skips
    the scalar path's argument validation: callers pass configurations
    that are valid by construction.
    """
    g = (1.0 - ka.pf) + ka.pf / threads
    cpu = ka.cpu * g * (time_model.spec.fmax_ghz / freq_ghz)
    base = (1.0 - ka.pm) + ka.pm / np.minimum(threads, ka.sat)
    over = np.maximum(0, threads - ka.ct)
    mem = ka.mem * (base * (1.0 + ka.cp * over))
    return (cpu + mem) / duty
