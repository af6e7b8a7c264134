"""Configurations: (DVFS frequency, thread count) operating points.

A configuration is the per-task control knob of the whole paper — the LP
and the runtimes all choose one (or a convex mixture) per task.  This
module enumerates the full configuration space of a socket and evaluates a
task's (duration, power) at each point, producing the raw scatter of the
paper's Figure 1.  The whole space is evaluated as one array expression
over a grid cached per socket spec; :func:`measure_task` is the scalar
form of the same models.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .cpu import CpuSpec, XEON_E5_2670
from .performance import KernelArrays, TaskKernel, TaskTimeModel, batch_task_durations
from .power import SocketPowerModel, batch_task_powers

__all__ = [
    "Configuration",
    "ConfigPoint",
    "config_arrays",
    "enumerate_configurations",
    "measure_task",
    "measure_task_space",
]


@dataclass(frozen=True, order=True)
class Configuration:
    """One operating point: P-state frequency, OpenMP threads, duty cycle.

    ``duty`` is 1.0 except when RAPL falls back to clock modulation; the LP
    never schedules modulated configurations (they are strictly dominated),
    but the Static baseline can be forced into them.

    ``device`` qualifies the operating point with the device it belongs to
    on a heterogeneous node (see :mod:`repro.machine.device`).  The empty
    string is the legacy homogeneous socket, so every pre-existing
    ``Configuration(f, n)`` literal keeps its meaning, ordering, and
    equality.  ``device`` sorts last, which keeps ordering stable across
    device kinds: points that tie on (freq, threads, duty) break the tie
    on the device id rather than on construction order.
    """

    freq_ghz: float
    threads: int
    duty: float = 1.0
    device: str = ""

    def __post_init__(self) -> None:
        if self.freq_ghz <= 0:
            raise ValueError(f"freq_ghz must be positive, got {self.freq_ghz}")
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")
        if not (0.0 < self.duty <= 1.0):
            raise ValueError(f"duty must be in (0,1], got {self.duty}")

    @property
    def effective_freq_ghz(self) -> float:
        return self.freq_ghz * self.duty

    def describe(self) -> str:
        """Human-readable form, device-tagged when not the legacy CPU."""
        mod = "" if self.duty == 1.0 else f" @ {self.duty:.0%} duty"
        tag = f"[{self.device}] " if self.device else ""
        return f"{tag}{self.freq_ghz:.1f} GHz x {self.threads}t{mod}"


@dataclass(frozen=True)
class ConfigPoint:
    """A configuration together with its measured duration and power.

    These are what the tracing library reports per task and what the LP
    consumes as the (d_ij, p_ij) coefficients.
    """

    config: Configuration
    duration_s: float
    power_w: float

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError(f"duration must be positive, got {self.duration_s}")
        if self.power_w <= 0:
            raise ValueError(f"power must be positive, got {self.power_w}")

    def dominates(self, other: "ConfigPoint") -> bool:
        """Pareto dominance in (time, power): no worse in both, better in one."""
        return (
            self.duration_s <= other.duration_s
            and self.power_w <= other.power_w
            and (
                self.duration_s < other.duration_s or self.power_w < other.power_w
            )
        )


def config_arrays(
    configs: list[Configuration],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(freq, threads, duty) arrays for a list of configurations."""
    return (
        np.array([c.freq_ghz for c in configs]),
        np.array([c.threads for c in configs], dtype=np.int64),
        np.array([c.duty for c in configs]),
    )


class _Grid(NamedTuple):
    """A socket's configuration space with its (freq, threads, duty) arrays."""

    configs: tuple[Configuration, ...]
    freq: np.ndarray
    threads: np.ndarray
    duty: np.ndarray


@lru_cache(maxsize=64)
def _grid(spec: CpuSpec, include_modulation: bool) -> _Grid:
    configs = [
        Configuration(f, n)
        for f in spec.pstates
        for n in reversed(spec.thread_counts())
    ]
    if include_modulation:
        configs.extend(
            Configuration(spec.fmin_ghz, spec.cores, duty) for duty in spec.duty_cycles
        )
    arrays = config_arrays(configs)
    for a in arrays:
        a.setflags(write=False)
    return _Grid(tuple(configs), *arrays)


def enumerate_configurations(
    spec: CpuSpec = XEON_E5_2670, include_modulation: bool = False
) -> list[Configuration]:
    """All admissible configurations of a socket.

    Ordered by descending frequency then descending threads, mirroring the
    paper's Table 1 listing.  Clock-modulated points (below the lowest
    P-state, max threads only) are appended when requested.  Returns a
    fresh list over the cached grid's configurations.
    """
    return list(_grid(spec, include_modulation).configs)


def measure_task(
    kernel: TaskKernel,
    config: Configuration,
    power_model: SocketPowerModel,
    time_model: TaskTimeModel | None = None,
) -> ConfigPoint:
    """Evaluate one task at one configuration on one socket.

    This is the simulation stand-in for running the task under RAPL
    instrumentation; the runtime's exploration phase and the offline tracer
    both go through here.
    """
    tm = time_model if time_model is not None else TaskTimeModel(power_model.spec)
    duration = tm.duration(kernel, config.freq_ghz, config.threads, config.duty)
    power = power_model.power(
        config.freq_ghz,
        config.threads,
        activity=kernel.activity,
        mem_intensity=kernel.mem_intensity,
        duty=config.duty,
    )
    return ConfigPoint(config=config, duration_s=duration, power_w=power)


def measure_task_space(
    kernel: TaskKernel,
    power_model: SocketPowerModel,
    spec: CpuSpec | None = None,
    include_modulation: bool = False,
) -> list[ConfigPoint]:
    """Measure a task across the entire configuration space (Figure 1 data).

    One array expression over the cached grid, bit-identical to
    :func:`measure_task` at every configuration of
    :func:`enumerate_configurations`, in the same order; every point
    still passes :class:`ConfigPoint` validation.
    """
    cpu = spec if spec is not None else power_model.spec
    if cpu.cores > power_model.spec.cores:
        raise ValueError(
            f"threads must be in [1, {power_model.spec.cores}], got {cpu.cores}"
        )
    grid = _grid(cpu, include_modulation)
    ka = KernelArrays.of(kernel)
    durations = batch_task_durations(
        TaskTimeModel(cpu), ka, grid.freq, grid.threads, grid.duty
    )
    powers = batch_task_powers(power_model, ka, grid.freq, grid.threads, grid.duty)
    return list(map(ConfigPoint, grid.configs, durations.tolist(), powers.tolist()))
