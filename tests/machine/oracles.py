"""Scalar reference oracles for the machine layer's array evaluators.

:func:`repro.machine.measure_task_space` evaluates a kernel's whole
configuration grid as one array expression; the per-configuration
:func:`repro.machine.measure_task` loop below is the definition it must
reproduce bit for bit, in the same order.
"""

from __future__ import annotations

from repro.machine import (
    ConfigPoint,
    SocketPowerModel,
    TaskKernel,
    TaskTimeModel,
    enumerate_configurations,
    measure_task,
)
from repro.machine.cpu import CpuSpec


def scalar_task_space(
    kernel: TaskKernel,
    power_model: SocketPowerModel,
    spec: CpuSpec | None = None,
    include_modulation: bool = False,
) -> list[ConfigPoint]:
    """One scalar ``measure_task`` call per enumerated configuration."""
    cpu = spec if spec is not None else power_model.spec
    tm = TaskTimeModel(cpu)
    return [
        measure_task(kernel, cfg, power_model, tm)
        for cfg in enumerate_configurations(cpu, include_modulation)
    ]
