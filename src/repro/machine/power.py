"""Analytic socket power model.

Socket power decomposes into an uncore component (L3, memory controller,
QPI — grows with a task's memory intensity), per-core leakage, and per-core
dynamic power that scales as ``f^gamma`` with the usual gamma between 2 and
3 (voltage tracks frequency, P = C V^2 f).  Clock modulation gates the core
clocks for a fraction of each 10 µs window, removing dynamic power but not
leakage during the gated fraction.

Calibration: with the default parameters a fully-active 8-thread task spans
roughly 19 W (1.2 GHz) to 52 W (2.6 GHz) per socket, matching the operating
range implied by the paper's 30-80 W per-socket cap sweep and Figure 1's
10-60 W axis for a CoMD task across all configurations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cpu import CpuSpec, XEON_E5_2670
from .performance import KernelArrays

__all__ = [
    "PowerModelParams",
    "SocketPowerModel",
    "DEFAULT_POWER_PARAMS",
    "batch_task_powers",
    "frequency_power_factors",
]


@dataclass(frozen=True)
class PowerModelParams:
    """Constants of the socket power model (all watts except the exponent).

    Attributes
    ----------
    p_uncore_idle:
        Uncore power with the memory system quiescent.
    p_uncore_mem:
        Additional uncore power at full memory intensity (DRAM + controller
        activity attributed to the socket by RAPL's PKG domain).
    p_core_leak:
        Static (leakage) power per active core; unaffected by frequency or
        clock modulation.
    p_core_dyn_max:
        Dynamic power per core at ``fmax`` with activity factor 1.
    freq_exponent:
        Exponent of the dynamic-power-vs-frequency law.
    p_idle_socket:
        Package power of a fully idle (all cores sleeping) socket; the floor
        seen while a rank blocks inside MPI with no threads spinning.
    """

    p_uncore_idle: float = 7.0
    p_uncore_mem: float = 6.0
    p_core_leak: float = 0.8
    p_core_dyn_max: float = 4.8
    freq_exponent: float = 2.4
    p_idle_socket: float = 5.0

    def __post_init__(self) -> None:
        for name in (
            "p_uncore_idle",
            "p_uncore_mem",
            "p_core_leak",
            "p_core_dyn_max",
            "p_idle_socket",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.freq_exponent < 1.0:
            raise ValueError("freq_exponent below 1 is unphysical")


DEFAULT_POWER_PARAMS = PowerModelParams()


class SocketPowerModel:
    """Power model for one physical socket, including its efficiency factor.

    Parameters
    ----------
    spec:
        The CPU specification (frequency range, core count).
    params:
        Power-model constants.
    efficiency:
        Per-socket manufacturing variability multiplier (see
        :mod:`repro.machine.variability`); applied to the entire active
        power, as leakier silicon draws more in every component.
    """

    def __init__(
        self,
        spec: CpuSpec = XEON_E5_2670,
        params: PowerModelParams = DEFAULT_POWER_PARAMS,
        efficiency: float = 1.0,
    ) -> None:
        if efficiency <= 0:
            raise ValueError(f"efficiency must be positive, got {efficiency}")
        self.spec = spec
        self.params = params
        self.efficiency = float(efficiency)

    # ------------------------------------------------------------------
    def core_dynamic_power(self, freq_ghz: float, activity: float = 1.0) -> float:
        """Dynamic power of one active core at the given frequency."""
        if freq_ghz <= 0:
            raise ValueError(f"freq_ghz must be positive, got {freq_ghz}")
        p = self.params
        rel = freq_ghz / self.spec.fmax_ghz
        return activity * p.p_core_dyn_max * rel**p.freq_exponent

    def power(
        self,
        freq_ghz: float,
        threads: int,
        activity: float = 1.0,
        mem_intensity: float = 0.0,
        duty: float = 1.0,
    ) -> float:
        """Average socket power for a task running in a given configuration.

        Parameters
        ----------
        freq_ghz:
            Operating frequency (a P-state, or any value for the continuous
            relaxation used by the LP).
        threads:
            Number of active OpenMP threads (inactive cores sleep).
        activity:
            Per-task dynamic activity factor kappa (instruction mix).
        mem_intensity:
            Fraction in [0, 1] of full memory-system activity; scales the
            uncore's memory component.
        duty:
            Clock-modulation duty cycle; dynamic power and memory activity
            only accrue for the running fraction of each window.
        """
        if not (1 <= threads <= self.spec.cores):
            raise ValueError(
                f"threads must be in [1, {self.spec.cores}], got {threads}"
            )
        if not (0.0 <= mem_intensity <= 1.0):
            raise ValueError(f"mem_intensity must be in [0,1], got {mem_intensity}")
        if not (0.0 < duty <= 1.0):
            raise ValueError(f"duty must be in (0,1], got {duty}")
        if activity < 0:
            raise ValueError(f"activity must be >= 0, got {activity}")
        p = self.params
        uncore = p.p_uncore_idle + p.p_uncore_mem * mem_intensity * duty
        per_core = p.p_core_leak + self.core_dynamic_power(freq_ghz, activity) * duty
        return self.efficiency * (uncore + threads * per_core)

    def idle_power(self) -> float:
        """Package power while the rank blocks in MPI with no work."""
        return self.efficiency * self.params.p_idle_socket

    # ------------------------------------------------------------------
    def min_power(self, threads: int, activity: float, mem_intensity: float) -> float:
        """Lowest achievable *running* power (lowest P-state, full duty)."""
        return self.power(self.spec.fmin_ghz, threads, activity, mem_intensity)

    def max_power(self, threads: int, activity: float, mem_intensity: float) -> float:
        """Highest achievable power (highest P-state)."""
        return self.power(self.spec.fmax_ghz, threads, activity, mem_intensity)

    def frequency_for_power(
        self,
        target_w: float,
        threads: int,
        activity: float = 1.0,
        mem_intensity: float = 0.0,
    ) -> float:
        """Invert the power model: continuous frequency drawing ``target_w``.

        Returns a frequency clamped into the DVFS range; callers that need
        sub-``fmin`` operation must use duty-cycle modulation instead (see
        :mod:`repro.machine.rapl`).
        """
        p = self.params
        uncore = p.p_uncore_idle + p.p_uncore_mem * mem_intensity
        base = self.efficiency * (uncore + threads * p.p_core_leak)
        dyn_budget = target_w - base
        denom = self.efficiency * threads * activity * p.p_core_dyn_max
        if dyn_budget <= 0 or denom <= 0:
            return self.spec.fmin_ghz
        rel = (dyn_budget / denom) ** (1.0 / p.freq_exponent)
        return self.spec.clamp_frequency(rel * self.spec.fmax_ghz)


def frequency_power_factors(
    power_model: SocketPowerModel, freq_ghz: np.ndarray
) -> np.ndarray:
    """``(f / fmax) ** freq_exponent`` per element, as the scalar model has it.

    numpy's array ``**`` may dispatch to a SIMD pow (AVX-512 hosts) that
    differs from libm ``pow`` in the last bit at some frequencies, so the
    factor is computed with Python-scalar pow once per distinct frequency
    and gathered back into the array's shape.
    """
    distinct, inverse = np.unique(freq_ghz, return_inverse=True)
    fmax = power_model.spec.fmax_ghz
    gamma = power_model.params.freq_exponent
    table = np.array([(f / fmax) ** gamma for f in distinct.tolist()])
    return table[inverse].reshape(np.shape(freq_ghz))


def batch_task_powers(
    power_model: SocketPowerModel,
    ka: KernelArrays,
    freq_ghz: np.ndarray,
    threads: np.ndarray,
    duty: np.ndarray,
) -> np.ndarray:
    """Vectorized :meth:`SocketPowerModel.power`, bit-identical to
    per-configuration calls (see
    :func:`~repro.machine.performance.batch_task_durations` and
    :func:`frequency_power_factors`)."""
    p = power_model.params
    rel_pow = frequency_power_factors(power_model, freq_ghz)
    dyn = ka.activity * p.p_core_dyn_max * rel_pow
    uncore = p.p_uncore_idle + p.p_uncore_mem * ka.mem_int * duty
    per_core = p.p_core_leak + dyn * duty
    return power_model.efficiency * (uncore + threads * per_core)
