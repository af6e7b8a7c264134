"""RAPL (Running Average Power Limit) firmware simulator.

RAPL is the socket-level power-capping mechanism used throughout the paper:
writing a watt limit to a hardware MSR causes firmware to pick DVFS states
(and, when even the lowest P-state exceeds the cap, duty-cycle clock
modulation) such that the running average package power stays under the
limit.  Crucially for the paper's evaluation, RAPL is *blind* to
application structure: it cannot change thread counts, and under a uniform
Static cap it throttles leaky sockets much harder than efficient ones —
the mechanism behind BT's "22% of max clock" pathology at 30 W.

The simulator resolves, per task, the operating point firmware converges
to: the highest P-state whose model power fits under the cap, else the
highest duty cycle at the lowest P-state, else the lowest expressible duty
cycle (real RAPL similarly bottoms out and reports a cap overshoot).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..obs.events import CapExceededEvent
from ..obs.observer import emit
from .configuration import Configuration, ConfigPoint, measure_task
from .performance import TaskKernel, TaskTimeModel
from .power import SocketPowerModel

__all__ = ["RaplController", "RaplDecision"]


@dataclass(frozen=True)
class RaplDecision:
    """Outcome of the firmware control loop for one task under one cap."""

    config: Configuration
    power_w: float
    cap_w: float
    cap_met: bool

    @property
    def headroom_w(self) -> float:
        """Unused power under the cap (negative when the cap is violated)."""
        return self.cap_w - self.power_w


class RaplController:
    """Per-socket RAPL model.

    Parameters
    ----------
    power_model:
        The socket the controller is capping (its efficiency factor is what
        makes identical caps behave differently across sockets).
    control_noise:
        Fractional conservatism jitter of the firmware's internal power
        estimate; real RAPL leaves a little guard band.  Deterministic
        (applied as a fixed margin) so simulations are reproducible.
    """

    def __init__(self, power_model: SocketPowerModel, control_noise: float = 0.0) -> None:
        if control_noise < 0 or control_noise >= 0.5:
            raise ValueError(f"control_noise must be in [0, 0.5), got {control_noise}")
        self.power_model = power_model
        self.control_noise = control_noise
        self.spec = power_model.spec

    def _fits(self, kernel: TaskKernel, config: Configuration, cap_w: float) -> bool:
        power = self.power_model.power(
            config.freq_ghz,
            config.threads,
            activity=kernel.activity,
            mem_intensity=kernel.mem_intensity,
            duty=config.duty,
        )
        return power * (1.0 + self.control_noise) <= cap_w

    def decide(self, kernel: TaskKernel, threads: int, cap_w: float) -> RaplDecision:
        """Operating point the firmware settles on for a task under a cap.

        The thread count is an input — firmware cannot change it; the
        Static baseline always passes the full core count.
        """
        if cap_w <= 0:
            raise ValueError(f"cap must be positive, got {cap_w}")
        chosen: Configuration | None = None
        for freq in self.spec.pstates:  # descending: pick the fastest that fits
            cfg = Configuration(freq, threads)
            if self._fits(kernel, cfg, cap_w):
                chosen = cfg
                break
        if chosen is None:
            for duty in self.spec.duty_cycles:  # descending duty
                cfg = Configuration(self.spec.fmin_ghz, threads, duty)
                if self._fits(kernel, cfg, cap_w):
                    chosen = cfg
                    break
        cap_met = chosen is not None
        if chosen is None:
            # Even the deepest modulation exceeds the cap: firmware bottoms
            # out at the lowest expressible duty cycle.
            duties = self.spec.duty_cycles
            floor = duties[-1] if duties else 1.0
            chosen = Configuration(self.spec.fmin_ghz, threads, floor)
        power = self.power_model.power(
            chosen.freq_ghz,
            chosen.threads,
            activity=kernel.activity,
            mem_intensity=kernel.mem_intensity,
            duty=chosen.duty,
        )
        if not cap_met:
            # The trace records every overshoot: this is the mechanism
            # behind the paper's "22% of max clock" pathology, and a
            # throttled-to-the-floor socket is the first thing to look
            # for when a run underperforms its bound.
            emit(CapExceededEvent(cap_w=cap_w, power_w=power))
        return RaplDecision(config=chosen, power_w=power, cap_w=cap_w, cap_met=cap_met)

    def measure(
        self,
        kernel: TaskKernel,
        threads: int,
        cap_w: float,
        time_model: TaskTimeModel | None = None,
    ) -> ConfigPoint:
        """Duration/power of a task run under this controller at a cap."""
        decision = self.decide(kernel, threads, cap_w)
        return measure_task(kernel, decision.config, self.power_model, time_model)
