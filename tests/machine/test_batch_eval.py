"""The machine layer's array evaluators and cached DVFS tables.

``batch_task_durations`` / ``batch_task_powers`` serve both the
simulator's plan path (one configuration per task) and the grid path of
``measure_task_space`` (one kernel over every configuration).  Both must
equal the scalar models exactly, on every P-state grid, not only the
default Xeon one: numpy's array ``**`` can disagree with libm ``pow`` in
the last bit on SIMD hosts, which the default grid happens not to expose.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.machine import (
    CpuSpec,
    GpuDevice,
    PowerModelParams,
    SocketPowerModel,
    TaskKernel,
    TaskTimeModel,
    XEON_E5_2670,
    enumerate_configurations,
    measure_task_space,
)
from repro.machine.configuration import config_arrays
from repro.machine.device import EFFICIENCY_CORE_CLUSTER
from repro.machine.performance import KernelArrays, batch_task_durations
from repro.machine.power import batch_task_powers

from .oracles import scalar_task_space

#: P-state grids on which array pow and libm pow disagree on SIMD hosts.
NON_DEFAULT_GRIDS = [
    EFFICIENCY_CORE_CLUSTER,
    CpuSpec(name="0.05 GHz steps", fstep_ghz=0.05),
    CpuSpec(name="0.02 GHz steps", fstep_ghz=0.02),
]
GRID_IDS = ["efficiency-core", "step-0.05", "step-0.02"]

KERNELS = [
    TaskKernel(cpu_seconds=1.0, mem_seconds=0.3, activity=1.3, mem_intensity=0.4),
    TaskKernel(
        cpu_seconds=0.2,
        mem_seconds=2.0,
        bw_saturation_threads=3,
        contention_threshold=2,
        contention_penalty=0.1,
        activity=0.7,
    ),
    TaskKernel(cpu_seconds=0.0, mem_seconds=1.0, activity=0.0),
]


@pytest.mark.parametrize("spec", NON_DEFAULT_GRIDS, ids=GRID_IDS)
@pytest.mark.parametrize("gamma", [2.4, 2.2, 2.7])
def test_plan_path_matches_scalar_models_on_every_grid(spec, gamma):
    """One task per configuration: the plan path's dense layout."""
    pm = SocketPowerModel(spec, PowerModelParams(freq_exponent=gamma), 1.07)
    tm = TaskTimeModel(spec)
    configs = enumerate_configurations(spec, include_modulation=True)
    f, n, d = config_arrays(configs)
    for kernel in KERNELS:
        ka = KernelArrays.from_kernels([kernel] * len(configs))
        assert batch_task_powers(pm, ka, f, n, d).tolist() == [
            pm.power(c.freq_ghz, c.threads, kernel.activity,
                     kernel.mem_intensity, c.duty)
            for c in configs
        ]
        assert batch_task_durations(tm, ka, f, n, d).tolist() == [
            tm.duration(kernel, c.freq_ghz, c.threads, c.duty) for c in configs
        ]


def test_column_layout_matches_dense_layout():
    """``[n_tasks, n_points]`` sweeps equal one dense evaluation per point."""
    spec = NON_DEFAULT_GRIDS[2]
    pm = SocketPowerModel(spec)
    configs = enumerate_configurations(spec)[: 3 * len(KERNELS)]
    ka = KernelArrays.from_kernels(KERNELS)
    f, n, d = (a.reshape(3, len(KERNELS)).T for a in config_arrays(configs))
    swept = batch_task_powers(pm, ka.as_columns(), f, n, d)
    for point in range(3):
        dense = batch_task_powers(pm, ka, f[:, point], n[:, point], d[:, point])
        assert swept[:, point].tolist() == dense.tolist()


@pytest.mark.parametrize(
    "spec", [XEON_E5_2670, *NON_DEFAULT_GRIDS], ids=["xeon", *GRID_IDS]
)
@pytest.mark.parametrize("modulation", [False, True])
def test_grid_path_equals_scalar_oracle(spec, modulation):
    pm = SocketPowerModel(spec, efficiency=0.93)
    for kernel in KERNELS:
        fast = measure_task_space(kernel, pm, include_modulation=modulation)
        assert fast == scalar_task_space(kernel, pm, include_modulation=modulation)
        assert all(type(p.duration_s) is float for p in fast)
        assert all(type(p.power_w) is float for p in fast)


def test_grid_path_keeps_point_validation():
    pm = SocketPowerModel(params=PowerModelParams(p_uncore_idle=0.0, p_core_leak=0.0))
    idle_kernel = TaskKernel(cpu_seconds=1.0, activity=0.0, mem_intensity=0.0)
    with pytest.raises(ValueError, match="power must be positive"):
        measure_task_space(idle_kernel, pm)


def test_grid_path_rejects_a_spec_wider_than_the_power_model():
    with pytest.raises(ValueError, match="threads must be in"):
        measure_task_space(
            KERNELS[0], SocketPowerModel(EFFICIENCY_CORE_CLUSTER), spec=XEON_E5_2670
        )


def test_enumeration_returns_a_fresh_list():
    first = enumerate_configurations()
    first.clear()
    assert len(enumerate_configurations()) == 120


SPEC_TABLES = ["pstates", "duty_cycles", "_pstate_array"]


class TestCachedDvfsTables:
    @pytest.mark.parametrize("table", SPEC_TABLES)
    def test_cpu_table_computed_once(self, table):
        spec = CpuSpec(name="cached", fstep_ghz=0.05)
        assert getattr(spec, table) is getattr(spec, table)

    def test_gpu_table_computed_once(self):
        gpu = GpuDevice(fstep_ghz=0.05)
        assert gpu.pstates is gpu.pstates

    @pytest.mark.parametrize("make", [
        lambda: CpuSpec(name="cached", fstep_ghz=0.05),
        lambda: GpuDevice(fstep_ghz=0.05),
    ], ids=["cpu", "gpu"])
    def test_eq_and_hash_unchanged(self, make):
        touched, fresh = make(), make()
        before = hash(touched)
        touched.pstates  # noqa: B018 - fill the cache
        assert touched == fresh
        assert hash(touched) == before == hash(fresh)
        assert len({touched, fresh}) == 1

    @pytest.mark.parametrize("make", [
        lambda: CpuSpec(name="cached", fstep_ghz=0.05),
        lambda: GpuDevice(fstep_ghz=0.05),
    ], ids=["cpu", "gpu"])
    def test_pickle_and_replace_keep_values(self, make):
        obj = make()
        tables = ["pstates"] + (
            ["duty_cycles"] if isinstance(obj, CpuSpec) else []
        )
        expected = {t: getattr(obj, t) for t in tables}
        for copy in (pickle.loads(pickle.dumps(obj)), dataclasses.replace(obj)):
            assert copy == obj
            for t in tables:
                assert getattr(copy, t) == expected[t]

    def test_replace_recomputes_for_new_fields(self):
        spec = CpuSpec(fstep_ghz=0.1)
        spec.pstates  # noqa: B018 - fill the cache
        finer = dataclasses.replace(spec, fstep_ghz=0.05)
        assert len(finer.pstates) == 29
        assert finer.nearest_pstate(1.26) == 1.25

    def test_nearest_pstate_uses_readonly_cached_array(self):
        spec = CpuSpec()
        assert spec.nearest_pstate(2.04) == 2.0
        assert not spec._pstate_array.flags.writeable
