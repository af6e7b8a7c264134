"""The ExecBackend seam: payload contract, transport signals, recovery.

Transport-specific behavior lives here; the backend-independent
machinery (retries, deadlines, merge order) stays covered by
``test_parallel.py``, which exercises every backend through the runner.
"""

from __future__ import annotations

import os
import signal
import socket
import threading
import time

import pytest

from repro.exec.backends import (
    BackendTimeoutError,
    InlineBackend,
    ProcessPoolBackend,
    SocketWorkerBackend,
    TaskSpec,
    WorkerLostError,
    make_backend,
    run_task,
)
from repro.exec.backends.sockets import PROTOCOL_VERSION, _recv_frame, _send_frame
from repro.exec.parallel import ParallelRunner
from repro.obs.metrics import Metrics
from repro.obs.observer import OBSERVER_SCHEMA_VERSION, Observer, inc, use_observer


def square(x):
    return x * x


def boom(x):
    raise ValueError(f"boom {x}")


def sleepy(x):
    time.sleep(x)
    return x


def count_one(x):
    inc("x")
    return x


class TestMakeBackend:
    def test_registry_names(self):
        assert isinstance(make_backend("process"), ProcessPoolBackend)
        assert isinstance(make_backend("socket"), SocketWorkerBackend)
        # The in-process transport is the runner's serial path, not a
        # selectable backend: "inline" is the same as --workers 1.
        with pytest.raises(ValueError, match="unknown exec backend"):
            make_backend("inline")

    def test_unknown_name_is_an_error(self):
        with pytest.raises(ValueError, match="unknown exec backend"):
            make_backend("carrier-pigeon")


class TestRunTask:
    def test_payload_shape_and_telemetry(self):
        # No sinks named: the worker builds and ships nothing but the
        # task's own run time.
        value, snapshot, run_s = run_task(square, 3)
        assert (value, snapshot) == (9, None)
        assert run_s >= 0.0

    def test_run_time_is_the_task_own(self):
        _, _, run_s = run_task(sleepy, 0.05)
        assert 0.05 <= run_s < 5.0

    def test_wanted_snapshots_come_back(self):
        value, snapshot, _ = run_task(square, 2, ("metrics", "profile"))
        assert value == 4
        assert snapshot["version"] == OBSERVER_SCHEMA_VERSION
        assert set(snapshot) == {"version", "metrics", "profile"}

    def test_worker_observer_is_fresh(self):
        # Whatever the calling context observes, the task records only
        # into the sinks it was asked for.
        parent = Observer(metrics=Metrics())
        with use_observer(parent):
            _, snapshot, _ = run_task(count_one, 0, ("metrics",))
            assert run_task(count_one, 0)[:2] == (0, None)
        assert parent.metrics.counters == {}
        assert snapshot["metrics"]["counters"] == {"x": 1}


class TestInlineBackend:
    def test_lazy_execution_with_null_snapshots(self):
        backend = InlineBackend()
        backend.start(4)
        handle = backend.submit(TaskSpec(index=0, fn=square, item=5))
        payload = backend.result(handle, timeout_s=None)
        assert payload[:2] == (25, None) and payload[2] >= 0.0
        assert backend.settled_at(handle) is None  # deadlines unenforced
        assert backend.result(handle, timeout_s=None) is payload  # settled

    def test_task_exceptions_propagate_raw(self):
        backend = InlineBackend()
        handle = backend.submit(TaskSpec(index=0, fn=boom, item=1))
        with pytest.raises(ValueError, match="boom 1"):
            backend.result(handle, timeout_s=None)

    def test_unpicklable_closures_work(self):
        # The whole point of the in-process transport.
        captured = []
        backend = InlineBackend()
        handle = backend.submit(
            TaskSpec(index=0, fn=lambda x: captured.append(x) or x, item=7)
        )
        assert backend.result(handle, None)[0] == 7
        assert captured == [7]

    def test_never_needs_resubmit(self):
        backend = InlineBackend()
        handle = backend.submit(TaskSpec(index=0, fn=square, item=1))
        assert not backend.needs_resubmit(handle)
        backend.recover()  # no-op
        backend.shutdown()


class TestProcessPoolBackend:
    def test_round_trip(self):
        backend = ProcessPoolBackend()
        backend.start(2)
        try:
            handles = [
                backend.submit(TaskSpec(index=i, fn=square, item=i))
                for i in range(4)
            ]
            values = [backend.result(h, timeout_s=60.0)[0] for h in handles]
            assert values == [0, 1, 4, 9]
        finally:
            backend.shutdown()

    def test_deadline_raises_backend_timeout_with_cause(self):
        backend = ProcessPoolBackend()
        backend.start(1)
        try:
            handle = backend.submit(TaskSpec(index=0, fn=sleepy, item=5.0))
            with pytest.raises(BackendTimeoutError) as err:
                backend.result(handle, timeout_s=0.05)
            # The runner records the *cause's* type in outcomes, so the
            # pre-backend "TimeoutError" label is pinned here.
            assert type(err.value.cause).__name__ == "TimeoutError"
            backend.cancel(handle)
        finally:
            backend.shutdown()

    def test_unobserved_payload_carries_no_snapshot(self):
        backend = ProcessPoolBackend()
        backend.start(1)
        try:
            handle = backend.submit(TaskSpec(index=0, fn=square, item=3))
            assert backend.result(handle, timeout_s=60.0)[:2] == (9, None)
        finally:
            backend.shutdown()

    def test_completion_is_stamped(self):
        backend = ProcessPoolBackend()
        backend.start(1)
        try:
            before = time.monotonic()
            handle = backend.submit(TaskSpec(index=0, fn=sleepy, item=0.2))
            backend.result(handle, timeout_s=60.0)
            time.sleep(0.05)  # the done-callback runs on the pool's thread
            assert before + 0.2 <= backend.settled_at(handle) <= time.monotonic()
        finally:
            backend.shutdown()

    def test_start_is_idempotent(self):
        backend = ProcessPoolBackend()
        backend.start(2)
        pool = backend._pool
        backend.start(2)
        assert backend._pool is pool
        backend.shutdown()
        assert backend._pool is None


class TestSocketWorkerBackend:
    def test_fleet_round_trip_over_unix_socket(self):
        backend = SocketWorkerBackend(heartbeat_s=0.2)
        backend.start(2)
        try:
            handles = [
                backend.submit(TaskSpec(index=i, fn=square, item=i))
                for i in range(6)
            ]
            values = [backend.result(h, timeout_s=60.0)[0] for h in handles]
            assert values == [0, 1, 4, 9, 16, 25]
            assert len(backend.worker_pids()) == 2
        finally:
            backend.shutdown()

    def test_payloads_follow_the_named_sinks(self):
        backend = SocketWorkerBackend(heartbeat_s=0.2)
        backend.start(1)
        try:
            before = time.monotonic()
            plain = backend.submit(TaskSpec(index=0, fn=square, item=3))
            observed = backend.submit(
                TaskSpec(index=1, fn=count_one, item=5, sinks=("metrics",))
            )
            assert backend.result(plain, timeout_s=60.0)[:2] == (9, None)
            value, snapshot, _ = backend.result(observed, timeout_s=60.0)
            assert value == 5
            assert snapshot["metrics"]["counters"] == {"x": 1}
            assert before <= backend.settled_at(plain) <= time.monotonic()
        finally:
            backend.shutdown()

    def test_mismatched_protocol_is_refused_at_handshake(self):
        backend = SocketWorkerBackend(spawn=False, heartbeat_s=0.2)
        backend.connect_timeout_s = 0.1
        with pytest.raises(RuntimeError, match="0/1 workers"):
            backend.start(1)  # nobody connects; the listener stays up
        try:
            for protocol, refused in ((PROTOCOL_VERSION - 1, True),
                                      (PROTOCOL_VERSION, False)):
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                sock.connect(backend.address)
                sock.settimeout(10.0)
                _send_frame(sock, {
                    "kind": "hello", "pid": 0, "protocol": protocol,
                    "token": backend.token,
                }, threading.Lock())
                reply = _recv_frame(sock)
                sock.close()
                assert (reply is None) is refused
        finally:
            backend.shutdown()

    def test_task_exception_round_trips_through_pickle(self):
        backend = SocketWorkerBackend(heartbeat_s=0.2)
        backend.start(1)
        try:
            handle = backend.submit(TaskSpec(index=0, fn=boom, item=9))
            with pytest.raises(ValueError, match="boom 9"):
                backend.result(handle, timeout_s=60.0)
            assert not backend.needs_resubmit(handle)  # settled for real
        finally:
            backend.shutdown()

    def test_sigkilled_worker_raises_worker_lost_and_recovers(self):
        backend = SocketWorkerBackend(heartbeat_s=0.2)
        backend.start(1)
        try:
            handle = backend.submit(TaskSpec(index=0, fn=sleepy, item=30.0))
            time.sleep(0.5)  # let the task land on the worker
            os.kill(backend.worker_pids()[0], signal.SIGKILL)
            with pytest.raises(WorkerLostError):
                backend.result(handle, timeout_s=60.0)
            assert backend.needs_resubmit(handle)
            backend.recover()  # respawns the fleet deficit
            fresh = backend.submit(TaskSpec(index=1, fn=square, item=8))
            assert backend.result(fresh, timeout_s=60.0)[0] == 64
        finally:
            backend.shutdown()

    def test_runner_retries_through_a_worker_death(self):
        backend = SocketWorkerBackend(heartbeat_s=0.2)
        backend.start(2)
        try:
            runner = ParallelRunner(
                max_workers=2, retries=1, backoff_s=0.0, backend=backend
            )
            killer = _KillOnce(backend)
            outcomes = runner.map_outcomes(square, [2, 3, 4], on_outcome=killer)
            assert [o.value for o in outcomes] == [4, 9, 16]
        finally:
            backend.shutdown()


class _KillOnce:
    """SIGKILL one fleet worker after the first outcome settles."""

    def __init__(self, backend):
        self.backend = backend
        self.fired = False

    def __call__(self, outcome):
        if not self.fired and self.backend.worker_pids():
            self.fired = True
            os.kill(self.backend.worker_pids()[0], signal.SIGKILL)
