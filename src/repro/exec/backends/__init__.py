"""Transport backends for the ordered fan-out driver.

:class:`~repro.exec.parallel.ParallelRunner` owns everything that makes
a sweep *correct* — submission-order results, seeded retries, submit-time
deadlines, batching, observability merging.  What it delegates is the
*transport*: how one task payload reaches a worker and how its result
(or its worker's death) comes back.  That contract is
:class:`~repro.exec.backends.base.ExecBackend`, and three transports
implement it:

``repro.exec.backends.inline``
    :class:`InlineBackend` — runs every task in the calling process.
    No pickling, no subprocesses; deadlines cannot be enforced.  The
    test and debugging transport.
``repro.exec.backends.pool``
    :class:`ProcessPoolBackend` — a ``ProcessPoolExecutor``, with the
    exact semantics the pre-backend ``ParallelRunner`` had: broken-pool
    detection, rebuild-and-resubmit, per-wait timeouts.  The default.
``repro.exec.backends.sockets``
    :class:`SocketWorkerBackend` — a fleet of worker processes serving
    over local TCP or UNIX-domain sockets with a versioned handshake,
    idle heartbeats, death detection, and respawn-and-reconnect.  The
    transport the always-on service (:mod:`repro.service`) runs on.

Every backend ships results as the same ``(value, snapshot)`` payload
(:func:`~repro.exec.backends.base.run_task`), so worker observations
merge identically whatever the transport — a parallel run's
deterministic artifacts stay byte-identical to a serial run's.
"""

from __future__ import annotations

from .base import (
    BackendTimeoutError,
    ExecBackend,
    TaskSpec,
    WorkerLostError,
    make_backend,
    run_task,
)
from .inline import InlineBackend
from .pool import ProcessPoolBackend
from .sockets import SocketWorkerBackend, WorkerDiedError

__all__ = [
    "BackendTimeoutError",
    "ExecBackend",
    "InlineBackend",
    "ProcessPoolBackend",
    "SocketWorkerBackend",
    "TaskSpec",
    "WorkerDiedError",
    "WorkerLostError",
    "make_backend",
    "run_task",
]
