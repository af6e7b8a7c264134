"""A worker-process fleet serving tasks over local sockets.

:class:`SocketWorkerBackend` is the transport the always-on service
(:mod:`repro.service`) runs on: a parent process listens on a local
UNIX-domain socket (or ``tcp://host:port``), worker processes connect,
handshake, and then serve one task at a time over a length-prefixed
pickle protocol.

The fleet survives its workers:

* **handshake** — a connecting worker sends ``hello`` with its pid, the
  protocol version, and the fleet's session token; anything else (a
  stray client, a version-skewed worker) is dropped before it can be
  assigned work;
* **heartbeat** — every worker beats from a daemon thread (so a worker
  busy in a long solve still beats); the parent's monitor closes
  connections whose heartbeats stop, turning a hung worker into an
  ordinary worker death;
* **death detection** — a closed/errored connection (SIGKILL, OOM,
  crash) immediately fails that worker's in-flight task with
  :class:`WorkerDiedError`, surfaced to the runner as the standard
  :class:`~repro.exec.backends.base.WorkerLostError` signal, so the
  runner's charge-one-attempt / recover / resubmit machinery applies
  unchanged;
* **reconnect / respawn** — :meth:`SocketWorkerBackend.recover`
  respawns self-spawned workers back to strength (or, for externally
  managed fleets, waits for replacements to reconnect); queued tasks
  drain onto whichever workers are alive.

Wire protocol (version 2): each frame is a 4-byte big-endian length
followed by a pickled dict.  Kinds: ``hello``/``welcome`` (handshake),
``task`` (parent→worker: a task id plus the function, item, and the
names of the parent's observer sinks), ``result``/``task_error``
(worker→parent; a result carries the ``(value, snapshot)`` payload),
``heartbeat`` (worker→parent), ``shutdown`` (parent→worker).  Tasks run
through :func:`~repro.exec.backends.base.run_task`, so results carry
the same observability payloads as every other transport and the
parent's submission-order merge keeps parallel artifacts byte-identical
to serial ones.

Workers are started with ``python -m repro.exec.backends.sockets
--connect <address> --token <token>`` — this module doubles as the
worker entry point — or via the ``repro-exp worker`` CLI verb, which
wraps the same :func:`run_worker`.

Fleet health lands in *operational* metrics only (``fleet.*`` counters
and gauges): reader and monitor threads tally internally and the
runner's thread flushes, because observer contexts do not cross
threads.  The reader thread stamps each result's receipt time, which
:meth:`SocketWorkerBackend.settled_at` reports.
"""

from __future__ import annotations

import argparse
import os
import pickle
import socket
import subprocess
import sys
import tempfile
import threading
import time
from collections import deque

from ...obs.observer import inc, set_gauge
from .base import (
    BackendTimeoutError,
    ExecBackend,
    TaskPayload,
    TaskSpec,
    WorkerLostError,
    run_task,
)

__all__ = [
    "PROTOCOL_VERSION",
    "RemoteTaskError",
    "SocketWorkerBackend",
    "WorkerDiedError",
    "run_worker",
]

#: Bumped whenever the frame layout, message kinds or payload shape
#: change; a worker whose hello carries a different version is refused
#: at handshake.  2: tasks name observer sinks, results are
#: ``(value, snapshot)``.
PROTOCOL_VERSION = 2

_HANDSHAKE_TIMEOUT_S = 10.0


class WorkerDiedError(RuntimeError):
    """A fleet worker's connection died with a task in flight."""

    def __init__(self, pid: int | None, detail: str) -> None:
        super().__init__(f"fleet worker pid={pid} died: {detail}")
        self.pid = pid


class RemoteTaskError(RuntimeError):
    """A task failed in a worker with an exception that could not travel.

    Carries the original type name and message so journals and outcome
    docs still identify the real failure even when the exception object
    itself was unpicklable.
    """

    def __init__(self, error_type: str, error_message: str) -> None:
        super().__init__(f"{error_type}: {error_message}")
        self.error_type = error_type
        self.error_message = error_message


# ----------------------------------------------------------------------
# Framing: 4-byte big-endian length + pickle.
def _send_frame(sock: socket.socket, obj: dict, lock: threading.Lock) -> None:
    data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    frame = len(data).to_bytes(4, "big") + data
    with lock:
        sock.sendall(frame)


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            return None
        buf.extend(chunk)
    return bytes(buf)


def _recv_frame(sock: socket.socket) -> dict | None:
    header = _recv_exact(sock, 4)
    if header is None:
        return None
    body = _recv_exact(sock, int.from_bytes(header, "big"))
    if body is None:
        return None
    return pickle.loads(body)


def _parse_tcp(address: str) -> tuple[str, int]:
    hostport = address[len("tcp://"):]
    host, _, port = hostport.rpartition(":")
    return host, int(port)


def _connect(address: str) -> socket.socket:
    if address.startswith("tcp://"):
        return socket.create_connection(_parse_tcp(address))
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.connect(address)
    return sock


def _portable_error(exc: BaseException) -> BaseException | dict:
    """The exception itself when it can cross the wire, else a doc.

    Round-trips through pickle *in the worker* before sending: an
    exception that fails to pickle (or to unpickle) would otherwise
    kill the connection it travels on and misreport a task failure as
    a worker death.
    """
    try:
        return pickle.loads(pickle.dumps(exc, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:
        return {"error_type": type(exc).__name__, "error_message": str(exc)}


# ----------------------------------------------------------------------
class _FleetHandle:
    """One submitted task: queued, in flight, settled, or lost."""

    __slots__ = (
        "task_id", "spec", "event", "payload", "error", "lost", "cancelled",
        "settled_at",
    )

    def __init__(self, task_id: int, spec: TaskSpec) -> None:
        self.task_id = task_id
        self.spec = spec
        self.event = threading.Event()
        self.settled_at: float | None = None
        self.payload: TaskPayload | None = None
        self.error: BaseException | None = None
        self.lost: WorkerDiedError | None = None
        self.cancelled = False


class _Worker:
    """Parent-side state of one connected fleet worker."""

    __slots__ = (
        "conn", "pid", "send_lock", "alive", "idle", "current", "last_beat",
    )

    def __init__(self, conn: socket.socket, pid: int | None) -> None:
        self.conn = conn
        self.pid = pid
        self.send_lock = threading.Lock()
        self.alive = True
        self.idle = True
        self.current: _FleetHandle | None = None
        self.last_beat = time.monotonic()


class SocketWorkerBackend(ExecBackend):
    """Task transport over a local socket worker fleet.

    Parameters
    ----------
    address:
        Where the fleet listens: a filesystem path (UNIX-domain socket)
        or ``tcp://host:port`` (``port`` 0 picks a free port).  None
        (the default) creates a UNIX socket in a private temp dir.
    spawn:
        Whether :meth:`start` launches its own worker processes (the
        default) or waits for externally started workers (``repro-exp
        worker --connect ...``) to connect.
    token:
        Session token workers must present at handshake.  Generated
        when omitted; pass one explicitly for externally managed
        fleets.
    heartbeat_s / heartbeat_timeout_s:
        Worker beat interval, and how long the parent tolerates silence
        before declaring a worker hung (default ``10 x heartbeat_s``).
    connect_timeout_s:
        How long :meth:`start` and :meth:`recover` wait for workers to
        (re)connect before raising.
    """

    def __init__(
        self,
        address: str | None = None,
        spawn: bool = True,
        token: str | None = None,
        heartbeat_s: float = 1.0,
        heartbeat_timeout_s: float | None = None,
        connect_timeout_s: float = 30.0,
    ) -> None:
        if heartbeat_s <= 0:
            raise ValueError(f"heartbeat_s must be positive, got {heartbeat_s}")
        self._address_req = address
        self.spawn = spawn
        self.token = token if token is not None else os.urandom(16).hex()
        self.heartbeat_s = heartbeat_s
        self.heartbeat_timeout_s = (
            heartbeat_timeout_s if heartbeat_timeout_s is not None
            else 10.0 * heartbeat_s
        )
        self.connect_timeout_s = connect_timeout_s
        self.address: str | None = None
        self._listener: socket.socket | None = None
        self._tmpdir: str | None = None
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._workers: list[_Worker] = []
        self._procs: list[subprocess.Popen] = []
        self._pending: deque[_FleetHandle] = deque()
        self._tally: dict[str, int] = {}
        self._threads: list[threading.Thread] = []
        self._n_workers = 0
        self._next_task_id = 0
        self._closing = False

    # -- lifecycle -----------------------------------------------------
    def start(self, n_workers: int) -> None:
        if self._listener is not None:
            return
        self._n_workers = max(1, n_workers)
        addr = self._address_req
        if addr is None:
            self._tmpdir = tempfile.mkdtemp(prefix="repro-fleet-")
            addr = os.path.join(self._tmpdir, "fleet.sock")
        if addr.startswith("tcp://"):
            host, port = _parse_tcp(addr)
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((host, port))
            self.address = f"tcp://{host}:{listener.getsockname()[1]}"
        else:
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            listener.bind(addr)
            self.address = addr
        listener.listen(self._n_workers * 2 + 2)
        self._listener = listener
        self._spawn_thread(self._accept_loop, "fleet-accept")
        self._spawn_thread(self._monitor_loop, "fleet-monitor")
        if self.spawn:
            for _ in range(self._n_workers):
                self._launch_worker()
        self._await_workers(self._n_workers)
        self._flush()

    def _spawn_thread(self, target, name: str) -> None:
        thread = threading.Thread(target=target, name=name, daemon=True)
        thread.start()
        self._threads.append(thread)

    def _launch_worker(self) -> None:
        assert self.address is not None
        # -c instead of -m: runpy would re-execute this module under
        # __main__ after the package import already loaded it, and warn.
        proc = subprocess.Popen([
            sys.executable, "-c",
            "import sys; from repro.exec.backends.sockets import main; "
            "sys.exit(main(sys.argv[1:]))",
            "--connect", self.address,
            "--token", self.token,
            "--heartbeat", str(self.heartbeat_s),
        ])
        self._procs.append(proc)

    def _await_workers(self, want: int) -> None:
        deadline = time.monotonic() + self.connect_timeout_s
        with self._cond:
            while self._live_count() < want:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise RuntimeError(
                        f"fleet: {self._live_count()}/{want} workers "
                        f"connected within {self.connect_timeout_s:g}s "
                        f"(address {self.address})"
                    )
                self._cond.wait(remaining)

    def _live_count(self) -> int:
        return sum(1 for w in self._workers if w.alive)

    def worker_pids(self) -> list[int]:
        """Pids of the currently live workers (chaos tests kill these)."""
        with self._lock:
            return [w.pid for w in self._workers if w.alive and w.pid]

    # -- accept / read / monitor threads -------------------------------
    def _accept_loop(self) -> None:
        assert self._listener is not None
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # listener closed: shutting down
            threading.Thread(
                target=self._handshake, args=(conn,),
                name="fleet-handshake", daemon=True,
            ).start()

    def _handshake(self, conn: socket.socket) -> None:
        try:
            conn.settimeout(_HANDSHAKE_TIMEOUT_S)
            hello = _recv_frame(conn)
            if (
                hello is None
                or hello.get("kind") != "hello"
                or hello.get("protocol") != PROTOCOL_VERSION
                or hello.get("token") != self.token
            ):
                conn.close()
                return
            pid = hello.get("pid")
            worker = _Worker(conn, pid)
            _send_frame(conn, {"kind": "welcome"}, worker.send_lock)
            conn.settimeout(None)
        except OSError:
            conn.close()
            return
        with self._cond:
            if self._closing:
                conn.close()
                return
            self._workers.append(worker)
            self._note("fleet.worker_connected")
            self._pump_locked()
            self._cond.notify_all()
        threading.Thread(
            target=self._read_loop, args=(worker,),
            name=f"fleet-read-{pid}", daemon=True,
        ).start()

    def _read_loop(self, worker: _Worker) -> None:
        while True:
            try:
                msg = _recv_frame(worker.conn)
            except Exception:
                # OSError, UnpicklingError, or a frame whose exception
                # class does not exist here: all read as a dead worker.
                msg = None
            if msg is None:
                self._mark_dead(worker, "connection closed")
                return
            kind = msg.get("kind")
            if kind == "heartbeat":
                worker.last_beat = time.monotonic()
                continue
            if kind not in ("result", "task_error"):
                continue
            worker.last_beat = received = time.monotonic()
            with self._lock:
                handle = worker.current
                worker.current = None
                worker.idle = True
                if handle is not None and handle.task_id == msg.get("task_id"):
                    if not handle.cancelled:
                        if kind == "result":
                            handle.payload = msg["payload"]
                        else:
                            err = msg["error"]
                            if isinstance(err, BaseException):
                                handle.error = err
                            else:
                                handle.error = RemoteTaskError(
                                    str(err.get("error_type")),
                                    str(err.get("error_message")),
                                )
                        handle.settled_at = received
                        handle.event.set()
                self._pump_locked()

    def _monitor_loop(self) -> None:
        while True:
            time.sleep(self.heartbeat_s)
            with self._lock:
                if self._closing:
                    return
                stale = [
                    w for w in self._workers
                    if w.alive
                    and time.monotonic() - w.last_beat > self.heartbeat_timeout_s
                ]
            for worker in stale:
                # Closing the socket makes the reader see EOF and run
                # the ordinary death path: a hung worker becomes a dead
                # worker.
                self._note_locked_free("fleet.worker_hung")
                try:
                    worker.conn.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                try:
                    worker.conn.close()
                except OSError:
                    pass

    def _mark_dead(self, worker: _Worker, detail: str) -> None:
        with self._cond:
            if not worker.alive:
                return
            worker.alive = False
            worker.idle = False
            try:
                worker.conn.close()
            except OSError:
                pass
            handle = worker.current
            worker.current = None
            if handle is not None and not handle.event.is_set():
                handle.lost = WorkerDiedError(worker.pid, detail)
                handle.event.set()
            if worker in self._workers:
                # Keep the roster bounded over a long service lifetime.
                self._workers.remove(worker)
            self._note("fleet.worker_lost")
            self._pump_locked()
            self._cond.notify_all()

    # -- dispatch ------------------------------------------------------
    def _pump_locked(self) -> None:
        """Assign queued handles to idle workers (caller holds the lock)."""
        while self._pending:
            worker = next(
                (w for w in self._workers if w.alive and w.idle), None
            )
            if worker is None:
                return
            handle = self._pending.popleft()
            if handle.cancelled:
                continue
            worker.idle = False
            worker.current = handle
            spec = handle.spec
            try:
                _send_frame(worker.conn, {
                    "kind": "task",
                    "task_id": handle.task_id,
                    "fn": spec.fn,
                    "item": spec.item,
                    "sinks": spec.sinks,
                }, worker.send_lock)
            except (OSError, pickle.PicklingError, TypeError,
                    AttributeError) as exc:
                if isinstance(exc, OSError):
                    # The connection is gone; fail over to another
                    # worker rather than charging the task.
                    worker.alive = False
                    worker.current = None
                    try:
                        worker.conn.close()
                    except OSError:
                        pass
                    if worker in self._workers:
                        self._workers.remove(worker)
                    self._note("fleet.worker_lost")
                    self._pending.appendleft(handle)
                    continue
                # The task itself cannot cross the wire: settle it with
                # its own error (mirrors ProcessPoolExecutor submit).
                worker.idle = True
                worker.current = None
                handle.error = exc
                handle.event.set()

    # -- ExecBackend ---------------------------------------------------
    def submit(self, spec: TaskSpec) -> _FleetHandle:
        if self._listener is None:
            raise RuntimeError("SocketWorkerBackend.submit before start()")
        with self._lock:
            self._next_task_id += 1
            handle = _FleetHandle(self._next_task_id, spec)
            self._pending.append(handle)
            self._pump_locked()
        self._flush()
        return handle

    def result(self, handle: _FleetHandle, timeout_s: float | None) -> TaskPayload:
        settled = handle.event.wait(timeout_s)
        self._flush()
        if not settled:
            raise BackendTimeoutError(
                TimeoutError(f"fleet task {handle.task_id} deadline expired")
            ) from None
        if handle.lost is not None:
            raise WorkerLostError(handle.lost) from handle.lost
        if handle.error is not None:
            raise handle.error
        assert handle.payload is not None
        return handle.payload

    def settled_at(self, handle: _FleetHandle) -> float | None:
        return handle.settled_at

    def cancel(self, handle: _FleetHandle) -> None:
        with self._lock:
            handle.cancelled = True
            try:
                self._pending.remove(handle)
            except ValueError:
                pass  # in flight (late result will be dropped) or settled

    def recover(self) -> None:
        """Bring the fleet back to strength after worker deaths.

        Self-spawned fleets respawn the shortfall; externally managed
        fleets wait up to ``connect_timeout_s`` for replacement workers
        to connect.  Either way, queued tasks drain onto whoever is
        alive once capacity returns.
        """
        with self._lock:
            deficit = self._n_workers - self._live_count()
        if deficit > 0 and self.spawn:
            for _ in range(deficit):
                self._launch_worker()
                self._note_locked_free("fleet.worker_respawned")
        if deficit > 0:
            self._await_workers(self._n_workers if self.spawn else 1)
        self._flush()

    def needs_resubmit(self, handle: _FleetHandle) -> bool:
        return handle.lost is not None

    def shutdown(self) -> None:
        with self._cond:
            self._closing = True
            workers = list(self._workers)
            self._pending.clear()
            self._cond.notify_all()
        for worker in workers:
            try:
                _send_frame(
                    worker.conn, {"kind": "shutdown"}, worker.send_lock
                )
            except OSError:
                pass
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
            self._listener = None
        for proc in self._procs:
            if proc.poll() is None:
                try:
                    proc.wait(timeout=5.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait(timeout=5.0)
        self._procs.clear()
        for worker in workers:
            try:
                worker.conn.close()
            except OSError:
                pass
            worker.alive = False
        if self._tmpdir is not None:
            sock_path = os.path.join(self._tmpdir, "fleet.sock")
            for path in (sock_path, self._tmpdir):
                try:
                    os.unlink(path) if path == sock_path else os.rmdir(path)
                except OSError:
                    pass
            self._tmpdir = None

    # -- metrics (thread-safe tally, runner-thread flush) --------------
    def _note(self, name: str) -> None:
        """Tally one fleet event (caller holds the lock)."""
        self._tally[name] = self._tally.get(name, 0) + 1

    def _note_locked_free(self, name: str) -> None:
        with self._lock:
            self._note(name)

    def _flush(self) -> None:
        """Publish tallied fleet events from the driver thread.

        Reader/monitor threads cannot record into the driver's
        contextvar-scoped observer, so they tally under
        the fleet lock and the driver flushes whenever it touches the
        backend.  Fleet health is wall-clock dependent: operational by
        contract.
        """
        with self._lock:
            pending, self._tally = self._tally, {}
            live = self._live_count()
            queued = len(self._pending)
        for name, n in pending.items():
            inc(name, n, operational=True)
        set_gauge("fleet.workers_live", live, operational=True)
        set_gauge("fleet.queue_depth", queued, operational=True)


# ----------------------------------------------------------------------
# Worker side.
def run_worker(
    address: str,
    token: str,
    heartbeat_s: float = 1.0,
) -> int:
    """Serve tasks from a fleet parent until told to shut down.

    Connects to ``address``, handshakes with ``token``, then loops:
    receive a task, run it through :func:`~repro.exec.backends.base.
    run_task`, send back its ``(value, snapshot)`` payload (or the
    task's exception).  A daemon thread heartbeats every
    ``heartbeat_s`` so long solves don't read as hangs.  Returns a
    process exit code.
    """
    try:
        sock = _connect(address)
    except OSError as exc:
        print(f"fleet worker: cannot connect to {address}: {exc}",
              file=sys.stderr)
        return 1
    send_lock = threading.Lock()
    try:
        _send_frame(sock, {
            "kind": "hello",
            "pid": os.getpid(),
            "protocol": PROTOCOL_VERSION,
            "token": token,
        }, send_lock)
        welcome = _recv_frame(sock)
    except OSError:
        welcome = None
    if welcome is None or welcome.get("kind") != "welcome":
        print("fleet worker: handshake refused", file=sys.stderr)
        return 1

    stop = threading.Event()

    def _beat() -> None:
        while not stop.wait(heartbeat_s):
            try:
                _send_frame(
                    sock, {"kind": "heartbeat", "pid": os.getpid()}, send_lock
                )
            except OSError:
                return

    threading.Thread(target=_beat, name="fleet-beat", daemon=True).start()

    try:
        while True:
            try:
                msg = _recv_frame(sock)
            except (OSError, EOFError):
                return 0
            if msg is None or msg.get("kind") == "shutdown":
                return 0
            if msg.get("kind") != "task":
                continue
            task_id = msg.get("task_id")
            try:
                payload = run_task(msg["fn"], msg["item"], msg["sinks"])
                out = {"kind": "result", "task_id": task_id,
                       "payload": payload}
            except Exception as exc:
                out = {"kind": "task_error", "task_id": task_id,
                       "error": _portable_error(exc)}
            try:
                _send_frame(sock, out, send_lock)
            except (pickle.PicklingError, TypeError, AttributeError) as exc:
                # The payload itself cannot cross the wire; report that
                # as the task's failure rather than dying silently.
                try:
                    _send_frame(sock, {
                        "kind": "task_error",
                        "task_id": task_id,
                        "error": {
                            "error_type": type(exc).__name__,
                            "error_message": str(exc),
                        },
                    }, send_lock)
                except OSError:
                    return 0
            except OSError:
                return 0
    finally:
        stop.set()
        try:
            sock.close()
        except OSError:
            pass


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.exec.backends.sockets``: the worker entry point."""
    parser = argparse.ArgumentParser(
        prog="repro-fleet-worker",
        description="Serve sweep tasks to a repro socket fleet.",
    )
    parser.add_argument("--connect", required=True,
                        help="fleet address (UNIX socket path or tcp://host:port)")
    parser.add_argument("--token", required=True, help="fleet session token")
    parser.add_argument("--heartbeat", type=float, default=1.0,
                        help="heartbeat interval in seconds")
    args = parser.parse_args(argv)
    return run_worker(args.connect, args.token, heartbeat_s=args.heartbeat)


if __name__ == "__main__":
    raise SystemExit(main())
