"""Campaign coordinator: leases, work-stealing, re-issue, shard journals.

The coordinator owns the full unit list and hands out *chunks* of units
to workers that ask for them (pull-based work stealing: a fast worker
simply asks more often; nothing is pre-partitioned).  Every assignment
is a *lease* — the worker must renew it with heartbeats or per-unit
results before it expires, or the unfinished units return to the front
of the queue and are re-issued to the next worker that asks.  A worker
whose connection drops loses its leases immediately (the fast path for
crashes); a worker that merely hangs is caught by the timeout.

Determinism under failure rests on two facts:

* units are seed-complete — a re-issued unit produces bit-identical
  results on any worker, so re-execution is always safe; and
* delivery is deduplicated by unit id — the first result for a unit
  wins, every later duplicate (late delivery after re-issue, a faulty
  worker sending twice) is counted and dropped, so each unit enters the
  aggregation stream exactly once.

The consumer (:meth:`CampaignCoordinator.results`) sees ``(index,
result)`` in completion order; the harness's reorder buffer restores
campaign order, which is what keeps merged statistics bit-identical to
a serial run no matter which workers died when.

With ``checkpoint_dir`` set, accepted results are journalled to
per-shard :class:`~repro.experiments.persistence.CampaignCheckpoint`
files as they arrive, and a new coordinator over the same directory
restores them without re-execution — a killed coordinator resumes
exactly (DESIGN.md §13).
"""

from __future__ import annotations

import hashlib
import json
import os
import queue
import socket
import threading
import time
from collections import deque
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .wire import (
    PROTOCOL_VERSION,
    ConnectionClosed,
    ProtocolError,
    recv_msg,
    send_msg,
)

__all__ = [
    "CampaignCoordinator",
    "CoordinatorStats",
    "CoordinatorKilled",
    "RemoteUnitError",
    "MANIFEST_NAME",
    "STATUS_NAME",
    "SHARD_BASENAME",
]

#: Files the coordinator maintains inside ``checkpoint_dir``.
MANIFEST_NAME = "MANIFEST.json"
STATUS_NAME = "status.json"
SHARD_BASENAME = "campaign.ckpt"

MANIFEST_TAG = "repro-campaign-manifest-v1"
STATUS_TAG = "repro-campaign-status-v1"


class CoordinatorKilled(RuntimeError):
    """Raised by the fault harness's ``stop_after_units`` injection."""


class RemoteUnitError(RuntimeError):
    """A unit raised on a worker; the remote traceback is in ``args[0]``."""


@dataclass
class CoordinatorStats:
    """Counters exposed after (and during) a run.

    ``units_executed`` counts results accepted from workers this run;
    ``units_restored`` counts units restored from shard journals without
    re-execution.  Their sum equals the unit total on a clean finish.
    """

    units_total: int = 0
    units_executed: int = 0
    units_restored: int = 0
    chunks_assigned: int = 0
    reissues: int = 0
    duplicates_dropped: int = 0
    lease_expiries: int = 0
    worker_disconnects: int = 0
    heartbeats: int = 0
    per_worker: Dict[str, int] = field(default_factory=dict)


@dataclass
class _Lease:
    chunk_id: int
    worker: str
    remaining: Set[int]
    deadline: float
    seconds: float


def units_fingerprint(units: Sequence[Any]) -> Optional[dict]:
    """Campaign-identity meta for shard journals, or ``None``.

    Mirrors the harness fingerprint's purpose (reject resuming a
    *different* campaign from the same journals) but is computed from
    the units alone, because the backend never sees the config.  Units
    lacking campaign attributes (generic work units) yield ``None`` —
    journalling then proceeds without identity validation.
    """
    try:
        identity = [
            [
                list(unit.instance_key),
                repr(getattr(unit.scenario_ref, "root_seed", None)),
                sorted(unit.heuristics),
                unit.max_slots,
                asdict(unit.options),
            ]
            for unit in units
        ]
    except (AttributeError, TypeError):
        return None
    digest = hashlib.sha256(
        json.dumps(identity, sort_keys=True, default=repr).encode()
    ).hexdigest()
    return {"units": len(units), "digest": digest}


class CampaignCoordinator:
    """Serve campaign units to workers over TCP; collect results.

    Args:
        units: the work units (positions are the indices yielded back).
        host, port: bind address (port 0 picks a free port).
        chunk_size: units per assignment.  Default: guided
            self-scheduling — each request takes ~1/(4·workers) of the
            queue, so chunks shrink as the tail approaches and no worker
            is left holding a large straggler.
        lease_timeout: seconds a chunk may go without a heartbeat or a
            result before its unfinished units are re-issued.  Re-issued
            units carry exponential lease backoff (×2 per prior loss,
            capped ×8) so a unit that is simply *slow* eventually gets a
            lease long enough to finish.
        heartbeat_interval: advertised to workers in ``welcome``
            (default: ``lease_timeout / 3``).
        checkpoint_dir: directory for shard journals + manifest/status;
            ``None`` disables persistence.
        shards: shard-journal count (writer parallelism of the journal,
            not of the campaign).
        meta: campaign fingerprint for the journals; default computed
            by :func:`units_fingerprint`.
        stop_after_units: fault injection — behave normally until this
            many *executed* results are accepted, then drop further
            results and raise :class:`CoordinatorKilled` from
            :meth:`results` (simulates a coordinator killed mid-run;
            journals stay on disk for the resume test).
        liveness_check: optional callable polled each tick; returning
            ``False`` aborts with ``RuntimeError`` (the local cluster
            wires it to "any worker thread still alive", so a test whose
            every worker crashed fails instead of hanging).
    """

    def __init__(
        self,
        units: Sequence[Any],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        chunk_size: Optional[int] = None,
        lease_timeout: float = 30.0,
        heartbeat_interval: Optional[float] = None,
        checkpoint_dir: Optional[os.PathLike] = None,
        shards: int = 4,
        meta: Optional[dict] = None,
        stop_after_units: Optional[int] = None,
        liveness_check: Optional[Callable[[], bool]] = None,
    ):
        if lease_timeout <= 0:
            raise ValueError(f"lease_timeout must be positive, got {lease_timeout}")
        if chunk_size is not None and chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        if shards <= 0:
            raise ValueError(f"shards must be positive, got {shards}")
        self.units = list(units)
        self.host = host
        self.port = port
        self.chunk_size = chunk_size
        self.lease_timeout = lease_timeout
        self.heartbeat_interval = heartbeat_interval or lease_timeout / 3.0
        self.checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir else None
        self.shards = shards
        self.meta = meta
        self.stop_after_units = stop_after_units
        self.liveness_check = liveness_check

        self.stats = CoordinatorStats(units_total=len(self.units))
        self._lock = threading.Lock()
        self._status_lock = threading.Lock()
        self._queue: deque = deque()
        self._leases: Dict[int, _Lease] = {}
        self._done: Set[int] = set()
        self._attempts: Dict[int, int] = {}
        self._out: "queue.Queue" = queue.Queue()
        self._restored: List[Tuple[int, Any]] = []
        self._active_workers: Set[str] = set()
        self._next_chunk_id = 0
        self._killed = False
        self._finished = False
        self._closing = False
        self._journal = None
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._handler_threads: List[threading.Thread] = []
        self._connections: Set[socket.socket] = set()

    # ------------------------------------------------------------------
    # lifecycle

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)``; valid after :meth:`start`."""
        if self._listener is None:
            raise RuntimeError("coordinator not started")
        return self._listener.getsockname()[:2]

    def start(self) -> "CampaignCoordinator":
        """Restore from journals, bind, and begin accepting workers."""
        self._open_journal()
        self._restore_from_journal()
        with self._lock:
            for index in range(len(self.units)):
                if index not in self._done:
                    self._queue.append(index)
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(64)
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="coordinator-accept", daemon=True
        )
        self._accept_thread.start()
        self._write_manifest()
        self._write_status()
        return self

    def close(self) -> None:
        """Stop accepting and drop every connection (idempotent).

        Live worker sessions see the drop as ``ConnectionClosed`` and
        exit; anything they were holding is moot (the campaign is either
        complete or this coordinator is dying and its successor will
        restore from the journals).
        """
        self._closing = True
        if self._listener is not None:
            # close() alone does not wake a thread blocked in accept();
            # shutdown() does, so the accept thread can exit and be joined.
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:  # pragma: no cover - already closed
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        with self._lock:
            connections = list(self._connections)
        for conn in connections:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
        self._write_status()

    # ------------------------------------------------------------------
    # persistence

    def _open_journal(self) -> None:
        if self.checkpoint_dir is None:
            return
        for unit in self.units:
            if not hasattr(unit, "instance_key"):
                raise ValueError(
                    "checkpoint_dir requires units with an instance_key "
                    f"(campaign units); got {type(unit).__name__}"
                )
        from ..persistence import ShardedCheckpoint

        self.checkpoint_dir.mkdir(parents=True, exist_ok=True)
        if self.meta is None:
            self.meta = units_fingerprint(self.units)
        self._journal = ShardedCheckpoint(
            self.checkpoint_dir / SHARD_BASENAME,
            shards=self.shards,
            meta=self.meta,
        )

    def _restore_from_journal(self) -> None:
        if self._journal is None:
            return
        from ..harness import CampaignUnitResult

        stored = self._journal.load()
        for index, unit in enumerate(self.units):
            entry = stored.get(unit.instance_key)
            if entry is not None and set(entry[0]) == set(unit.heuristics):
                outcome = CampaignUnitResult(
                    makespans=dict(entry[0]), truncated=tuple(entry[1])
                )
                self._done.add(index)
                self._restored.append((index, outcome))
        self.stats.units_restored = len(self._restored)

    def _journal_result(self, index: int, worker: str, outcome: Any) -> None:
        if self._journal is None:
            return
        unit = self.units[index]
        self._journal.append(
            unit.instance_key,
            outcome.makespans,
            outcome.truncated,
            extra={"worker": worker, "t": time.time()},
        )

    def _write_manifest(self) -> None:
        if self.checkpoint_dir is None:
            return
        manifest = {
            "format": MANIFEST_TAG,
            "total_units": len(self.units),
            "shards": self.shards,
            "shard_base": SHARD_BASENAME,
            "meta": self.meta,
            "started": time.time(),
        }
        self._atomic_write(self.checkpoint_dir / MANIFEST_NAME, manifest)

    def _write_status(self) -> None:
        """Atomically refresh the live-progress view (STATUS_NAME).

        The status lock spans snapshot *and* replace: without it a
        handler thread could snapshot pre-finish state, lose the CPU,
        and clobber the final ``finished: true`` write with its stale
        view.  Serialised, the last writer always carries the latest
        snapshot.
        """
        if self.checkpoint_dir is None or not self.checkpoint_dir.is_dir():
            return  # dir appears in start(); close() after a failed start
        with self._status_lock:
            self._write_status_locked()

    def _write_status_locked(self) -> None:
        with self._lock:
            in_flight = [
                {
                    "chunk": lease.chunk_id,
                    "worker": lease.worker,
                    "units": sorted(lease.remaining),
                    "keys": [
                        list(getattr(self.units[i], "instance_key", (i,)))
                        for i in sorted(lease.remaining)
                    ],
                    "deadline_in": round(lease.deadline - time.time(), 3),
                }
                for lease in self._leases.values()
            ]
            status = {
                "format": STATUS_TAG,
                "t": time.time(),
                "total": len(self.units),
                "done": len(self._done),
                "restored": self.stats.units_restored,
                "executed": self.stats.units_executed,
                "queued": len(self._queue),
                "in_flight": in_flight,
                "workers": dict(self.stats.per_worker),
                "reissues": self.stats.reissues,
                "duplicates_dropped": self.stats.duplicates_dropped,
                "lease_expiries": self.stats.lease_expiries,
                "finished": self._finished,
            }
        self._atomic_write(self.checkpoint_dir / STATUS_NAME, status)

    @staticmethod
    def _atomic_write(path: Path, document: dict) -> None:
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_text(json.dumps(document, indent=1))
        os.replace(tmp, path)

    # ------------------------------------------------------------------
    # assignment / lease machinery (all under self._lock)

    def _guided_chunk_size(self) -> int:
        if self.chunk_size is not None:
            return self.chunk_size
        active = max(1, len(self._active_workers))
        return max(1, len(self._queue) // (4 * active))

    def _assign_chunk(self, worker: str) -> Optional[dict]:
        with self._lock:
            if not self._queue:
                return None
            size = min(self._guided_chunk_size(), len(self._queue))
            indices = [self._queue.popleft() for _ in range(size)]
            worst = max(self._attempts.get(i, 0) for i in indices)
            seconds = self.lease_timeout * min(2 ** worst, 8)
            chunk_id = self._next_chunk_id
            self._next_chunk_id += 1
            self._leases[chunk_id] = _Lease(
                chunk_id=chunk_id,
                worker=worker,
                remaining=set(indices),
                deadline=time.time() + seconds,
                seconds=seconds,
            )
            self.stats.chunks_assigned += 1
            assignment = {
                "type": "assign",
                "chunk": chunk_id,
                "units": [(i, self.units[i]) for i in indices],
                "lease": seconds,
                "heartbeat": self.heartbeat_interval,
            }
        self._write_status()
        return assignment

    def _renew(self, chunk_id: int) -> bool:
        with self._lock:
            lease = self._leases.get(chunk_id)
            if lease is None:
                return False
            lease.deadline = time.time() + lease.seconds
            self.stats.heartbeats += 1
            return True

    def _requeue(self, indices: Set[int], *, expiry: bool) -> int:
        """Return not-yet-done ``indices`` to the front of the queue.

        A unit already queued, or held by another live lease (it was
        re-issued and the loser is only now being cleaned up), is left
        where it is — one live copy is enough.
        """
        requeued = 0
        for index in sorted(indices, reverse=True):
            if index in self._done:
                continue
            self._attempts[index] = self._attempts.get(index, 0) + 1
            held_elsewhere = any(
                index in lease.remaining for lease in self._leases.values()
            )
            if index not in self._queue and not held_elsewhere:
                self._queue.appendleft(index)
            self.stats.reissues += 1
            requeued += 1
        if expiry and requeued:
            self.stats.lease_expiries += 1
        return requeued

    def _reap_expired(self) -> None:
        now = time.time()
        changed = False
        with self._lock:
            for chunk_id in [
                cid
                for cid, lease in self._leases.items()
                if lease.deadline < now
            ]:
                lease = self._leases.pop(chunk_id)
                self._requeue(lease.remaining, expiry=True)
                changed = True
        if changed:
            self._write_status()

    def _release_connection(self, chunk_ids: Set[int], worker: str) -> None:
        """Connection lost: its outstanding leases are re-issued now."""
        changed = False
        with self._lock:
            self._active_workers.discard(worker)
            for chunk_id in chunk_ids:
                lease = self._leases.pop(chunk_id, None)
                if lease is not None and lease.remaining:
                    self._requeue(lease.remaining, expiry=False)
                    changed = True
            if changed:
                self.stats.worker_disconnects += 1
        if changed:
            self._write_status()

    def _accept_result(
        self, worker: str, chunk_id: int, index: int, outcome: Any
    ) -> None:
        with self._lock:
            if self._killed:
                return
            if index in self._done:
                self.stats.duplicates_dropped += 1
                return
            self._done.add(index)
            self.stats.units_executed += 1
            self.stats.per_worker[worker] = (
                self.stats.per_worker.get(worker, 0) + 1
            )
            # The unit may have been re-issued elsewhere in the meantime:
            # retire every other copy so nobody wastes a lease on it.
            lease = self._leases.get(chunk_id)
            if lease is not None:
                lease.remaining.discard(index)
                lease.deadline = time.time() + lease.seconds
                if not lease.remaining:
                    self._leases.pop(chunk_id, None)
            for other in self._leases.values():
                other.remaining.discard(index)
            if index in self._queue:
                self._queue.remove(index)
            if (
                self.stop_after_units is not None
                and self.stats.units_executed >= self.stop_after_units
            ):
                self._killed = True
        self._journal_result(index, worker, outcome)
        self._out.put(("result", index, outcome))
        self._write_status()

    # ------------------------------------------------------------------
    # connection handling

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._closing:
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return  # listener closed
            handler = threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                name="coordinator-conn",
                daemon=True,
            )
            handler.start()
            self._handler_threads.append(handler)

    def _serve_connection(self, conn: socket.socket) -> None:
        worker = "?"
        chunk_ids: Set[int] = set()
        with self._lock:
            self._connections.add(conn)
        try:
            hello = recv_msg(conn)
            if hello.get("type") != "hello":
                send_msg(conn, {"type": "reject", "reason": "expected hello"})
                return
            if hello.get("version") != PROTOCOL_VERSION:
                send_msg(
                    conn,
                    {
                        "type": "reject",
                        "reason": (
                            f"protocol version {hello.get('version')!r} != "
                            f"{PROTOCOL_VERSION}"
                        ),
                    },
                )
                return
            worker = str(hello.get("worker", "?"))
            with self._lock:
                self._active_workers.add(worker)
            send_msg(
                conn,
                {
                    "type": "welcome",
                    "version": PROTOCOL_VERSION,
                    "units_total": len(self.units),
                    "heartbeat": self.heartbeat_interval,
                },
            )
            while True:
                message = recv_msg(conn)
                kind = message["type"]
                if kind == "request":
                    if self._all_done():
                        send_msg(conn, {"type": "done"})
                    else:
                        assignment = self._assign_chunk(worker)
                        if assignment is None:
                            send_msg(
                                conn,
                                {
                                    "type": "idle",
                                    "retry_after": min(
                                        0.05, self.lease_timeout / 10
                                    ),
                                },
                            )
                        else:
                            chunk_ids.add(assignment["chunk"])
                            send_msg(conn, assignment)
                elif kind == "result":
                    self._accept_result(
                        worker,
                        message["chunk"],
                        message["unit"],
                        message["outcome"],
                    )
                    send_msg(conn, {"type": "ok"})
                elif kind == "heartbeat":
                    alive = self._renew(message["chunk"])
                    send_msg(conn, {"type": "ok", "lease_held": alive})
                elif kind == "error":
                    self._out.put(
                        (
                            "error",
                            message.get("unit"),
                            message.get("traceback", message.get("error")),
                        )
                    )
                    send_msg(conn, {"type": "ok"})
                elif kind == "bye":
                    chunk_ids.clear()  # clean exit: nothing outstanding
                    return
                else:
                    send_msg(
                        conn, {"type": "reject", "reason": f"unknown {kind!r}"}
                    )
        except (ConnectionClosed, ProtocolError, OSError):
            pass  # dropped / garbled connection: leases released below
        finally:
            with self._lock:
                self._connections.discard(conn)
            self._release_connection(chunk_ids, worker)
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass

    # ------------------------------------------------------------------
    # consumer side

    def _all_done(self) -> bool:
        with self._lock:
            return len(self._done) == len(self.units)

    def results(self) -> Iterator[Tuple[int, Any]]:
        """Yield ``(index, result)`` exactly once per unit.

        Restored units (journal resume) are yielded first, then live
        results in completion order.  Lease reaping runs on this loop's
        tick, so the generator must be consumed for the service to make
        progress — which every campaign runner does.
        """
        for index, outcome in self._restored:
            yield index, outcome
        tick = min(0.05, self.lease_timeout / 5.0)
        yielded = len(self._restored)
        while yielded < len(self.units):
            if self._killed:
                # Deliberately *not* finished: the campaign is incomplete
                # and status.json must say so for the resume/status tools.
                raise CoordinatorKilled(
                    f"coordinator stopped after "
                    f"{self.stats.units_executed} executed units "
                    "(fault injection)"
                )
            try:
                kind, index, payload = self._out.get(timeout=tick)
            except queue.Empty:
                self._reap_expired()
                if self.liveness_check is not None and not self.liveness_check():
                    raise RuntimeError(
                        "no live workers remain and "
                        f"{len(self.units) - yielded} units are unfinished"
                    )
                continue
            if kind == "error":
                raise RemoteUnitError(
                    f"unit {index} failed on a worker:\n{payload}"
                )
            yield index, payload
            yielded += 1
        self._finished = True
        self._write_status()
