"""Structure-of-arrays bookkeeping for the master's live task instances.

PR 3's array-backed scheduler left the *simulator body* as the dominant
per-run cost: the master kept its live instances in a Python list and
answered every question about them by scanning it — triviality checks and
glide analysis at every span boundary, unpinned collection every round,
replication counts, sibling lookups at commit, and an O(instances) list
rebuild per destroyed instance.  :class:`InstanceTable` replaces the list
with a table of *rows* (slots reused through a free list) holding parallel
columns plus incrementally maintained aggregates, so each of those scans
becomes a column operation or an O(1) counter read (DESIGN.md §9).

**Columns** (indexed by row, plain Python lists):

===============  ==========================================
column           meaning
===============  ==========================================
``task_id``      task index within the iteration (-1 dead)
``replica_id``   0 original, 1.. replicas
``pinned``       work has begun (data started or computing)
``computing``    currently its worker's computing instance
``alive``        row is live
``seq``          creation order (the instance ``uid``)
===============  ==========================================

The master reads and writes single cells at event rate and never a
whole column on the hot path (only the audit and end-of-run waste
accounting scan ``alive``), so lists beat numpy columns: a list cell
read or write costs a fraction of a numpy scalar access at the paper's
p = 20 (DESIGN.md §9).

The columns deliberately exclude per-round-churning placement state:
every scheduling round re-plans every unpinned instance (tens of
thousands of placements per run), so a mirrored ``worker``/queue-length
column would be written far more often than it is read.  The hosting
worker stays on the instance record (``inst.worker``) and queue lengths
are ``len(worker.queue)`` — both already O(1) — while the table tracks
only what changes at *event* rate.

``objects[row]`` holds the live :class:`~repro.sim.worker.TaskInstance`
record carrying the per-slot progress counters (``data_received``,
``compute_done``, and the remaining work derived from them); those tick
every simulated slot, where Python attribute writes beat numpy scalar
writes decisively, so they stay on the record — the table's columns
change only at *events* (creation, pinning, compute start, crash,
commit), mirroring the RoundState maintenance discipline (§8).

**Aggregates**, maintained incrementally at every mutation:

* per task (lists): ``live_count``, ``replica_mask`` (bitmask of
  live replica ids), ``original_row`` (row of the live original, -1
  after commit), ``committed``; plus ``rows_of[t]`` — live rows in
  creation order (the commit path's sibling lookup);
* per worker: ``computing_row`` (row of the computing instance, -1 when
  idle) — the O(1) lookup the compute/span loops use instead of a queue
  scan;
* scalars: ``n_live``, the ``unpinned`` row set (O(1) round-triviality /
  glide checks via its size), ``n_uncommitted``, and ``repl_deficit``
  (uncommitted tasks with fewer than ``max_instances`` live instances —
  replication is saturated exactly when it is zero).

``ops`` counts structural mutations (adds, destroys, pins, compute
starts, releases) and feeds the benchmark's ``instance_ops`` column.

The master's audit mode cross-checks every column and aggregate against
a brute-force rebuild (:meth:`audit`), the same belt-and-braces pattern
the incremental RoundState uses.
"""

from __future__ import annotations

from typing import List, Optional

from .worker import TaskInstance

__all__ = ["InstanceTable"]


class InstanceTable:
    """Row store for one iteration's live instances (see module docstring).

    Args:
        n_tasks: tasks per iteration (``m``).
        n_workers: processors (``p``).
        max_instances: cap on live instances per task (1 + max replicas);
            drives the replication-saturation counter.
        capacity: initial row capacity (defaults to the live-instance
            bound ``n_tasks * max_instances``; rows double on demand, so
            a smaller value only means early growth — used by tests).
    """

    def __init__(
        self,
        n_tasks: int,
        n_workers: int,
        max_instances: int,
        *,
        capacity: Optional[int] = None,
    ):
        if n_tasks <= 0 or n_workers <= 0 or max_instances <= 0:
            raise ValueError(
                "n_tasks, n_workers and max_instances must be positive, got "
                f"({n_tasks}, {n_workers}, {max_instances})"
            )
        self.n_tasks = n_tasks
        self.n_workers = n_workers
        self.max_instances = max_instances
        if capacity is None:
            capacity = max(8, n_tasks * max_instances)
        elif capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        # Columns.
        self.task_id: List[int] = [-1] * capacity
        self.replica_id: List[int] = [0] * capacity
        self.pinned: List[bool] = [False] * capacity
        self.computing: List[bool] = [False] * capacity
        self.alive: List[bool] = [False] * capacity
        self.seq: List[int] = [0] * capacity
        self.objects: List[Optional[TaskInstance]] = [None] * capacity
        #: Structural mutation counter (benchmark diagnostic).
        self.ops = 0
        self.reset()

    @property
    def n_unpinned(self) -> int:
        """Live unpinned instances (O(1) triviality / glide check)."""
        return len(self.unpinned)

    # ------------------------------------------------------------------ #
    # Iteration lifecycle.                                                 #
    # ------------------------------------------------------------------ #
    def reset(self) -> None:
        """Clear every row and aggregate for a fresh iteration."""
        capacity = len(self.task_id)
        n_tasks = self.n_tasks
        self.task_id = [-1] * capacity
        self.pinned = [False] * capacity
        self.computing = [False] * capacity
        self.alive = [False] * capacity
        self.objects = [None] * capacity
        #: Dead rows available for reuse; popped LIFO so row churn stays
        #: compact (lowest rows are recycled first after a reset).
        self.free: List[int] = list(range(capacity - 1, -1, -1))
        # Per-task aggregates.
        self.live_count: List[int] = [0] * n_tasks
        self.replica_mask: List[int] = [0] * n_tasks
        self.original_row: List[int] = [-1] * n_tasks
        self.committed: List[bool] = [False] * n_tasks
        self.rows_of: List[List[int]] = [[] for _ in range(n_tasks)]
        # Per-worker aggregates.
        self.computing_row: List[int] = [-1] * self.n_workers
        # Scalars.
        self.unpinned: set = set()
        self.n_live = 0
        self.n_uncommitted = n_tasks
        self.repl_deficit = n_tasks

    def _grow(self) -> None:
        old = len(self.task_id)
        new = 2 * old
        self.task_id.extend([-1] * old)
        self.replica_id.extend([0] * old)
        self.pinned.extend([False] * old)
        self.computing.extend([False] * old)
        self.alive.extend([False] * old)
        self.seq.extend([0] * old)
        self.objects.extend([None] * old)
        self.free.extend(range(new - 1, old - 1, -1))

    # ------------------------------------------------------------------ #
    # Structural mutations.                                                #
    # ------------------------------------------------------------------ #
    def add(self, inst: TaskInstance) -> int:
        """Register a freshly created (unplaced, unpinned) instance."""
        if not self.free:
            self._grow()
        row = self.free.pop()
        inst.row = row
        task = inst.task_id
        self.task_id[row] = task
        self.replica_id[row] = inst.replica_id
        self.pinned[row] = False
        self.computing[row] = False
        self.alive[row] = True
        self.seq[row] = inst.uid
        self.objects[row] = inst
        if inst.replica_id == 0:
            self.original_row[task] = row
        count = self.live_count[task] + 1
        self.live_count[task] = count
        if count == self.max_instances and not self.committed[task]:
            self.repl_deficit -= 1
        self.replica_mask[task] |= 1 << inst.replica_id
        self.rows_of[task].append(row)
        self.unpinned.add(row)
        self.n_live += 1
        self.ops += 1
        return row

    def destroy(self, inst: TaskInstance) -> None:
        """Drop a live instance: free its row, roll back every aggregate.

        Reads ``inst.worker`` for the computing-row rollback, so callers
        destroy *before* detaching the instance from its worker queue (or
        after :meth:`on_crash`, which clears the per-worker state)."""
        row = inst.row
        task = self.task_id[row]
        host = inst.worker
        if host is not None and self.computing_row[host] == row:
            self.computing_row[host] = -1
        if not self.pinned[row]:
            self.unpinned.discard(row)
        count = self.live_count[task] - 1
        self.live_count[task] = count
        if count == self.max_instances - 1 and not self.committed[task]:
            self.repl_deficit += 1
        self.replica_mask[task] &= ~(1 << self.replica_id[row])
        if self.original_row[task] == row:
            self.original_row[task] = -1
        self.rows_of[task].remove(row)
        self.task_id[row] = -1
        self.pinned[row] = False
        self.computing[row] = False
        self.alive[row] = False
        self.objects[row] = None
        self.free.append(row)
        inst.row = -1
        self.n_live -= 1
        self.ops += 1

    def pin(self, inst: TaskInstance) -> None:
        """Mark work begun (first data slot or computation start)."""
        row = inst.row
        if not self.pinned[row]:
            self.pinned[row] = True
            self.unpinned.discard(row)
            self.ops += 1

    def start_computing(self, inst: TaskInstance) -> None:
        """Record the worker's computing instance (pins it if needed)."""
        row = inst.row
        self.computing[row] = True
        self.computing_row[inst.worker] = row
        self.pin(inst)

    def release(self, inst: TaskInstance) -> None:
        """Roll back progress flags for an instance being reset in place
        (a crashed or proactively terminated original returning to the
        pool).  Reads ``inst.worker`` like :meth:`destroy`, so call it
        before the instance is detached (or after :meth:`on_crash`)."""
        row = inst.row
        host = inst.worker
        if host is not None and self.computing_row[host] == row:
            self.computing_row[host] = -1
        if self.pinned[row]:
            self.pinned[row] = False
            self.unpinned.add(row)
        self.computing[row] = False
        self.ops += 1

    def on_crash(self, host: int) -> None:
        """Zero the per-worker state after ``WorkerRuntime.crash``; the
        caller then destroys/releases each lost instance."""
        self.computing_row[host] = -1
        self.ops += 1

    def commit_task(self, task: int) -> None:
        """Mark a task committed (sibling rows are destroyed separately)."""
        self.committed[task] = True
        self.n_uncommitted -= 1
        if self.live_count[task] < self.max_instances:
            self.repl_deficit -= 1
        self.ops += 1

    # ------------------------------------------------------------------ #
    # Queries.                                                             #
    # ------------------------------------------------------------------ #
    @property
    def replication_saturated(self) -> bool:
        """True when every uncommitted task carries ``max_instances``
        live instances (O(1): the incrementally maintained deficit)."""
        return self.repl_deficit == 0

    def unpinned_rows(self) -> List[int]:
        """Rows of live unpinned instances, ascending."""
        return sorted(self.unpinned)

    def live_rows(self) -> List[int]:
        """All live rows, ascending."""
        return [row for row, alive in enumerate(self.alive) if alive]

    def uncommitted_tasks(self) -> List[int]:
        """Task ids not yet committed, ascending."""
        return [task for task, done in enumerate(self.committed) if not done]

    def hosts_of_task(self, task: int) -> set:
        """Workers currently hosting a live instance of ``task``."""
        objects = self.objects
        return {
            objects[row].worker
            for row in self.rows_of[task]
            if objects[row].worker is not None
        }

    def free_replica_id(self, task: int) -> int:
        """Lowest replica id in ``1..max_instances`` not currently live."""
        mask = self.replica_mask[task]
        rid = 1
        while mask >> rid & 1:
            rid += 1
        return rid

    # ------------------------------------------------------------------ #
    # Audit.                                                               #
    # ------------------------------------------------------------------ #
    def audit(self, instances: List[TaskInstance], committed: set) -> None:
        """Assert every column and aggregate against a brute-force rebuild
        from the reference instance list (master audit mode)."""
        assert self.n_live == len(instances), (
            f"n_live {self.n_live} != {len(instances)} live instances"
        )
        by_row = {}
        for inst in instances:
            row = inst.row
            assert 0 <= row < len(self.task_id), f"bad row {row} on {inst}"
            assert row not in by_row, f"row {row} assigned twice"
            by_row[row] = inst
            assert self.alive[row]
            assert self.task_id[row] == inst.task_id
            assert self.replica_id[row] == inst.replica_id
            assert self.pinned[row] == inst.pinned
            assert (row in self.unpinned) == (not inst.pinned)
            assert self.seq[row] == inst.uid
            assert self.objects[row] is inst
        assert sum(self.alive) == len(instances)
        assert len(self.unpinned) == sum(1 for i in instances if not i.pinned)
        for task in range(self.n_tasks):
            rows = [inst.row for inst in instances if inst.task_id == task]
            assert self.live_count[task] == len(rows)
            assert sorted(self.rows_of[task]) == sorted(rows)
            # rows_of preserves creation order (the commit path relies on it).
            seqs = [self.seq[row] for row in self.rows_of[task]]
            assert seqs == sorted(seqs), f"task {task}: rows_of out of order"
            mask = 0
            original = -1
            for inst in instances:
                if inst.task_id == task:
                    mask |= 1 << inst.replica_id
                    if inst.replica_id == 0:
                        original = inst.row
            assert self.replica_mask[task] == mask
            assert self.original_row[task] == original
            assert self.committed[task] == (task in committed)
        assert self.n_uncommitted == self.n_tasks - len(committed)
        deficit = sum(
            1
            for task in range(self.n_tasks)
            if task not in committed
            and self.live_count[task] < self.max_instances
        )
        assert self.repl_deficit == deficit, (
            f"repl_deficit {self.repl_deficit} != rebuilt {deficit}"
        )
        assert sorted(self.free) == sorted(
            set(range(len(self.task_id))) - set(by_row)
        )
