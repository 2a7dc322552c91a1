"""Reference simulator: the model of DESIGN.md §3 as one plain slot loop.

:class:`ReferenceSimulator` executes the same experiment as
:class:`~repro.sim.master.MasterSimulator` — same inputs, same
:class:`~repro.sim.metrics.SimulationReport`, same event log — but it is
written straight from the normative slot order of DESIGN.md §3 and shares
no code with the fast path: no instance table, no incremental round state,
no quiet-span skipping, no event calendar, no worker or network objects.
Every slot reads every processor's state, rebuilds the scheduler's
:class:`~repro.core.heuristics.base.ProcessorView` snapshot anew when a
round runs, and places tasks through the scalar
:meth:`~repro.core.heuristics.base.Scheduler.place` contract.

It exists to check the fast path (``tests/test_reference_equivalence.py``
compares reports, event logs and per-slot channel usage) and to be the
benchmark's in-process yardstick (``benchmarks/bench_sim.py``).  It
favours clarity over speed.

Per-slot channel usage is kept in :attr:`ReferenceSimulator.usage` as
``(slot, nprog, ndata, requested)`` tuples, one per simulated slot.
"""

from __future__ import annotations

from typing import List, Optional

from ..core.heuristics.base import ProcessorView, Scheduler, SchedulingContext
from ..types import ProcState
from .events import EventKind, EventLog, SimEvent
from .metrics import SimulationReport
from .relevance import parse_replan_policy

__all__ = ["ReferenceSimulator"]

UP = int(ProcState.UP)
RECLAIMED = int(ProcState.RECLAIMED)
DOWN = int(ProcState.DOWN)

#: Option defaults, read by attribute from any options object (the fast
#: path's ``SimulatorOptions`` in practice); stepping and indexing options
#: of the fast path have no meaning here and are ignored.
_DEFAULTS = {
    "replication": True,
    "max_replicas": 2,
    "proactive": False,
    "audit": False,
    "max_slots": 10_000_000,
    "replan_policy": "event",
}


class _Instance:
    """One attempt at one task of the current iteration."""

    __slots__ = (
        "iteration", "task", "replica", "host", "data", "need", "done",
        "computing",
    )

    def __init__(self, iteration: int, task: int, replica: int):
        self.iteration = iteration
        self.task = task
        self.replica = replica  # 0 for the original
        self.reset()

    def reset(self) -> None:
        """Erase all progress and detach from the host."""
        self.host: Optional[int] = None
        self.data = 0  # data slots received
        self.need = 0  # compute slots needed (the host's w_q)
        self.done = 0  # compute slots accumulated
        self.computing = False

    def pinned(self) -> bool:
        """Work has begun: the instance is never re-planned."""
        return self.data > 0 or self.computing


class ReferenceSimulator:
    """One run of the paper's model, one slot at a time.

    Args:
        platform: the processors (``speed_w``, ``belief``, ``availability``
            with ``state_at``) and the channel budget ``ncom``.
        app: the iterative application.
        scheduler: the heuristic; only its scalar ``place`` is called.
        options: any object carrying the attributes of :data:`_DEFAULTS`
            (missing ones take the default).
        rng: the scheduler's random stream (passed in every context).
        log: optional event log.
    """

    def __init__(self, platform, app, scheduler: Scheduler, *, rng,
                 options=None, log: Optional[EventLog] = None):
        self.platform = platform
        self.app = app
        self.scheduler = scheduler
        self.rng = rng
        self.log = log if log is not None else EventLog(enabled=False)
        for name, default in _DEFAULTS.items():
            setattr(self, name, getattr(options, name, default))
        self.policy = parse_replan_policy(self.replan_policy)
        self.report = SimulationReport(
            target_iterations=app.iterations, heuristic_name=scheduler.name
        )
        #: ``(slot, nprog, ndata, requested)`` per simulated slot.
        self.usage: List[tuple] = []
        p = len(platform)
        self.prog = [0] * p  # program slots received per worker
        self.queues: List[List[_Instance]] = [[] for _ in range(p)]
        self.prev: Optional[list] = None
        self.need_replan = True
        self.last_round_slot = -(1 << 60)
        self.start_iteration(0)

    # ------------------------------------------------------------------ #
    # Runs.                                                                #
    # ------------------------------------------------------------------ #
    def run(self, max_slots: Optional[int] = None) -> SimulationReport:
        """Run until the target iterations complete or the budget ends."""
        return self._run(self.max_slots if max_slots is None else max_slots)

    def run_slots(self, n_slots: int) -> SimulationReport:
        """Simulate exactly ``n_slots`` slots unless the run finishes."""
        return self._run(n_slots)

    def _run(self, budget: int) -> SimulationReport:
        if isinstance(budget, bool) or not isinstance(budget, int) or budget < 1:
            raise ValueError(f"slot budget must be a positive int, got {budget!r}")
        for slot in range(budget):
            finished = self.step(slot)
            self.report.slots_simulated = slot + 1
            if finished:
                break
        for inst in self.live:  # leftovers are waste
            self.report.comm_slots_wasted += inst.data
            self.report.compute_slots_wasted += inst.done
        return self.report

    def step(self, slot: int) -> bool:
        """Simulate one slot; True when the last iteration committed."""
        states = [proc.availability.state_at(slot) for proc in self.platform]
        self.handle_states(slot, states)
        if self.need_replan or self.policy.name == "every-slot":
            self.need_replan = False
            self.scheduling_round(slot, states)
        self.compute(slot, states)
        self.transfer(slot, states)
        self.prev = states
        if len(self.committed) < self.app.tasks_per_iteration:
            return False
        report = self.report
        report.iteration_end_slots.append(slot)
        report.completed_iterations += 1
        self.emit(slot, EventKind.ITERATION_DONE, iteration=self.iteration)
        if report.completed_iterations >= self.app.iterations:
            report.makespan = slot + 1
            self.emit(slot, EventKind.RUN_DONE)
            return True
        self.start_iteration(self.iteration + 1)
        return False

    def start_iteration(self, iteration: int) -> None:
        self.iteration = iteration
        self.committed: set = set()
        #: Live instances in creation order.
        self.live = [
            _Instance(iteration, task, 0)
            for task in range(self.app.tasks_per_iteration)
        ]
        self.need_replan = True

    # ------------------------------------------------------------------ #
    # Events.                                                              #
    # ------------------------------------------------------------------ #
    def emit(self, slot, kind, inst=None, worker=None, iteration=None,
             detail="") -> None:
        if not self.log.enabled:
            return
        if inst is not None:
            self.log.emit(SimEvent(slot, kind, worker=worker,
                                   iteration=inst.iteration,
                                   task_id=inst.task,
                                   replica_id=inst.replica, detail=detail))
        else:
            self.log.emit(SimEvent(slot, kind, worker=worker,
                                   iteration=iteration, detail=detail))

    # ------------------------------------------------------------------ #
    # 1. States and crashes.                                               #
    # ------------------------------------------------------------------ #
    def handle_states(self, slot: int, states: list) -> None:
        prev = self.prev
        if prev is not None:
            changed = [q for q in range(len(states)) if states[q] != prev[q]]
            churned = [
                q for q in changed if (states[q] == UP) != (prev[q] == UP)
            ]
            if churned and self.churn_replans(slot, churned, states):
                self.need_replan = True
            for q in changed:
                detail = f"{ProcState(prev[q]).code}->{ProcState(states[q]).code}"
                self.emit(slot, EventKind.PROC_STATE_CHANGE, worker=q,
                          detail=detail)
        for q, state in enumerate(states):
            if state == DOWN and (self.prog[q] or self.queues[q]):
                self.crash(slot, q)

    def churn_replans(self, slot: int, churned: list, states: list) -> bool:
        """Whether an UP-set change triggers a round (DESIGN.md §10)."""
        policy = self.policy
        if policy.churn_always:
            return True
        if policy.ignores_churn:
            return False
        if policy.ignores_empty_exits:
            return any(
                states[q] == UP or self.queues[q] or self.prog[q] > 0
                for q in churned
            )
        return slot >= self.last_round_slot + policy.debounce

    def crash(self, slot: int, q: int) -> None:
        """DOWN wipes the program and every queued instance."""
        report = self.report
        report.comm_slots_wasted += self.prog[q]
        self.prog[q] = 0
        lost, self.queues[q] = self.queues[q], []
        for inst in lost:
            report.comm_slots_wasted += inst.data
            report.compute_slots_wasted += inst.done
            report.instances_lost_to_crash += 1
            inst.reset()
            if inst.replica:
                self.live.remove(inst)
            self.emit(slot, EventKind.INSTANCE_LOST, inst, worker=q,
                      detail="crash")
        self.need_replan = True

    # ------------------------------------------------------------------ #
    # 2. Scheduling round.                                                 #
    # ------------------------------------------------------------------ #
    def uncommitted(self) -> List[int]:
        return [
            task for task in range(self.app.tasks_per_iteration)
            if task not in self.committed
        ]

    def live_of(self, task: int) -> List[_Instance]:
        return [inst for inst in self.live if inst.task == task]

    def replicating(self) -> bool:
        return self.replication and self.max_replicas > 0

    def round_is_trivial(self, states: list) -> bool:
        """No unpinned instance, no proactive candidate, and replication
        cannot fire: the round would change nothing, so it is skipped."""
        if any(not inst.pinned() for inst in self.live):
            return False
        if self.proactive and self.proactive_candidates(states):
            return False
        if not self.replicating():
            return True
        uncommitted = self.uncommitted()
        if states.count(UP) <= len(uncommitted):
            return True
        if not any(s == UP and not self.queues[q] for q, s in enumerate(states)):
            return True
        cap = 1 + self.max_replicas
        return all(len(self.live_of(task)) >= cap for task in uncommitted)

    def proactive_candidates(self, states: list) -> List[_Instance]:
        """Pinned originals stalled on RECLAIMED hosts, in task order, once
        UP processors cover the uncommitted tasks; nearly done ones (over
        half their compute) are spared."""
        up = states.count(UP)
        if up == 0 or up < len(self.uncommitted()):
            return []
        return sorted(
            (
                inst for inst in self.live
                if not inst.replica and inst.pinned()
                and states[inst.host] == RECLAIMED
                and not (inst.need and inst.done * 2 > inst.need)
            ),
            key=lambda inst: inst.task,
        )

    def scheduling_round(self, slot: int, states: list) -> None:
        if self.round_is_trivial(states):
            return
        report = self.report
        if self.proactive:
            for inst in self.proactive_candidates(states):
                report.comm_slots_wasted += inst.data
                report.compute_slots_wasted += inst.done
                self.queues[inst.host].remove(inst)
                inst.reset()
                self.emit(slot, EventKind.INSTANCE_LOST, inst,
                          detail="proactive-termination")
        report.scheduler_rounds += 1
        self.last_round_slot = slot
        originals = sorted(
            (inst for inst in self.live if not inst.pinned() and not inst.replica),
            key=lambda inst: inst.task,
        )
        ctx = self.context(slot, states, len(originals))
        placements = self.scheduler.place(ctx, len(originals))
        # Every unpinned instance leaves its queue; unpinned replicas die
        # (replication below recreates what is still useful).
        for q, queue in enumerate(self.queues):
            self.queues[q] = [inst for inst in queue if inst.pinned()]
        for inst in [inst for inst in self.live if not inst.pinned()]:
            inst.host = None
            if inst.replica:
                self.live.remove(inst)
        for inst, choice in zip(originals, placements):
            self.place(inst, choice, states)
        if self.replicating():
            self.replicate(ctx, states)

    def context(self, slot: int, states: list, remaining: int):
        """The eager per-processor snapshot the scheduler sees."""
        t_prog, t_data = self.app.t_prog, self.app.t_data
        views = []
        for proc in self.platform:
            q = proc.index
            pinned = [inst for inst in self.queues[q] if inst.pinned()]
            prog_remaining = max(t_prog - self.prog[q], 0)
            pipeline = tuple(
                (max(t_data - inst.data, 0), max(inst.need - inst.done, 0),
                 inst.computing)
                for inst in pinned
            )
            views.append(ProcessorView(
                index=q,
                speed_w=proc.speed_w,
                state=ProcState(states[q]),
                belief=proc.belief,
                has_program=prog_remaining == 0,
                delay=self.delay(prog_remaining, pipeline),
                pinned_count=len(pinned),
                prog_remaining=prog_remaining,
                pinned_pipeline=pipeline,
            ))
        return SchedulingContext(
            slot=slot, t_prog=t_prog, t_data=t_data, ncom=self.platform.ncom,
            processors=views, remaining_tasks=remaining, rng=self.rng,
        )

    @staticmethod
    def delay(prog_remaining: int, pipeline: tuple) -> int:
        """The paper's ``Delay(q)`` (§6.3.1): the channel serves the rest of
        the program then each pinned instance's data in queue order; the
        CPU serves each instance once its data is in."""
        comm_free, cpu_free = prog_remaining, 0
        for data_remaining, compute_remaining, computing in pipeline:
            if computing:
                cpu_free += compute_remaining
                continue
            comm_free += data_remaining
            cpu_free = max(comm_free, cpu_free) + compute_remaining
        return max(comm_free, cpu_free)

    def place(self, inst: _Instance, choice: Optional[int], states: list) -> bool:
        """Queue ``inst`` on ``choice``; DOWN processors are refused."""
        if choice is None:
            return False
        if not 0 <= choice < len(states):
            raise ValueError(
                f"scheduler {self.scheduler.name!r} placed a task on unknown "
                f"processor {choice}"
            )
        if states[choice] == DOWN:
            return False
        inst.host = choice
        inst.need = self.platform[choice].speed_w
        self.queues[choice].append(inst)
        return True

    def replicate(self, ctx, states: list) -> None:
        """Section 6.1: when UP processors outnumber the uncommitted tasks,
        give idle UP processors extra copies, least-replicated task first
        (ties to the lowest task id), at most ``max_replicas`` per task."""
        uncommitted = self.uncommitted()
        if not uncommitted or states.count(UP) <= len(uncommitted):
            return
        idle = [q for q, s in enumerate(states) if s == UP and not self.queues[q]]
        cap = 1 + self.max_replicas
        live_of = {task: self.live_of(task) for task in uncommitted}
        for task in sorted(uncommitted, key=lambda t: (len(live_of[t]), t)):
            if not idle:
                break
            siblings = live_of[task]
            if len(siblings) >= cap:
                continue
            hosts = {inst.host for inst in siblings}
            allowed = [q for q in idle if q not in hosts]
            if not allowed:
                continue
            choice = self.scheduler.place(ctx, 1, allowed)[0]
            if choice is None:
                continue
            used = {inst.replica for inst in siblings}
            replica = _Instance(
                self.iteration, task,
                next(r for r in range(1, cap + 1) if r not in used),
            )
            if self.place(replica, choice, states):
                self.live.append(replica)
                self.report.replicas_launched += 1
                idle.remove(choice)

    # ------------------------------------------------------------------ #
    # 3. Compute, 4. commit.                                               #
    # ------------------------------------------------------------------ #
    def compute(self, slot: int, states: list) -> None:
        """Each UP worker with the program computes one slot of its current
        instance, or starts the first queued instance whose data is in."""
        t_data = self.app.t_data
        for q, state in enumerate(states):
            if state != UP:
                continue
            queue = self.queues[q]
            current = next((inst for inst in queue if inst.computing), None)
            if current is None:
                if self.prog[q] < self.app.t_prog:
                    continue
                current = next(
                    (inst for inst in queue if inst.data >= t_data), None
                )
                if current is None:
                    continue
                current.computing = True
                self.emit(slot, EventKind.COMPUTE_START, current, worker=q)
            current.done += 1
            self.report.compute_slots_spent += 1
            if current.done >= current.need:
                self.commit(slot, current)

    def commit(self, slot: int, inst: _Instance) -> None:
        """The task is done: cancel every sibling, in creation order."""
        report = self.report
        self.committed.add(inst.task)
        report.tasks_committed += 1
        self.need_replan = True
        self.emit(slot, EventKind.TASK_COMMIT, inst, worker=inst.host)
        for sibling in self.live_of(inst.task):
            if sibling is not inst:
                report.comm_slots_wasted += sibling.data
                report.compute_slots_wasted += sibling.done
                if sibling.replica:
                    report.replicas_cancelled += 1
                else:
                    report.originals_superseded += 1
                self.emit(slot, EventKind.REPLICA_CANCELLED, sibling,
                          worker=sibling.host)
            if sibling.host is not None:
                self.queues[sibling.host].remove(sibling)
            sibling.reset()
            self.live.remove(sibling)

    # ------------------------------------------------------------------ #
    # 5. Transfers.                                                        #
    # ------------------------------------------------------------------ #
    def data_target(self, queue: List[_Instance]) -> Optional[_Instance]:
        """Prefetch bound: the one staged (started, not computing)
        instance while its data is incomplete, else the first queued
        instance not computing; none while a staged one holds its data."""
        if self.app.t_data == 0:
            return None
        for inst in queue:
            if not inst.computing and inst.data > 0:
                return inst if inst.data < self.app.t_data else None
        return next((inst for inst in queue if not inst.computing), None)

    def transfer(self, slot: int, states: list) -> None:
        """Bounded multiport (§3.2): at most ``ncom`` transfers, one per UP
        worker, ranked started first, program before data, originals before
        replicas, then by worker index."""
        t_prog, t_data = self.app.t_prog, self.app.t_data
        requests = []  # (not started, is data, is replica, worker, target)
        for q, state in enumerate(states):
            queue = self.queues[q]
            if state != UP or not queue:
                continue
            if self.prog[q] < t_prog:
                requests.append((self.prog[q] == 0, 0, False, q, None))
                continue
            target = self.data_target(queue)
            if target is not None:
                requests.append((target.data == 0, 1, target.replica > 0, q, target))
        requests.sort(key=lambda request: request[:4])
        ncom = self.platform.ncom
        granted = requests if ncom is None else requests[:ncom]
        ndata = sum(request[1] for request in granted)
        self.usage.append((slot, len(granted) - ndata, ndata, len(requests)))
        if self.audit and ncom is not None:
            assert len(granted) <= ncom, f"slot {slot}: channel budget exceeded"
        for _fresh, is_data, _replica, q, target in granted:
            self.report.comm_slots_spent += 1
            if not is_data:
                if self.prog[q] == 0:
                    self.emit(slot, EventKind.PROGRAM_TRANSFER_START, worker=q)
                self.prog[q] += 1
                if self.prog[q] >= t_prog:
                    self.need_replan = True
                    self.emit(slot, EventKind.PROGRAM_TRANSFER_DONE, worker=q)
                continue
            if target.data == 0:
                self.emit(slot, EventKind.DATA_TRANSFER_START, target, worker=q)
            target.data += 1
            if target.data >= t_data:
                self.emit(slot, EventKind.DATA_TRANSFER_DONE, target, worker=q)
