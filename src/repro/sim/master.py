"""The volatile master–worker simulator (paper Sections 3 and 6).

:class:`MasterSimulator` executes an :class:`~repro.workload.application.
IterativeApplication` on a :class:`~repro.sim.platform.Platform` under a
chosen scheduling heuristic, realising the model of Section 3:

* time advances in slots; processor states are read from each processor's
  ground-truth availability source;
* the master's outgoing bandwidth is a hard per-slot budget of ``ncom``
  channels (:class:`~repro.sim.network.BoundedMultiportNetwork`);
* workers run the program/data/compute pipeline of
  :class:`~repro.sim.worker.WorkerRuntime`, suspending while RECLAIMED and
  losing everything on DOWN;
* the scheduler re-plans the unpinned remainder of the current iteration at
  every *event* (state change, transfer completion, commit, crash,
  iteration boundary) — between events a re-plan would see the same inputs
  shifted by idle slots, so skipping it changes nothing for the paper's
  heuristics while keeping runs fast;
* tasks are replicated (up to :attr:`SimulatorOptions.max_replicas` extra
  copies) whenever UP processors outnumber uncommitted tasks, originals
  taking priority (Section 6.1).

**Normative slot order** (also documented in DESIGN.md §3): states & crash
handling → scheduling round → compute step → transfer step → commit and
iteration bookkeeping.  Compute precedes transfers so that a task whose
data finished in slot *t* starts computing in slot *t+1*, matching the
paper's sequential ``T_prog → T_data → w`` timing (verified against the
Section 4 worked example, whose optimal makespan of 9 slots this simulator
reproduces).

Two run modes mirror the paper's two objective formulations:

* :meth:`MasterSimulator.run` — complete a target number of iterations,
  report the makespan (the evaluation protocol of Section 7);
* :meth:`MasterSimulator.run_slots` — simulate exactly ``N`` slots, report
  completed iterations (the Section 3.4 objective).

**Stepping modes** (DESIGN.md §6).  The paper's chains have self-loop
probabilities in ``[0.90, 0.99]`` (Section 7), so for tens of slots at a
stretch nothing observable changes: states hold, transfers and
computations tick linearly, and no scheduling decision can differ.  The
default ``step_mode="span"`` exploits this by computing, after each fully
simulated slot, the next slot at which *anything* can change — the
earliest relevant availability transition, granted-transfer completion,
compute completion, or pending re-plan — and advancing all counters
arithmetically across the quiet gap in O(p) instead of O(p·span).
``step_mode="slot"`` takes a quiet span of zero after every slot; both
modes run the same loop (:meth:`MasterSimulator.advance_until`).

**Data layout** (DESIGN.md §8–§9).  Live instances sit in the
structure-of-arrays :class:`~repro.sim.instance_table.InstanceTable`,
whose incrementally maintained aggregates turn the body's per-boundary
and per-round scans (crash sweep, round triviality, glide analysis,
replication bookkeeping, sibling lookups) into O(1) reads or short
candidate loops over the busy-worker roster (the workers with a
non-empty queue); schedulers score an incrementally maintained
:class:`~repro.core.heuristics.base.RoundState` through
:meth:`~repro.core.heuristics.base.Scheduler.place_array`.

**Oracle.**  :class:`~repro.sim.reference.ReferenceSimulator` implements
the same model as a plain slot loop that shares no code with this class;
``tests/test_reference_equivalence.py`` holds the two bit-identical on
reports, event logs and per-slot channel usage.

**Replan policies** (DESIGN.md §10).  Which events trigger those
re-plans is the ``replan_policy`` option: ``event`` (default) is the
paper's semantics, and the *relaxed* policies (``sticky``,
``debounce:k``, ``relevant-up``) change the trigger semantics
themselves, so they are validated against the paper's shape targets by
``experiments/replan_study.py`` instead of by bit-identity.  Every
triggered, non-trivial round executes in full.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from .._validation import require_nonnegative_int, require_positive_int
from ..core.heuristics.base import VECTOR_MIN_P, RoundState, Scheduler
from ..rng import DEFAULT_SCHEDULER_SEED, default_scheduler_rng
from ..types import ProcState
from ..workload.application import IterativeApplication
from .events import EventKind, EventLog, SimEvent
from .instance_table import InstanceTable
from .metrics import SimulationReport
from .network import BoundedMultiportNetwork, TransferRequest
from .platform import Platform, PlatformCalendar
from .relevance import ReplanPolicy, parse_replan_policy
from .worker import TaskInstance, WorkerRuntime, reset_instance

__all__ = [
    "DEFAULT_SCHEDULER_SEED",
    "ReplanPolicy",
    "SimulatorOptions",
    "MasterSimulator",
    "simulate",
]


@dataclass(frozen=True)
class SimulatorOptions:
    """Tunables for the simulator.

    Attributes:
        replication: enable task replication (Section 6.1; the paper's
            experiments always replicate — disable only for ablations).
        max_replicas: extra copies per task beyond the original.  The paper
            uses 2 ("we limit the number of additional replicas of a task
            to two").
        proactive: enable the paper's *proactive* heuristic class (Section
            6.1, described but not evaluated by the authors): during the
            end-of-iteration regime (UP processors ≥ remaining tasks), a
            pinned original stalled on a RECLAIMED worker is aggressively
            terminated — its partial data and computation are discarded,
            per the un-enrolment rule — and returned to the pool so an UP
            processor can take it over.
        audit: run per-slot invariant checks and network auditing.  Cheap
            enough for tests and examples; the harness disables it.  In
            span mode each boundary slot is checked and every quiet span
            additionally re-verifies grant stability and milestone bounds.
        max_slots: hard safety bound on simulated slots.
        step_mode: ``"span"`` (default) skips ahead between events in
            O(p) per span; ``"slot"`` simulates every slot in full.
            Bit-identical results either way (module docstring; DESIGN.md
            §6).  The ``every-slot`` replan policy forces slot stepping,
            since it demands per-slot work.  A timeline recorder does not:
            quiet spans fill the recorder in batch (every quiet slot
            repeats the boundary activity row), at the cost of treating
            every availability transition as a span boundary — the
            recorder observes them.
        replan_policy: when the master re-plans (DESIGN.md §10;
            :mod:`repro.sim.relevance`).  ``"event"`` (default) is the
            paper's semantics — replan at every UP-set change, crash,
            commit, program completion and iteration boundary.
            ``"every-slot"`` is the ablation arm: a round every slot.  The
            *relaxed* policies change the trigger semantics and therefore
            the results — they are validated against the paper's shape
            targets by ``experiments/replan_study.py``, not by
            bit-identity: ``"sticky"`` ignores pure UP-set churn entirely,
            ``"debounce:k"`` rate-limits churn-triggered rounds to one per
            ``k`` slots (leading edge), and ``"relevant-up"`` ignores exits
            of empty processors.
        platform_index: ``"calendar"`` (default) tracks the platform's
            availability through the event-calendar engine
            (:class:`~repro.sim.platform.PlatformCalendar`, DESIGN.md
            §12): a min-heap of per-processor next-transition slots fed
            by the RLE run cursors, so each span boundary touches only
            the processors whose run actually ended (O(churn · log p))
            instead of re-reading all ``p`` states and re-deriving all
            ``p`` span minima.  ``"sweep"`` keeps the O(p) per-boundary
            sweeps.  Bit-identical reports, event logs and audit trails
            either way (enforced by ``tests/test_platform_index.py``).
            The calendar engages without a timeline recorder or a cohort
            states provider; with either, the run falls back to the sweep
            — which is invisible in the results, precisely because the
            two are bit-identical.
    """

    replication: bool = True
    max_replicas: int = 2
    proactive: bool = False
    audit: bool = False
    max_slots: int = 10_000_000
    step_mode: str = "span"
    replan_policy: str = "event"
    platform_index: str = "calendar"

    def __post_init__(self) -> None:
        for name in ("replication", "proactive", "audit"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise TypeError(f"{name} must be a bool, got {value!r}")
        require_nonnegative_int(self.max_replicas, "max_replicas")
        require_positive_int(self.max_slots, "max_slots")
        if self.step_mode not in ("span", "slot"):
            raise ValueError(
                f"step_mode must be 'span' or 'slot', got {self.step_mode!r}"
            )
        parse_replan_policy(self.replan_policy)  # validates
        if self.platform_index not in ("calendar", "sweep"):
            raise ValueError(
                "platform_index must be 'calendar' or 'sweep', "
                f"got {self.platform_index!r}"
            )


class MasterSimulator:
    """One application execution on one platform under one heuristic.

    Args:
        platform: the volatile processors and the channel budget.
        app: the iterative application.
        scheduler: the heuristic deciding task placement.
        options: simulator tunables.
        rng: RNG stream for scheduler randomness (the random heuristic
            family); availability randomness lives in the platform's
            sources and is *not* drawn from this stream, so heuristic
            choice does not perturb availability (paired comparisons).
            When omitted, a generator seeded from
            :data:`DEFAULT_SCHEDULER_SEED` is used so that runs without
            an explicit stream are still reproducible — pass your own
            stream whenever two simulations must not share randomness.
        log: optional event log (a disabled one is created by default).
        timeline: optional per-slot activity recorder (see
            :class:`~repro.sim.timeline.TimelineRecorder`); costs one byte
            row per slot, so enable for debugging/examples only.
    """

    def __init__(
        self,
        platform: Platform,
        app: IterativeApplication,
        scheduler: Scheduler,
        *,
        options: Optional[SimulatorOptions] = None,
        rng: Optional[np.random.Generator] = None,
        log: Optional[EventLog] = None,
        timeline=None,
    ):
        self.platform = platform
        self.app = app
        self.scheduler = scheduler
        self.options = options or SimulatorOptions()
        if rng is None:
            # Deterministic fallback: an unseeded default_rng() would make
            # randomised heuristics unreproducible run-to-run.
            rng = default_scheduler_rng()
        self.rng = rng
        self.log = log if log is not None else EventLog(enabled=False)
        self.timeline = timeline
        self.network = BoundedMultiportNetwork(
            platform.ncom, audit=self.options.audit
        )

        self.workers: List[WorkerRuntime] = [
            WorkerRuntime(index=proc.index, speed_w=proc.speed_w, t_prog=app.t_prog)
            for proc in platform
        ]
        self.report = SimulationReport(
            target_iterations=app.iterations, heuristic_name=scheduler.name
        )

        # Iteration state: the live instances sit in the structure-of-
        # arrays InstanceTable (DESIGN.md §9).
        self.iteration = 0
        self._tbl = InstanceTable(
            app.tasks_per_iteration,
            len(self.workers),
            1 + self.options.max_replicas,
        )
        #: Mirrors ``prog_received > 0`` per worker (crash-sweep filter).
        self._prog_started = [False] * len(self.workers)
        #: Busy-worker roster: the workers whose queue is non-empty,
        #: updated at every queue mutation (``_place``, the round's queue
        #: purge, ``_detach`` for ``_destroy_instance`` and
        #: ``_proactive_round``, ``_crash``) so the body's busy-worker
        #: loops never rebuild it (audited).
        self._busy: set = set()
        #: Per-worker reuse cache for frozen TransferRequest objects,
        #: keyed by (kind, started, is_replica) — see _gather_requests.
        self._request_cache: List[dict] = [{} for _ in self.workers]
        self._committed: set[int] = set()  # committed task_ids, this iteration
        self._start_iteration(0)

        self._prev_states: Optional[np.ndarray] = None
        # Body fast path: the state vector as a plain Python list, built
        # once per boundary (after that, int loops beat per-element numpy
        # reads ~2× at the paper's p = 20 — DESIGN.md §9).
        self._states_list: Optional[list] = None
        self._prev_states_list: Optional[list] = None
        self._avail = [proc.availability for proc in platform]
        self._need_replan = True

        # Replan policy (DESIGN.md §10): decides which events set
        # ``_need_replan``.
        self._policy = parse_replan_policy(self.options.replan_policy)
        self._policy_churn_always = self._policy.churn_always
        self._every_slot = self._policy.name == "every-slot"
        #: Slot of the last *executed* (non-trivial) scheduling round;
        #: anchors the ``debounce:k`` cooldown window.  Trivial rounds do
        #: not move it, so the debounce clock is invisible at glided
        #: slots (span/slot bit-identity).
        self._last_round_slot = -(1 << 60)

        #: Fully simulated slots (diagnostic, not part of the report): in
        #: slot mode this equals ``report.slots_simulated``; in span mode
        #: it counts boundaries, so ``slots_simulated / steps_executed``
        #: is the run's mean span length.
        self.steps_executed = 0

        # Span-stepping state (DESIGN.md §6): the grants of the last fully
        # simulated slot (reused verbatim across the quiet span), whether
        # that slot changed the pipeline shape (a data transfer finishing
        # re-opens the allocation problem), and per-processor caches of
        # the next availability transition.
        self._pipeline_changed = False
        self._span_refined = False
        self._grants: List[tuple] = []
        self._grant_index: Dict[int, tuple] = {}
        self._grant_counts = (0, 0, 0)
        self._next_change_cache: List[Optional[int]] = [None] * len(self.workers)
        self._next_up_cache: List[Optional[int]] = [None] * len(self.workers)
        self._next_down_cache: List[Optional[int]] = [None] * len(self.workers)

        # Large-p platform engine (DESIGN.md §12).  The event calendar is
        # built lazily at the first boundary of a run once the budget is
        # known (``_cal_last``); it stays ``None`` on the sweep index and
        # on configurations the calendar does not cover (timeline
        # recorder, cohort states provider).
        self._cal: Optional[PlatformCalendar] = None
        self._cal_last: Optional[int] = None
        #: Net state changes of the current boundary, ``(q, old, new)``
        #: ascending — ``None`` when this step must take the sweep path
        #: (no calendar, or the calendar's first boundary).
        self._cal_records = None
        #: Workers with a partial or resident program (mirrors
        #: ``prog_received > 0``): together with the busy roster these are
        #: the only workers a calendar-mode span search must visit.
        self._prog_holders: set = set()

        # Sparse companion of the RoundState dirty flags (layer 2 of the
        # large-p engine): the indices flagged since the last refresh, so
        # `_refresh_round_state` walks O(dirty) candidates instead of all
        # p flags.  Guarded appends (only on a 0 -> 1 edge) keep it
        # duplicate-free up to `_freshen_worker_columns` clears.
        self._rs_dirty_hint: List[int] = list(range(len(self.workers)))

        #: Operation-count instrumentation (diagnostics; ``op_counts``
        #: bundles them).  Touched workers: per-boundary state reads —
        #: p on the sweep path, heap pops on the calendar path.  Span
        #: scans: workers visited by the quiet-span search.  Refreshes:
        #: RoundState columns recomputed at executed rounds.
        self.op_boundaries = 0
        self.op_boundary_workers_touched = 0
        self.op_calendar_pops = 0
        self.op_span_scan_workers = 0
        self.op_round_refreshed = 0

        # Array-backed scheduler state (DESIGN.md §8): the structure-of-
        # arrays RoundState the schedulers consume, maintained
        # *incrementally* — every mutation that can move a per-processor
        # column (pin/unpin, transfer progress, program completion, crash,
        # commit, quiet-span fast-forward) flags the processor in
        # `_rs_dirty`, and `_refresh_round_state` recomputes only the
        # flagged columns at the next scheduling round.
        self._rs = RoundState(
            speed_w=[proc.speed_w for proc in platform],
            beliefs=[proc.belief for proc in platform],
            t_prog=app.t_prog,
            t_data=app.t_data,
            ncom=platform.ncom,
            rng=self.rng,
            pipeline_provider=self._pinned_pipeline_of,
        )
        self._rs.freshen = self._freshen_worker_columns
        # The master refreshes columns only through _refresh_round_state /
        # _freshen_worker_columns, both of which stamp — so schedulers may
        # keep score rows alive across rounds (DESIGN.md §11).
        self._rs.stamped = True
        #: Local alias of the RoundState's dirty flags (same bytearray):
        #: the flags live on the state object (DESIGN.md §8), the master
        #: writes them at every mutating touch point.
        self._rs_dirty = self._rs.dirty

        #: Batch-engine seam (DESIGN.md §11): when set, _step obtains the
        #: per-boundary state list from this callable instead of reading
        #: the availability sources directly — cohorts of one trial share
        #: a memoised ``slot -> list`` so the p state_at calls are paid
        #: once per boundary per *trial* rather than per run.  The
        #: callable must return exactly ``[source.state_at(slot) for
        #: source in self._avail]`` (the lists may be shared: the master
        #: never mutates them).  ``None`` (the default) keeps the direct
        #: reads.
        self.states_provider: Optional[Callable[[int], list]] = None
        # Resumable-run state (begin_run/advance_until/finish_run).
        self._resume_budget: Optional[int] = None
        self._resume_slot = 0
        self._run_over = False

    @property
    def round_state(self) -> RoundState:
        """The incrementally maintained scheduler :class:`RoundState`.

        Exposed for cohort drivers (the batch engine shares belief-column
        caches across same-scenario runs through it); treat it as
        read-only — the master owns every column.
        """
        return self._rs

    # ------------------------------------------------------------------ #
    # Iteration lifecycle.                                                 #
    # ------------------------------------------------------------------ #
    def _start_iteration(self, iteration: int) -> None:
        self.iteration = iteration
        self._committed = set()
        originals = [
            TaskInstance(
                iteration=iteration,
                task_id=task_id,
                replica_id=0,
                data_needed=self.app.t_data,
            )
            for task_id in range(self.app.tasks_per_iteration)
        ]
        self._tbl.reset()
        for inst in originals:
            self._tbl.add(inst)
        self._need_replan = True

    @property
    def instance_ops(self) -> int:
        """Structural instance-store mutations so far (benchmark metric)."""
        return self._tbl.ops

    @property
    def op_counts(self) -> Dict[str, int]:
        """Operation-count instrumentation (DESIGN.md §12).

        ``boundaries``: fully simulated slots; ``boundary_workers_
        touched``: per-boundary state reads summed over the run (p per
        boundary on the sweep path, heap pops on the calendar path);
        ``calendar_pops``: total heap pops (0 on the sweep path);
        ``span_scan_workers``: workers visited by the quiet-span search;
        ``round_refreshed``: RoundState columns recomputed at executed
        rounds (the sparse dirty-hint walk); ``rows_scored`` /
        ``rows_reused``: the scheduler's scoring counters (score
        evaluations run vs. stamped rows reused verbatim from the
        large-p persistent store — below 128 processors every row is
        scored and ``rows_reused`` is 0; 0/0 for schedulers without
        the counters).  The O(churn) claims of the large-p engine are
        asserted on these in ``tests/test_platform_index.py``, not just
        benchmarked.
        """
        return {
            "boundaries": self.op_boundaries,
            "boundary_workers_touched": self.op_boundary_workers_touched,
            "calendar_pops": self.op_calendar_pops,
            "span_scan_workers": self.op_span_scan_workers,
            "round_refreshed": self.op_round_refreshed,
            "rows_scored": getattr(self.scheduler, "rows_scored", 0),
            "rows_reused": getattr(self.scheduler, "rows_reused", 0),
        }

    def _calendar_active(self) -> bool:
        """Whether this run uses the event-calendar platform index.

        Requires no timeline recorder (a recorder observes every slot's
        full state vector), no cohort states provider (the cohort memo
        *is* the state gather) and a known slot budget (``_cal_last`` —
        heap sentinels are budget-relative).
        """
        return (
            self.options.platform_index == "calendar"
            and self.timeline is None
            and self.states_provider is None
            and self._cal_last is not None
        )

    # ------------------------------------------------------------------ #
    # Crash / state handling.                                              #
    # ------------------------------------------------------------------ #
    def _handle_states(self, slot: int) -> None:
        records = self._cal_records
        if records is not None:
            # Calendar path: the records ARE the boundary snapshot diff
            # (net per-processor changes, ascending) — same re-plan
            # trigger, same events, no O(p) pass.  The calendar's first
            # boundary takes the sweep path below.
            slist = self._states_list
            if records:
                up = int(ProcState.UP)
                # Dirty workers re-entering the UP set rejoin the sparse
                # refresh hint here (their hint entry was dropped while
                # they were out of the scoring candidate set).
                dirty = self._rs_dirty
                hint = self._rs_dirty_hint
                for q, _old, new in records:
                    if new == up and dirty[q]:
                        hint.append(q)
                churned = [
                    q for q, old, new in records if (new == up) != (old == up)
                ]
                if churned:
                    if self._policy_churn_always:
                        self._need_replan = True
                    else:
                        self._churn_replan(slot, churned, slist)
                if self.log.enabled:
                    for q, old, new in records:
                        self.log.emit(
                            SimEvent(
                                slot,
                                EventKind.PROC_STATE_CHANGE,
                                worker=q,
                                detail=(
                                    f"{ProcState(old).code}"
                                    f"->{ProcState(new).code}"
                                ),
                            )
                        )
            # Only a net transition *into* DOWN can crash: DOWN workers
            # cannot gain work (placements refuse DOWN, transfers need
            # UP), and a busy worker's DOWN entry always breaks the span
            # (kind 0/2 in the span search), so its record is fresh.
            down = int(ProcState.DOWN)
            prog_started = self._prog_started
            workers = self.workers
            candidates = [
                q
                for q, _old, new in records
                if new == down and (prog_started[q] or workers[q].queue)
            ]
            self._crash(slot, candidates)
            return
        slist = self._states_list
        prev_list = self._prev_states_list
        if prev_list is not None:
            # Fused change detection: one pass over the plain-list state
            # vectors feeds the re-plan trigger and the log loop (events
            # in ascending worker order).
            changed = [
                q for q in range(len(slist)) if slist[q] != prev_list[q]
            ]
            if changed:
                up = int(ProcState.UP)
                # Dirty workers re-entering the UP set rejoin the sparse
                # refresh hint (entries dropped while non-UP).
                dirty = self._rs_dirty
                hint = self._rs_dirty_hint
                for q in changed:
                    if slist[q] == up and dirty[q]:
                        hint.append(q)
                # Re-plan only when the UP set changed: transitions among
                # RECLAIMED/DOWN of unused processors alter neither the
                # candidate set nor any Delay estimate.
                if any(
                    (slist[q] == up) != (prev_list[q] == up) for q in changed
                ):
                    if self._policy_churn_always:
                        self._need_replan = True
                    else:
                        self._churn_replan(
                            slot,
                            [
                                q
                                for q in changed
                                if (slist[q] == up) != (prev_list[q] == up)
                            ],
                            slist,
                        )
                if self.log.enabled:
                    for q in changed:
                        self.log.emit(
                            SimEvent(
                                slot,
                                EventKind.PROC_STATE_CHANGE,
                                worker=q,
                                detail=(
                                    f"{ProcState(prev_list[q]).code}"
                                    f"->{ProcState(slist[q]).code}"
                                ),
                            )
                        )
        # Only workers carrying progress can crash; the filters mirror
        # ``prog_received > 0`` / non-empty queues exactly.
        down = int(ProcState.DOWN)
        prog_started = self._prog_started
        workers = self.workers
        candidates = [
            q
            for q in range(len(slist))
            if slist[q] == down and (prog_started[q] or workers[q].queue)
        ]
        self._crash(slot, candidates)

    def _crash(self, slot: int, candidates: List[int]) -> None:
        """Crash each candidate worker (DOWN while carrying progress)."""
        tbl = self._tbl
        dirty = self._rs_dirty
        hint = self._rs_dirty_hint
        for q in candidates:
            worker = self.workers[q]
            # Account wasted effort before wiping progress.
            self.report.comm_slots_wasted += worker.prog_received
            if not dirty[q]:  # program + pipeline wiped
                dirty[q] = 1
                hint.append(q)
            lost = worker.crash()
            self._busy.discard(q)
            tbl.on_crash(q)
            self._prog_started[q] = False
            self._prog_holders.discard(q)
            for inst in lost:
                self.report.comm_slots_wasted += inst.data_received
                self.report.compute_slots_wasted += inst.compute_done
                self.report.instances_lost_to_crash += 1
                if inst.is_replica:
                    self._destroy_instance(inst)
                else:
                    reset_instance(inst)  # original returns to the pool
                    tbl.release(inst)
                self.log.emit(
                    SimEvent(
                        slot,
                        EventKind.INSTANCE_LOST,
                        worker=worker.index,
                        iteration=inst.iteration,
                        task_id=inst.task_id,
                        replica_id=inst.replica_id,
                        detail="crash",
                    )
                )
            self._need_replan = True

    def _destroy_instance(self, inst: TaskInstance) -> None:
        # Before the queue detach below: destroy reads ``inst.worker`` for
        # the computing-row rollback.
        self._tbl.destroy(inst)
        if inst.worker is not None:
            self._detach(inst)
        reset_instance(inst)

    def _detach(self, inst: TaskInstance) -> None:
        """Take a queued instance off its worker's queue (and the worker
        off the busy roster when the queue empties)."""
        host = inst.worker
        # Detaching a pinned instance moves the worker's delay and pinned
        # count; marking unconditionally is cheap and idempotent.
        if not self._rs_dirty[host]:
            self._rs_dirty[host] = 1
            self._rs_dirty_hint.append(host)
        worker = self.workers[host]
        worker.remove_instance(inst)
        if not worker.queue:
            self._busy.discard(host)

    def _churn_replan(self, slot: int, churned, states) -> None:
        """Apply the relaxed replan policy to an UP-set change.

        Called only for non-default policies (the ``event``/``every-slot``
        fast path sets ``_need_replan`` inline).  ``churned`` lists the
        processors whose UP-membership flipped this slot; ``states`` is
        the current state list.
        """
        policy = self._policy
        if policy.ignores_churn:
            return  # sticky: pure churn never replans
        if policy.ignores_empty_exits:
            # relevant-up: entries always replan; exits only when the
            # departing processor carries work (queue or partial program).
            up = int(ProcState.UP)
            workers = self.workers
            for q in churned:
                if states[q] == up:  # an entry: new candidate, replan
                    self._need_replan = True
                    return
                worker = workers[q]
                if worker.queue or worker.prog_received > 0:
                    self._need_replan = True
                    return
            return  # only empty processors left the UP set: ignore
        # debounce:k (leading edge): at most one churn-triggered round per
        # k slots, anchored at the last executed round; suppressed churn
        # is dropped, not deferred.
        if slot >= self._last_round_slot + policy.debounce:
            self._need_replan = True

    # ------------------------------------------------------------------ #
    # Scheduling round.                                                    #
    # ------------------------------------------------------------------ #
    def _pinned_pipeline_of(self, q: int) -> tuple:
        """The worker's pinned pipeline, for lazy ``ProcessorView`` shims."""
        return tuple(
            (inst.data_remaining, inst.compute_remaining, inst.computing)
            for inst in self.workers[q].pinned_instances()
        )

    def _refresh_round_state(
        self, slot: int, states: np.ndarray, remaining: int
    ) -> RoundState:
        """Bring the incrementally maintained RoundState up to this round.

        O(changed processors): the state column is the (already computed)
        state vector, and the worker-derived columns — ``delay``,
        ``pinned_count``, ``has_program``, ``prog_remaining`` — are
        recomputed only for processors flagged dirty since the last round.
        The per-worker recompute is the same arithmetic as
        ``delay_estimate``, so refreshed columns are bit-identical to a
        from-scratch rebuild (cross-checked in audit mode).
        """
        rs = self._rs
        rs.slot = slot
        rs.state = states
        dirty = self._rs_dirty
        t_data = self.app.t_data
        workers = self.workers
        up = int(ProcState.UP)
        eager_all = self.options.audit  # the audit cross-check reads all p
        slist = self._states_list
        changed: List[int] = []
        if eager_all:
            # Audit mode refreshes every dirty worker (the cross-check
            # reads all p columns) and verifies the sparse hint list
            # covers every set flag of a *scoring candidate* (dirty non-UP
            # workers legitimately leave the hint; they rejoin on their
            # next observed transition to UP) before resetting it.
            hint_set = set(self._rs_dirty_hint)
            assert all(
                q in hint_set
                for q in range(len(dirty))
                if dirty[q] and slist[q] == up
            ), "dirty UP flag set outside the sparse hint list"
            candidates = range(len(dirty))
        else:
            # Sparse walk (DESIGN.md §12): only the indices flagged since
            # the last refresh — O(dirty), never O(p).  Flags cleared by
            # the freshen shim skip.  Non-UP workers stay flagged but are
            # *dropped* from the hint (their columns are only readable
            # through the RoundState.freshen shim while non-UP);
            # `_handle_states` re-appends them the moment a boundary
            # observes their transition back to UP, so the walk stays
            # O(dirty candidates) instead of carrying every dirty non-UP
            # worker round after round.
            candidates = self._rs_dirty_hint
        # Per-element writes: a refresh touches a handful of workers, and
        # below ~15 of them four scalar writes each beat building an
        # index array for four vectorised scatters.
        delay_col = rs.delay
        pinned_col = rs.pinned_count
        prog_col = rs.prog_remaining
        has_program_col = rs.has_program
        for q in candidates:
            if not dirty[q]:
                continue
            if not eager_all and slist[q] != up:
                continue
            worker = workers[q]
            delay, pinned_count = worker.delay_and_pinned(t_data)
            prog_remaining = worker.t_prog - worker.prog_received
            if prog_remaining < 0:
                prog_remaining = 0
            delay_col[q] = delay
            pinned_col[q] = pinned_count
            prog_col[q] = prog_remaining
            has_program_col[q] = prog_remaining == 0
            changed.append(q)
            dirty[q] = 0
        # In-place clear: mutation sites may hold a live alias of the
        # hint list; rebinding would strand their appends on a dead list.
        del self._rs_dirty_hint[:]
        self.op_round_refreshed += len(changed)
        if changed:
            rs.stamp_changed(changed)
        rs.remaining_tasks = remaining
        rs.invalidate()
        if self.options.audit:
            self._audit_round_state()
        return rs

    def _freshen_worker_columns(self, q: int) -> None:
        """RoundState.freshen hook: bring one worker's columns current.

        Called when the compatibility shim materialises a
        :class:`ProcessorView` for a processor the incremental refresh
        skipped (non-UP workers are outside every scoring path).
        """
        dirty = self._rs_dirty
        if not dirty[q]:
            return
        rs = self._rs
        worker = self.workers[q]
        delay, pinned_count = worker.delay_and_pinned(self.app.t_data)
        rs.delay[q] = delay
        rs.pinned_count[q] = pinned_count
        prog_remaining = worker.prog_remaining
        rs.prog_remaining[q] = prog_remaining
        rs.has_program[q] = prog_remaining == 0
        rs.stamp_changed((q,))
        dirty[q] = 0

    def _audit_round_state(self) -> None:
        """Audit-mode cross-check: incremental columns == full rebuild."""
        rs = self._rs
        t_data = self.app.t_data
        for q, worker in enumerate(self.workers):
            pinned = worker.pinned_instances()
            assert rs.delay[q] == worker.delay_estimate(t_data, pinned), (
                f"worker {q}: incremental delay {int(rs.delay[q])} != "
                f"rebuilt {worker.delay_estimate(t_data, pinned)}"
            )
            assert rs.pinned_count[q] == len(pinned), (
                f"worker {q}: incremental pinned_count drifted"
            )
            assert bool(rs.has_program[q]) == worker.has_program, (
                f"worker {q}: incremental has_program drifted"
            )
            assert rs.prog_remaining[q] == worker.prog_remaining, (
                f"worker {q}: incremental prog_remaining drifted"
            )

    def _round_is_trivial(self) -> bool:
        """True when a scheduling round could not change anything.

        A round matters only if there is an unpinned original to (re)place,
        an unpinned replica to reconsider, or the replication trigger can
        fire (DESIGN.md §3).  Checking this first keeps event-dense runs
        cheap; the unpinned and saturation checks read incrementally
        maintained counters (O(1)).
        """
        tbl = self._tbl
        if tbl.n_unpinned:
            return False  # something to place or reconsider
        if self.options.proactive and self._proactive_candidates():
            return False
        if not self.options.replication or self.options.max_replicas == 0:
            return True
        up_state = int(ProcState.UP)
        slist = self._states_list
        cal = self._cal
        # The calendar maintains the UP count incrementally.
        up_count = cal.up_count if cal is not None else slist.count(up_state)
        if up_count <= tbl.n_uncommitted:
            return True  # replication trigger cannot fire
        # An idle UP worker exists iff the UP set is larger than its busy
        # slice — O(busy) over the roster, never O(p).
        if up_count == sum(1 for q in self._busy if slist[q] == up_state):
            return True
        return tbl.replication_saturated

    def _proactive_candidates(self) -> List[TaskInstance]:
        """Pinned originals worth terminating under the proactive policy.

        Conditions (conservative, to avoid thrashing): the end-of-iteration
        regime holds (at least as many UP processors as uncommitted tasks),
        the instance's worker is RECLAIMED, and the instance has not
        accumulated the majority of its computation (killing a nearly-done
        task is rarely worth the resent data).  Candidates are returned in
        ascending task order.
        """
        uncommitted = self.app.tasks_per_iteration - len(self._committed)
        tbl = self._tbl
        slist = self._states_list
        if self._cal is not None:
            up = self._cal.up_count
        else:
            up = slist.count(int(ProcState.UP))
        if up < uncommitted or up == 0:
            return []
        candidates = []
        reclaimed = int(ProcState.RECLAIMED)
        for task_id in tbl.uncommitted_tasks():
            row = tbl.original_row[task_id]
            if row < 0 or not tbl.pinned[row]:
                continue
            inst = tbl.objects[row]
            host = inst.worker
            if host is None or slist[host] != reclaimed:
                continue
            if inst.compute_needed and inst.compute_done * 2 > inst.compute_needed:
                continue
            candidates.append(inst)
        return candidates

    def _proactive_round(self, slot: int) -> None:
        for inst in self._proactive_candidates():
            self.report.comm_slots_wasted += inst.data_received
            self.report.compute_slots_wasted += inst.compute_done
            self._tbl.release(inst)  # reads inst.worker: before detach
            self._detach(inst)
            reset_instance(inst)  # back to the pool, progress discarded
            self.log.emit(
                SimEvent(
                    slot,
                    EventKind.INSTANCE_LOST,
                    worker=None,
                    iteration=inst.iteration,
                    task_id=inst.task_id,
                    replica_id=inst.replica_id,
                    detail="proactive-termination",
                )
            )

    def _scheduling_round(self, slot: int, states: np.ndarray) -> None:
        """Re-plan the unpinned remainder of the iteration (Section 6).

        Skips trivial rounds; otherwise refreshes the scheduler's view,
        drops the unpinned replicas, re-places the unpinned originals in
        ascending task order and runs the replication step.
        """
        if self._round_is_trivial():
            return
        if self.options.proactive:
            self._proactive_round(slot)
        self.report.scheduler_rounds += 1
        self._last_round_slot = slot

        # The unpinned instances: the originals to (re)place, in
        # ascending task order, and the replicas the round drops and the
        # replication step possibly recreates.
        tbl = self._tbl
        originals: List[TaskInstance] = []
        replicas: List[TaskInstance] = []
        objects = tbl.objects
        for row in tbl.unpinned_rows():
            inst = objects[row]
            (replicas if inst.replica_id else originals).append(inst)
        originals.sort(key=lambda inst: inst.task_id)

        # With replicas dropped, the unpinned originals are exactly the
        # round state's ``m - m'`` remaining tasks.
        rs = self._refresh_round_state(slot, states, len(originals))
        placements = self.scheduler.place_array(rs, len(originals))

        # Mutation phase.  Drop the unpinned replicas (the replication
        # step below recreates what is still useful — they carry no
        # progress by definition), purge each touched queue once, and
        # apply the placements.  None of this moves a RoundState column:
        # unpinned instances have zero progress, so they appear in
        # neither Delay nor pinned_count.  The dropped rows go back to the
        # table's free list.
        touched_hosts: set = set()
        for inst in replicas:
            if inst.worker is not None:
                touched_hosts.add(inst.worker)
                inst.worker = None
            reset_instance(inst)
            tbl.destroy(inst)
        for inst in originals:
            if inst.worker is not None:
                touched_hosts.add(inst.worker)
                inst.worker = None
        for host in touched_hosts:
            worker = self.workers[host]
            worker.queue = [other for other in worker.queue if other.pinned]
            if not worker.queue:
                self._busy.discard(host)

        for inst, choice in zip(originals, placements):
            self._place(inst, choice)

        if self.options.replication and self.options.max_replicas > 0:
            self._replication_round(rs)

    def _place(self, inst: TaskInstance, choice: Optional[int]) -> None:
        if choice is None:
            return
        if not 0 <= choice < len(self.workers):
            raise ValueError(
                f"scheduler {self.scheduler.name!r} placed a task on unknown "
                f"processor {choice}"
            )
        if self._states_list[choice] == int(ProcState.DOWN):
            # Refuse placements on DOWN processors (passive schedulers may
            # remember stale choices); leave the instance unplaced.
            return
        worker = self.workers[choice]
        inst.worker = choice
        inst.compute_needed = worker.speed_w
        worker.queue.append(inst)
        self._busy.add(choice)

    def _replication_round(self, rs: RoundState) -> None:
        """Section 6.1 replication: idle UP workers take extra copies of
        the least-replicated uncommitted tasks (DESIGN.md §3)."""
        # Cheap count-based exits before any list is built: mid-iteration
        # rounds leave here on the paper's trigger nearly every time.
        tbl = self._tbl
        n_uncommitted = tbl.n_uncommitted
        if n_uncommitted <= 0:
            return
        up_state = int(ProcState.UP)
        slist = self._states_list
        cal = self._cal
        up_count = cal.up_count if cal is not None else slist.count(up_state)
        if up_count <= n_uncommitted:
            return  # paper's trigger: more UP than remaining tasks
        idle_mask = None
        idle = None
        if cal is not None and len(slist) >= VECTOR_MIN_P:
            # Large-p calendar path: mask the (few) roster workers out of
            # the UP vector and keep the *mask* — the candidate loop below
            # then builds each task's allowed set with O(p) numpy ops
            # instead of O(idle) Python list scans.
            idle_mask = cal.states_np == up_state
            for q in self._busy:
                idle_mask[q] = False
            n_idle = int(np.count_nonzero(idle_mask))
            if n_idle == 0:
                return
        else:
            # Small p (lists beat small-vector masks) and the O(p) sweep
            # oracle, which derives the idle set from the queues so that
            # the sweep-vs-calendar suites cross-check the roster and the
            # two ``allowed`` forms.
            workers = self.workers
            idle = [
                q
                for q in range(len(slist))
                if slist[q] == up_state and not workers[q].queue
            ]
            if not idle:
                return
        max_instances = 1 + self.options.max_replicas
        # The per-task aggregates are maintained incrementally, so no pass
        # over the live instances is needed at all.  Reading them per
        # visited candidate is exact: the loop below only ever *adds*
        # replicas for the task it is visiting, and it never revisits a
        # task.
        live_count = tbl.live_count
        candidates = sorted(
            tbl.uncommitted_tasks(),
            key=lambda task_id: (live_count[task_id], task_id),
        )
        for task_id in candidates:
            exhausted = (n_idle == 0) if idle_mask is not None else not idle
            if exhausted:
                break
            if live_count[task_id] >= max_instances:
                continue
            task_hosts = tbl.hosts_of_task(task_id)
            if idle_mask is not None:
                # Mask arithmetic: the eligibility mask itself is the
                # allowed form the array schedulers consume (same candidate
                # set as an ascending index list), so no index
                # materialisation at all per candidate task.
                blocked = [q for q in task_hosts if idle_mask[q]]
                if blocked:
                    if len(blocked) == n_idle:
                        continue
                    amask = idle_mask.copy()
                    amask[blocked] = False
                    allowed = amask
                else:
                    allowed = idle_mask
            else:
                allowed = [q for q in idle if q not in task_hosts]
                if not allowed:
                    continue
            choice = self.scheduler.place_array(rs, 1, allowed)[0]
            if choice is None:
                continue
            replica = TaskInstance(
                iteration=self.iteration,
                task_id=task_id,
                replica_id=tbl.free_replica_id(task_id),
                data_needed=self.app.t_data,
            )
            tbl.add(replica)
            self._place(replica, choice)
            if replica.worker is not None:
                self.report.replicas_launched += 1
                if idle_mask is not None:
                    idle_mask[choice] = False
                    n_idle -= 1
                else:
                    idle.remove(choice)
            else:
                tbl.destroy(replica)

    # ------------------------------------------------------------------ #
    # Compute step.                                                        #
    # ------------------------------------------------------------------ #
    def _compute_step(self, slot: int) -> None:
        tbl = self._tbl
        up = int(ProcState.UP)
        dirty = self._rs_dirty
        hint = self._rs_dirty_hint
        slist = self._states_list
        # Only UP workers with a queue can compute (ascending order).
        candidates = [q for q in sorted(self._busy) if slist[q] == up]
        for q in candidates:
            worker = self.workers[q]
            row = tbl.computing_row[q]
            current = tbl.objects[row] if row >= 0 else None
            if current is None:
                current = worker.next_compute_target()
                if current is None:
                    continue
                current.computing = True
                tbl.start_computing(current)
                self.log.emit(
                    SimEvent(
                        slot,
                        EventKind.COMPUTE_START,
                        worker=worker.index,
                        iteration=current.iteration,
                        task_id=current.task_id,
                        replica_id=current.replica_id,
                    )
                )
            current.compute_done += 1
            if not dirty[q]:  # delay shrank (or pin began)
                dirty[q] = 1
                hint.append(q)
            self.report.compute_slots_spent += 1
            if self.timeline is not None:
                self.timeline.mark_compute(q)
            if current.compute_complete:
                self._commit(slot, current)

    def _commit(self, slot: int, inst: TaskInstance) -> None:
        self._committed.add(inst.task_id)
        self._tbl.commit_task(inst.task_id)
        self.report.tasks_committed += 1
        self._need_replan = True
        self.log.emit(
            SimEvent(
                slot,
                EventKind.TASK_COMMIT,
                worker=inst.worker,
                iteration=inst.iteration,
                task_id=inst.task_id,
                replica_id=inst.replica_id,
            )
        )
        # Remove the committed instance and cancel all siblings, in
        # creation order (the table's per-task row list appends in
        # creation order).
        siblings = [
            self._tbl.objects[row] for row in list(self._tbl.rows_of[inst.task_id])
        ]
        for sibling in siblings:
            if sibling is inst:
                self._destroy_instance(sibling)
                continue
            self.report.comm_slots_wasted += sibling.data_received
            self.report.compute_slots_wasted += sibling.compute_done
            if sibling.is_replica:
                self.report.replicas_cancelled += 1
            else:
                self.report.originals_superseded += 1
            self.log.emit(
                SimEvent(
                    slot,
                    EventKind.REPLICA_CANCELLED,
                    worker=sibling.worker,
                    iteration=sibling.iteration,
                    task_id=sibling.task_id,
                    replica_id=sibling.replica_id,
                )
            )
            self._destroy_instance(sibling)

    # ------------------------------------------------------------------ #
    # Transfer step.                                                       #
    # ------------------------------------------------------------------ #
    def _gather_requests(self) -> tuple[List[TransferRequest], Dict[int, TaskInstance]]:
        """This slot's transfer requests (and data targets) per UP worker.

        Both request kinds need a non-empty queue (``wants_program``
        checks it; a data target comes from it), so only UP queue holders
        are visited, in ascending order.  Requests are frozen dataclasses
        keyed entirely by (worker, kind, started, is_replica), so the
        per-worker cache reuses them across slots instead of re-validating
        a fresh object per boundary.
        """
        requests: List[TransferRequest] = []
        targets: Dict[int, TaskInstance] = {}
        up = int(ProcState.UP)
        slist = self._states_list
        all_workers = self.workers
        workers = [all_workers[q] for q in sorted(self._busy) if slist[q] == up]
        caches = self._request_cache
        for worker in workers:
            if worker.wants_program():
                kind = "prog"
                started = worker.prog_received > 0
                is_replica = False
            else:
                target = worker.next_data_target()
                if target is None:
                    continue
                kind = "data"
                started = target.data_started
                is_replica = target.is_replica
                targets[worker.index] = target
            cache = caches[worker.index]
            request = cache.get((kind, started, is_replica))
            if request is None:
                request = TransferRequest(
                    worker=worker.index,
                    kind=kind,
                    started=started,
                    is_replica=is_replica,
                    key=worker.index,
                )
                cache[(kind, started, is_replica)] = request
            requests.append(request)
        return requests, targets

    def _transfer_step(self, slot: int) -> None:
        requests, targets = self._gather_requests()
        grants: List[tuple] = []
        nprog = 0
        dirty = self._rs_dirty
        hint = self._rs_dirty_hint
        for grant in self.network.allocate(slot, requests):
            worker = self.workers[grant.worker]
            if not dirty[grant.worker]:  # prog/data progress moves delay
                dirty[grant.worker] = 1
                hint.append(grant.worker)
            self.report.comm_slots_spent += 1
            if self.timeline is not None:
                self.timeline.mark_transfer(worker.index, grant.kind)
            if grant.kind == "prog":
                nprog += 1
                grants.append((worker, "prog", None))
                if worker.prog_received == 0:
                    self._prog_started[worker.index] = True
                    self._prog_holders.add(worker.index)
                    self.log.emit(
                        SimEvent(
                            slot,
                            EventKind.PROGRAM_TRANSFER_START,
                            worker=worker.index,
                        )
                    )
                worker.prog_received += 1
                if worker.has_program:
                    self._need_replan = True
                    self.log.emit(
                        SimEvent(
                            slot, EventKind.PROGRAM_TRANSFER_DONE, worker=worker.index
                        )
                    )
            else:
                inst = targets[grant.worker]
                grants.append((worker, "data", inst))
                if not inst.data_started:
                    self._tbl.pin(inst)  # first data slot pins
                    self.log.emit(
                        SimEvent(
                            slot,
                            EventKind.DATA_TRANSFER_START,
                            worker=worker.index,
                            iteration=inst.iteration,
                            task_id=inst.task_id,
                            replica_id=inst.replica_id,
                        )
                    )
                inst.data_received += 1
                if inst.data_complete:
                    # No re-plan: a finished data transfer changes no
                    # scheduling input (the freed channel/buffer is used by
                    # the transfer step directly on the next slot).  It
                    # *does* reshape the next slot's requests and compute
                    # targets, so the span logic must treat the next slot
                    # as a boundary.
                    self._pipeline_changed = True
                    self.log.emit(
                        SimEvent(
                            slot,
                            EventKind.DATA_TRANSFER_DONE,
                            worker=worker.index,
                            iteration=inst.iteration,
                            task_id=inst.task_id,
                            replica_id=inst.replica_id,
                        )
                    )
        self._grants = grants
        self._grant_index = {
            worker.index: (kind, inst) for worker, kind, inst in grants
        }
        self._grant_counts = (nprog, len(grants) - nprog, len(requests))

    # ------------------------------------------------------------------ #
    # Main loop.                                                           #
    # ------------------------------------------------------------------ #
    def _step(self, slot: int) -> bool:
        """Simulate one slot; returns True when the whole run finished."""
        cal = self._cal
        if cal is not None:
            # Calendar path (DESIGN.md §12): pop the processors whose run
            # ended since the last boundary — O(churn · log p) — and keep
            # the persistent state list/buffer, instead of p state reads
            # and a fresh vector per boundary.  The net-change records
            # replace the sweep path's snapshot diff in _handle_states.
            self._cal_records = cal.advance(slot)
            self._states_list = cal.states
            states = cal.states_np
            self.op_boundary_workers_touched += cal.last_pops
            self.op_calendar_pops += cal.last_pops
        else:
            if self._calendar_active():
                # First boundary of a calendar run: full O(p) build, then
                # the sweep fallback handles this step (records = None).
                cal = self._cal = PlatformCalendar(self._avail)
                cal.start(slot, self._cal_last)
                self._states_list = cal.states
                states = cal.states_np
            else:
                # Sweep: gather states into a Python list (one state_at
                # per source, cursor-backed O(1) on the RLE traces) and
                # wrap it zero-copy for the vectorised consumers.  A
                # cohort-installed provider returns the identical list
                # from a shared per-trial memo (§11).
                provider = self.states_provider
                if provider is None:
                    slist = [source.state_at(slot) for source in self._avail]
                else:
                    slist = provider(slot)
                states = np.frombuffer(bytes(slist), dtype=np.uint8)
                self._states_list = slist
            self._cal_records = None
            self.op_boundary_workers_touched += len(self.workers)
        self.steps_executed += 1
        self.op_boundaries += 1
        self._pipeline_changed = False
        if self.timeline is not None:
            self.timeline.begin_slot(states)
        self._handle_states(slot)

        if self._need_replan or self._every_slot:
            self._need_replan = False
            self._scheduling_round(slot, states)

        self._compute_step(slot)
        self._transfer_step(slot)

        if self.options.audit:
            for worker in self.workers:
                worker.check_invariants()
            self._audit_instance_table()

        if len(self._committed) >= self.app.tasks_per_iteration:
            self.report.iteration_end_slots.append(slot)
            self.report.completed_iterations += 1
            self.log.emit(
                SimEvent(slot, EventKind.ITERATION_DONE, iteration=self.iteration)
            )
            if self.report.completed_iterations >= self.app.iterations:
                self.report.makespan = slot + 1
                self.log.emit(SimEvent(slot, EventKind.RUN_DONE))
                return True
            self._start_iteration(self.iteration + 1)

        self._prev_states = states
        self._prev_states_list = self._states_list
        return False

    # ------------------------------------------------------------------ #
    # Span-stepped execution (DESIGN.md §6).                               #
    # ------------------------------------------------------------------ #
    def _step_mode_effective(self) -> str:
        """The stepping mode actually used by the run loop.

        The ``every-slot`` policy makes every slot a scheduling boundary,
        so it forces the slot loop — span mode would degenerate to zero-length
        spans anyway.  A timeline recorder no longer does: quiet spans
        fill the recorder in batch (:meth:`TimelineRecorder.
        record_quiet_span`), with every availability transition treated as
        a span boundary so the per-slot rows stay bit-identical to slot
        mode.
        """
        if self.options.step_mode == "slot" or self._every_slot:
            return "slot"
        return "span"

    def _next_change(self, q: int, slot: int, last: int) -> Optional[int]:
        """Next slot in ``(slot, last]`` where processor ``q`` changes state.

        Cached per processor: a value computed at an earlier boundary is
        the *first* change after that boundary, so it stays correct for
        any query slot before it (the state is constant in between).  A
        miss up to ``last`` is cached as the sentinel ``last + 1``.
        """
        cached = self._next_change_cache[q]
        if cached is not None and cached > slot:
            return cached if cached <= last else None
        change = self.platform[q].availability.next_change_after(slot, limit=last)
        self._next_change_cache[q] = change if change is not None else last + 1
        return change

    def _next_state_entry(
        self,
        q: int,
        slot: int,
        last: int,
        target: int,
        cache: List[Optional[int]],
    ) -> Optional[int]:
        """Next slot in ``(slot, last]`` where processor ``q`` enters
        ``target``, walking the source's change points.

        Cache validity mirrors :meth:`_next_change`: the cached slot is
        the *first* entry into ``target`` after the boundary that
        computed it, so the processor is never in ``target`` in between
        and the value stays correct for any query slot before it.
        """
        cached = cache[q]
        if cached is not None and cached > slot:
            return cached if cached <= last else None
        source = self.platform[q].availability
        change = source.next_change_after(slot, limit=last)
        while change is not None and source.state_at(change) != target:
            change = source.next_change_after(change, limit=last)
        cache[q] = change if change is not None else last + 1
        return change

    def _next_up_entry(self, q: int, slot: int, last: int) -> Optional[int]:
        """Next UP entry of processor ``q`` in ``(slot, last]``.

        Only consulted for processors currently not UP whose worker holds
        no progress: their RECLAIMED↔DOWN wandering is invisible to the
        simulation (no crash to apply, no UP-set change, and scheduling
        rounds — which do see the full state vector — happen only at
        boundaries), so the span may glide over it.  (Currently-UP empty
        workers always break spans on any change, even under the
        ``relevant-up`` policy: gliding over an exit would mask a
        re-entry inside the same span — see the note in
        :meth:`_quiet_span`.)
        """
        return self._next_state_entry(
            q, slot, last, int(ProcState.UP), self._next_up_cache
        )

    def _next_down_entry(self, q: int, slot: int, last: int) -> Optional[int]:
        """Next DOWN entry of processor ``q`` in ``(slot, last]``.

        Consulted for workers whose only observable transition is the
        DOWN entry that crashes them: program-holding workers with empty
        queues, and — in refined spans — UP workers whose pending
        requests stay outranked and whose compute advances by UP count
        (see :meth:`_quiet_span`).
        """
        return self._next_state_entry(
            q, slot, last, int(ProcState.DOWN), self._next_down_cache
        )

    def _round_glidable(self) -> bool:
        """True when no mid-span scheduling round could change anything,
        *no matter how the UP set evolves*.

        A round only acts through unpinned instances, the proactive
        policy, or the replication trigger.  When none of those can fire
        — every live instance is pinned, proactive is off, and every
        uncommitted task already carries ``1 + max_replicas`` live
        instances (or replication is off) — a round is trivial for every
        possible state vector.  UP-set changes on processors that host no
        active pipeline are then unobservable: slot mode would run a
        trivial round (no report field, no RNG draw, no placement), so
        the span may glide across them.  All of these conditions only
        change at boundaries (pinning via first granted slot, instance
        counts via commits/crashes), so a check at the span start covers
        the whole span.
        """
        if self.options.proactive:
            return False
        tbl = self._tbl
        # O(1): both conditions are incrementally maintained counters.
        if tbl.n_unpinned:
            return False
        if not self.options.replication or self.options.max_replicas == 0:
            return True
        if tbl.n_uncommitted >= len(self.workers):
            # The replication trigger needs strictly more UP processors
            # than uncommitted tasks; with p <= uncommitted it cannot fire
            # for any UP set, and the uncommitted count only moves at
            # commits — which are span boundaries (DESIGN.md §10).
            return True
        return tbl.replication_saturated

    def _quiet_span(self, slot: int, budget: int) -> int:
        """Slots after ``slot`` that provably replay it with shifted counters.

        Returns ``n >= 0`` such that slots ``slot+1 .. slot+n`` change
        nothing discrete: no relevant availability transition, no transfer
        or compute completion, no pending re-plan.  Those slots can then
        be applied arithmetically by :meth:`_advance_quiet`; slot
        ``slot+n+1`` is the next boundary and is simulated in full.
        """
        if self._cal is not None:
            return self._quiet_span_cal(slot, budget)
        last = budget - 1
        if slot >= last:
            return 0
        if self._need_replan or self._pipeline_changed:
            return 0  # next slot re-plans or re-allocates: full step
        states = self._prev_states_list
        up = int(ProcState.UP)
        horizon = last + 1  # exclusive sentinel: quiet through the budget
        # 1. Availability: the earliest transition that the simulation can
        #    observe.  With the event log enabled every transition is
        #    observable (it must be logged), and likewise with a timeline
        #    recorder attached (every slot's state lands in a row).
        #    Otherwise observability depends on what the worker carries
        #    and on whether rounds can act (``glide``):
        #
        #    * a granted transfer or a frozen (non-UP) queue: every
        #      transition matters — it changes the channel allocation or
        #      resumes/crashes a pipeline;
        #    * an UP worker with a queue but no grant (``refined``): its
        #      RECLAIMED wandering is invisible — its pending request was
        #      already outranked at the boundary (and stays outranked:
        #      grant priorities only improve; see
        #      BoundedMultiportNetwork.plan) and its compute progress is
        #      exactly its UP-slot count, handled arithmetically below —
        #      so only the DOWN entry that crashes it breaks the span.
        #      Audit mode disables this (the per-slot ``requested`` count
        #      in the usage trail does observe the wandering);
        #    * a resident program with an empty queue: only the DOWN
        #      entry that wipes it (when rounds are glidable);
        #    * an empty worker: only the UP-set changes a scheduling
        #      round could act on — none at all while rounds are
        #      provably trivial.
        #
        #    Scans use the budget-wide ``last`` (not the running horizon):
        #    cached misses are stored as the sentinel ``last + 1``, which
        #    is only sound when ``last`` is constant across boundaries.
        observe_all = self.log.enabled or self.timeline is not None
        # Under the sticky policy pure churn never triggers a round, so
        # the glide conditions hold by construction: empty processors are
        # invisible, program holders matter only through their crashing
        # DOWN entry, and the refined treatment of wandering (UP,
        # ungranted) workers is valid without the round-triviality proof
        # (DESIGN.md §10).  All other round triggers — crashes, commits,
        # program completions — are span boundaries in their own right.
        sticky = self._policy.ignores_churn and not observe_all
        glide = sticky or (not observe_all and self._round_glidable())
        refined = glide and not self.options.audit
        self._span_refined = refined
        # Note on ``relevant-up``: although the policy ignores exits of
        # empty processors, spans must still break on them — a boundary
        # diffs states against the *last boundary*, so gliding over an
        # exit would mask a re-entry inside the same span (UP → … → UP
        # reads as "no change" and the entry — which the policy does
        # consider relevant — would never replan, diverging from slot
        # mode).  The policy's gain is therefore fewer executed rounds at
        # exit boundaries, not longer spans.
        grant_index = self._grant_index
        next_change_cache = self._next_change_cache
        next_up_cache = self._next_up_cache
        next_down_cache = self._next_down_cache
        computing_rows = self._tbl.computing_row
        objects = self._tbl.objects
        avail = self._avail
        # 2. (fused below) Worker pipelines: the computing instance and
        #    the granted transfer (grants are stable across the span; see
        #    BoundedMultiportNetwork.plan) tick one unit per slot —
        #    except the computing instance of a refined (UP, ungranted)
        #    worker, which ticks once per *UP* slot and therefore
        #    completes at its worker's ``compute_remaining``-th UP slot.
        #    Both the availability and the pipeline bounds for a worker
        #    come from one pass (PR 5 span-search trim: one iteration,
        #    O(1) computing lookup off the table, no per-worker method
        #    calls).
        self.op_span_scan_workers += len(self.workers)
        for q, worker in enumerate(self.workers):
            queue = worker.queue
            state_up = states[q] == up
            # kind: 0 = any change, 1 = next UP entry, 2 = next DOWN
            # entry, None = invisible.  A grant implies a queue, so the
            # index is only consulted for queue holders.
            grant = grant_index.get(q) if queue else None
            if observe_all:
                kind = 0
            elif queue:
                kind = 2 if refined and state_up and grant is None else 0
            elif worker.prog_received > 0:
                kind = 2 if glide else 0
            elif glide:
                kind = None  # empty worker, rounds can't act: invisible
            elif state_up:
                kind = 0
            else:
                kind = 1
            if kind is not None:
                if kind == 0:
                    cache = next_change_cache
                elif kind == 1:
                    cache = next_up_cache
                else:
                    cache = next_down_cache
                cached = cache[q]  # inline cache hit: the common case
                if cached is not None and cached > slot:
                    change = cached if cached <= last else None
                elif kind == 0:
                    change = self._next_change(q, slot, last)
                elif kind == 1:
                    change = self._next_up_entry(q, slot, last)
                else:
                    change = self._next_down_entry(q, slot, last)
                if change is not None and change < horizon:
                    horizon = change
                    if horizon == slot + 1:
                        return 0
            if not queue or not state_up:
                continue  # idle, frozen (RECLAIMED) or wiped: no ticks
            row = computing_rows[q]
            computing = objects[row] if row >= 0 else None
            if grant is None:
                if refined:
                    if computing is None:
                        continue
                    milestone_slot = avail[q].nth_up_after(
                        slot,
                        computing.compute_needed - computing.compute_done,
                        limit=last,
                    )
                    if milestone_slot is not None and milestone_slot < horizon:
                        horizon = milestone_slot
                        if horizon == slot + 1:
                            return 0
                    continue
                milestone = None
            else:
                grant_kind, grant_inst = grant
                if grant_kind == "prog":
                    milestone = worker.t_prog - worker.prog_received
                else:
                    milestone = grant_inst.data_needed - grant_inst.data_received
            if computing is not None:
                remaining = computing.compute_needed - computing.compute_done
                if milestone is None or remaining < milestone:
                    milestone = remaining
            if milestone is not None and slot + milestone < horizon:
                horizon = slot + milestone
                if horizon == slot + 1:
                    return 0
        return horizon - slot - 1

    def _quiet_span_cal(self, slot: int, budget: int) -> int:
        """Calendar-mode quiet-span search: O(busy), never O(p).

        Same contract as :meth:`_quiet_span`, visiting only the *busy*
        workers — the busy roster plus the ``_prog_holders`` mirror,
        unioned into a fresh set.  The availability
        bound splits by regime:

        * **observe_all** (event log attached; the calendar never engages
          with a timeline): the sweep assigns every worker kind 0, whose
          minimum is exactly the calendar's heap top — identical spans;
        * **non-glide**: busy workers are kind 0 and idle non-UP workers
          kind 1 (their next *UP entry*); bounding both by the heap top
          is conservative — spans never longer than the sweep's, and an
          extra boundary at an idle worker's non-UP→non-UP transition is
          provably a no-op: no UP-set change, no event (the log is off in
          this regime), no crash candidate (idle workers carry nothing),
          and identical grants (same request set; grant priorities are
          stable — see BoundedMultiportNetwork.plan), so the per-slot
          trail matches the sweep's span arithmetic bit for bit;
        * **glide**: idle workers are invisible (kind None) and the heap
          top must NOT bound the span — only the busy workers' kind 0/2
          lookups apply, exactly as in the sweep.

        Milestone bounds (transfer/compute completions) are the sweep's,
        restricted to queue holders — the only workers that can carry
        grants or computing instances.
        """
        last = budget - 1
        if slot >= last:
            return 0
        if self._need_replan or self._pipeline_changed:
            return 0  # next slot re-plans or re-allocates: full step
        states = self._prev_states_list
        up = int(ProcState.UP)
        horizon = last + 1  # exclusive sentinel: quiet through the budget
        observe_all = self.log.enabled
        sticky = self._policy.ignores_churn and not observe_all
        glide = sticky or (not observe_all and self._round_glidable())
        refined = glide and not self.options.audit
        self._span_refined = refined
        if not glide:
            nxt = self._cal.peek()  # platform-wide next transition, O(1)
            if nxt < horizon:
                horizon = nxt
                if horizon == slot + 1:
                    return 0
        grant_index = self._grant_index
        next_change_cache = self._next_change_cache
        next_down_cache = self._next_down_cache
        tbl = self._tbl
        computing_rows = tbl.computing_row
        objects = tbl.objects
        avail = self._avail
        workers = self.workers
        busy = self._busy | self._prog_holders
        self.op_span_scan_workers += len(busy)
        for q in sorted(busy):
            worker = workers[q]
            queue = worker.queue
            state_up = states[q] == up
            grant = grant_index.get(q) if queue else None
            if glide:
                # kind 2 = next DOWN entry, kind 0 = any change — the
                # sweep's glide assignments for busy workers verbatim.
                if queue:
                    kind = 2 if refined and state_up and grant is None else 0
                else:
                    kind = 2  # resident program: only the wiping DOWN
                cache = next_down_cache if kind == 2 else next_change_cache
                cached = cache[q]  # inline cache hit: the common case
                if cached is not None and cached > slot:
                    change = cached if cached <= last else None
                elif kind == 2:
                    change = self._next_down_entry(q, slot, last)
                else:
                    change = self._next_change(q, slot, last)
                if change is not None and change < horizon:
                    horizon = change
                    if horizon == slot + 1:
                        return 0
            if not queue or not state_up:
                continue  # idle, frozen (RECLAIMED) or wiped: no ticks
            row = computing_rows[q]
            computing = objects[row] if row >= 0 else None
            if grant is None:
                if refined:
                    if computing is None:
                        continue
                    milestone_slot = avail[q].nth_up_after(
                        slot,
                        computing.compute_needed - computing.compute_done,
                        limit=last,
                    )
                    if milestone_slot is not None and milestone_slot < horizon:
                        horizon = milestone_slot
                        if horizon == slot + 1:
                            return 0
                    continue
                milestone = None
            else:
                grant_kind, grant_inst = grant
                if grant_kind == "prog":
                    milestone = worker.t_prog - worker.prog_received
                else:
                    milestone = grant_inst.data_needed - grant_inst.data_received
            if computing is not None:
                remaining = computing.compute_needed - computing.compute_done
                if milestone is None or remaining < milestone:
                    milestone = remaining
            if milestone is not None and slot + milestone < horizon:
                horizon = slot + milestone
                if horizon == slot + 1:
                    return 0
        return horizon - slot - 1

    def _advance_quiet(self, start: int, count: int) -> None:
        """Apply ``count`` quiet slots (``start .. start+count-1``) in O(p).

        Every UP worker's computing instance accrues ``count`` compute
        slots and every granted transfer ``count`` channel slots — by
        construction of :meth:`_quiet_span` none of them crosses a
        completion threshold, no state transition is observable, and the
        grant set would be re-derived identically at each skipped slot.
        """
        states = self._prev_states
        up = int(ProcState.UP)
        report = self.report
        refined = self._span_refined
        dirty = self._rs_dirty
        hint = self._rs_dirty_hint
        timeline_compute: Optional[List[int]] = (
            [] if self.timeline is not None else None
        )
        tbl = self._tbl
        slist = self._prev_states_list
        computing_row = tbl.computing_row
        # A computing row implies a queued instance, so the roster covers
        # every computing worker.
        computing = [
            (q, tbl.objects[computing_row[q]])
            for q in sorted(self._busy)
            if slist[q] == up and computing_row[q] >= 0
        ]
        for q, inst in computing:
            if refined and q not in self._grant_index:
                # May freeze and resume inside the span: progress is
                # the worker's UP-slot count over the window.
                ticks = self.platform[q].availability.up_count_in(
                    start, start + count
                )
            else:
                ticks = count  # UP throughout (any transition breaks)
            if ticks:
                inst.compute_done += ticks
                report.compute_slots_spent += ticks
                if not dirty[q]:
                    dirty[q] = 1
                    hint.append(q)
            if timeline_compute is not None:
                # With a recorder attached every transition is a span
                # boundary, so the worker computes on every quiet slot.
                timeline_compute.append(q)
        for worker, kind, inst in self._grants:
            if kind == "prog":
                worker.prog_received += count
            else:
                inst.data_received += count
            report.comm_slots_spent += count
            if not dirty[worker.index]:
                dirty[worker.index] = 1
                hint.append(worker.index)
        nprog, ndata, requested = self._grant_counts
        self.network.record_span(
            start, count, nprog=nprog, ndata=ndata, requested=requested
        )
        if self.timeline is not None:
            # Batched fill (ROADMAP item): every quiet slot repeats the
            # boundary activity pattern — states are constant (the recorder
            # makes every transition observable), the grant set is stable,
            # and no pipeline crosses a completion threshold — so one row
            # serves the whole span.
            self.timeline.record_quiet_span(
                states,
                timeline_compute,
                [(worker.index, kind) for worker, kind, _ in self._grants],
                count,
            )
        if self.options.audit:
            self._audit_quiet_advance()

    def _audit_quiet_advance(self) -> None:
        """Audit-mode cross-checks after a quiet-span fast-forward."""
        states = self._prev_states_list
        up = int(ProcState.UP)
        requests, _targets = self._gather_requests()
        planned = {(g.worker, g.kind) for g in self.network.plan(requests)}
        granted = {(worker.index, kind) for worker, kind, _ in self._grants}
        assert planned == granted, (
            f"grant set drifted mid-span: boundary {sorted(granted)} vs "
            f"replanned {sorted(planned)}"
        )
        for worker, kind, inst in self._grants:
            remaining = (
                worker.prog_remaining if kind == "prog" else inst.data_remaining
            )
            assert remaining >= 1, "granted transfer overshot its completion"
        for worker in self.workers:
            worker.check_invariants()
            if states[worker.index] == up:
                inst = worker.computing_instance
                if inst is not None:
                    assert inst.compute_remaining >= 1, (
                        "computing instance overshot its completion"
                    )

    def run(self, max_slots: Optional[int] = None) -> SimulationReport:
        """Run until the target iterations complete (or ``max_slots``).

        Returns:
            The populated :class:`~repro.sim.metrics.SimulationReport`;
            ``report.makespan`` is ``None`` if the slot budget ran out.
        """
        self.begin_run(max_slots)
        self.advance_until(self._resume_budget)
        return self.finish_run()

    def run_slots(self, n_slots: int) -> SimulationReport:
        """Simulate exactly ``n_slots`` slots (the Section 3.4 objective).

        Returns:
            The report; ``completed_iterations`` is the objective value.
        """
        return self.run(require_positive_int(n_slots, "n_slots"))

    # ------------------------------------------------------------------ #
    # Resumable runs (the batch engine's seam, DESIGN.md §11).             #
    # ------------------------------------------------------------------ #
    def begin_run(self, max_slots: Optional[int] = None) -> None:
        """Start an incremental run.

        :meth:`run` is ``begin_run`` + one :meth:`advance_until` to the
        budget + :meth:`finish_run`; pausing between loop iterations
        touches no simulation state, so reports, event logs and audit
        trails are bit-identical to a plain :meth:`run` regardless of
        where (or whether) the run is paused.
        """
        budget = max_slots if max_slots is not None else self.options.max_slots
        self._resume_budget = require_positive_int(budget, "max_slots")
        # The calendar's heap sentinels are budget-relative, so the
        # engine can only engage once the budget is known.
        self._cal_last = self._resume_budget - 1
        self._resume_slot = 0
        self._run_over = False
        self._next_change_cache = [None] * len(self.workers)
        self._next_up_cache = [None] * len(self.workers)
        self._next_down_cache = [None] * len(self.workers)

    def advance_until(self, slot_limit: int) -> bool:
        """Advance until the run ends or the clock reaches ``slot_limit``.

        The one stepping loop of both modes: each iteration simulates a
        boundary slot in full, then fast-forwards the quiet span after it
        — zero slots in slot mode.  A span may carry the clock past
        ``slot_limit``; the next boundary then simply lies beyond it.

        Returns:
            True when the run is over (finished its iterations or
            exhausted the budget) — :meth:`finish_run` may then be
            called; False when paused at ``slot_limit``.
        """
        budget = self._resume_budget
        if budget is None:
            raise RuntimeError("advance_until() before begin_run()")
        if self._run_over:
            return True
        span = self._step_mode_effective() == "span"
        report = self.report
        slot = self._resume_slot
        # The cursor survives an exception from a cohort states provider,
        # which raises before the step mutates anything (DESIGN.md §11).
        try:
            while slot < budget:
                if self._step(slot):
                    report.slots_simulated = slot + 1
                    self._run_over = True
                    break
                quiet = self._quiet_span(slot, budget) if span else 0
                if quiet > 0:
                    self._advance_quiet(slot + 1, quiet)
                slot += 1 + quiet
                report.slots_simulated = slot
                if slot >= slot_limit:
                    break
        finally:
            self._resume_slot = slot
        if slot >= budget:
            self._run_over = True
        return self._run_over

    def finish_run(self) -> SimulationReport:
        """Finalise an incremental run and return the report."""
        if self._resume_budget is None:
            raise RuntimeError("finish_run() before begin_run()")
        if not self._run_over:
            raise RuntimeError("finish_run() before the run is over")
        self._resume_budget = None
        # Leftover instances at end-of-run are waste.
        tbl = self._tbl
        for row in tbl.live_rows():
            inst = tbl.objects[row]
            self.report.comm_slots_wasted += inst.data_received
            self.report.compute_slots_wasted += inst.compute_done
        if self.options.audit:
            self.network.verify_invariants()
        return self.report

    def _audit_instance_table(self) -> None:
        """Audit-mode cross-check: incremental InstanceTable columns and
        aggregates == a brute-force rebuild from the live objects and
        worker queues (DESIGN.md §9; mirrors :meth:`_audit_round_state`)."""
        tbl = self._tbl
        live = [tbl.objects[row] for row in tbl.live_rows()]
        tbl.audit(live, self._committed)
        for q, worker in enumerate(self.workers):
            row = tbl.computing_row[q]
            current = worker.computing_instance
            if current is None:
                assert row == -1, f"worker {q}: stale computing_row {row}"
            else:
                assert row == current.row, (
                    f"worker {q}: computing_row {row} != instance row "
                    f"{current.row}"
                )
            assert bool(self._prog_started[q]) == (worker.prog_received > 0), (
                f"worker {q}: prog_started flag drifted"
            )
        # The busy-worker mirrors behind the O(busy) body loops and span
        # search must match the queues exactly.
        queued = {q for q, worker in enumerate(self.workers) if worker.queue}
        assert self._busy == queued, (
            f"busy roster {sorted(self._busy)} != queue holders {sorted(queued)}"
        )
        for q, worker in enumerate(self.workers):
            assert (q in self._prog_holders) == (worker.prog_received > 0), (
                f"worker {q}: prog_holders mirror drifted"
            )
        cal = self._cal
        if cal is not None:
            slist = self._states_list
            assert cal.up_count == slist.count(int(ProcState.UP)), (
                "calendar up_count drifted"
            )
            assert list(cal.states_np) == slist, (
                "calendar state buffer drifted from its list"
            )


def simulate(
    platform: Platform,
    app: IterativeApplication,
    scheduler: Scheduler,
    *,
    options: Optional[SimulatorOptions] = None,
    rng: Optional[np.random.Generator] = None,
    log: Optional[EventLog] = None,
    max_slots: Optional[int] = None,
) -> SimulationReport:
    """Convenience one-shot wrapper around :class:`MasterSimulator`."""
    sim = MasterSimulator(
        platform, app, scheduler, options=options, rng=rng, log=log
    )
    return sim.run(max_slots=max_slots)
