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
arithmetically across the quiet gap in O(p) instead of O(p·span).  Slot
semantics are preserved exactly: ``step_mode="slot"`` keeps the original
one-slot-at-a-time loop as the oracle, and the two modes produce
bit-identical reports, event logs, and audit trails (enforced by
``tests/test_span_equivalence.py``).

**Instance stores** (DESIGN.md §9).  The default
``instance_store="array"`` keeps the live instances in the
structure-of-arrays :class:`~repro.sim.instance_table.InstanceTable` —
incrementally maintained aggregates turn the body's per-boundary and
per-round scans (crash sweep, round triviality, glide analysis,
replication bookkeeping, sibling lookups) into O(1) reads or short
candidate loops over a once-per-boundary state list.
``instance_store="legacy"`` preserves the original Python-list store as
the oracle; the two stores are bit-identical (enforced by
``tests/test_instance_table.py``).

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
from ..core.heuristics.base import (
    ProcessorView,
    RoundState,
    Scheduler,
    SchedulingContext,
)
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
        replan_every_slot: force a scheduling round every slot instead of
            on events only (ablation; slower, same results for the paper's
            heuristics up to Delay-shift ties).  Alias of
            ``replan_policy="every-slot"``; the two fields are kept in
            sync by ``__post_init__``.
        replan_policy: when the master re-plans (DESIGN.md §10;
            :mod:`repro.sim.relevance`).  ``"event"`` (default) is the
            paper's semantics — replan at every UP-set change, crash,
            commit, program completion and iteration boundary.
            ``"every-slot"`` is the ablation arm (alias of
            ``replan_every_slot``).  The *relaxed* policies change the
            trigger semantics and therefore the results — they are
            validated against the paper's shape targets by
            ``experiments/replan_study.py``, not by bit-identity:
            ``"sticky"`` ignores pure UP-set churn entirely,
            ``"debounce:k"`` rate-limits churn-triggered rounds to one
            per ``k`` slots (leading edge), and ``"relevant-up"`` ignores
            exits of empty processors.
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
            O(p) per span; ``"slot"`` is the original slot-at-a-time
            oracle loop.  Bit-identical results either way (module
            docstring; DESIGN.md §6).  ``replan_every_slot`` forces slot
            stepping, since it demands per-slot work.  An attached
            timeline recorder no longer does: quiet spans fill the
            recorder in batch (every quiet slot repeats the boundary
            activity row), at the cost of treating every availability
            transition as a span boundary — the recorder observes them.
        scheduler_api: ``"array"`` (default) maintains the structure-of-
            arrays :class:`~repro.core.heuristics.base.RoundState`
            incrementally across rounds and calls the scheduler's batch
            entry point (:meth:`Scheduler.place_array`); ``"legacy"``
            rebuilds the eager per-round ``ProcessorView`` snapshot and
            calls the scalar :meth:`Scheduler.place`.  Bit-identical
            placements either way (DESIGN.md §8, enforced by
            ``tests/test_scheduler_api_equivalence.py``); the legacy path
            is kept as the oracle for that suite and the benchmark
            baseline.
        instance_store: ``"array"`` (default) keeps the live instances in
            the structure-of-arrays
            :class:`~repro.sim.instance_table.InstanceTable` —
            vectorised body scans, O(1) triviality/saturation checks,
            free-list slot reuse (DESIGN.md §9); ``"legacy"`` keeps the
            original Python-list store.  Bit-identical reports, event
            logs and audit trails either way (enforced by
            ``tests/test_instance_table.py``); the legacy store is the
            oracle for that suite and the benchmark baseline.
        platform_index: ``"calendar"`` (default) tracks the platform's
            availability through the event-calendar engine
            (:class:`~repro.sim.platform.PlatformCalendar`, DESIGN.md
            §12): a min-heap of per-processor next-transition slots fed
            by the RLE run cursors, so each span boundary touches only
            the processors whose run actually ended (O(churn · log p))
            instead of re-reading all ``p`` states and re-deriving all
            ``p`` span minima.  ``"sweep"`` preserves the original O(p)
            per-boundary sweeps as the oracle.  Bit-identical reports,
            event logs and audit trails either way (enforced by
            ``tests/test_platform_index.py``).  The calendar engages on
            the array instance store without a timeline recorder or a
            cohort states provider; other configurations fall back to
            the sweep — which is invisible in the results, precisely
            because the two are bit-identical.
    """

    replication: bool = True
    max_replicas: int = 2
    replan_every_slot: bool = False
    proactive: bool = False
    audit: bool = False
    max_slots: int = 10_000_000
    step_mode: str = "span"
    scheduler_api: str = "array"
    instance_store: str = "array"
    replan_policy: str = "event"
    platform_index: str = "calendar"

    def __post_init__(self) -> None:
        require_nonnegative_int(self.max_replicas, "max_replicas")
        require_positive_int(self.max_slots, "max_slots")
        if self.step_mode not in ("span", "slot"):
            raise ValueError(
                f"step_mode must be 'span' or 'slot', got {self.step_mode!r}"
            )
        policy = parse_replan_policy(self.replan_policy)  # validates
        # Keep the legacy ``replan_every_slot`` flag and the policy field
        # in sync: either spelling selects the every-slot ablation arm.
        if self.replan_every_slot:
            if policy.name == "event":
                object.__setattr__(self, "replan_policy", "every-slot")
            elif policy.name != "every-slot":
                raise ValueError(
                    "replan_every_slot=True conflicts with "
                    f"replan_policy={self.replan_policy!r}"
                )
        elif policy.name == "every-slot":
            object.__setattr__(self, "replan_every_slot", True)
        if self.scheduler_api not in ("array", "legacy"):
            raise ValueError(
                "scheduler_api must be 'array' or 'legacy', "
                f"got {self.scheduler_api!r}"
            )
        if self.instance_store not in ("array", "legacy"):
            raise ValueError(
                "instance_store must be 'array' or 'legacy', "
                f"got {self.instance_store!r}"
            )
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

        # Iteration state.  The live-instance store is either the
        # structure-of-arrays InstanceTable (DESIGN.md §9, the default) or
        # the legacy Python list kept as the bit-identical oracle; exactly
        # one of ``_tbl``/``_instances`` is in use.
        self.iteration = 0
        self._tbl: Optional[InstanceTable] = None
        if self.options.instance_store == "array":
            self._tbl = InstanceTable(
                app.tasks_per_iteration,
                len(self.workers),
                1 + self.options.max_replicas,
            )
            #: Mirrors ``prog_received > 0`` per worker (crash-sweep filter).
            self._prog_started = [False] * len(self.workers)
            #: Per-worker reuse cache for frozen TransferRequest objects,
            #: keyed by (kind, started, is_replica) — see _gather_requests.
            self._request_cache: List[dict] = [{} for _ in self.workers]
        self._instances: List[TaskInstance] = []  # legacy store only
        self._committed: set[int] = set()  # committed task_ids, this iteration
        self._start_iteration(0)

        self._prev_states: Optional[np.ndarray] = None
        # Array-store body fast path: the state vector converted once per
        # boundary to a plain Python list (``states.tolist()`` is ~0.2µs;
        # after that, int loops beat per-element numpy reads ~2× at the
        # paper's p = 20 — DESIGN.md §9).  ``None`` on the legacy store.
        self._states_list: Optional[list] = None
        self._prev_states_list: Optional[list] = None
        self._avail = [proc.availability for proc in platform]
        self._need_replan = True

        # Replan policy (DESIGN.md §10): decides which events set
        # ``_need_replan``.
        self._policy = parse_replan_policy(self.options.replan_policy)
        self._policy_churn_always = self._policy.churn_always
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
        # known (``_cal_last``); it stays ``None`` on the sweep oracle and
        # on configurations the calendar does not cover (legacy store,
        # timeline recorder, cohort states provider).
        self._cal: Optional[PlatformCalendar] = None
        self._cal_last: Optional[int] = None
        #: Net state changes of the current boundary, ``(q, old, new)``
        #: ascending — ``None`` when this step must take the sweep path
        #: (no calendar, or the calendar's first boundary).
        self._cal_records = None
        #: Workers with a partial or resident program (mirrors
        #: ``prog_received > 0``): together with the queue hosts these are
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
        #: never mutates them).  ``None`` (the default, and the per-run
        #: oracle) keeps the direct reads.
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
        if self._tbl is not None:
            self._tbl.reset()
            for inst in originals:
                self._tbl.add(inst)
        else:
            self._instances = originals
            for position, inst in enumerate(originals):
                inst.row = position
        self._need_replan = True

    def _live_instances_of(self, task_id: int) -> List[TaskInstance]:
        return [inst for inst in self._instances if inst.task_id == task_id]

    def _list_remove(self, inst: TaskInstance) -> None:
        """Legacy-store removal: O(1) swap-remove by the instance's
        tracked list position (order is never observable — the commit and
        proactive paths iterate in canonical creation/task order)."""
        instances = self._instances
        position = inst.row
        last = instances.pop()
        if last is not inst:
            instances[position] = last
            last.row = position
        inst.row = -1

    def _uncommitted_task_ids(self) -> List[int]:
        return [
            task_id
            for task_id in range(self.app.tasks_per_iteration)
            if task_id not in self._committed
        ]

    @property
    def instance_ops(self) -> int:
        """Structural instance-store mutations so far (benchmark metric;
        0 on the legacy store, which does not count them)."""
        return self._tbl.ops if self._tbl is not None else 0

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
        ``rows_reused``: candidate-set scoring counters from the
        scheduler's persistent score-row store (score evaluations run
        vs. stamped rows reused verbatim — 0/0 for schedulers without
        the store).  The O(churn) claims of the large-p engine are
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

        Requires the array instance store (the body fast paths the
        calendar plugs into), no timeline recorder (a recorder observes
        every slot's full state vector), no cohort states provider (the
        cohort memo *is* the state gather) and a known slot budget
        (``_cal_last`` — heap sentinels are budget-relative).
        """
        return (
            self.options.platform_index == "calendar"
            and self._tbl is not None
            and self.timeline is None
            and self.states_provider is None
            and self._cal_last is not None
        )

    def _queue_hosts(self) -> set:
        """Workers currently holding at least one queued instance.

        Derived from the instance table's live rows — O(live instances),
        independent of p — for the calendar path's busy-worker loops.
        Invariant (audited): a worker appears here iff its queue is
        non-empty, since every live instance with ``worker is not None``
        sits in exactly that worker's queue and every detach
        (``reset_instance``/``crash``/``remove_instance``) clears the
        instance's ``worker`` field in the same step.
        """
        tbl = self._tbl
        objects = tbl.objects
        hosts = set()
        for row in tbl.live_rows().tolist():
            worker = objects[row].worker
            if worker is not None:
                hosts.add(worker)
        return hosts

    # ------------------------------------------------------------------ #
    # Crash / state handling.                                              #
    # ------------------------------------------------------------------ #
    def _handle_states(self, slot: int, states: np.ndarray) -> None:
        prev = self._prev_states
        records = self._cal_records
        if records is not None:
            # Calendar path: the records ARE the boundary snapshot diff
            # (net per-processor changes, ascending) — same re-plan
            # trigger, same events, no O(p) pass.  ``prev`` is never None
            # here: the calendar's first boundary takes the sweep path.
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
        if prev is not None and self._tbl is not None:
            # Fused change detection (array store): one pass over the
            # plain-list state vectors feeds the re-plan trigger and the
            # log loop — same trigger, same events (ascending worker
            # order) as the legacy double ``array_equal``.
            slist = self._states_list
            prev_list = self._prev_states_list
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
        elif prev is not None and not np.array_equal(states, prev):
            up_state = int(ProcState.UP)
            dirty = self._rs_dirty
            hint = self._rs_dirty_hint
            for q in np.nonzero(states != prev)[0].tolist():
                if states[q] == up_state and dirty[q]:
                    hint.append(q)
            churn = (states == int(ProcState.UP)) != (prev == int(ProcState.UP))
            if churn.any():
                if self._policy_churn_always:
                    self._need_replan = True
                else:
                    self._churn_replan(
                        slot, np.nonzero(churn)[0].tolist(), states
                    )
            if self.log.enabled:
                for q in range(len(states)):
                    if states[q] != prev[q]:
                        self.log.emit(
                            SimEvent(
                                slot,
                                EventKind.PROC_STATE_CHANGE,
                                worker=q,
                                detail=(
                                    f"{ProcState(int(prev[q])).code}"
                                    f"->{ProcState(int(states[q])).code}"
                                ),
                            )
                        )
        tbl = self._tbl
        down = int(ProcState.DOWN)
        if tbl is not None:
            # Only workers carrying progress can crash; the filters mirror
            # ``prog_received > 0`` / non-empty queues exactly, so this is
            # the same sweep the legacy loop does, minus the idle workers.
            slist = self._states_list
            prog_started = self._prog_started
            workers = self.workers
            candidates = [
                q
                for q in range(len(slist))
                if slist[q] == down and (prog_started[q] or workers[q].queue)
            ]
        else:
            candidates = [
                q
                for q in range(len(self.workers))
                if states[q] == down
                and (self.workers[q].prog_received or self.workers[q].queue)
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
            if tbl is not None:
                tbl.on_crash(q)
                self._prog_started[q] = False
                self._prog_holders.discard(q)
            for inst in lost:
                self.report.comm_slots_wasted += inst.data_received
                self.report.compute_slots_wasted += inst.compute_done
                self.report.instances_lost_to_crash += 1
                if inst.is_replica:
                    self._destroy_instance(inst)
                elif tbl is not None:
                    reset_instance(inst)  # original returns to the pool
                    tbl.release(inst)
                else:
                    reset_instance(inst)
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
        if self._tbl is not None:
            # Before the queue detach below: destroy reads ``inst.worker``
            # for the computing-row rollback.
            self._tbl.destroy(inst)
        if inst.worker is not None:
            # Destroying a pinned instance moves the worker's delay and
            # pinned count; marking unconditionally is cheap and idempotent.
            if not self._rs_dirty[inst.worker]:
                self._rs_dirty[inst.worker] = 1
                self._rs_dirty_hint.append(inst.worker)
            self.workers[inst.worker].remove_instance(inst)
        reset_instance(inst)
        if self._tbl is None:
            self._list_remove(inst)

    def _churn_replan(self, slot: int, churned, states) -> None:
        """Apply the relaxed replan policy to an UP-set change.

        Called only for non-default policies (the ``event``/``every-slot``
        fast path sets ``_need_replan`` inline).  ``churned`` lists the
        processors whose UP-membership flipped this slot; ``states`` is
        the current state vector (plain list on the array store, ndarray
        on the legacy store).
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
    _STATE_TABLE = (ProcState.UP, ProcState.RECLAIMED, ProcState.DOWN)

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
        The per-worker recompute is the same ``delay_estimate`` the eager
        legacy snapshot calls, so refreshed columns are bit-identical to a
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
        # Plain-list state reads where the array store maintains the list.
        slist = self._states_list if self._tbl is not None else states
        changed: List[int] = []
        delays: List[int] = []
        pinned_counts: List[int] = []
        prog_remainings: List[int] = []
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
        for q in candidates:
            if not dirty[q]:
                continue
            if not eager_all and slist[q] != up:
                continue
            worker = workers[q]
            delay, pinned_count = worker.delay_and_pinned(t_data)
            changed.append(q)
            delays.append(delay)
            pinned_counts.append(pinned_count)
            prog_remaining = worker.t_prog - worker.prog_received
            prog_remainings.append(prog_remaining if prog_remaining > 0 else 0)
            dirty[q] = 0
        # In-place clear: mutation sites may hold a live alias of the
        # hint list; rebinding would strand their appends on a dead list.
        del self._rs_dirty_hint[:]
        self.op_round_refreshed += len(changed)
        if changed:
            # One vectorised scatter per column beats per-element numpy
            # assignments by an order of magnitude at p ≈ 20.
            index = np.array(changed, dtype=np.intp)
            rs.delay[index] = delays
            rs.pinned_count[index] = pinned_counts
            prog = np.array(prog_remainings, dtype=np.int64)
            rs.prog_remaining[index] = prog
            rs.has_program[index] = prog == 0
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

    def _build_context(self, slot: int, states: np.ndarray) -> SchedulingContext:
        views = []
        state_table = self._STATE_TABLE
        for proc, worker in zip(self.platform, self.workers):
            pinned = worker.pinned_instances()
            views.append(
                ProcessorView(
                    index=proc.index,
                    speed_w=proc.speed_w,
                    state=state_table[states[proc.index]],
                    belief=proc.belief,
                    has_program=worker.has_program,
                    delay=worker.delay_estimate(self.app.t_data, pinned),
                    pinned_count=len(pinned),
                    prog_remaining=worker.prog_remaining,
                    pinned_pipeline=tuple(
                        (inst.data_remaining, inst.compute_remaining, inst.computing)
                        for inst in pinned
                    ),
                )
            )
        tbl = self._tbl
        if tbl is not None:
            remaining = int(
                np.count_nonzero(tbl.alive & ~tbl.pinned & (tbl.replica_id == 0))
            )
        else:
            remaining = sum(
                1
                for inst in self._instances
                if not inst.is_replica and not inst.pinned
            )
        return SchedulingContext(
            slot=slot,
            t_prog=self.app.t_prog,
            t_data=self.app.t_data,
            ncom=self.platform.ncom,
            processors=views,
            remaining_tasks=remaining,
            rng=self.rng,
        )

    def _round_is_trivial(self, states: np.ndarray) -> bool:
        """True when a scheduling round could not change anything.

        A round matters only if there is an unpinned original to (re)place,
        an unpinned replica to reconsider, or the replication trigger can
        fire.  Checking this first keeps event-dense runs cheap.  With the
        array store the unpinned and saturation checks read incrementally
        maintained counters (O(1)) instead of scanning the instances.
        """
        tbl = self._tbl
        if tbl is not None:
            if tbl.n_unpinned:
                return False  # something to place or reconsider
        else:
            for inst in self._instances:
                if not inst.pinned:
                    return False
        if self.options.proactive and self._proactive_candidates(states):
            return False
        if not self.options.replication or self.options.max_replicas == 0:
            return True
        up_state = int(ProcState.UP)
        cal = self._cal
        if cal is not None:
            # Calendar path: the UP count is maintained incrementally and
            # an idle UP worker exists iff the UP set is larger than the
            # UP slice of the queue-host set — O(live), never O(p).
            n_uncommitted = tbl.n_uncommitted
            if cal.up_count <= n_uncommitted:
                return True  # replication trigger cannot fire
            slist = self._states_list
            busy_up = sum(
                1 for q in self._queue_hosts() if slist[q] == up_state
            )
            idle = cal.up_count > busy_up
        elif tbl is not None:
            n_uncommitted = tbl.n_uncommitted
            slist = self._states_list
            if slist.count(up_state) <= n_uncommitted:
                return True  # replication trigger cannot fire
            workers = self.workers
            idle = any(
                slist[q] == up_state and not workers[q].queue
                for q in range(len(slist))
            )
        else:
            n_uncommitted = self.app.tasks_per_iteration - len(self._committed)
            up = int(np.count_nonzero(states == up_state))
            if up <= n_uncommitted:
                return True  # replication trigger cannot fire
            idle = any(
                not self.workers[q].queue
                for q in range(len(self.workers))
                if states[q] == up_state
            )
        if not idle:
            return True
        return self._replication_saturated()

    def _replication_saturated(self) -> bool:
        """True when every uncommitted task already carries the maximum
        ``1 + max_replicas`` live instances, so the replication trigger
        has no capacity left regardless of the UP set.  Shared by the
        per-round triviality check and the span glide condition
        (:meth:`_round_glidable`), which must agree on it.  O(1) on the
        array store (the incrementally maintained replication deficit)."""
        if self._tbl is not None:
            return self._tbl.replication_saturated
        max_instances = 1 + self.options.max_replicas
        counts: Dict[int, int] = {}
        for inst in self._instances:
            counts[inst.task_id] = counts.get(inst.task_id, 0) + 1
        for task_id in range(self.app.tasks_per_iteration):
            if (
                task_id not in self._committed
                and counts.get(task_id, 0) < max_instances
            ):
                return False
        return True

    def _proactive_candidates(self, states: np.ndarray) -> List[TaskInstance]:
        """Pinned originals worth terminating under the proactive policy.

        Conditions (conservative, to avoid thrashing): the end-of-iteration
        regime holds (at least as many UP processors as uncommitted tasks),
        the instance's worker is RECLAIMED, and the instance has not
        accumulated the majority of its computation (killing a nearly-done
        task is rarely worth the resent data).  Candidates are returned in
        ascending task order (canonical on both stores: originals are
        unique per task).
        """
        uncommitted = self.app.tasks_per_iteration - len(self._committed)
        tbl = self._tbl
        if self._cal is not None:
            up = self._cal.up_count
        elif tbl is not None:
            up = self._states_list.count(int(ProcState.UP))
        else:
            up = int(np.count_nonzero(states == int(ProcState.UP)))
        if up < uncommitted or up == 0:
            return []
        candidates = []
        reclaimed = int(ProcState.RECLAIMED)
        if tbl is not None:
            slist = self._states_list
            for task_id in tbl.uncommitted_tasks().tolist():
                row = int(tbl.original_row[task_id])
                if row < 0 or not tbl.pinned[row]:
                    continue
                inst = tbl.objects[row]
                host = inst.worker
                if host is None or slist[host] != reclaimed:
                    continue
                if (
                    inst.compute_needed
                    and inst.compute_done * 2 > inst.compute_needed
                ):
                    continue
                candidates.append(inst)
            return candidates
        for inst in self._instances:
            if inst.is_replica or not inst.pinned or inst.worker is None:
                continue
            if states[inst.worker] != reclaimed:
                continue
            if inst.compute_needed and inst.compute_done * 2 > inst.compute_needed:
                continue
            candidates.append(inst)
        candidates.sort(key=lambda inst: inst.task_id)
        return candidates

    def _proactive_round(self, slot: int, states: np.ndarray) -> None:
        for inst in self._proactive_candidates(states):
            self.report.comm_slots_wasted += inst.data_received
            self.report.compute_slots_wasted += inst.compute_done
            if not self._rs_dirty[inst.worker]:  # pinned work discarded
                self._rs_dirty[inst.worker] = 1
                self._rs_dirty_hint.append(inst.worker)
            if self._tbl is not None:
                self._tbl.release(inst)  # reads inst.worker: before detach
            self.workers[inst.worker].remove_instance(inst)
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
        if self._round_is_trivial(states):
            return
        if self.options.proactive:
            self._proactive_round(slot, states)
        self.report.scheduler_rounds += 1
        self._last_round_slot = slot

        # The unpinned instances: the originals to (re)place, in
        # ascending task order, and the replicas the round drops and the
        # replication step possibly recreates.
        tbl = self._tbl
        originals: List[TaskInstance] = []
        replicas: List[TaskInstance] = []
        if tbl is not None:
            objects = tbl.objects
            for row in tbl.unpinned_rows():
                inst = objects[row]
                (replicas if inst.replica_id else originals).append(inst)
        else:
            for inst in self._instances:
                if not inst.pinned:
                    (replicas if inst.replica_id else originals).append(inst)
        originals.sort(key=lambda inst: inst.task_id)

        scheduler = self.scheduler
        if self.options.scheduler_api == "array":
            # With replicas dropped, the unpinned originals are exactly the
            # context's ``m - m'`` remaining tasks.
            rs = self._refresh_round_state(slot, states, len(originals))

            def place_batch(n: int, allowed=None) -> List[Optional[int]]:
                return scheduler.place_array(rs, n, allowed)

        else:
            ctx = self._build_context(slot, states)

            def place_batch(n: int, allowed=None) -> List[Optional[int]]:
                return scheduler.place(ctx, n, allowed)

        placements = place_batch(len(originals))

        # Mutation phase.  Drop the unpinned replicas (the replication
        # step below recreates what is still useful — they carry no
        # progress by definition), purge each touched queue once, and
        # apply the placements.  None of this moves a RoundState column:
        # unpinned instances have zero progress, so they appear in
        # neither Delay nor pinned_count.  On the array store the dropped
        # rows go back to the free list instead of forcing a rebuild.
        touched_hosts: set = set()
        for inst in replicas:
            if inst.worker is not None:
                touched_hosts.add(inst.worker)
                inst.worker = None
            reset_instance(inst)
            if tbl is not None:
                tbl.destroy(inst)
            else:
                self._list_remove(inst)
        for inst in originals:
            if inst.worker is not None:
                touched_hosts.add(inst.worker)
                inst.worker = None
        for host in touched_hosts:
            worker = self.workers[host]
            worker.queue = [other for other in worker.queue if other.pinned]

        for inst, choice in zip(originals, placements):
            self._place(inst, choice, states)

        if self.options.replication and self.options.max_replicas > 0:
            self._replication_round(place_batch, states)

    def _place(
        self, inst: TaskInstance, choice: Optional[int], states: np.ndarray
    ) -> None:
        if choice is None:
            return
        if not 0 <= choice < len(self.workers):
            raise ValueError(
                f"scheduler {self.scheduler.name!r} placed a task on unknown "
                f"processor {choice}"
            )
        slist = self._states_list if self._tbl is not None else states
        if slist[choice] == int(ProcState.DOWN):
            # Refuse placements on DOWN processors (passive schedulers may
            # remember stale choices); leave the instance unplaced.
            return
        worker = self.workers[choice]
        inst.worker = choice
        inst.compute_needed = worker.speed_w
        worker.queue.append(inst)

    def _replication_round(self, place_batch, states: np.ndarray) -> None:
        # Cheap count-based exits before any list is built: mid-iteration
        # rounds leave here on the paper's trigger nearly every time.
        tbl = self._tbl
        if tbl is not None:
            n_uncommitted = tbl.n_uncommitted
        else:
            n_uncommitted = self.app.tasks_per_iteration - len(self._committed)
        if n_uncommitted <= 0:
            return
        up_state = int(ProcState.UP)
        cal = self._cal
        idle_mask = None
        idle = None
        if cal is not None:
            if cal.up_count <= n_uncommitted:
                return  # paper's trigger: more UP than remaining tasks
            # Only queue hosts can be non-idle: mask the (few) busy
            # workers out of the UP vector, and keep the *mask* — the
            # candidate loop below then builds each task's allowed set
            # with O(p) numpy ops instead of O(idle) Python list scans.
            idle_mask = cal.states_np == up_state
            for q in self._queue_hosts():
                idle_mask[q] = False
        elif tbl is not None:
            slist = self._states_list
            if slist.count(up_state) <= n_uncommitted:
                return  # paper's trigger: more UP than remaining tasks
            workers = self.workers
            idle = [
                q
                for q in range(len(slist))
                if slist[q] == up_state and not workers[q].queue
            ]
        elif int(np.count_nonzero(states == up_state)) <= n_uncommitted:
            return  # paper's trigger: more UP processors than remaining tasks
        else:
            idle = [
                q
                for q in range(len(states))
                if states[q] == up_state and not self.workers[q].queue
            ]
        if idle_mask is not None:
            n_idle = int(np.count_nonzero(idle_mask))
            if n_idle == 0:
                return
        elif not idle:
            return
        max_instances = 1 + self.options.max_replicas
        if tbl is not None:
            # The per-task aggregates are maintained incrementally, so no
            # pass over the live instances is needed at all.  Reading them
            # per visited candidate is exact: the loop below only ever
            # *adds* replicas for the task it is visiting, and it never
            # revisits a task.
            live_count = tbl.live_count
            candidates = sorted(
                tbl.uncommitted_tasks().tolist(),
                key=lambda task_id: (int(live_count[task_id]), task_id),
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
                    # allowed form the array schedulers consume (same
                    # candidate set as the legacy ascending list), so no
                    # index materialisation at all per candidate task.
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
                choice = place_batch(1, allowed=allowed)[0]
                if choice is None:
                    continue
                replica = TaskInstance(
                    iteration=self.iteration,
                    task_id=task_id,
                    replica_id=tbl.free_replica_id(task_id),
                    data_needed=self.app.t_data,
                )
                tbl.add(replica)
                self._place(replica, choice, states)
                if replica.worker is not None:
                    self.report.replicas_launched += 1
                    if idle_mask is not None:
                        idle_mask[choice] = False
                        n_idle -= 1
                    else:
                        idle.remove(choice)
                else:
                    tbl.destroy(replica)
            return
        uncommitted = self._uncommitted_task_ids()
        # One pass over the live instances replaces the per-candidate
        # `_live_instances_of` scans: the loop below only ever *adds*
        # replicas for other task ids, so counts/hosts/replica ids taken
        # before the loop stay exact for every candidate it visits.
        counts: Dict[int, int] = {}
        hosts: Dict[int, set] = {}
        replica_ids_of: Dict[int, set] = {}
        for inst in self._instances:
            task_id = inst.task_id
            counts[task_id] = counts.get(task_id, 0) + 1
            if inst.worker is not None:
                hosts.setdefault(task_id, set()).add(inst.worker)
            replica_ids_of.setdefault(task_id, set()).add(inst.replica_id)
        # Least-replicated tasks first; ties toward the lowest task id.
        candidates = sorted(
            uncommitted, key=lambda task_id: (counts.get(task_id, 0), task_id)
        )
        for task_id in candidates:
            if not idle:
                break
            if counts.get(task_id, 0) >= max_instances:
                continue
            task_hosts = hosts.get(task_id, ())
            allowed = [q for q in idle if q not in task_hosts]
            if not allowed:
                continue
            choice = place_batch(1, allowed=allowed)[0]
            if choice is None:
                continue
            replica_ids = replica_ids_of.get(task_id, set())
            replica_id = next(
                rid for rid in range(1, max_instances + 1) if rid not in replica_ids
            )
            replica = TaskInstance(
                iteration=self.iteration,
                task_id=task_id,
                replica_id=replica_id,
                data_needed=self.app.t_data,
            )
            replica.row = len(self._instances)
            self._instances.append(replica)
            self._place(replica, choice, states)
            if replica.worker is not None:
                self.report.replicas_launched += 1
                idle.remove(choice)
            else:
                self._instances.pop()
                replica.row = -1

    # ------------------------------------------------------------------ #
    # Compute step.                                                        #
    # ------------------------------------------------------------------ #
    def _compute_step(self, slot: int, states: np.ndarray) -> None:
        tbl = self._tbl
        up = int(ProcState.UP)
        dirty = self._rs_dirty
        hint = self._rs_dirty_hint
        if self._cal is not None:
            # Calendar path: a queue implies live hosted instances, so
            # the queue-host set (O(live)) filtered to UP is exactly the
            # sweep's candidate list, in the same ascending order.
            slist = self._states_list
            candidates = [
                q for q in sorted(self._queue_hosts()) if slist[q] == up
            ]
        elif tbl is not None:
            # Only UP workers with a queue can compute; the candidate
            # filter replaces the all-workers sweep (same ascending order).
            slist = self._states_list
            workers = self.workers
            candidates = [
                q
                for q in range(len(slist))
                if slist[q] == up and workers[q].queue
            ]
        else:
            candidates = [
                q for q in range(len(self.workers)) if states[q] == up
            ]
        for q in candidates:
            worker = self.workers[q]
            if tbl is not None:
                row = tbl.computing_row[q]
                current = tbl.objects[row] if row >= 0 else None
            else:
                current = worker.computing_instance
            if current is None:
                current = worker.next_compute_target()
                if current is None:
                    continue
                current.computing = True
                if tbl is not None:
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
        if self._tbl is not None:
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
        # creation (uid) order — canonical on both stores: the table's
        # per-task row list appends in creation order, and the legacy
        # list (whose raw order a swap-remove may scramble) sorts.
        if self._tbl is not None:
            siblings = [
                self._tbl.objects[row]
                for row in list(self._tbl.rows_of[inst.task_id])
            ]
        else:
            siblings = sorted(
                self._live_instances_of(inst.task_id),
                key=lambda other: other.uid,
            )
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
    def _gather_requests(
        self, states: np.ndarray
    ) -> tuple[List[TransferRequest], Dict[int, TaskInstance]]:
        """This slot's transfer requests (and data targets) per UP worker."""
        requests: List[TransferRequest] = []
        targets: Dict[int, TaskInstance] = {}
        up = int(ProcState.UP)
        caches = None
        if self._tbl is not None:
            # Both request kinds need a non-empty queue (``wants_program``
            # checks it; a data target comes from it), so the filter is
            # exact — same candidates, same ascending order.  Requests are
            # frozen dataclasses keyed entirely by (worker, kind, started,
            # is_replica), so the per-worker cache reuses them across
            # slots instead of re-validating a fresh object per boundary.
            slist = self._states_list
            all_workers = self.workers
            if self._cal is not None:
                # Calendar path: requests can only come from queue hosts
                # (both request kinds need a non-empty queue) — O(live)
                # candidates in the same ascending order.
                workers = [
                    all_workers[q]
                    for q in sorted(self._queue_hosts())
                    if slist[q] == up
                ]
            else:
                workers = [
                    all_workers[q]
                    for q in range(len(slist))
                    if slist[q] == up and all_workers[q].queue
                ]
            caches = self._request_cache
        else:
            workers = self.workers
        for worker in workers:
            if caches is None and states[worker.index] != up:
                continue  # transfers suspend while RECLAIMED / DOWN
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
            if caches is not None:
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
            else:
                request = TransferRequest(
                    worker=worker.index,
                    kind=kind,
                    started=started,
                    is_replica=is_replica,
                    key=worker.index,
                )
            requests.append(request)
        return requests, targets

    def _transfer_step(self, slot: int, states: np.ndarray) -> None:
        requests, targets = self._gather_requests(states)
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
                    if self._tbl is not None:
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
                    if self._tbl is not None:
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
        elif self._tbl is not None:
            if self._calendar_active():
                # First boundary of a calendar run: full O(p) build, then
                # the sweep fallback handles this step (records = None).
                cal = self._cal = PlatformCalendar(self._avail)
                cal.start(slot, self._cal_last)
                self._states_list = cal.states
                states = cal.states_np
            else:
                # Body fast path: gather states into a Python list (one
                # state_at per source, cursor-backed O(1) on the RLE
                # traces) and wrap it zero-copy for the vectorised
                # consumers.  A cohort-installed provider returns the
                # identical list from a shared per-trial memo (§11).
                provider = self.states_provider
                if provider is None:
                    slist = [source.state_at(slot) for source in self._avail]
                else:
                    slist = provider(slot)
                states = np.frombuffer(bytes(slist), dtype=np.uint8)
                self._states_list = slist
            self._cal_records = None
            self.op_boundary_workers_touched += len(self.workers)
        else:
            states = self.platform.states_at(slot)
            self._cal_records = None
            self.op_boundary_workers_touched += len(self.workers)
        # Counted after the gather: a step aborted by a diverging cohort
        # hook (which raises before any mutation) was never executed.
        self.steps_executed += 1
        self.op_boundaries += 1
        self._pipeline_changed = False
        if self.timeline is not None:
            self.timeline.begin_slot(states)
        self._handle_states(slot, states)

        if self._need_replan or self.options.replan_every_slot:
            self._need_replan = False
            self._scheduling_round(slot, states)

        self._compute_step(slot, states)
        self._transfer_step(slot, states)

        if self.options.audit:
            for worker in self.workers:
                worker.check_invariants()
            if self._tbl is not None:
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

        ``replan_every_slot`` makes every slot a scheduling boundary, so it
        forces the slot loop — span mode would degenerate to zero-length
        spans anyway.  A timeline recorder no longer does: quiet spans
        fill the recorder in batch (:meth:`TimelineRecorder.
        record_quiet_span`), with every availability transition treated as
        a span boundary so the per-slot rows stay bit-identical to slot
        mode.
        """
        if self.options.step_mode == "slot":
            return "slot"
        if self.options.replan_every_slot:
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
        if tbl is not None:
            # O(1): both conditions are incrementally maintained counters.
            if tbl.n_unpinned:
                return False
        else:
            for inst in self._instances:
                # `pinned` inlined (data_received > 0 or computing): this
                # runs at every span boundary, so property-call overhead
                # matters on the legacy store.
                if inst.data_received == 0 and not inst.computing:
                    return False
        if not self.options.replication or self.options.max_replicas == 0:
            return True
        n_uncommitted = (
            self._tbl.n_uncommitted
            if self._tbl is not None
            else self.app.tasks_per_iteration - len(self._committed)
        )
        if n_uncommitted >= len(self.workers):
            # The replication trigger needs strictly more UP processors
            # than uncommitted tasks; with p <= uncommitted it cannot fire
            # for any UP set, and the uncommitted count only moves at
            # commits — which are span boundaries (DESIGN.md §10).
            return True
        return self._replication_saturated()

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
        states = (
            self._prev_states_list
            if self._tbl is not None
            else self._prev_states
        )
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
        tbl = self._tbl
        computing_rows = tbl.computing_row if tbl is not None else None
        objects = tbl.objects if tbl is not None else None
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
            if computing_rows is not None:
                row = computing_rows[q]
                computing = objects[row] if row >= 0 else None
            else:
                computing = worker.computing_instance
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
        workers — queue hosts plus program holders (O(live), from the
        table's rows and the ``_prog_holders`` mirror).  The availability
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
        busy = self._queue_hosts()
        busy.update(self._prog_holders)
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
        if self._cal is not None:
            # Calendar path: a computing row implies a queued instance,
            # so the queue-host set covers every computing worker.
            slist = self._prev_states_list
            computing_row = tbl.computing_row
            computing = [
                (q, tbl.objects[computing_row[q]])
                for q in sorted(self._queue_hosts())
                if slist[q] == up and computing_row[q] >= 0
            ]
        elif tbl is not None:
            slist = self._prev_states_list
            computing_row = tbl.computing_row
            computing = [
                (q, tbl.objects[computing_row[q]])
                for q in range(len(slist))
                if slist[q] == up and computing_row[q] >= 0
            ]
        else:
            computing = []
            for worker in self.workers:
                if states[worker.index] != up:
                    continue
                inst = worker.computing_instance
                if inst is not None:
                    computing.append((worker.index, inst))
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
        states = self._prev_states
        up = int(ProcState.UP)
        requests, _targets = self._gather_requests(states)
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

    def _run_loop(self, budget: int) -> None:
        """Advance the simulation up to ``budget`` slots (either mode)."""
        # The calendar's heap sentinels are budget-relative, so the
        # engine can only engage once the budget is known.
        self._cal_last = budget - 1
        if self._step_mode_effective() == "slot":
            for slot in range(budget):
                finished = self._step(slot)
                self.report.slots_simulated = slot + 1
                if finished:
                    return
            return
        self._next_change_cache = [None] * len(self.workers)
        self._next_up_cache = [None] * len(self.workers)
        self._next_down_cache = [None] * len(self.workers)
        slot = 0
        while slot < budget:
            finished = self._step(slot)
            self.report.slots_simulated = slot + 1
            if finished:
                return
            quiet = self._quiet_span(slot, budget)
            if quiet > 0:
                self._advance_quiet(slot + 1, quiet)
                self.report.slots_simulated = slot + 1 + quiet
            slot += 1 + quiet

    def run(self, max_slots: Optional[int] = None) -> SimulationReport:
        """Run until the target iterations complete (or ``max_slots``).

        Returns:
            The populated :class:`~repro.sim.metrics.SimulationReport`;
            ``report.makespan`` is ``None`` if the slot budget ran out.
        """
        budget = max_slots if max_slots is not None else self.options.max_slots
        budget = require_positive_int(budget, "max_slots")
        self._run_loop(budget)
        self._finalize()
        return self.report

    def run_slots(self, n_slots: int) -> SimulationReport:
        """Simulate exactly ``n_slots`` slots (the Section 3.4 objective).

        Returns:
            The report; ``completed_iterations`` is the objective value.
        """
        n_slots = require_positive_int(n_slots, "n_slots")
        self._run_loop(n_slots)
        self._finalize()
        return self.report

    # ------------------------------------------------------------------ #
    # Resumable runs (the batch engine's seam, DESIGN.md §11).             #
    # ------------------------------------------------------------------ #
    def begin_run(self, max_slots: Optional[int] = None) -> None:
        """Start an incremental run.

        ``begin_run`` / :meth:`advance_until` / :meth:`finish_run`
        replay the exact work sequence of :meth:`run` — one budget
        resolution, one span-cache reset, then the same
        ``_step``/``_quiet_span`` loop — but pausable between loop
        iterations, so a cohort driver can interleave several
        simulations over one shared trace horizon.  The pause points
        touch no simulation state; reports, event logs and audit trails
        are bit-identical to a plain :meth:`run` regardless of where (or
        whether) the run is paused.
        """
        budget = max_slots if max_slots is not None else self.options.max_slots
        self._resume_budget = require_positive_int(budget, "max_slots")
        self._cal_last = self._resume_budget - 1
        self._resume_slot = 0
        self._run_over = False
        if self._step_mode_effective() != "slot":
            # Same reset _run_loop performs on entry.
            self._next_change_cache = [None] * len(self.workers)
            self._next_up_cache = [None] * len(self.workers)
            self._next_down_cache = [None] * len(self.workers)

    def advance_until(self, slot_limit: int) -> bool:
        """Advance until the run ends or the clock reaches ``slot_limit``.

        Replicates ``_run_loop``'s stepping exactly; the only addition is
        the pause check against ``slot_limit`` (span-mode steps may
        overshoot the limit by their quiet span, exactly as ``_run_loop``
        overshoots nothing — the next boundary simply lies beyond it).

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
        slot = self._resume_slot
        # The finally clause persists the loop cursor even when a
        # cohort-shared hook aborts a step by raising (CohortDivergence):
        # ``slot`` still names the aborted step — the states gather at
        # the top of ``_step`` precedes every mutation — so a later
        # advance_until() resumes by re-executing exactly that slot and
        # the run stays bit-identical.
        try:
            if self._step_mode_effective() == "slot":
                while slot < budget:
                    finished = self._step(slot)
                    self.report.slots_simulated = slot + 1
                    slot += 1
                    if finished:
                        self._run_over = True
                        break
                    if slot >= slot_limit:
                        break
            else:
                while slot < budget:
                    finished = self._step(slot)
                    self.report.slots_simulated = slot + 1
                    if finished:
                        self._run_over = True
                        break
                    quiet = self._quiet_span(slot, budget)
                    if quiet > 0:
                        self._advance_quiet(slot + 1, quiet)
                        self.report.slots_simulated = slot + 1 + quiet
                    slot += 1 + quiet
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
        self._finalize()
        return self.report

    def _finalize(self) -> None:
        # Leftover instances at end-of-run are waste.
        if self._tbl is not None:
            leftovers = [
                self._tbl.objects[row] for row in self._tbl.live_rows().tolist()
            ]
        else:
            leftovers = self._instances
        for inst in leftovers:
            self.report.comm_slots_wasted += inst.data_received
            self.report.compute_slots_wasted += inst.compute_done
        if self.options.audit:
            self.network.verify_invariants()

    def _audit_instance_table(self) -> None:
        """Audit-mode cross-check: incremental InstanceTable columns and
        aggregates == a brute-force rebuild from the live objects and
        worker queues (DESIGN.md §9; mirrors :meth:`_audit_round_state`)."""
        tbl = self._tbl
        live = [tbl.objects[row] for row in tbl.live_rows().tolist()]
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
        # Calendar-path invariants (DESIGN.md §12), cheap to verify on
        # every store: the busy-worker mirrors behind the O(busy) span
        # search must match the queues exactly.
        hosts = self._queue_hosts()
        for q, worker in enumerate(self.workers):
            assert (q in hosts) == bool(worker.queue), (
                f"worker {q}: queue-host derivation drifted"
            )
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
