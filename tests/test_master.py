"""Golden tests for the master simulator on hand-computable scenarios.

Every expected makespan below was derived by hand from the model rules
(DESIGN.md §3): program then data then compute, transfers/compute only on
UP slots, compute starts the slot after its data completes, prefetch
overlaps computation, RECLAIMED freezes, DOWN wipes.
"""

import numpy as np
import pytest

from repro.core.heuristics.mct import MctScheduler
from repro.sim.events import EventKind, EventLog
from repro.sim.master import MasterSimulator, SimulatorOptions, simulate
from repro.sim.platform import Platform, Processor
from repro.sim.worker import TaskInstance
from repro.types import states_from_codes
from repro.workload.application import IterativeApplication


def trace_platform(codes_list, speeds, ncom=1):
    processors = [
        Processor.from_trace(q, speeds[q], states_from_codes(codes))
        for q, codes in enumerate(codes_list)
    ]
    return Platform(processors, ncom=ncom)


def run(platform, app, *, scheduler=None, options=None, log=None, max_slots=500):
    sim = MasterSimulator(
        platform,
        app,
        scheduler or MctScheduler(),
        options=options or SimulatorOptions(audit=True),
        rng=np.random.default_rng(0),
        log=log,
    )
    return sim.run(max_slots=max_slots)


class TestSingleWorkerTimelines:
    def test_one_task_sequential_pipeline(self):
        # Tprog + Tdata + w = 3 + 2 + 2 = 7 slots.
        report = run(
            trace_platform(["u" * 50], [2]),
            IterativeApplication(tasks_per_iteration=1, iterations=1,
                                 t_prog=3, t_data=2),
        )
        assert report.makespan == 7
        assert report.tasks_committed == 1

    def test_two_tasks_overlap_data_with_compute(self):
        # Second task's data prefetches during the first compute:
        # 3 + 2 + 2 + max(2, 2) = 9 slots.
        report = run(
            trace_platform(["u" * 50], [2]),
            IterativeApplication(tasks_per_iteration=2, iterations=1,
                                 t_prog=3, t_data=2),
        )
        assert report.makespan == 9

    def test_compute_bound_pipeline(self):
        # w > Tdata: 2 + 1 + 4 + 4 + 4 = 15 slots for three tasks.
        report = run(
            trace_platform(["u" * 50], [4]),
            IterativeApplication(tasks_per_iteration=3, iterations=1,
                                 t_prog=2, t_data=1),
        )
        assert report.makespan == 15

    def test_comm_bound_pipeline(self):
        # Tdata > w: 2 + 3 + 1 + (3 + 1 is pipelined to max=3) -> 2+3+1+3+1=...
        # Timeline: prog 0-1, data1 2-4, comp1 5, data2 5-7, comp2 8,
        # data3 8-10, comp3 11 -> makespan 12.
        report = run(
            trace_platform(["u" * 50], [1]),
            IterativeApplication(tasks_per_iteration=3, iterations=1,
                                 t_prog=2, t_data=3),
        )
        assert report.makespan == 12

    def test_zero_t_data(self):
        # Tdata = 0: tasks need no channel; 2 + 3×1 = 5 slots.
        report = run(
            trace_platform(["u" * 50], [1]),
            IterativeApplication(tasks_per_iteration=3, iterations=1,
                                 t_prog=2, t_data=0),
        )
        assert report.makespan == 5

    def test_reclaimed_pause_delays_completion(self):
        # prog 0-1, slot 2 reclaimed (nothing), compute slot 3 -> makespan 4.
        report = run(
            trace_platform(["uuru" + "u" * 30], [1]),
            IterativeApplication(tasks_per_iteration=1, iterations=1,
                                 t_prog=2, t_data=0),
        )
        assert report.makespan == 4

    def test_down_wipes_program(self):
        # prog 0-1 received, DOWN at 2 wipes it; re-sent 3-4; compute 5.
        report = run(
            trace_platform(["uud" + "u" * 30], [1]),
            IterativeApplication(tasks_per_iteration=1, iterations=1,
                                 t_prog=2, t_data=0),
        )
        assert report.makespan == 6
        assert report.instances_lost_to_crash == 1
        assert report.comm_slots_wasted >= 2  # the lost program transfer


class TestIterations:
    def test_program_survives_iteration_boundary(self):
        # It1: prog 0-2, data 3, comp 4. It2: data 5, comp 6 -> makespan 7.
        report = run(
            trace_platform(["u" * 50], [1]),
            IterativeApplication(tasks_per_iteration=1, iterations=2,
                                 t_prog=3, t_data=1),
        )
        assert report.makespan == 7
        assert report.completed_iterations == 2
        assert report.iteration_end_slots == [4, 6]

    def test_iteration_durations(self):
        report = run(
            trace_platform(["u" * 50], [1]),
            IterativeApplication(tasks_per_iteration=1, iterations=2,
                                 t_prog=3, t_data=1),
        )
        assert report.iteration_durations == [5, 2]

    def test_makespan_monotone_in_iterations(self):
        def makespan(iterations):
            return run(
                trace_platform(["u" * 200], [2]),
                IterativeApplication(tasks_per_iteration=2,
                                     iterations=iterations,
                                     t_prog=2, t_data=1),
            ).makespan

        values = [makespan(i) for i in (1, 2, 3, 4)]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestDynamicReassignment:
    def test_task_migrates_to_freed_fast_worker(self):
        # Two workers, ncom=1, Tprog=2, Tdata=0, w=1, m=2.  P0 serves
        # first; after its commit the second task migrates back to P0
        # (which holds the program) instead of waiting for P1's program.
        log = EventLog()
        report = run(
            trace_platform(["u" * 30, "u" * 30], [1, 1], ncom=1),
            IterativeApplication(tasks_per_iteration=2, iterations=1,
                                 t_prog=2, t_data=0),
            log=log,
        )
        assert report.makespan == 4
        commits = log.of_kind(EventKind.TASK_COMMIT)
        # Both tasks are committed by P0 (replicas may also have run on P1).
        original_commits = [e for e in commits if not e.replica_id]
        assert {e.worker for e in original_commits} == {0}

    def test_replication_kicks_in_when_up_exceeds_tasks(self):
        # One task, two UP workers: the idle one receives a replica.
        report = run(
            trace_platform(["u" * 30, "u" * 30], [5, 1], ncom=2),
            IterativeApplication(tasks_per_iteration=1, iterations=1,
                                 t_prog=1, t_data=1),
        )
        assert report.replicas_launched >= 1
        assert report.tasks_committed == 1

    def test_replication_disabled(self):
        report = run(
            trace_platform(["u" * 30, "u" * 30], [5, 1], ncom=2),
            IterativeApplication(tasks_per_iteration=1, iterations=1,
                                 t_prog=1, t_data=1),
            options=SimulatorOptions(replication=False, audit=True),
        )
        assert report.replicas_launched == 0

    def test_replica_saves_makespan_when_original_stalls(self):
        # P0 is fast but gets reclaimed forever after slot 1 (before it can
        # compute); P1 is slow but UP throughout.  With replication the
        # replica on P1 commits; without it the run stalls.
        app = IterativeApplication(tasks_per_iteration=1, iterations=1,
                                   t_prog=1, t_data=1)
        stalled = trace_platform(["uu" + "r" * 62, "u" * 64], [1, 8], ncom=2)
        with_rep = run(stalled, app,
                       options=SimulatorOptions(replication=True, audit=True),
                       max_slots=64)
        assert with_rep.makespan == 10  # P1: prog 0, data 1, compute 2-9
        stalled2 = trace_platform(["uu" + "r" * 62, "u" * 64], [1, 8], ncom=2)
        without = run(stalled2, app,
                      options=SimulatorOptions(replication=False, audit=True),
                      max_slots=64)
        assert without.makespan is None  # original stuck on reclaimed P0


class TestRunSlots:
    def test_counts_iterations_within_budget(self):
        report = MasterSimulator(
            trace_platform(["u" * 100], [1]),
            IterativeApplication(tasks_per_iteration=1, iterations=50,
                                 t_prog=2, t_data=1),
            MctScheduler(),
            options=SimulatorOptions(audit=True),
        ).run_slots(10)
        # prog 0-1 then per iteration data+compute = 2 slots: slots 2..9 -> 4.
        assert report.completed_iterations == 4
        assert report.makespan is None
        assert report.slots_simulated == 10

    def test_stops_early_when_target_reached(self):
        report = MasterSimulator(
            trace_platform(["u" * 100], [1]),
            IterativeApplication(tasks_per_iteration=1, iterations=1,
                                 t_prog=1, t_data=0),
            MctScheduler(),
        ).run_slots(50)
        assert report.makespan == 2
        assert report.slots_simulated == 2


class TestAccounting:
    def test_compute_slots_spent(self):
        report = run(
            trace_platform(["u" * 50], [3]),
            IterativeApplication(tasks_per_iteration=2, iterations=1,
                                 t_prog=1, t_data=1),
        )
        assert report.compute_slots_spent == 6  # 2 tasks × w=3

    def test_comm_slots_spent(self):
        report = run(
            trace_platform(["u" * 50], [3]),
            IterativeApplication(tasks_per_iteration=2, iterations=1,
                                 t_prog=1, t_data=2),
        )
        assert report.comm_slots_spent == 1 + 2 * 2  # prog + 2 × data

    def test_no_waste_on_clean_run(self):
        report = run(
            trace_platform(["u" * 50], [2]),
            IterativeApplication(tasks_per_iteration=2, iterations=1,
                                 t_prog=1, t_data=1),
        )
        assert report.compute_slots_wasted == 0
        assert report.waste_fraction == 0.0

    def test_summary_mentions_heuristic(self):
        report = run(
            trace_platform(["u" * 50], [2]),
            IterativeApplication(tasks_per_iteration=1, iterations=1,
                                 t_prog=1, t_data=1),
        )
        assert "mct" in report.summary()


class TestEventLog:
    def test_event_sequence_for_simple_run(self):
        log = EventLog()
        run(
            trace_platform(["u" * 50], [1]),
            IterativeApplication(tasks_per_iteration=1, iterations=1,
                                 t_prog=2, t_data=1),
            log=log,
        )
        kinds = [e.kind for e in log.events]
        assert kinds == [
            EventKind.PROGRAM_TRANSFER_START,
            EventKind.PROGRAM_TRANSFER_DONE,
            EventKind.DATA_TRANSFER_START,
            EventKind.DATA_TRANSFER_DONE,
            EventKind.COMPUTE_START,
            EventKind.TASK_COMMIT,
            EventKind.ITERATION_DONE,
            EventKind.RUN_DONE,
        ]

    def test_program_transfer_slots(self):
        log = EventLog()
        run(
            trace_platform(["u" * 50], [1]),
            IterativeApplication(tasks_per_iteration=1, iterations=1,
                                 t_prog=3, t_data=0),
            log=log,
        )
        start = log.of_kind(EventKind.PROGRAM_TRANSFER_START)[0]
        done = log.of_kind(EventKind.PROGRAM_TRANSFER_DONE)[0]
        assert start.slot == 0
        assert done.slot == 2

    def test_state_change_logged(self):
        log = EventLog()
        run(
            trace_platform(["uru" + "u" * 30], [1]),
            IterativeApplication(tasks_per_iteration=1, iterations=1,
                                 t_prog=1, t_data=0),
            log=log,
        )
        changes = log.of_kind(EventKind.PROC_STATE_CHANGE)
        assert changes and changes[0].detail == "u->r"


class TestGuards:
    def test_unfinishable_run_returns_none_makespan(self):
        report = run(
            trace_platform(["rrrr"], [1]),  # never UP (pads DOWN after)
            IterativeApplication(tasks_per_iteration=1, iterations=1,
                                 t_prog=1, t_data=0),
            max_slots=20,
        )
        assert report.makespan is None
        assert report.completed_iterations == 0

    def test_simulate_wrapper(self):
        report = simulate(
            trace_platform(["u" * 20], [1]),
            IterativeApplication(tasks_per_iteration=1, iterations=1,
                                 t_prog=1, t_data=0),
            MctScheduler(),
            max_slots=20,
        )
        assert report.makespan == 2

    def test_rejects_bad_max_slots(self):
        with pytest.raises(ValueError):
            run(
                trace_platform(["u" * 20], [1]),
                IterativeApplication(tasks_per_iteration=1, iterations=1,
                                     t_prog=1, t_data=0),
                max_slots=0,
            )


class TestOptionValidation:
    @pytest.mark.parametrize("field", ["replication", "proactive", "audit"])
    @pytest.mark.parametrize("value", ["no", "", 0, 1, None, np.bool_(True)])
    def test_rejects_non_bool_flags(self, field, value):
        with pytest.raises(TypeError, match=f"{field} must be a bool"):
            SimulatorOptions(**{field: value})

    @pytest.mark.parametrize("field", ["replication", "proactive", "audit"])
    def test_accepts_bools(self, field):
        for value in (True, False):
            assert getattr(SimulatorOptions(**{field: value}), field) is value


class TestBusyRoster:
    """The master's busy-worker roster mirrors the non-empty queues."""

    def _sim(self):
        return MasterSimulator(
            trace_platform(["u" * 40, "u" * 40], [2, 2]),
            IterativeApplication(tasks_per_iteration=1, iterations=2,
                                 t_prog=2, t_data=1),
            MctScheduler(),
            options=SimulatorOptions(audit=True, replication=False),
            rng=np.random.default_rng(0),
        )

    def test_roster_tracks_queues_through_a_run(self):
        sim = self._sim()
        sim.begin_run(40)
        sim.advance_until(1)
        assert sim._busy == {q for q, w in enumerate(sim.workers) if w.queue}
        assert sim._busy  # the task is queued somewhere
        sim.advance_until(40)
        sim.finish_run()
        assert sim._busy == set()  # every queue drained at the last commit

    def test_audit_catches_a_queue_appended_behind_the_roster(self):
        sim = self._sim()
        sim.begin_run(40)
        sim.advance_until(1)
        sim._audit_instance_table()  # consistent so far
        idle = next(worker for worker in sim.workers if not worker.queue)
        stray = TaskInstance(iteration=0, task_id=0, replica_id=1,
                             data_needed=1)
        stray.worker = idle.index
        idle.queue.append(stray)
        with pytest.raises(AssertionError, match="busy roster"):
            sim._audit_instance_table()

    def test_span_search_leaves_the_roster_alone(self):
        sim = self._sim()
        sim.begin_run(40)
        sim.advance_until(1)
        assert sim._cal is not None  # the calendar span search runs
        before = set(sim._busy)
        idle = next(q for q, worker in enumerate(sim.workers) if not worker.queue)
        sim._prog_holders.add(idle)  # as for a resident program, empty queue
        sim._need_replan = sim._pipeline_changed = False
        sim.op_span_scan_workers = 0
        sim._quiet_span_cal(sim._resume_slot - 1, 40)
        assert sim.op_span_scan_workers == len(before) + 1  # visited both
        assert sim._busy == before
