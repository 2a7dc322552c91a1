"""The Section 4 worked example: MCT is not optimal when ``ncom`` is finite.

The paper ends Section 4 with a two-processor instance showing that the
greedy of Proposition 2 loses its optimality as soon as the channel budget
binds: ``Tprog = Tdata = 2``, two tasks, two identical processors with
``w = 2``, ``ncom = 1``, and availability vectors

* :math:`S_1` = ``uuuuuurrr`` (UP for six slots, then reclaimed),
* :math:`S_2` = ``ruuuuuuuu`` (reclaimed one slot, then UP).

The optimal schedule *waits one slot* and then serves only :math:`P_2`:
program on slots 1–2, data for the first task on slots 3–4, compute on 5–6
overlapped with the second task's data, compute on 7–8 — both tasks done
in 9 slots.  MCT, greedy and contention-blind, starts :math:`P_1`
immediately and cannot finish by slot 9.

:func:`analyze` packages the full comparison: the exact solver confirms the
optimal makespan of 9, and the online simulator running the MCT heuristic
on the same (extended) traces shows the realised makespan of the greedy
choice.  The extension appends UP slots to :math:`S_1` after the reclaimed
window so MCT's run terminates with a finite (and strictly worse) makespan
instead of stalling forever.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact import exact_offline_makespan
from .instance import OfflineInstance
from .mct import offline_mct

__all__ = [
    "paper_counterexample",
    "extended_counterexample",
    "CounterexampleAnalysis",
    "online_setup",
    "analyze",
]

#: The paper's availability vectors (9 slots, 1-indexed in the text).
S1_CODES = "uuuuuurrr"
S2_CODES = "ruuuuuuuu"


def paper_counterexample() -> OfflineInstance:
    """The exact instance from the end of Section 4."""
    return OfflineInstance.from_codes(
        [S1_CODES, S2_CODES],
        t_prog=2,
        t_data=2,
        speeds=2,
        ncom=1,
        m=2,
    )


def extended_counterexample(extra_up_slots: int = 6) -> OfflineInstance:
    """The same instance with :math:`P_1` returning UP after its preemption.

    Appending UP slots (to both processors) lets greedy schedules that
    stranded work on :math:`P_1` eventually finish, so their makespan can
    be *measured* rather than just declared infeasible.
    """
    if extra_up_slots < 0:
        raise ValueError("extra_up_slots must be >= 0")
    return OfflineInstance.from_codes(
        [S1_CODES + "u" * extra_up_slots, S2_CODES + "u" * extra_up_slots],
        t_prog=2,
        t_data=2,
        speeds=2,
        ncom=1,
        m=2,
    )


@dataclass(frozen=True)
class CounterexampleAnalysis:
    """Comparison of optimal vs MCT on the counterexample.

    Attributes:
        optimal_makespan: exact optimum on the paper's 9-slot instance
            (the paper states 9).
        mct_online_makespan: makespan of the online MCT heuristic on the
            extended traces (strictly greater than 9).
        mct_first_choice_processor: the processor offline MCT assigns the
            first task to (the paper argues it is :math:`P_1`, index 0).
    """

    optimal_makespan: int
    mct_online_makespan: int
    mct_first_choice_processor: int


def online_setup(extra_up_slots: int = 6):
    """The extended instance as simulator inputs.

    Returns:
        ``(platform, app, max_slots)``: the trace-driven platform, the
        one-iteration application and the slot budget (horizon + 1) of
        the online MCT run in :func:`analyze`.
    """
    from ...sim.platform import Platform, Processor
    from ...workload.application import IterativeApplication

    extended = extended_counterexample(extra_up_slots)
    processors = [
        Processor.from_trace(q, extended.speeds[q], extended.traces[q])
        for q in range(extended.p)
    ]
    platform = Platform(processors, ncom=extended.ncom)
    app = IterativeApplication(
        tasks_per_iteration=extended.m,
        iterations=1,
        t_prog=extended.t_prog,
        t_data=extended.t_data,
    )
    return platform, app, extended.horizon + 1


def analyze(extra_up_slots: int = 6) -> CounterexampleAnalysis:
    """Run the complete counterexample comparison.

    Returns the exact optimum (expected: 9), the online-MCT realised
    makespan on the extended instance (expected: > 9), and offline MCT's
    first-task choice (expected: processor 0, i.e. :math:`P_1`).
    """
    # Exact optimum on the paper's instance.
    exact = exact_offline_makespan(paper_counterexample())
    if exact.makespan is None:  # pragma: no cover - the instance is feasible
        raise RuntimeError("exact solver failed on the paper counterexample")

    # Offline MCT's first decision: evaluate both single-task completion
    # times on the original traces; the greedy picks the smaller.
    instance = paper_counterexample()
    mct_result = offline_mct(instance)
    # The greedy assigns both tasks; its *first* choice is the processor
    # with the smaller single-task completion slot.
    from .mct import pipeline_completion_slot

    t1 = pipeline_completion_slot(instance, 0, 1)
    t2 = pipeline_completion_slot(instance, 1, 1)
    first_choice = 0 if (t1 is not None and (t2 is None or t1 <= t2)) else 1
    del mct_result  # the assignment itself is exercised in tests

    # Online MCT on the extended instance.
    from ...sim.master import MasterSimulator, SimulatorOptions
    from ..heuristics.mct import MctScheduler

    platform, app, budget = online_setup(extra_up_slots)
    sim = MasterSimulator(
        platform,
        app,
        MctScheduler(),
        options=SimulatorOptions(replication=False, audit=True),
    )
    report = sim.run(max_slots=budget)
    mct_makespan = report.makespan if report.makespan is not None else budget

    return CounterexampleAnalysis(
        optimal_makespan=exact.makespan,
        mct_online_makespan=mct_makespan,
        mct_first_choice_processor=first_choice,
    )
