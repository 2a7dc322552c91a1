"""Golden outcomes: fixed results pinned across commits.

The differential suite compares the fast simulator with the reference
simulator; this file compares *both* against numbers recorded once, so a
change that shifts the two together still fails here.  Each row is one
run of a registry heuristic (the 17 paper heuristics, the passive and
exact-UD ablations, and the clairvoyant bound) on a fixed scenario under
one objective:

* ``run`` — :meth:`MasterSimulator.run` to the scenario's 10 iterations;
* ``slots`` — :meth:`MasterSimulator.run_slots` for the scenario's slot
  budget, which ends every run before its last iteration.

The values are ``(makespan, completed_iterations, scheduler_rounds,
replicas_launched)``.  Regenerate them only for a change that is meant to
alter results, with ``PYTHONPATH=src python tests/test_golden_outcomes.py``.
"""

import numpy as np
import pytest

from repro.core.heuristics.mct import MctScheduler
from repro.core.heuristics.registry import (
    HEURISTIC_FACTORIES,
    PAPER_HEURISTICS,
    make_scheduler,
)
from repro.core.offline.counterexample import analyze, online_setup
from repro.sim.master import MasterSimulator, SimulatorOptions
from repro.sim.reference import ReferenceSimulator
from repro.workload.scenarios import ScenarioGenerator

SIMULATORS = {"fast": MasterSimulator, "reference": ReferenceSimulator}

#: ``(root_seed, (n, ncom, wmin, index), trial, slot_budget)`` of the two
#: scenarios.
SCENARIOS = {
    "small": (12061, (5, 5, 1, 0), 0, 60),
    "p20": (7, (20, 10, 3, 1), 1, 600),
}
MAX_SLOTS = 200_000

GOLDEN = {
    ('small', 'random', 'run'): (96, 10, 70, 109),
    ('small', 'random1', 'run'): (109, 10, 77, 113),
    ('small', 'random2', 'run'): (110, 10, 75, 120),
    ('small', 'random3', 'run'): (98, 10, 71, 125),
    ('small', 'random4', 'run'): (92, 10, 66, 114),
    ('small', 'random1w', 'run'): (77, 10, 60, 86),
    ('small', 'random2w', 'run'): (81, 10, 59, 82),
    ('small', 'random3w', 'run'): (82, 10, 63, 91),
    ('small', 'random4w', 'run'): (81, 10, 61, 83),
    ('small', 'mct', 'run'): (71, 10, 58, 93),
    ('small', 'mct*', 'run'): (71, 10, 58, 93),
    ('small', 'emct', 'run'): (75, 10, 53, 80),
    ('small', 'emct*', 'run'): (75, 10, 53, 80),
    ('small', 'lw', 'run'): (79, 10, 58, 106),
    ('small', 'lw*', 'run'): (79, 10, 58, 106),
    ('small', 'ud', 'run'): (81, 10, 57, 92),
    ('small', 'ud*', 'run'): (81, 10, 57, 92),
    ('small', 'passive', 'run'): (112, 10, 78, 172),
    ('small', 'ud*-exact', 'run'): (78, 10, 56, 102),
    ('small', 'ud-exact', 'run'): (78, 10, 56, 102),
    ('small', 'clairvoyant', 'run'): (68, 10, 52, 90),
    ('small', 'random', 'slots'): (None, 4, 41, 64),
    ('small', 'random1', 'slots'): (None, 3, 40, 54),
    ('small', 'random2', 'slots'): (None, 3, 37, 65),
    ('small', 'random3', 'slots'): (None, 3, 40, 64),
    ('small', 'random4', 'slots'): (None, 4, 41, 67),
    ('small', 'random1w', 'slots'): (None, 6, 46, 75),
    ('small', 'random2w', 'slots'): (None, 6, 44, 64),
    ('small', 'random3w', 'slots'): (None, 6, 47, 72),
    ('small', 'random4w', 'slots'): (None, 6, 44, 65),
    ('small', 'mct', 'slots'): (None, 7, 48, 84),
    ('small', 'mct*', 'slots'): (None, 7, 48, 84),
    ('small', 'emct', 'slots'): (None, 7, 43, 73),
    ('small', 'emct*', 'slots'): (None, 7, 43, 73),
    ('small', 'lw', 'slots'): (None, 6, 46, 90),
    ('small', 'lw*', 'slots'): (None, 6, 46, 90),
    ('small', 'ud', 'slots'): (None, 5, 43, 75),
    ('small', 'ud*', 'slots'): (None, 5, 43, 75),
    ('small', 'passive', 'slots'): (None, 4, 43, 96),
    ('small', 'ud*-exact', 'slots'): (None, 6, 43, 84),
    ('small', 'ud-exact', 'slots'): (None, 6, 43, 84),
    ('small', 'clairvoyant', 'slots'): (None, 8, 45, 83),
    ('p20', 'random', 'run'): (905, 10, 568, 454),
    ('p20', 'random1', 'run'): (780, 10, 485, 371),
    ('p20', 'random2', 'run'): (737, 10, 453, 332),
    ('p20', 'random3', 'run'): (739, 10, 463, 323),
    ('p20', 'random4', 'run'): (876, 10, 513, 430),
    ('p20', 'random1w', 'run'): (678, 10, 434, 403),
    ('p20', 'random2w', 'run'): (730, 10, 461, 350),
    ('p20', 'random3w', 'run'): (721, 10, 471, 397),
    ('p20', 'random4w', 'run'): (689, 10, 429, 367),
    ('p20', 'mct', 'run'): (643, 10, 401, 308),
    ('p20', 'mct*', 'run'): (643, 10, 401, 308),
    ('p20', 'emct', 'run'): (654, 10, 413, 279),
    ('p20', 'emct*', 'run'): (654, 10, 413, 279),
    ('p20', 'lw', 'run'): (731, 10, 465, 362),
    ('p20', 'lw*', 'run'): (731, 10, 465, 362),
    ('p20', 'ud', 'run'): (700, 10, 444, 351),
    ('p20', 'ud*', 'run'): (700, 10, 444, 351),
    ('p20', 'passive', 'run'): (1278, 10, 739, 639),
    ('p20', 'ud*-exact', 'run'): (735, 10, 446, 384),
    ('p20', 'ud-exact', 'run'): (735, 10, 446, 384),
    ('p20', 'clairvoyant', 'run'): (610, 10, 403, 301),
    ('p20', 'random', 'slots'): (None, 5, 357, 281),
    ('p20', 'random1', 'slots'): (None, 7, 373, 281),
    ('p20', 'random2', 'slots'): (None, 7, 367, 246),
    ('p20', 'random3', 'slots'): (None, 7, 382, 242),
    ('p20', 'random4', 'slots'): (None, 5, 335, 239),
    ('p20', 'random1w', 'slots'): (None, 8, 382, 348),
    ('p20', 'random2w', 'slots'): (None, 7, 387, 307),
    ('p20', 'random3w', 'slots'): (None, 7, 399, 322),
    ('p20', 'random4w', 'slots'): (None, 7, 374, 285),
    ('p20', 'mct', 'slots'): (None, 8, 378, 281),
    ('p20', 'mct*', 'slots'): (None, 8, 378, 281),
    ('p20', 'emct', 'slots'): (None, 8, 374, 248),
    ('p20', 'emct*', 'slots'): (None, 8, 374, 248),
    ('p20', 'lw', 'slots'): (None, 7, 380, 283),
    ('p20', 'lw*', 'slots'): (None, 7, 380, 283),
    ('p20', 'ud', 'slots'): (None, 7, 379, 296),
    ('p20', 'ud*', 'slots'): (None, 7, 379, 296),
    ('p20', 'passive', 'slots'): (None, 4, 352, 221),
    ('p20', 'ud*-exact', 'slots'): (None, 7, 364, 288),
    ('p20', 'ud-exact', 'slots'): (None, 7, 364, 288),
    ('p20', 'clairvoyant', 'slots'): (None, 9, 398, 295),
}


def outcome(scenario_name, heuristic, objective, simulator="fast"):
    seed, cell, trial, slot_budget = SCENARIOS[scenario_name]
    scenario = ScenarioGenerator(seed).scenario(*cell)
    platform = scenario.build_platform(trial)
    sim = SIMULATORS[simulator](
        platform,
        scenario.app,
        make_scheduler(heuristic, platform=platform),
        rng=scenario.scheduler_rng(trial, heuristic),
    )
    if objective == "run":
        report = sim.run(max_slots=MAX_SLOTS)
    else:
        report = sim.run_slots(slot_budget)
    return (
        report.makespan,
        report.completed_iterations,
        report.scheduler_rounds,
        report.replicas_launched,
    )


#: Paper heuristics first, then the rest of the registry and the
#: clairvoyant bound.
HEURISTICS = list(PAPER_HEURISTICS) + sorted(
    set(HEURISTIC_FACTORIES) - set(PAPER_HEURISTICS)
) + ["clairvoyant"]

CASES = [
    (scenario_name, heuristic, objective)
    for scenario_name in SCENARIOS
    for objective in ("run", "slots")
    for heuristic in HEURISTICS
]


def test_golden_table_covers_every_case():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize(
    "scenario_name,heuristic,objective",
    CASES,
    ids=["-".join(case) for case in CASES],
)
def test_golden_outcome(scenario_name, heuristic, objective):
    expected = GOLDEN[(scenario_name, heuristic, objective)]
    for simulator in SIMULATORS:
        got = outcome(scenario_name, heuristic, objective, simulator)
        assert got == expected, simulator


def test_worked_example_online_mct():
    """The §4 worked example's online MCT run (replication off, audit on)
    reaches the same makespan on the reference as in ``analyze``."""
    platform, app, budget = online_setup()
    sim = ReferenceSimulator(
        platform,
        app,
        MctScheduler(),
        options=SimulatorOptions(replication=False, audit=True),
        rng=np.random.default_rng(0),
    )
    report = sim.run(max_slots=budget)
    makespan = report.makespan if report.makespan is not None else budget
    assert makespan == analyze().mct_online_makespan > 9


if __name__ == "__main__":
    print("GOLDEN = {")
    for case in CASES:
        print(f"    {case!r}: {outcome(*case)!r},")
    print("}")
