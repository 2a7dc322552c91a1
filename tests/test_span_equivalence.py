"""Span-stepped vs slot-stepped oracle equivalence (DESIGN.md §6).

The span-stepped simulator core must be *bit-identical* to the
slot-stepped oracle loop: same :class:`~repro.sim.metrics.
SimulationReport`, same event log, same network audit trail — across the
paper grid, both objectives (``run`` and ``run_slots``), deterministic
and randomised heuristics, simulator option variants, and the
non-Markovian mismatch sources.  Any divergence here means the span
logic skipped an observable event.
"""

import numpy as np
import pytest

from repro.core.heuristics.base import Scheduler
from repro.core.heuristics.registry import HEURISTIC_FACTORIES, make_scheduler
from repro.core.markov import paper_random_model
from repro.rng import RngFactory
from repro.sim.availability import SemiMarkovSource, WeibullSource
from repro.sim.events import EventLog
from repro.sim.master import MasterSimulator, SimulatorOptions
from repro.sim.platform import Platform, Processor
from repro.types import ProcState
from repro.workload.application import IterativeApplication
from repro.workload.scenarios import ScenarioGenerator

ALL_HEURISTICS = sorted(HEURISTIC_FACTORIES) + ["clairvoyant"]


def run_both(build_platform, app, heuristic, *, options_kwargs=None,
             objective="run", budget=40_000, scheduler_seed=7,
             with_log=True):
    """Run span and slot modes on identical inputs; return both outcomes."""
    outcomes = {}
    for mode in ("slot", "span"):
        platform = build_platform()
        log = EventLog(enabled=with_log)
        options = SimulatorOptions(step_mode=mode, **(options_kwargs or {}))
        sim = MasterSimulator(
            platform,
            app,
            make_scheduler(heuristic, platform=platform),
            options=options,
            rng=np.random.default_rng(scheduler_seed),
            log=log,
        )
        if objective == "run":
            report = sim.run(max_slots=budget)
        else:
            report = sim.run_slots(budget)
        outcomes[mode] = (report, log.events, sim.network.usage)
    return outcomes


def assert_identical(outcomes):
    slot_report, slot_events, slot_usage = outcomes["slot"]
    span_report, span_events, span_usage = outcomes["span"]
    assert span_report == slot_report
    assert span_events == slot_events
    assert span_usage == slot_usage


GRID_SAMPLE = [(5, 5, 1), (10, 5, 3), (20, 10, 5)]


class TestPaperGridOracle:
    """Sweep a sample of the Table 2 grid in both modes."""

    @pytest.mark.parametrize("cell", GRID_SAMPLE)
    @pytest.mark.parametrize("heuristic", ["emct*", "mct", "random2w"])
    def test_run_objective_bit_identical(self, cell, heuristic):
        scenario = ScenarioGenerator(12061).scenario(*cell, 0)
        outcomes = {}
        for mode in ("slot", "span"):
            platform = scenario.build_platform(0)
            log = EventLog(enabled=True)
            sim = MasterSimulator(
                platform,
                scenario.app,
                make_scheduler(heuristic, platform=platform),
                options=SimulatorOptions(step_mode=mode, audit=True),
                rng=scenario.scheduler_rng(0, heuristic),
                log=log,
            )
            report = sim.run(max_slots=100_000)
            outcomes[mode] = (report, log.events, sim.network.usage)
        assert_identical(outcomes)
        assert outcomes["span"][0].makespan is not None  # sanity: finished

    @pytest.mark.parametrize("cell", GRID_SAMPLE[:2])
    @pytest.mark.parametrize("heuristic", ["emct*", "ud*", "lw"])
    def test_run_slots_objective_bit_identical(self, cell, heuristic):
        scenario = ScenarioGenerator(12061).scenario(*cell, 1)
        outcomes = {}
        for mode in ("slot", "span"):
            platform = scenario.build_platform(1)
            log = EventLog(enabled=True)
            sim = MasterSimulator(
                platform,
                scenario.app,
                make_scheduler(heuristic, platform=platform),
                options=SimulatorOptions(step_mode=mode, audit=True),
                rng=scenario.scheduler_rng(1, heuristic),
                log=log,
            )
            report = sim.run_slots(1500)
            outcomes[mode] = (report, log.events, sim.network.usage)
        assert_identical(outcomes)

    @pytest.mark.parametrize("trial", range(3))
    def test_fast_path_without_observers(self, trial):
        """Log and audit off: the aggressive glide path, reports only."""
        scenario = ScenarioGenerator(12061).scenario(20, 10, 5, 0)
        reports = {}
        for mode in ("slot", "span"):
            platform = scenario.build_platform(trial)
            sim = MasterSimulator(
                platform,
                scenario.app,
                make_scheduler("emct*", platform=platform),
                options=SimulatorOptions(step_mode=mode),
                rng=scenario.scheduler_rng(trial, "emct*"),
            )
            reports[mode] = sim.run(max_slots=100_000)
        assert reports["span"] == reports["slot"]
        # Span mode must actually have skipped slots somewhere.
        assert reports["span"].slots_simulated > 0


class TestFullRegistry:
    """Every registry heuristic and the clairvoyant bound, both
    objectives, on one small cell — the sweeps above sample only a few."""

    @pytest.mark.parametrize("objective", ["run", "run_slots"])
    @pytest.mark.parametrize("heuristic", ALL_HEURISTICS)
    def test_bit_identical(self, heuristic, objective):
        trial = 0 if objective == "run" else 1
        scenario = ScenarioGenerator(12061).scenario(5, 5, 1 + trial, trial)
        outcomes = run_both(
            lambda: scenario.build_platform(trial),
            scenario.app,
            heuristic,
            objective=objective,
            budget=30_000 if objective == "run" else 800,
        )
        assert_identical(outcomes)
        if objective == "run":
            assert outcomes["span"][0].makespan is not None  # finished

    def test_external_scheduler(self):
        """A Scheduler subclass the package knows nothing about steps
        through spans exactly as through slots."""

        class FirstUpScheduler(Scheduler):
            name = "first-up"

            def select(self, ctx, candidates, nq, n_active):
                return candidates[0].index if candidates else None

        scenario = ScenarioGenerator(12061).scenario(10, 5, 2, 0)
        outcomes = {}
        for mode in ("slot", "span"):
            log = EventLog(enabled=True)
            sim = MasterSimulator(
                scenario.build_platform(0),
                scenario.app,
                FirstUpScheduler(),
                options=SimulatorOptions(step_mode=mode),
                rng=scenario.scheduler_rng(0, "first-up"),
                log=log,
            )
            report = sim.run(max_slots=40_000)
            outcomes[mode] = (report, log.events, sim.network.usage)
        assert_identical(outcomes)
        assert outcomes["span"][0].makespan is not None


class TestOptionVariants:
    """Simulator options exercise distinct span-logic branches."""

    def _scenario(self):
        return ScenarioGenerator(7).scenario(5, 5, 2, 0)

    @pytest.mark.parametrize(
        "options_kwargs",
        [
            {"replication": False},
            {"max_replicas": 0},
            {"proactive": True},
            {"replan_every_slot": True},
            {"audit": True},
        ],
        ids=["no-replication", "zero-replicas", "proactive", "replan-every",
             "audit"],
    )
    def test_option_variants_bit_identical(self, options_kwargs):
        scenario = self._scenario()
        outcomes = run_both(
            lambda: scenario.build_platform(0),
            scenario.app,
            "emct",
            options_kwargs=options_kwargs,
            budget=50_000,
        )
        assert_identical(outcomes)

    def test_unfinishable_run_same_truncation(self):
        """Budget exhaustion: span must stop at exactly the same slot."""
        platform_codes = ["r" * 8, "ur" + "r" * 6]

        def build():
            return Platform(
                [
                    Processor.from_trace(q, 2, [
                        {"u": 0, "r": 1, "d": 2}[c] for c in codes
                    ])
                    for q, codes in enumerate(platform_codes)
                ],
                ncom=1,
            )

        app = IterativeApplication(
            tasks_per_iteration=2, iterations=2, t_prog=2, t_data=1
        )
        outcomes = run_both(build, app, "mct", budget=400)
        assert_identical(outcomes)
        assert outcomes["span"][0].makespan is None
        assert outcomes["span"][0].slots_simulated == 400


class TestMismatchSources:
    """Weibull / semi-Markov ground truth through the span interface."""

    def _weibull_platform(self, seed, p=6):
        factory = RngFactory(seed)
        processors = []
        for q in range(p):
            source = WeibullSource(
                shape=0.7,
                scale=float(factory.generator("scale", q).uniform(15, 60)),
                mean_reclaimed=8.0,
                mean_down=12.0,
                p_up_to_reclaimed=0.6,
                rng=factory.generator("avail", q),
            )
            processors.append(
                Processor(
                    index=q,
                    speed_w=int(factory.generator("speed", q).integers(2, 9)),
                    availability=source,
                    belief=paper_random_model(factory.generator("belief", q)),
                )
            )
        return Platform(processors, ncom=3)

    def _semi_markov_platform(self, seed, p=5):
        factory = RngFactory(seed)
        embedded = np.array(
            [[0.0, 0.6, 0.4], [0.8, 0.0, 0.2], [1.0, 0.0, 0.0]]
        )

        def sojourn(mean):
            def sample(rng):
                return int(rng.geometric(1.0 / mean))

            return sample

        processors = []
        for q in range(p):
            source = SemiMarkovSource(
                embedded,
                {
                    int(ProcState.UP): sojourn(30.0),
                    int(ProcState.RECLAIMED): sojourn(6.0),
                    int(ProcState.DOWN): sojourn(10.0),
                },
                factory.generator("avail", q),
            )
            processors.append(
                Processor(
                    index=q,
                    speed_w=int(factory.generator("speed", q).integers(2, 7)),
                    availability=source,
                    belief=paper_random_model(factory.generator("belief", q)),
                )
            )
        return Platform(processors, ncom=2)

    @pytest.mark.parametrize("seed", [11, 12])
    @pytest.mark.parametrize("heuristic", ["emct*", "mct"])
    def test_weibull_bit_identical(self, seed, heuristic):
        app = IterativeApplication(
            tasks_per_iteration=8, iterations=4, t_prog=6, t_data=2
        )
        outcomes = run_both(
            lambda: self._weibull_platform(seed),
            app,
            heuristic,
            options_kwargs={"audit": True},
            budget=60_000,
        )
        assert_identical(outcomes)

    @pytest.mark.parametrize("objective,budget", [("run", 60_000),
                                                  ("run_slots", 2000)])
    def test_semi_markov_bit_identical(self, objective, budget):
        app = IterativeApplication(
            tasks_per_iteration=6, iterations=3, t_prog=4, t_data=2
        )
        outcomes = run_both(
            lambda: self._semi_markov_platform(23),
            app,
            "emct*",
            objective=objective,
            budget=budget,
        )
        assert_identical(outcomes)

    def test_weibull_fast_path_reports_identical(self):
        """Mismatch sources through the refined glide (no observers)."""
        app = IterativeApplication(
            tasks_per_iteration=8, iterations=4, t_prog=6, t_data=2
        )
        outcomes = run_both(
            lambda: self._weibull_platform(31),
            app,
            "emct*",
            budget=60_000,
            with_log=False,
        )
        assert outcomes["span"][0] == outcomes["slot"][0]


class TestDeterministicSchedulerDefault:
    """The unseeded-scheduler bugfix: runs without an rng are reproducible."""

    def test_random_heuristic_reproducible_without_rng(self):
        scenario = ScenarioGenerator(5).scenario(5, 5, 2, 0)
        reports = []
        for _ in range(2):
            platform = scenario.build_platform(0)
            sim = MasterSimulator(
                platform,
                scenario.app,
                make_scheduler("random2w", platform=platform),
            )
            reports.append(sim.run(max_slots=60_000))
        assert reports[0] == reports[1]

    def test_explicit_rng_still_wins(self):
        scenario = ScenarioGenerator(5).scenario(5, 5, 2, 0)

        def makespan(seed):
            platform = scenario.build_platform(0)
            sim = MasterSimulator(
                platform,
                scenario.app,
                make_scheduler("random", platform=platform),
                rng=np.random.default_rng(seed),
            )
            return sim.run(max_slots=60_000).makespan

        # Different explicit streams may disagree; the same stream must not.
        assert makespan(3) == makespan(3)


class TestRandomizedSweep:
    """Deterministic random configurations across the full heuristic
    registry — the long tail the parametrised sweeps above don't cover."""

    @pytest.mark.parametrize("config_seed", range(8))
    def test_random_config_bit_identical(self, config_seed):
        from repro.core.heuristics.registry import PAPER_HEURISTICS

        cfg = np.random.default_rng(1000 + config_seed)
        n = int(cfg.choice([1, 2, 5, 10, 20]))
        ncom = int(cfg.choice([1, 5, 10]))
        wmin = int(cfg.integers(1, 6))
        heuristic = str(cfg.choice(list(PAPER_HEURISTICS)))
        trial = int(cfg.integers(0, 3))
        objective = str(cfg.choice(["run", "run_slots"]))
        budget = int(cfg.choice([500, 3000, 30_000]))
        audit = bool(cfg.integers(0, 2))

        scenario = ScenarioGenerator(999).scenario(n, ncom, wmin, 0)
        outcomes = {}
        for mode in ("slot", "span"):
            platform = scenario.build_platform(trial)
            log = EventLog(enabled=True)
            sim = MasterSimulator(
                platform,
                scenario.app,
                make_scheduler(heuristic, platform=platform),
                options=SimulatorOptions(step_mode=mode, audit=audit),
                rng=scenario.scheduler_rng(trial, heuristic),
                log=log,
            )
            if objective == "run":
                report = sim.run(max_slots=budget)
            else:
                report = sim.run_slots(budget)
            outcomes[mode] = (report, log.events, sim.network.usage)
        assert_identical(outcomes)
