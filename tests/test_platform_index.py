"""Calendar-vs-sweep platform-index equivalence (DESIGN.md §12).

``SimulatorOptions.platform_index`` selects how the simulator tracks
platform availability: ``"sweep"`` re-reads all ``p`` processor states at
every span boundary (the original engine, kept as the oracle), while
``"calendar"`` pops only the processors whose run actually ended from a
platform-wide event calendar.  The two must be *bit-identical* — same
reports, same event logs, same network audit trails — across the whole
heuristic registry, both objectives, both step modes, and every option
variant; this module is the contract.

The scaling class at the bottom checks the point of the refactor: the
calendar's per-boundary work follows the platform's churn, not its size.
"""

from __future__ import annotations

import pytest

from repro.core.heuristics.registry import available_heuristics, make_scheduler
from repro.sim.events import EventLog
from repro.sim.master import MasterSimulator, SimulatorOptions
from repro.workload.scenarios import ScenarioGenerator

# The paper's heuristic registry plus the clairvoyant baseline (which
# needs the platform handle and is therefore not in the plain listing).
FULL_REGISTRY = available_heuristics() + ["clairvoyant"]


def _scenario(p=150, n=10, ncom=4, wmin=5, sojourn=60, iterations=2,
              seed=7421):
    """A large-grid scenario small enough for the test matrix.

    ``p`` stays above the vectorisation threshold (128) so these runs
    exercise the large-platform scheduler paths, not just the scalar
    ones.
    """
    gen = ScenarioGenerator(seed, p=p, iterations=iterations)
    return gen.large_grid_scenario(n, ncom, wmin, 0, mean_sojourn=sojourn)


def run_one(sc, heuristic, platform_index, *, objective="run", budget=500,
            with_log=True, **options_kwargs):
    """One simulation under one platform index; return its identity tuple.

    The identity tuple is everything the acceptance contract compares:
    the report, the event log, and the per-processor network audit.  The
    simulator itself rides along for op-count inspection.
    """
    platform = sc.build_platform(0)
    log = EventLog(enabled=with_log)
    sim = MasterSimulator(
        platform,
        sc.app,
        make_scheduler(heuristic, platform=platform),
        options=SimulatorOptions(platform_index=platform_index,
                                 **options_kwargs),
        rng=sc.scheduler_rng(0, heuristic),
        log=log,
    )
    if objective == "run":
        report = sim.run(max_slots=budget)
    else:
        report = sim.run_slots(budget)
    return report, log.events, sim.network.usage, sim


def assert_identical(sc, heuristic, *, objective="run", budget=500, **kw):
    """Run both indexes on identical inputs and compare the tuples."""
    sweep = run_one(sc, heuristic, "sweep", objective=objective,
                    budget=budget, **kw)
    cal = run_one(sc, heuristic, "calendar", objective=objective,
                  budget=budget, **kw)
    assert cal[0] == sweep[0], f"report diverged ({heuristic})"
    assert cal[1] == sweep[1], f"event log diverged ({heuristic})"
    assert cal[2] == sweep[2], f"network audit diverged ({heuristic})"
    return sweep, cal


class TestRegistryEquivalence:
    """Full registry × both objectives × both step modes."""

    @pytest.mark.parametrize("heuristic", FULL_REGISTRY)
    @pytest.mark.parametrize("objective,step_mode", [
        ("run", "span"),
        ("run", "slot"),
        ("slots", "span"),
        ("slots", "slot"),
    ])
    def test_identical(self, heuristic, objective, step_mode):
        sc = _scenario()
        # The clairvoyant walker pays a ground-truth peek per score; a
        # shorter horizon keeps its four cells proportionate.
        budget = 250 if heuristic == "clairvoyant" else 500
        assert_identical(sc, heuristic, objective=objective, budget=budget,
                         step_mode=step_mode)


class TestOptionVariants:
    """Every option axis that reroutes the engine's hot paths."""

    @pytest.mark.parametrize("options_kwargs", [
        {"audit": True},
        {"proactive": True},
        {"replication": False},
        {"scheduler_api": "legacy"},
        {"instance_store": "legacy"},
        {"replan_policy": "sticky"},
        {"replan_policy": "debounce:3"},
        {"replan_policy": "relevant-up"},
        {"replan_policy": "every-slot"},
    ], ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()))
    @pytest.mark.parametrize("heuristic", ["emct*", "random2w"])
    def test_identical(self, heuristic, options_kwargs):
        sc = _scenario()
        assert_identical(sc, heuristic, budget=400, **options_kwargs)

    def test_identical_without_log(self):
        # The disabled log changes which hooks fire, not the results.
        sc = _scenario()
        assert_identical(sc, "mct", budget=400, with_log=False)


class TestCompletion:
    """At least one configuration must genuinely finish its iterations.

    Truncated-horizon identity is necessary but not sufficient: a
    completing run exercises makespan finalisation on both arms.
    """

    def test_completes_identically(self):
        sc = _scenario()
        sweep, cal = assert_identical(sc, "emct*", budget=900)
        assert sweep[0].makespan is not None
        assert cal[0].makespan == sweep[0].makespan


class TestResume:
    """begin_run / advance_until pausing must not disturb the calendar."""

    def test_paused_run_matches_plain_run(self):
        sc = _scenario()
        plain = run_one(sc, "mct", "calendar", budget=500)

        platform = sc.build_platform(0)
        log = EventLog(enabled=True)
        sim = MasterSimulator(
            platform,
            sc.app,
            make_scheduler("mct", platform=platform),
            options=SimulatorOptions(platform_index="calendar"),
            rng=sc.scheduler_rng(0, "mct"),
            log=log,
        )
        sim.begin_run(max_slots=500)
        limit = 25
        while not sim.advance_until(limit):
            limit += 25
        report = sim.finish_run()
        assert report == plain[0]
        assert log.events == plain[1]
        assert sim.network.usage == plain[2]


class TestChurnScaling:
    """The calendar's boundary work scales with churn, not platform size."""

    def _counts(self, platform_index, p=400):
        sc = _scenario(p=p)
        _, _, _, sim = run_one(sc, "mct", platform_index, budget=600,
                               replan_policy="sticky")
        return sim.op_counts, p

    def test_sweep_touches_everyone(self):
        counts, p = self._counts("sweep")
        boundaries = counts["boundaries"]
        assert boundaries > 0
        # The oracle's cost model: every boundary re-reads all p states.
        assert counts["boundary_workers_touched"] == boundaries * p
        assert counts["calendar_pops"] == 0

    def test_calendar_touches_churn(self):
        counts, p = self._counts("calendar")
        boundaries = counts["boundaries"]
        assert boundaries > 0
        touched_per_boundary = counts["boundary_workers_touched"] / boundaries
        # With mean sojourns ~60 slots, expected churn per slot is a few
        # percent of p; an order of magnitude under p is a loose bound
        # that still fails instantly if anyone reintroduces a full sweep.
        assert touched_per_boundary < p / 10
        assert counts["calendar_pops"] < boundaries * p / 10

    def test_score_rows_are_reused(self):
        counts, _ = self._counts("calendar")
        # The stamp store must serve most lookups after warm-up.
        assert counts["rows_reused"] > counts["rows_scored"]
