"""Fast simulator vs the reference simulator (DESIGN.md §3).

:class:`~repro.sim.master.MasterSimulator` (instance table, incremental
round state, batch placement, quiet spans, event calendar) and
:class:`~repro.sim.reference.ReferenceSimulator` (one plain slot loop on
the scalar ``Scheduler.place`` contract) share no simulation code, so
agreement between them is the correctness check of the fast path.  Every
comparison covers the report, the event log and the per-slot channel
usage ``(slot, nprog, ndata, requested)``:

* every registry heuristic, the clairvoyant bound and an external
  ``Scheduler`` subclass × both objectives × every fast-path mode (span
  and slot stepping with an event log, span stepping without one);
* option variants (replication, ``max_replicas``, proactive, audit) and
  every replan policy;
* Hypothesis-drawn small scenarios with drawn options.

Each reference run is computed once and compared with every mode.

The fast path's usage comes from its network's ``allocate`` and
``record_span`` calls.  In span mode without audit, a refined quiet span
repeats its boundary's ``requested`` count even where a RECLAIMED worker
pauses its request (DESIGN.md §6), so ``requested`` is compared only where
the fast path is exact: slot mode, audit mode, or an attached event log.
"""

import ast
import functools
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.heuristics.base import Scheduler
from repro.core.heuristics.registry import HEURISTIC_FACTORIES, make_scheduler
from repro.sim import reference
from repro.sim.events import EventLog
from repro.sim.master import MasterSimulator, SimulatorOptions
from repro.sim.reference import ReferenceSimulator
from repro.workload.scenarios import ScenarioGenerator

REGISTRY = sorted(HEURISTIC_FACTORIES) + ["clairvoyant"]
POLICIES = ["event", "every-slot", "sticky", "debounce:3", "relevant-up"]


class FastestIdleScheduler(Scheduler):
    """An external heuristic the package knows nothing about: the fastest
    candidate with the fewest tasks this round (exercises the array
    path's compatibility shim and the reference's scalar path alike)."""

    name = "external"

    def select(self, ctx, candidates, nq, n_active):
        if not candidates:
            return None
        best = min(candidates, key=lambda v: (nq[v.index], v.speed_w, v.index))
        return best.index


def _scheduler(name, platform):
    if name == "external":
        return FastestIdleScheduler()
    return make_scheduler(name, platform=platform)


def _tap_usage(network):
    """Record per-slot usage at the network's allocate/record_span calls
    (its own trail is kept only in audit mode)."""
    usage = []
    allocate, record_span = network.allocate, network.record_span

    def tapped_allocate(slot, requests):
        granted = allocate(slot, requests)
        nprog = sum(1 for grant in granted if grant.kind == "prog")
        usage.append((slot, nprog, len(granted) - nprog, len(requests)))
        return granted

    def tapped_record_span(start_slot, count, *, nprog, ndata, requested):
        record_span(start_slot, count, nprog=nprog, ndata=ndata,
                    requested=requested)
        usage.extend(
            (start_slot + offset, nprog, ndata, requested)
            for offset in range(count)
        )

    network.allocate = tapped_allocate
    network.record_span = tapped_record_span
    return usage


def simulate(simulator, scenario, heuristic, *, trial, objective, budget,
             with_log=True, **options_kwargs):
    """One run; returns (report, events, usage)."""
    platform = scenario.build_platform(trial)
    log = EventLog(enabled=with_log)
    sim = simulator(
        platform,
        scenario.app,
        _scheduler(heuristic, platform),
        options=SimulatorOptions(**options_kwargs),
        rng=scenario.scheduler_rng(trial, heuristic),
        log=log,
    )
    usage = sim.usage if simulator is ReferenceSimulator else _tap_usage(sim.network)
    run = sim.run if objective == "run" else sim.run_slots
    report = run(budget)
    return report, log.events, usage


@functools.lru_cache(maxsize=8)
def reference_run(seed, cell, heuristic, trial, objective, budget, options):
    """The reference's (report, events, usage), computed once per case and
    shared by the fast-path modes compared against it."""
    scenario = ScenarioGenerator(seed).scenario(*cell)
    return simulate(ReferenceSimulator, scenario, heuristic, trial=trial,
                    objective=objective, budget=budget, **dict(options))


# Fast-path modes: span and slot stepping with an event log, and span
# stepping without one (where quiet spans glide).
MODES = ["span", "slot", "span-unlogged"]


def assert_matches_reference(seed, cell, heuristic, mode, *, trial=0,
                             objective="run", budget=30_000,
                             **options_kwargs):
    """The fast path in ``mode`` reproduces the reference run of scenario
    ``ScenarioGenerator(seed).scenario(*cell)`` exactly."""
    want = reference_run(seed, cell, heuristic, trial, objective, budget,
                         tuple(sorted(options_kwargs.items())))
    scenario = ScenarioGenerator(seed).scenario(*cell)
    step_mode, _, unlogged = mode.partition("-")
    report, events, usage = simulate(
        MasterSimulator, scenario, heuristic, trial=trial,
        objective=objective, budget=budget, with_log=not unlogged,
        step_mode=step_mode, **options_kwargs,
    )
    assert report == want[0], f"{mode}: report diverged"
    if unlogged:
        exact = options_kwargs.get("audit", False)
        assert [u if exact else u[:3] for u in usage] == [
            u if exact else u[:3] for u in want[2]
        ], f"{mode}: channel usage diverged"
    else:
        assert events == want[1], f"{mode}: event log diverged"
        assert usage == want[2], f"{mode}: channel usage diverged"
    return want


def assert_all_modes_match(seed, cell, heuristic, **kwargs):
    for mode in MODES:
        assert_matches_reference(seed, cell, heuristic, mode, **kwargs)


class TestFullRegistry:
    """Every heuristic × both objectives × every fast-path mode."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("heuristic", REGISTRY + ["external"])
    def test_run_objective(self, heuristic, mode):
        want = assert_matches_reference(12061, (5, 5, 1, 0), heuristic, mode)
        assert want[0].makespan is not None  # sanity: finished

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("heuristic", REGISTRY + ["external"])
    def test_run_slots_objective(self, heuristic, mode):
        assert_matches_reference(12061, (5, 5, 2, 1), heuristic, mode,
                                 trial=1, objective="run_slots", budget=800)


class TestOptionVariants:
    """Options that take distinct branches of the fast path."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize(
        "options_kwargs",
        [
            {"replication": False},
            {"max_replicas": 0},
            {"max_replicas": 1},
            {"max_replicas": 2},
            {"proactive": True},
            {"proactive": True, "audit": True},
            {"audit": True},
        ],
        ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()),
    )
    @pytest.mark.parametrize("heuristic", ["emct", "ud*", "random2w"])
    def test_option_variant(self, heuristic, options_kwargs, mode):
        assert_matches_reference(71, (5, 5, 2, 0), heuristic, mode,
                                 budget=50_000, **options_kwargs)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("heuristic", ["emct*", "random2w", "passive"])
    def test_replan_policy(self, heuristic, policy, mode):
        assert_matches_reference(12061, (10, 5, 3, 0), heuristic, mode,
                                 budget=60_000, replan_policy=policy)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("heuristic", ["emct*", "ud*", "random2w"])
    def test_paper_midpoint_cell_with_audit(self, heuristic, mode):
        """The p=20 midpoint cell with every audit cross-check active."""
        assert_matches_reference(24061, (20, 10, 5, 0), heuristic, mode,
                                 budget=60_000, audit=True)


@st.composite
def drawn_runs(draw):
    cell = (
        draw(st.integers(1, 20)),  # tasks per iteration
        draw(st.sampled_from([1, 2, 5, 10])),  # ncom
        draw(st.integers(1, 6)),  # wmin
        draw(st.integers(0, 3)),  # scenario index
    )
    return {
        "seed": draw(st.integers(0, 10_000)),
        "cell": cell,
        "heuristic": draw(st.sampled_from(REGISTRY + ["external"])),
        "trial": draw(st.integers(0, 2)),
        "objective": draw(st.sampled_from(["run", "run_slots"])),
        "budget": draw(st.sampled_from([300, 2_000])),
        "options": {
            "replication": draw(st.booleans()),
            "max_replicas": draw(st.integers(0, 2)),
            "proactive": draw(st.booleans()),
            "audit": draw(st.booleans()),
            "replan_policy": draw(st.sampled_from(POLICIES)),
        },
    }


class TestDrawnScenarios:
    @settings(max_examples=25, deadline=None, derandomize=True,
              database=None)
    @given(drawn_runs())
    def test_matches_reference(self, run):
        assert_all_modes_match(
            run["seed"],
            run["cell"],
            run["heuristic"],
            trial=run["trial"],
            objective=run["objective"],
            budget=run["budget"],
            **run["options"],
        )


def test_reference_imports_no_fast_path_module():
    """The reference shares no code with the fast path: it may not import
    the master, the instance table, the worker or network runtimes, the
    round state, or the platform calendar."""
    forbidden = {"master", "instance_table", "worker", "network",
                 "round_state"}
    tree = ast.parse(Path(reference.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
            names = []
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
            names = [alias.name for alias in node.names]
        else:
            continue
        for module in modules:
            parts = set(module.split("."))
            assert not parts & forbidden, f"reference imports {module}"
        assert not set(names) & (forbidden | {"PlatformCalendar"}), (
            f"reference imports {names}"
        )


def test_reference_stays_small():
    """A reference is only a good oracle while it can be read in one go."""
    assert len(Path(reference.__file__).read_text().splitlines()) <= 600
