"""Replan policies (DESIGN.md §10): parsing, aliasing and invariance.

Every policy must be invariant across step modes and instance stores
(spans may only glide over what the policy provably ignores),
``debounce:1`` must equal the event-driven default exactly, and
``every-slot`` must stay a faithful alias of the legacy
``replan_every_slot`` flag.
"""

import pytest

from repro.core.heuristics.registry import make_scheduler
from repro.sim.events import EventLog
from repro.sim.master import MasterSimulator, SimulatorOptions
from repro.sim.relevance import ReplanPolicy, parse_replan_policy
from repro.workload.scenarios import ScenarioGenerator


def run_one(scenario, heuristic, *, budget=40_000, with_log=True,
            **options_kwargs):
    platform = scenario.build_platform(0)
    log = EventLog(enabled=with_log)
    sim = MasterSimulator(
        platform,
        scenario.app,
        make_scheduler(heuristic, platform=platform),
        options=SimulatorOptions(**options_kwargs),
        rng=scenario.scheduler_rng(0, heuristic),
        log=log,
    )
    report = sim.run(max_slots=budget)
    return sim, (report, log.events, sim.network.usage)


class TestReplanPolicies:
    """Parsing, aliasing, and mode invariance."""

    def test_parse_specs(self):
        assert parse_replan_policy("event") == ReplanPolicy("event")
        assert parse_replan_policy("sticky").ignores_churn
        assert parse_replan_policy("relevant-up").ignores_empty_exits
        debounce = parse_replan_policy("debounce:12")
        assert debounce == ReplanPolicy("debounce", 12)
        assert debounce.spec() == "debounce:12"
        assert parse_replan_policy("every-slot").churn_always

    @pytest.mark.parametrize(
        "spec",
        ["nope", "debounce", "debounce:", "debounce:x", "debounce:0",
         "event:3", ""],
    )
    def test_parse_rejects(self, spec):
        with pytest.raises(ValueError):
            parse_replan_policy(spec)

    def test_options_validate_policy(self):
        with pytest.raises(ValueError):
            SimulatorOptions(replan_policy="bogus")

    def test_every_slot_alias(self):
        """Either spelling selects the ablation arm; they stay in sync."""
        by_flag = SimulatorOptions(replan_every_slot=True)
        assert by_flag.replan_policy == "every-slot"
        by_policy = SimulatorOptions(replan_policy="every-slot")
        assert by_policy.replan_every_slot is True
        with pytest.raises(ValueError):
            SimulatorOptions(replan_every_slot=True, replan_policy="sticky")

    def test_every_slot_alias_bit_identical(self):
        scenario = ScenarioGenerator(11).scenario(5, 5, 1, 0)
        outcomes = {}
        for kwargs in ({"replan_every_slot": True},
                       {"replan_policy": "every-slot"}):
            _sim, outcomes[tuple(kwargs)] = run_one(
                scenario, "emct*", budget=30_000, **kwargs
            )
        first, second = outcomes.values()
        assert first == second

    def test_debounce_one_equals_event(self):
        """Leading-edge cooldown of one slot never suppresses anything."""
        scenario = ScenarioGenerator(12061).scenario(20, 10, 5, 0)
        results = {}
        for policy in ("event", "debounce:1"):
            _sim, results[policy] = run_one(
                scenario, "emct*", budget=60_000, replan_policy=policy
            )
        assert results["debounce:1"] == results["event"]

    @pytest.mark.parametrize("policy", ["sticky", "debounce:8", "relevant-up"])
    @pytest.mark.parametrize("heuristic", ["emct*", "random2w", "passive"])
    def test_policies_step_mode_and_store_invariant(self, policy, heuristic):
        """Relaxed policies change the science but must not depend on the
        stepping mode, the instance store, or an attached event log —
        spans may only glide over what the policy provably ignores."""
        scenario = ScenarioGenerator(12061).scenario(10, 5, 3, 0)
        outcomes = {}
        for step_mode in ("slot", "span"):
            for store in ("array", "legacy"):
                _sim, outcomes[(step_mode, store)] = run_one(
                    scenario,
                    heuristic,
                    budget=60_000,
                    step_mode=step_mode,
                    instance_store=store,
                    replan_policy=policy,
                )
        reference = outcomes[("slot", "array")]
        for key, outcome in outcomes.items():
            assert outcome == reference, f"{policy}/{key} diverged"

    def test_sticky_reduces_rounds_and_lengthens_spans(self):
        scenario = ScenarioGenerator(12061).scenario(20, 10, 5, 0)
        stats = {}
        for policy in ("event", "sticky"):
            sim, (report, _events, _usage) = run_one(
                scenario,
                "emct*",
                budget=60_000,
                with_log=False,
                replan_policy=policy,
            )
            assert report.makespan is not None
            stats[policy] = (report.scheduler_rounds, sim.steps_executed,
                             report.slots_simulated / sim.steps_executed)
        assert stats["sticky"][0] < stats["event"][0]  # fewer rounds
        assert stats["sticky"][2] > stats["event"][2]  # longer mean span

    def test_relevant_up_never_replans_on_empty_exits(self):
        """relevant-up executes no more rounds than event on the same
        availability sample (it drops a subset of the triggers)."""
        scenario = ScenarioGenerator(12061).scenario(10, 5, 3, 0)
        rounds = {}
        for policy in ("event", "relevant-up"):
            _sim, (report, _e, _u) = run_one(
                scenario, "emct*", budget=60_000, with_log=False,
                replan_policy=policy,
            )
            rounds[policy] = report.scheduler_rounds
        assert rounds["relevant-up"] <= rounds["event"]
