"""The array scheduler API's compatibility shim, and quiet-span timelines.

:meth:`RoundState.as_context` lazily materialises the ``ProcessorView``
snapshot that scalar heuristics (and external ``Scheduler`` subclasses)
consume (DESIGN.md §8).  Here the shim's contexts are recorded round by
round in the fast simulator and compared with the contexts the reference
simulator (:class:`~repro.sim.reference.ReferenceSimulator`) builds
eagerly from its own state — field for field, at every placement call.
Also covers the batched timeline fill for quiet spans.
"""

import numpy as np
import pytest

from repro.core.heuristics.base import Scheduler
from repro.core.heuristics.registry import make_scheduler
from repro.sim.master import MasterSimulator, SimulatorOptions
from repro.sim.reference import ReferenceSimulator
from repro.sim.timeline import TimelineRecorder
from repro.workload.scenarios import ScenarioGenerator


def _snapshot(ctx):
    """A comparable copy of a scheduling context (beliefs by value)."""
    views = tuple(
        (
            view.index,
            view.speed_w,
            view.state,
            None if view.belief is None else view.belief.matrix.tolist(),
            view.has_program,
            view.delay,
            view.pinned_count,
            view.prog_remaining,
            view.pinned_pipeline,
        )
        for view in ctx.processors
    )
    up = tuple(view.index for view in ctx.up_processors())
    return (ctx.slot, ctx.t_prog, ctx.t_data, ctx.ncom, ctx.remaining_tasks,
            up, views)


class _ContextRecorder(Scheduler):
    """Wraps an inner scheduler and records the context of every placement
    call: the lazy shim (``rs.as_context()``) on the fast path, the eager
    context on the reference path."""

    name = "context-recorder"

    def __init__(self, inner):
        self._inner = inner
        self.contexts = []

    def place_array(self, rs, n_tasks, allowed=None):
        self.contexts.append(_snapshot(rs.as_context()))
        return self._inner.place_array(rs, n_tasks, allowed)

    def place(self, ctx, n_tasks, allowed=None):
        self.contexts.append(_snapshot(ctx))
        return self._inner.place(ctx, n_tasks, allowed)

    def select(self, ctx, candidates, nq, n_active):  # pragma: no cover
        raise NotImplementedError("the recorder overrides both entry points")


def _recorded_run(simulator, scenario, trial, inner):
    platform = scenario.build_platform(trial)
    recorder = _ContextRecorder(make_scheduler(inner, platform=platform))
    sim = simulator(
        platform,
        scenario.app,
        recorder,
        rng=scenario.scheduler_rng(trial, inner),
    )
    return sim.run(max_slots=20_000), recorder.contexts


class TestCompatibilityShim:
    """Lazily materialised views == the reference's eager snapshots, at
    every placement call of randomized runs."""

    @pytest.mark.parametrize("config_seed", range(5))
    def test_lazy_views_equal_reference_snapshots(self, config_seed):
        cfg = np.random.default_rng(8800 + config_seed)
        n = int(cfg.choice([2, 5, 10, 20]))
        ncom = int(cfg.choice([1, 5, 10]))
        wmin = int(cfg.integers(1, 6))
        trial = int(cfg.integers(0, 3))
        inner = str(cfg.choice(["mct", "emct*", "random2w"]))
        scenario = ScenarioGenerator(555).scenario(n, ncom, wmin, 0)
        fast_report, fast = _recorded_run(MasterSimulator, scenario, trial, inner)
        ref_report, ref = _recorded_run(ReferenceSimulator, scenario, trial, inner)
        assert fast_report == ref_report
        assert len(fast) == len(ref) > 0
        for call, (lazy, eager) in enumerate(zip(fast, ref)):
            assert lazy == eager, f"placement call {call} diverged"

    def test_recorder_is_transparent(self):
        """Recording (materialising every lazy view) must not perturb the
        run: same report as the bare inner heuristic."""
        scenario = ScenarioGenerator(555).scenario(5, 5, 2, 0)
        platform = scenario.build_platform(0)
        bare = MasterSimulator(
            platform,
            scenario.app,
            make_scheduler("emct*", platform=platform),
            rng=scenario.scheduler_rng(0, "emct*"),
        ).run(max_slots=20_000)
        probed, _contexts = _recorded_run(MasterSimulator, scenario, 0, "emct*")
        # heuristic_name differs by construction; compare the physics.
        probed_dict = dict(probed.__dict__, heuristic_name=bare.heuristic_name)
        assert probed_dict == bare.__dict__


class TestTimelineSpanFill:
    """Satellite: span mode no longer degrades to slot stepping when a
    TimelineRecorder is attached; recorded timelines stay bit-identical."""

    @pytest.mark.parametrize("cell", [(5, 5, 1), (20, 10, 5)])
    @pytest.mark.parametrize("heuristic", ["emct*", "random2w"])
    def test_timeline_bit_identical_across_modes(self, cell, heuristic):
        scenario = ScenarioGenerator(12061).scenario(*cell, 0)
        outcomes = {}
        for mode in ("slot", "span"):
            platform = scenario.build_platform(0)
            timeline = TimelineRecorder(len(platform))
            sim = MasterSimulator(
                platform,
                scenario.app,
                make_scheduler(heuristic, platform=platform),
                options=SimulatorOptions(step_mode=mode, audit=True),
                rng=scenario.scheduler_rng(0, heuristic),
                timeline=timeline,
            )
            report = sim.run(max_slots=60_000)
            outcomes[mode] = (report, timeline.matrix(), sim.steps_executed)
        assert outcomes["span"][0] == outcomes["slot"][0]
        assert np.array_equal(outcomes["span"][1], outcomes["slot"][1])
        assert outcomes["span"][1].shape[0] == outcomes["span"][0].slots_simulated

    def test_span_mode_actually_spans_with_timeline(self):
        """The recorder no longer forces the slot loop: boundaries < slots."""
        scenario = ScenarioGenerator(12061).scenario(20, 10, 5, 0)
        platform = scenario.build_platform(0)
        timeline = TimelineRecorder(len(platform))
        sim = MasterSimulator(
            platform,
            scenario.app,
            make_scheduler("emct*", platform=platform),
            rng=scenario.scheduler_rng(0, "emct*"),
            timeline=timeline,
        )
        assert sim._step_mode_effective() == "span"
        report = sim.run(max_slots=60_000)
        assert sim.steps_executed < report.slots_simulated
        assert timeline.slots_recorded == report.slots_simulated

    def test_record_quiet_span_validates_count(self):
        timeline = TimelineRecorder(2)
        with pytest.raises(ValueError, match="count must be positive"):
            timeline.record_quiet_span(np.zeros(2, dtype=np.uint8), [], [], 0)
