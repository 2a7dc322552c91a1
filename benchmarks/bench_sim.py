"""Simulator-core stepping + scheduling + body benchmark (``bench-sim``).

Measures the per-run hot path of :class:`~repro.sim.master.MasterSimulator`
on a declared sample of the paper's Table 2 grid, and emits a JSON document
so successive PRs accumulate a perf trajectory::

    PYTHONPATH=src python benchmarks/bench_sim.py --out BENCH_sim.json

Three comparisons are timed, over the same (cell, scenario, trial,
heuristic, objective) population, all within one process with the
configurations interleaved per run (the only timing methodology that
survives noisy shared runners):

* **stepping** — the slot-stepped oracle loop vs the span-stepped default
  (DESIGN.md §6), both on the array scheduler API and array instance
  store;
* **scheduling API** — the legacy scalar scheduler path vs the
  array-backed batch path (incrementally maintained ``RoundState`` +
  vectorised ``score_batch``, DESIGN.md §8), both span-stepped on the
  array store.  The scheduling-round time is measured directly by
  wrapping the round driver, so each cell reports ``round_time_share``
  and ``rounds_per_sec`` for both APIs plus their ratio ``sched_speedup``;
* **instance store / simulator body** — the legacy Python-list instance
  store vs the structure-of-arrays ``InstanceTable`` with the vectorised
  body (DESIGN.md §9), both span-stepped on the array scheduler API.
  ``store_speedup`` is the end-to-end ratio; ``body_speedup`` compares
  the *body* seconds (wall-clock minus the measured round seconds).

A **long-horizon deadline cell** (``run_slots`` over ≥100k slots) rides
along to exercise the run-length-encoded availability sources where the
dense representation hurts most; its row reports the same store/body
metrics plus the measured ``trace_compression``.

**Large-platform cells** (DESIGN.md §12) time the event-calendar
platform engine (``platform_index="calendar"``) against the O(p)
per-boundary sweep oracle on the seed-stable ``large_grid_scenario``
family at p = 1k and 10k (plus an optional calendar-only p = 100k row,
``--largep-xl``), asserting bit-identical reports before any number is
reported.  Each row records ``slots_per_sec`` for both arms, the live
RLE ``bytes_per_worker``, and the per-boundary touched-worker counts
that explain the ratio (the sweep touches all p by construction; the
calendar touches only the churn).  ``--largep-smoke`` swaps in a fast
p = 2000 short-horizon cell for CI runners.

A **relaxed-policy row** (recorded, never gated) times one cell under
``replan_policy="sticky"`` against the event-driven default and records
the speedup *and* the makespan deviation it buys — relaxed policies
change the science, so their numbers are documentation, not a gate.

Every simulated instance is asserted **bit-identical** across the four
bit-exact configurations before any number is reported; both objectives
are covered (``run`` for the makespan protocol, ``run_slots`` for the
Section 3.4 deadline form).  A speedup that changed the science would be
worthless.

**Noise gating** (PR 5): sub-second cells are wall-clock-noise-limited on
shared runners (the (5,5,1) cell simulates ~0.03 s per configuration), so
cells whose measured span seconds fall below ``NOISE_FLOOR_SECONDS`` are
recorded as usual but marked ``"gated": false`` and excluded from every
ratio-based CI gate; the overall gate ratios aggregate the gated cells
only.

CI gates: ``--min-speedup`` (default 0.95) fails the job when span mode
falls measurably below slot mode on the gated cells (the two are at
structural parity on churn-dense cells and the margin absorbs shared-
runner noise); ``--min-sched-speedup``
(default 1.0) fails it when the batch scheduler path regresses below the
legacy scalar path; ``--min-body-speedup`` (default 1.0) fails it when
the array instance store's body regresses below the legacy list store;
``--min-trace-compression`` (default 6.0) fails it when the RLE sources
stop beating the dense representation on the long-horizon cell;
``--min-largep-speedup`` (default 1.0) fails it when the event-calendar
platform engine falls below that ratio over the sweep oracle on the
largest gated large-platform cell; ``--max-largep-bytes-per-worker``
(default 1024) fails it when the live RLE availability storage per
worker regresses past that ceiling.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.heuristics.registry import make_scheduler
from repro.core.markov import MarkovAvailabilityModel
from repro.sim.master import MasterSimulator, SimulatorOptions
from repro.types import ProcState
from repro.workload.scenarios import ScenarioGenerator

#: The measured Table 2 sample: one cell per (n, wmin) regime — small
#: communication-light, the paper's midpoint, and the large
#: compute-dominated corner — plus a replication-heavy small-n cell.
TABLE2_SAMPLE: Tuple[Tuple[int, int, int], ...] = (
    (5, 5, 1),
    (20, 10, 5),
    (5, 10, 10),
    (40, 20, 10),
)

HEURISTICS: Tuple[str, ...] = ("emct*", "mct")
DEADLINE_SLOTS = 2000

#: Cells whose best-of span seconds fall below this are wall-clock noise
#: on shared runners: recorded, but excluded from ratio-based CI gates.
NOISE_FLOOR_SECONDS = 0.15

#: Long-horizon deadline cell (satellite): ``run_slots`` over a horizon
#: long enough that dense availability storage (1 B/slot trace + 8 B/slot
#: UP prefix) would dominate memory; exercises the RLE representation.
LONG_DEADLINE_CELL: Tuple[int, int, int] = (5, 5, 1)
LONG_DEADLINE_SLOTS = 150_000

#: The relaxed-policy documentation row: one cell, one policy.
RELAXED_POLICY = "sticky"
RELAXED_CELL: Tuple[int, int, int] = (20, 10, 5)

#: Batch-engine cells (DESIGN.md §11): the paper midpoint and the large
#: compute-dominated corner, at two cohort sizes.  A cohort of R is
#: ``R / len(HEURISTICS)`` trials × the benchmark heuristics, so runs
#: within a trial share ground-truth traces and all runs of the scenario
#: share belief columns — the production campaign shape.
BATCH_CELLS: Tuple[Tuple[int, int, int], ...] = ((20, 10, 5), (40, 20, 10))
BATCH_COHORTS: Tuple[int, ...] = (4, 16)

#: Large-platform calendar cells (DESIGN.md §12): the platform event
#: calendar vs the O(p)-per-boundary sweep oracle on the seed-stable
#: ``large_grid_scenario`` family (semi-Markov O(runs) ground truth,
#: mean sojourn ~1000 slots).  The shape is compute-dominated
#: (``wmin=30``) under the sticky replan policy, so span boundaries —
#: the platform layer's own cost — dominate the shared scheduler work
#: and the ratio isolates the engine under comparison.
LARGEP_CELL = {"n": 40, "ncom": 10, "wmin": 30, "mean_sojourn": 1000}
LARGEP_ITERATIONS = 3
LARGEP_SIZES: Tuple[int, ...] = (1_000, 10_000)
#: The 100k-worker row is calendar-only: the sweep oracle's O(p) per
#: boundary makes timing it there pointless (minutes for a number whose
#: trend the 1k/10k rows already pin); identity at 100k is still covered
#: by the shared traces (same family, same draws) and the 1k/10k rows.
LARGEP_XL_SIZE = 100_000
LARGEP_MAX_SLOTS = 50_000
LARGEP_HEURISTIC = "mct"
LARGEP_POLICY = "sticky"
#: CI smoke variant: small enough for a shared runner, still above the
#: vectorisation threshold and still span-boundary-dominated.
LARGEP_SMOKE_SIZE = 2_000
LARGEP_SMOKE_MAX_SLOTS = 6_000

#: (step_mode, scheduler_api, instance_store) configurations per run.
#: The first is the bit-identity reference; the second is the default.
CONFIGS: Tuple[Tuple[str, str, str], ...] = (
    ("slot", "array", "array"),
    ("span", "array", "array"),
    ("span", "legacy", "array"),
    ("span", "array", "legacy"),
)

DEFAULT = ("span", "array", "array")
LEGACY_STORE = ("span", "array", "legacy")
LEGACY_API = ("span", "legacy", "array")
SLOT = ("slot", "array", "array")


def _simulate(scenario, trial: int, heuristic: str, config, objective: str,
              deadline_slots: int = DEADLINE_SLOTS,
              replan_policy: str = "event"):
    mode, api, store = config
    platform = scenario.build_platform(trial)
    sim = MasterSimulator(
        platform,
        scenario.app,
        make_scheduler(heuristic, platform=platform),
        options=SimulatorOptions(
            step_mode=mode,
            scheduler_api=api,
            instance_store=store,
            replan_policy=replan_policy,
        ),
        rng=scenario.scheduler_rng(trial, heuristic),
    )
    # Wrap the round driver so the scheduling share of wall-clock is
    # measured directly (includes the triviality check and context
    # refresh/build — the full per-round cost any configuration pays).
    round_clock = {"seconds": 0.0}
    inner_round = sim._scheduling_round

    def timed_round(slot, states):
        begin = time.perf_counter()
        inner_round(slot, states)
        round_clock["seconds"] += time.perf_counter() - begin

    sim._scheduling_round = timed_round
    start = time.perf_counter()
    if objective == "run":
        report = sim.run(max_slots=500_000)
    else:
        report = sim.run_slots(deadline_slots)
    elapsed = time.perf_counter() - start
    trace_bytes = sum(
        proc.availability.storage_bytes() for proc in platform
    )
    dense_bytes = sum(
        proc.availability.dense_bytes() for proc in platform
    )
    return {
        "report": report,
        "elapsed": elapsed,
        "steps": sim.steps_executed,
        "round_seconds": round_clock["seconds"],
        "instance_ops": sim.instance_ops,
        "trace_bytes": trace_bytes,
        "dense_bytes": dense_bytes,
    }


def _mean_sojourn_bound(scenario) -> float:
    """Average per-processor UP sojourn of the cell's chains (slots)."""
    total = 0.0
    for model in scenario.models:
        assert isinstance(model, MarkovAvailabilityModel)
        total += model.mean_sojourn(ProcState.UP)
    return total / len(scenario.models)


def _bench_cell(
    generator: ScenarioGenerator,
    cell: Tuple[int, int, int],
    *,
    scenarios: int,
    trials: int,
    heuristics: Sequence[str],
    repetitions: int,
) -> Dict:
    n, ncom, wmin = cell
    population = [generator.scenario(n, ncom, wmin, i) for i in range(scenarios)]
    runs = [
        (scenario, trial, heuristic, objective)
        for scenario in population
        for trial in range(trials)
        for heuristic in heuristics
        for objective in ("run", "run_slots")
    ]
    best: Dict[tuple, Dict[str, float]] = {
        config: {"seconds": float("inf"), "round_seconds": float("inf")}
        for config in CONFIGS
    }
    # Non-timing totals (slots, rounds, ops, bytes) are identical across
    # repetitions — the simulations are deterministic — so the per-rep
    # recount simply overwrites them; only timings take the best-of.
    for _rep in range(max(1, repetitions)):
        rep = {
            config: {"seconds": 0.0, "round_seconds": 0.0} for config in CONFIGS
        }
        slots_total = 0
        boundaries_total = 0
        rounds_total = 0
        instance_ops_total = 0
        trace_bytes_total = 0
        dense_bytes_total = 0
        for scenario, trial, heuristic, objective in runs:
            reports = {}
            for config in CONFIGS:
                out = _simulate(scenario, trial, heuristic, config, objective)
                reports[config] = out["report"]
                rep[config]["seconds"] += out["elapsed"]
                rep[config]["round_seconds"] += out["round_seconds"]
                if config == DEFAULT:
                    boundaries_total += out["steps"]
                    rounds_total += out["report"].scheduler_rounds
                    instance_ops_total += out["instance_ops"]
                    trace_bytes_total += out["trace_bytes"]
                    dense_bytes_total += out["dense_bytes"]
            reference = reports[CONFIGS[0]]
            for config, report in reports.items():  # pragma: no branch
                if report != reference:  # pragma: no cover
                    raise AssertionError(
                        f"configs diverged on cell {cell}, scenario "
                        f"{scenario.key}, trial {trial}, {heuristic}/"
                        f"{objective}: {CONFIGS[0]} vs {config}"
                    )
            slots_total += reference.slots_simulated
        # Wall-clock noise mitigation: best-of-N per configuration, keeping
        # each rep's (total, round) pair together so shares stay coherent.
        for config in CONFIGS:
            if rep[config]["seconds"] < best[config]["seconds"]:
                best[config] = rep[config]
    slot_s = best[SLOT]["seconds"]
    span_s = best[DEFAULT]["seconds"]
    legacy_api_s = best[LEGACY_API]["seconds"]
    legacy_store_s = best[LEGACY_STORE]["seconds"]
    array_round_s = best[DEFAULT]["round_seconds"]
    legacy_api_round_s = best[LEGACY_API]["round_seconds"]
    legacy_store_round_s = best[LEGACY_STORE]["round_seconds"]
    array_body_s = span_s - array_round_s
    legacy_store_body_s = legacy_store_s - legacy_store_round_s
    return {
        "cell": {"n": n, "ncom": ncom, "wmin": wmin},
        "runs": len(runs),
        "slots": slots_total,
        "gated": span_s >= NOISE_FLOOR_SECONDS,
        "slot_seconds": round(slot_s, 4),
        "span_seconds": round(span_s, 4),
        "legacy_api_seconds": round(legacy_api_s, 4),
        "legacy_store_seconds": round(legacy_store_s, 4),
        "slots_per_sec_slot": round(slots_total / slot_s, 1),
        "slots_per_sec_span": round(slots_total / span_s, 1),
        "slots_per_sec_legacy_store": round(slots_total / legacy_store_s, 1),
        "speedup": round(slot_s / span_s, 3),
        "rounds": rounds_total,
        "round_seconds": {
            "array": round(array_round_s, 4),
            "legacy_api": round(legacy_api_round_s, 4),
            "legacy_store": round(legacy_store_round_s, 4),
        },
        "round_time_share": {
            "array": round(array_round_s / span_s, 3),
            "legacy_api": round(legacy_api_round_s / legacy_api_s, 3),
        },
        "rounds_per_sec": {
            "array": round(rounds_total / array_round_s, 1),
            "legacy_api": round(rounds_total / legacy_api_round_s, 1),
        },
        "sched_speedup": round(legacy_api_round_s / array_round_s, 3),
        # Simulator body (DESIGN.md §9): everything outside the rounds.
        "body_seconds": {
            "array": round(array_body_s, 4),
            "legacy_store": round(legacy_store_body_s, 4),
        },
        "body_time_share": {
            "array": round(array_body_s / span_s, 3),
            "legacy_store": round(legacy_store_body_s / legacy_store_s, 3),
        },
        "body_speedup": round(legacy_store_body_s / array_body_s, 3),
        "store_speedup": round(legacy_store_s / span_s, 3),
        "instance_ops": instance_ops_total,
        "trace_bytes": trace_bytes_total,
        "trace_dense_bytes": dense_bytes_total,
        "trace_compression": round(dense_bytes_total / trace_bytes_total, 2),
        "mean_span": round(slots_total / boundaries_total, 2),
        "mean_up_sojourn": round(
            sum(_mean_sojourn_bound(s) for s in population) / len(population), 1
        ),
    }


def _bench_long_deadline(
    generator: ScenarioGenerator,
    *,
    repetitions: int,
    heuristic: str = "emct*",
) -> Dict:
    """The ≥100k-slot deadline cell: RLE storage under a long horizon.

    Times only the two store configurations (the stepping/scheduling
    comparisons are covered by the Table 2 cells) and asserts their
    reports identical.  As in the deadline study, the iteration target is
    raised far beyond what the budget can fit, so the slot budget binds
    and the availability traces genuinely span the horizon.
    """
    n, ncom, wmin = LONG_DEADLINE_CELL
    scenario = generator.scenario(n, ncom, wmin, 0)
    scenario = dataclasses.replace(
        scenario,
        app=dataclasses.replace(scenario.app, iterations=1_000_000),
    )
    configs = (LEGACY_STORE, DEFAULT)
    best = {config: float("inf") for config in configs}
    default_out: Dict = {}
    for _rep in range(max(1, repetitions)):
        outs = {}
        for config in configs:
            outs[config] = _simulate(
                scenario, 0, heuristic, config, "run_slots",
                deadline_slots=LONG_DEADLINE_SLOTS,
            )
        if outs[DEFAULT]["report"] != outs[LEGACY_STORE]["report"]:
            raise AssertionError(  # pragma: no cover
                "store configurations diverged on the long deadline cell"
            )
        for config in configs:
            if outs[config]["elapsed"] < best[config]:
                best[config] = outs[config]["elapsed"]
        if not default_out:
            # Diagnostics (slots, ops, bytes) are deterministic across
            # repetitions; capture them once, timings take the best-of.
            default_out = outs[DEFAULT]
    slots = default_out["report"].slots_simulated
    return {
        "cell": {"n": n, "ncom": ncom, "wmin": wmin},
        "objective": "run_slots",
        "deadline_slots": LONG_DEADLINE_SLOTS,
        "heuristic": heuristic,
        "slots": slots,
        "span_seconds": round(best[DEFAULT], 4),
        "legacy_store_seconds": round(best[LEGACY_STORE], 4),
        "slots_per_sec_span": round(slots / best[DEFAULT], 1),
        "store_speedup": round(best[LEGACY_STORE] / best[DEFAULT], 3),
        "instance_ops": default_out["instance_ops"],
        "trace_bytes": default_out["trace_bytes"],
        "trace_dense_bytes": default_out["dense_bytes"],
        "trace_compression": round(
            default_out["dense_bytes"] / default_out["trace_bytes"], 2
        ),
    }


def _bench_relaxed_policy(
    generator: ScenarioGenerator,
    *,
    repetitions: int,
    scenarios: int,
    trials: int,
    heuristics: Sequence[str],
    policy: str = RELAXED_POLICY,
    cell: Tuple[int, int, int] = RELAXED_CELL,
) -> Dict:
    """One relaxed-policy cell, recorded but never gated (DESIGN.md §10).

    Relaxed policies change the replan-trigger semantics, so there is no
    bit-identity to assert; this row documents what the policy buys
    (wall-clock, round reduction) and what it costs (mean makespan
    deviation on the ``run`` objective) next to the event-driven default
    on the same population.  ``experiments/replan_study.py`` is the full
    validation against the paper's shape targets.
    """
    n, ncom, wmin = cell
    population = [generator.scenario(n, ncom, wmin, i) for i in range(scenarios)]
    runs = [
        (scenario, trial, heuristic)
        for scenario in population
        for trial in range(trials)
        for heuristic in heuristics
    ]
    best = {"event": float("inf"), policy: float("inf")}
    makespans = {"event": 0, policy: 0}
    rounds = {"event": 0, policy: 0}
    for _rep in range(max(1, repetitions)):
        rep = {"event": 0.0, policy: 0.0}
        mk = {"event": 0, policy: 0}
        rd = {"event": 0, policy: 0}
        for scenario, trial, heuristic in runs:
            for name in ("event", policy):
                out = _simulate(
                    scenario, trial, heuristic, DEFAULT, "run",
                    replan_policy=name,
                )
                rep[name] += out["elapsed"]
                report = out["report"]
                mk[name] += report.makespan or report.slots_simulated
                rd[name] += report.scheduler_rounds
        for name in ("event", policy):
            if rep[name] < best[name]:
                best[name] = rep[name]
        makespans, rounds = mk, rd
    return {
        "cell": {"n": n, "ncom": ncom, "wmin": wmin},
        "policy": policy,
        "runs": len(runs),
        "event_seconds": round(best["event"], 4),
        "policy_seconds": round(best[policy], 4),
        "policy_speedup": round(best["event"] / best[policy], 3),
        "event_rounds": rounds["event"],
        "policy_rounds": rounds[policy],
        "round_reduction": round(
            1.0 - rounds[policy] / max(rounds["event"], 1), 3
        ),
        "event_mean_makespan": round(makespans["event"] / len(runs), 1),
        "policy_mean_makespan": round(makespans[policy] / len(runs), 1),
        "makespan_deviation_pct": round(
            100.0 * (makespans[policy] - makespans["event"])
            / max(makespans["event"], 1),
            2,
        ),
        "gated": False,
    }


def _bench_batch_engine(
    generator: ScenarioGenerator,
    *,
    repetitions: int,
    heuristics: Sequence[str] = HEURISTICS,
    cells: Sequence[Tuple[int, int, int]] = BATCH_CELLS,
    cohorts: Sequence[int] = BATCH_COHORTS,
) -> Dict:
    """Batch cohort engine vs. the per-run oracle (DESIGN.md §11).

    Each row times R runs of one scenario — ``R / len(heuristics)``
    trials × the benchmark heuristics — executed (a) independently and
    (b) as one :class:`~repro.sim.batch_engine.BatchCampaignRunner`
    cohort.  Per-run makespans and slot counts are asserted identical
    before any timing counts; rows below the noise floor are recorded
    but excluded from the overall ratio.
    """
    from repro.sim.batch_engine import BatchCampaignRunner, BatchRunSpec

    def run_standalone(spec):
        platform = spec.scenario.build_platform(spec.trial)
        sim = MasterSimulator(
            platform,
            spec.scenario.app,
            make_scheduler(spec.heuristic, platform=platform),
            rng=spec.scenario.scheduler_rng(spec.trial, spec.heuristic),
        )
        return sim.run(max_slots=spec.max_slots)

    rows: List[Dict] = []
    for cell in cells:
        n, ncom, wmin = cell
        scenario = generator.scenario(n, ncom, wmin, 0)
        for cohort in cohorts:
            trial_count = max(1, cohort // len(heuristics))
            specs = [
                BatchRunSpec(scenario=scenario, trial=trial, heuristic=heuristic)
                for trial in range(trial_count)
                for heuristic in heuristics
            ]
            best = {"per-run": float("inf"), "batch": float("inf")}
            for _rep in range(max(1, repetitions)):
                start = time.perf_counter()
                per_run_reports = [run_standalone(spec) for spec in specs]
                per_run_s = time.perf_counter() - start
                start = time.perf_counter()
                batch_reports = BatchCampaignRunner(specs).run()
                batch_s = time.perf_counter() - start
                for spec, ref, got in zip(specs, per_run_reports, batch_reports):
                    if (
                        got.makespan != ref.makespan
                        or got.slots_simulated != ref.slots_simulated
                    ):  # pragma: no cover - would be an engine bug
                        raise AssertionError(
                            f"batch engine diverged on {cell} "
                            f"trial={spec.trial} {spec.heuristic}: "
                            f"{got.makespan} != {ref.makespan}"
                        )
                best["per-run"] = min(best["per-run"], per_run_s)
                best["batch"] = min(best["batch"], batch_s)
            rows.append(
                {
                    "cell": {"n": n, "ncom": ncom, "wmin": wmin},
                    "cohort": len(specs),
                    "per_run_seconds": round(best["per-run"], 4),
                    "batch_seconds": round(best["batch"], 4),
                    "per_run_rate": round(len(specs) / best["per-run"], 3),
                    "batch_rate": round(len(specs) / best["batch"], 3),
                    "batch_speedup": round(best["per-run"] / best["batch"], 3),
                    "gated": best["per-run"] >= NOISE_FLOOR_SECONDS,
                }
            )
    gated = [row for row in rows if row["gated"]] or rows
    per_run_total = sum(row["per_run_seconds"] for row in gated)
    batch_total = sum(row["batch_seconds"] for row in gated)
    return {
        "cells": [list(cell) for cell in cells],
        "cohorts": list(cohorts),
        "heuristics": list(heuristics),
        "results": rows,
        "per_run_seconds_total": round(per_run_total, 4),
        "batch_seconds_total": round(batch_total, 4),
        "batch_speedup": round(per_run_total / batch_total, 3),
        "reports_identical": True,
    }


def _bench_large_platform(
    *,
    seed: int,
    repetitions: int,
    sizes: Sequence[int] = LARGEP_SIZES,
    max_slots: int = LARGEP_MAX_SLOTS,
    include_xl: bool = False,
    heuristic: str = LARGEP_HEURISTIC,
    policy: str = LARGEP_POLICY,
) -> Dict:
    """The large-platform engine cells (DESIGN.md §12).

    Each row runs one ``large_grid_scenario`` cell end-to-end under both
    platform indexes, asserts the reports bit-identical, and reports the
    end-to-end ratio plus the per-boundary operation counts that explain
    it: the sweep touches all ``p`` workers per boundary by construction,
    the calendar touches only the churn.  ``bytes_per_worker`` is the
    live RLE availability storage per worker — the memory contract that
    makes 100k workers feasible at all.
    """

    def simulate(scenario, platform_index):
        platform = scenario.build_platform(0)
        sim = MasterSimulator(
            platform,
            scenario.app,
            make_scheduler(heuristic, platform=platform),
            options=SimulatorOptions(
                platform_index=platform_index, replan_policy=policy
            ),
            rng=scenario.scheduler_rng(0, heuristic),
        )
        start = time.perf_counter()
        report = sim.run(max_slots=max_slots)
        elapsed = time.perf_counter() - start
        trace_bytes = sum(
            proc.availability.storage_bytes() for proc in platform
        )
        return report, elapsed, dict(sim.op_counts), trace_bytes

    rows: List[Dict] = []
    all_sizes = list(sizes) + ([LARGEP_XL_SIZE] if include_xl else [])
    for p in all_sizes:
        generator = ScenarioGenerator(seed, p=p, iterations=LARGEP_ITERATIONS)
        scenario = generator.large_grid_scenario(
            LARGEP_CELL["n"], LARGEP_CELL["ncom"], LARGEP_CELL["wmin"], 0,
            mean_sojourn=LARGEP_CELL["mean_sojourn"],
        )
        xl = p not in sizes
        arms = ("calendar",) if xl else ("sweep", "calendar")
        best = {arm: float("inf") for arm in arms}
        outs: Dict[str, tuple] = {}
        for _rep in range(max(1, repetitions)):
            for arm in arms:
                out = simulate(scenario, arm)
                outs[arm] = out
                best[arm] = min(best[arm], out[1])
            if not xl:
                if outs["sweep"][0] != outs["calendar"][0]:
                    raise AssertionError(  # pragma: no cover
                        f"platform indexes diverged on large-p cell p={p}"
                    )
        report, _, counts, trace_bytes = outs["calendar"]
        slots = report.slots_simulated
        boundaries = counts["boundaries"]
        cal_s = best["calendar"]
        row = {
            "p": p,
            "cell": dict(LARGEP_CELL, iterations=LARGEP_ITERATIONS),
            "heuristic": heuristic,
            "replan_policy": policy,
            "max_slots": max_slots,
            "makespan": report.makespan,
            "slots": slots,
            "boundaries": boundaries,
            "calendar_seconds": round(cal_s, 4),
            "slots_per_sec_calendar": round(slots / cal_s, 1),
            "bytes_per_worker": round(trace_bytes / p, 1),
            "calendar_pops": counts["calendar_pops"],
            "touched_per_boundary": {
                "calendar": round(
                    counts["boundary_workers_touched"] / max(boundaries, 1), 2
                ),
            },
        }
        if xl:
            row["sweep_seconds"] = None
            row["largep_speedup"] = None
            row["gated"] = False
        else:
            sweep_counts = outs["sweep"][2]
            sweep_s = best["sweep"]
            row["sweep_seconds"] = round(sweep_s, 4)
            row["slots_per_sec_sweep"] = round(slots / sweep_s, 1)
            row["largep_speedup"] = round(sweep_s / cal_s, 3)
            row["touched_per_boundary"]["sweep"] = round(
                sweep_counts["boundary_workers_touched"] / max(boundaries, 1),
                2,
            )
            row["gated"] = sweep_s >= NOISE_FLOOR_SECONDS
        rows.append(row)
    gated = [row for row in rows if row["gated"]]
    headline = max(gated, key=lambda row: row["p"]) if gated else None
    return {
        "cell": dict(LARGEP_CELL, iterations=LARGEP_ITERATIONS),
        "heuristic": heuristic,
        "replan_policy": policy,
        "results": rows,
        "largep_speedup": headline["largep_speedup"] if headline else None,
        "headline_p": headline["p"] if headline else None,
        "bytes_per_worker_max": max(row["bytes_per_worker"] for row in rows),
        "reports_identical": True,
    }


def run_benchmark(
    *,
    scenarios: int = 1,
    trials: int = 2,
    heuristics: Sequence[str] = HEURISTICS,
    seed: int = 12061,
    repetitions: int = 2,
    cells: Sequence[Tuple[int, int, int]] = TABLE2_SAMPLE,
    long_deadline: bool = True,
    relaxed_policy: bool = True,
    batch_engine: bool = True,
    large_platform: bool = True,
    largep_smoke: bool = False,
    largep_xl: bool = False,
) -> Dict:
    """Time stepping modes, scheduler APIs and instance stores over the
    Table 2 sample (plus the long-horizon deadline cell and the
    relaxed-policy documentation row).

    Returns the JSON-ready document; reports are asserted bit-identical
    between all bit-exact configurations for every simulated instance
    before timings count.  Overall gate ratios aggregate the noise-gated
    cells only (``"gated": true`` rows).
    """
    generator = ScenarioGenerator(seed)
    rows: List[Dict] = []
    for cell in cells:
        rows.append(
            _bench_cell(
                generator,
                tuple(cell),
                scenarios=scenarios,
                trials=trials,
                heuristics=heuristics,
                repetitions=repetitions,
            )
        )
    gated_rows = [row for row in rows if row["gated"]] or rows

    def total(key, subkey=None, source=gated_rows):
        if subkey is None:
            return sum(row[key] for row in source)
        return sum(row[key][subkey] for row in source)

    slot_total = total("slot_seconds")
    span_total = total("span_seconds")
    legacy_api_round_total = total("round_seconds", "legacy_api")
    array_round_total = total("round_seconds", "array")
    legacy_store_total = total("legacy_store_seconds")
    array_body_total = total("body_seconds", "array")
    legacy_body_total = total("body_seconds", "legacy_store")
    document = {
        "benchmark": "sim-span-stepping",
        "unix_time": int(time.time()),
        "cpu_count": os.cpu_count(),
        "config": {
            "cells": [list(cell) for cell in cells],
            "scenarios_per_cell": scenarios,
            "trials": trials,
            "heuristics": list(heuristics),
            "objectives": ["run", "run_slots"],
            "configs": [list(config) for config in CONFIGS],
            "seed": seed,
            "repetitions": repetitions,
            "deadline_slots": DEADLINE_SLOTS,
            "noise_floor_seconds": NOISE_FLOOR_SECONDS,
        },
        "results": rows,
        "gated_cells": [
            list(row["cell"].values()) for row in rows if row["gated"]
        ],
        "slot_seconds_total": round(slot_total, 4),
        "span_seconds_total": round(span_total, 4),
        "speedup": round(slot_total / span_total, 3),
        "round_seconds_total": {
            "array": round(array_round_total, 4),
            "legacy_api": round(legacy_api_round_total, 4),
        },
        "sched_speedup": round(legacy_api_round_total / array_round_total, 3),
        "legacy_store_seconds_total": round(legacy_store_total, 4),
        "store_speedup": round(legacy_store_total / span_total, 3),
        "body_speedup": round(legacy_body_total / array_body_total, 3),
        "reports_identical": True,
    }
    if long_deadline:
        document["long_deadline"] = _bench_long_deadline(
            generator, repetitions=min(repetitions, 2)
        )
    if relaxed_policy:
        document["relaxed_policy"] = _bench_relaxed_policy(
            generator,
            repetitions=min(repetitions, 2),
            scenarios=scenarios,
            trials=trials,
            heuristics=heuristics,
        )
    if batch_engine:
        document["batch_engine"] = _bench_batch_engine(
            generator,
            repetitions=min(repetitions, 2),
            heuristics=heuristics,
        )
        document["batch_speedup"] = document["batch_engine"]["batch_speedup"]
    if large_platform:
        if largep_smoke:
            document["large_platform"] = _bench_large_platform(
                seed=seed,
                repetitions=min(repetitions, 2),
                sizes=(LARGEP_SMOKE_SIZE,),
                max_slots=LARGEP_SMOKE_MAX_SLOTS,
            )
        else:
            document["large_platform"] = _bench_large_platform(
                seed=seed,
                repetitions=min(repetitions, 2),
                include_xl=largep_xl,
            )
        document["largep_speedup"] = document["large_platform"][
            "largep_speedup"
        ]
    return document


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenarios", type=int, default=1, help="scenarios/cell")
    parser.add_argument("--trials", type=int, default=2, help="trials/scenario")
    parser.add_argument("--seed", type=int, default=12061)
    parser.add_argument(
        "--repetitions", type=int, default=3, help="timing repetitions (best-of)"
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=0.95,
        help=(
            "exit non-zero when span/slot speedup falls below this on the "
            "noise-gated cells.  The PR 5 fused single-pass span search "
            "brought the gated-cell ratio back to ~1.0 (from the PR 4 "
            "0.97-0.98 regression); on churn-dense cells span and slot "
            "are structurally at parity (quiet slots are cheap when no "
            "round runs), so the gate allows wall-clock noise below "
            "exact parity"
        ),
    )
    parser.add_argument(
        "--min-sched-speedup",
        type=float,
        default=1.0,
        help=(
            "exit non-zero when the batch (array) scheduler path's "
            "round throughput falls below the legacy scalar path "
            "(legacy_api round seconds / array round seconds)"
        ),
    )
    parser.add_argument(
        "--min-body-speedup",
        type=float,
        default=1.0,
        help=(
            "exit non-zero when the array instance store's simulator "
            "body falls below the legacy list store "
            "(legacy-store body seconds / array-store body seconds)"
        ),
    )
    parser.add_argument(
        "--min-trace-compression",
        type=float,
        default=6.0,
        help=(
            "exit non-zero when the long-deadline cell's RLE availability "
            "storage stops beating the dense trace + UP-prefix "
            "representation by at least this factor"
        ),
    )
    parser.add_argument(
        "--min-batch-speedup",
        type=float,
        default=1.0,
        help=(
            "exit non-zero when the batch cohort engine's runs/sec fall "
            "below the per-run oracle on the noise-gated batch cells "
            "(per-run seconds / batch seconds).  The fused boundary work "
            "(shared traces, state rows, belief columns) is a bounded "
            "share of runtime — scheduling rounds dominate (DESIGN.md "
            "§11) — so the honest ratio sits near 1.1-1.2x, not the "
            "multi-x of a fully fused kernel; the gate guards the engine "
            "against regressing into a cost"
        ),
    )
    parser.add_argument(
        "--min-largep-speedup",
        type=float,
        default=1.0,
        help=(
            "exit non-zero when the event-calendar platform engine falls "
            "below this end-to-end ratio over the O(p)-sweep oracle on "
            "the largest noise-gated large-platform cell (measured ~5.5x "
            "at p=10k locally, ~3.4x on the p=2k CI smoke cell)"
        ),
    )
    parser.add_argument(
        "--max-largep-bytes-per-worker",
        type=float,
        default=1024.0,
        help=(
            "exit non-zero when the live RLE availability storage per "
            "worker exceeds this on any large-platform cell (measured "
            "~150 B/worker; dense storage for the same horizon would be "
            ">40 kB/worker)"
        ),
    )
    parser.add_argument(
        "--skip-largep",
        action="store_true",
        help="skip the large-platform calendar cells (quick local runs)",
    )
    parser.add_argument(
        "--largep-smoke",
        action="store_true",
        help=(
            "replace the large-platform cells with the fast p=2000 "
            "short-horizon smoke cell (CI shape)"
        ),
    )
    parser.add_argument(
        "--largep-xl",
        action="store_true",
        help=(
            "include the calendar-only p=100k row (tens of seconds; "
            "documents scale, never gated)"
        ),
    )
    parser.add_argument(
        "--skip-long-deadline",
        action="store_true",
        help="skip the >=100k-slot deadline cell (quick local runs)",
    )
    parser.add_argument(
        "--skip-batch-engine",
        action="store_true",
        help="skip the batch cohort engine cells (quick local runs)",
    )
    parser.add_argument(
        "--history",
        default=None,
        metavar="PATH",
        help=(
            "append a one-line trajectory record here "
            "(default: BENCH_history.jsonl at the repo root; '-' disables)"
        ),
    )
    parser.add_argument(
        "--skip-relaxed-policy",
        action="store_true",
        help="skip the relaxed-policy documentation row (quick local runs)",
    )
    parser.add_argument(
        "--out", default=None, metavar="PATH", help="write JSON here (else stdout)"
    )
    args = parser.parse_args(argv)

    document = run_benchmark(
        scenarios=args.scenarios,
        trials=args.trials,
        seed=args.seed,
        repetitions=args.repetitions,
        long_deadline=not args.skip_long_deadline,
        relaxed_policy=not args.skip_relaxed_policy,
        batch_engine=not args.skip_batch_engine,
        large_platform=not args.skip_largep,
        largep_smoke=args.largep_smoke,
        largep_xl=args.largep_xl,
    )
    if args.history != "-":
        from bench_history import append_history

        append_history(
            "sim-hot-loop",
            {
                "speedup": document["speedup"],
                "sched_speedup": document["sched_speedup"],
                "store_speedup": document["store_speedup"],
                "body_speedup": document["body_speedup"],
                "batch_speedup": document.get("batch_speedup"),
                # Cell parameters, so a trajectory line is interpretable
                # without digging up the BENCH_sim.json it came from.
                "cells": [list(cell) for cell in TABLE2_SAMPLE],
                "heuristics": list(HEURISTICS),
            },
            path=args.history,
        )
        largep = document.get("large_platform")
        if largep is not None and largep["largep_speedup"] is not None:
            append_history(
                "sim-large-platform",
                {
                    "largep_speedup": largep["largep_speedup"],
                    "p": largep["headline_p"],
                    "n": largep["cell"]["n"],
                    "wmin": largep["cell"]["wmin"],
                    "heuristic": largep["heuristic"],
                    "replan_policy": largep["replan_policy"],
                    "bytes_per_worker_max": largep["bytes_per_worker_max"],
                },
                path=args.history,
            )
    text = json.dumps(document, indent=2)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
        cells = ", ".join(
            f"{tuple(row['cell'].values())}: {row['speedup']}x/"
            f"{row['sched_speedup']}x/{row['body_speedup']}x"
            + ("" if row["gated"] else " (ungated)")
            for row in document["results"]
        )
        batch = document.get("batch_speedup")
        largep_ratio = document.get("largep_speedup")
        print(
            f"wrote {args.out} (overall span {document['speedup']}x, "
            f"sched {document['sched_speedup']}x, store "
            f"{document['store_speedup']}x, body {document['body_speedup']}x"
            + (f", batch {batch}x" if batch is not None else "")
            + (f", large-p {largep_ratio}x" if largep_ratio is not None else "")
            + f"; per-cell span/sched/body: {cells})",
            file=sys.stderr,
        )
    else:
        print(text)
    failed = False
    if document["speedup"] < args.min_speedup:
        print(
            f"FAIL: span mode speedup {document['speedup']} < "
            f"{args.min_speedup} (span-stepped core regressed below the "
            "slot-stepped oracle on the gated cells)",
            file=sys.stderr,
        )
        failed = True
    if document["sched_speedup"] < args.min_sched_speedup:
        print(
            f"FAIL: batch scheduling speedup {document['sched_speedup']} < "
            f"{args.min_sched_speedup} (array RoundState path regressed "
            "below the legacy scalar scheduler path)",
            file=sys.stderr,
        )
        failed = True
    if document["body_speedup"] < args.min_body_speedup:
        print(
            f"FAIL: simulator body speedup {document['body_speedup']} < "
            f"{args.min_body_speedup} (array InstanceTable body regressed "
            "below the legacy list-store body)",
            file=sys.stderr,
        )
        failed = True
    batch_speedup = document.get("batch_speedup")
    if batch_speedup is not None and batch_speedup < args.min_batch_speedup:
        print(
            f"FAIL: batch engine speedup {batch_speedup} < "
            f"{args.min_batch_speedup} (the cohort engine regressed below "
            "the per-run oracle on the gated batch cells)",
            file=sys.stderr,
        )
        failed = True
    largep = document.get("large_platform")
    if largep is not None:
        largep_speedup = largep["largep_speedup"]
        if largep_speedup is not None and largep_speedup < args.min_largep_speedup:
            print(
                f"FAIL: large-platform speedup {largep_speedup} < "
                f"{args.min_largep_speedup} on the p={largep['headline_p']} "
                "cell (the event-calendar engine regressed toward the "
                "O(p)-sweep oracle)",
                file=sys.stderr,
            )
            failed = True
        if largep["bytes_per_worker_max"] > args.max_largep_bytes_per_worker:
            print(
                f"FAIL: large-platform availability storage "
                f"{largep['bytes_per_worker_max']} B/worker > "
                f"{args.max_largep_bytes_per_worker} (the RLE memory "
                "contract regressed)",
                file=sys.stderr,
            )
            failed = True
    long_row = document.get("long_deadline")
    if (
        long_row is not None
        and long_row["trace_compression"] < args.min_trace_compression
    ):
        print(
            f"FAIL: RLE trace compression {long_row['trace_compression']} < "
            f"{args.min_trace_compression} on the long-horizon deadline "
            "cell (availability storage regressed toward dense)",
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
