"""The benchmark's four workloads, driven only through public entry points.

Every workload generates its inputs from the seed with
:class:`~repro.workload.scenarios.ScenarioGenerator` and hands the
simulator nothing else.  The only simulator option ever set is
``SimulatorOptions(replan_policy=...)``.

Work per execution is fixed by ``(seed, seconds)``: ``seconds`` sizes the
population through a per-workload calibration (``UNIT_SECONDS``), so the
same arguments always simulate the same runs and every count the
benchmark reports repeats exactly.
``table2-p20`` always runs whole passes of its six-cell grid, because a
partial pass is not a Table 2.

repro is imported inside functions, never at module level, so the set-up
time the benchmark reports includes the imports.
"""

from __future__ import annotations

import os
import shutil
import statistics
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from tracing import Tracer

#: Slot budget of a makespan run (``run_instance``'s default).
MAX_SLOTS = 500_000


@lru_cache(maxsize=None)
def _repro():
    """The public repro entry points the benchmark uses (imports them)."""
    import types

    from repro.core.heuristics.registry import PAPER_HEURISTICS, make_scheduler
    from repro.experiments.dfb import DfbAccumulator
    from repro.experiments.distributed import DistributedBackend
    from repro.experiments.distributed.coordinator import SHARD_BASENAME
    from repro.experiments.harness import CampaignConfig, run_campaign
    from repro.experiments.persistence import ShardedCheckpoint, discover_shards
    from repro.experiments.table2 import PAPER_TABLE2
    from repro.sim.master import MasterSimulator, SimulatorOptions
    from repro.workload.scenarios import ScenarioGenerator

    return types.SimpleNamespace(**locals())


# ----------------------------------------------------------------------
# correctness bookkeeping


class Checks:
    """Attempted runs and the runs that raised or failed a check."""

    def __init__(self) -> None:
        self.failed_labels: set = set()
        self.messages: List[str] = []

    def fail(self, labels: Sequence[str], message: str) -> None:
        self.failed_labels.update(labels)
        self.messages.append(message)

    @property
    def failed(self) -> int:
        return len(self.failed_labels)


# ----------------------------------------------------------------------
# one simulation run


@dataclass(frozen=True)
class Job:
    """One (scenario, trial, heuristic) run; ``deadline`` selects run_slots."""

    label: str
    scenario: object
    trial: int
    heuristic: str
    policy: str = "event"
    deadline: Optional[int] = None


@dataclass
class Instance:
    """The runs of one (scenario, trial): every heuristic of the workload."""

    key: tuple
    jobs: List[Job]


@dataclass
class Population:
    """A workload's generated inputs for one execution."""

    workload: str
    seed: int
    seconds: int
    instances: List[Instance]
    #: Scratch directory inside the checkout (shard journals).
    work_dir: Optional[Path] = None

    def labels(self) -> List[str]:
        return [job.label for inst in self.instances for job in inst.jobs]


@dataclass
class RunOutcome:
    job: Job
    report: object
    counts: Dict[str, int]
    seconds: float
    bytes_per_worker: float
    network: Optional[List[int]] = None  # slots, busy slots, channel-slots, ncom


def _counts(report, sim) -> Dict[str, int]:
    """The deterministic per-run counts the benchmark compares."""
    ops = sim.op_counts
    return {
        "makespan": -1 if report.makespan is None else int(report.makespan),
        "slots": report.slots_simulated,
        "completed_iterations": report.completed_iterations,
        "rounds": report.scheduler_rounds,
        "boundaries": ops["boundaries"],
        "boundary_workers_touched": ops["boundary_workers_touched"],
        "calendar_pops": ops["calendar_pops"],
        "span_scan_workers": ops["span_scan_workers"],
        "rows_scored": ops["rows_scored"],
        "rows_reused": ops["rows_reused"],
        "instance_ops": sim.instance_ops,
    }


def _tally_network(network, tally: List[int]) -> None:
    """Count slots, busy slots and channel-slots at the network's public
    ``allocate``/``record_span`` calls (its usage accessors count only in
    audit mode, an option the benchmark does not set)."""
    allocate, record_span = network.allocate, network.record_span

    def counted_allocate(slot, requests):
        granted = allocate(slot, requests)
        tally[0] += 1
        tally[1] += bool(granted)
        tally[2] += len(granted)
        return granted

    def counted_record_span(start_slot, count, *, nprog, ndata, requested):
        record_span(start_slot, count, nprog=nprog, ndata=ndata, requested=requested)
        tally[0] += count
        tally[1] += count if nprog + ndata else 0
        tally[2] += (nprog + ndata) * count

    network.allocate = counted_allocate
    network.record_span = counted_record_span


def simulate(job: Job, tracer: Optional[Tracer] = None) -> RunOutcome:
    """Run one job the way ``run_instance`` does, optionally traced."""
    r = _repro()
    start = time.perf_counter()
    if tracer is not None:
        root = tracer.begin_run(job.label)
    try:
        if tracer is not None:
            build = tracer.begin("sim.platform.build")
        platform = job.scenario.build_platform(job.trial)
        if tracer is not None:
            tracer.finish(build)
        scheduler = r.make_scheduler(job.heuristic, platform=platform)
        sim = r.MasterSimulator(
            platform,
            job.scenario.app,
            scheduler,
            options=r.SimulatorOptions(replan_policy=job.policy),
            rng=job.scenario.scheduler_rng(job.trial, job.heuristic),
        )
        tally = None
        if tracer is not None:
            tally = [0, 0, 0, sim.network.ncom]
            _tally_network(sim.network, tally)
            for method in ("place_array", "place"):
                tracer.wrap(scheduler, method, "core.heuristics.place")
            for method in ("plan", "allocate", "record_span"):
                tracer.wrap(sim.network, method, "sim.network")
        if job.deadline is None:
            report = sim.run(max_slots=MAX_SLOTS)
        else:
            report = sim.run_slots(job.deadline)
    finally:
        if tracer is not None:
            tracer.finish_run(root)
    seconds = time.perf_counter() - start
    storage = sum(proc.availability.storage_bytes() for proc in platform)
    return RunOutcome(
        job=job,
        report=report,
        counts=_counts(report, sim),
        seconds=seconds,
        bytes_per_worker=storage / len(platform),
        network=tally,
    )


@dataclass
class Pass:
    """Outcome of executing a population once."""

    wall_s: float
    outcomes: List[RunOutcome] = field(default_factory=list)
    accumulator: object = None
    #: run label -> deterministic counts (what the ledger compares).
    counts: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: Simulated slots per host second of each timed item: a run, or one
    #: loopback campaign (runs inside the service are not timed singly).
    rates: List[float] = field(default_factory=list)

    @property
    def runs(self) -> int:
        return len(self.counts)

    @property
    def slots(self) -> int:
        return sum(c["slots"] for c in self.counts.values())


def run_by_run(
    workload: "Workload",
    instances: List[Instance],
    checks: Checks,
    tracers: Sequence[Optional[Tracer]] = (None,),
) -> List[Pass]:
    """Execute every job once per entry of ``tracers`` (``None``: untraced).

    The variants of one job run back to back, alternating which goes
    first, so drift and warm-up fall on both alike.  Each pass folds its
    makespans per instance into its own dfb accumulator; its wall time is
    the sum of its runs and folds.
    """
    r = _repro()
    passes = [
        Pass(wall_s=0.0, accumulator=r.DfbAccumulator() if workload.deadline is None else None)
        for _ in tracers
    ]
    order = list(range(len(tracers)))
    for instance in instances:
        makespans: List[Dict[str, float]] = [{} for _ in tracers]
        for job in instance.jobs:
            for variant in order:
                try:
                    outcome = simulate(job, tracers[variant])
                except Exception:  # a failed run is counted, not fatal
                    checks.fail([job.label], f"{job.label} raised:\n{traceback.format_exc()}")
                    continue
                result = passes[variant]
                result.outcomes.append(outcome)
                result.counts[job.label] = outcome.counts
                result.wall_s += outcome.seconds
                result.rates.append(outcome.counts["slots"] / outcome.seconds)
                makespans[variant][job.heuristic] = float(outcome.counts["makespan"])
            order.reverse()
        for variant, result in enumerate(passes):
            if result.accumulator is None or len(makespans[variant]) != len(instance.jobs):
                continue
            tracer = tracers[variant]
            start = time.perf_counter()
            span = tracer.begin("experiments.dfb.fold") if tracer else None
            result.accumulator.add_instance(instance.key, makespans[variant])
            if tracer:
                tracer.finish(span)
            result.wall_s += time.perf_counter() - start
    return passes


# ----------------------------------------------------------------------
# workloads


def _label(workload: str, key: tuple, trial: int, heuristic: str) -> str:
    return f"{workload}|{'/'.join(map(str, key))}|t{trial}|{heuristic}"


class Workload:
    """Population generation and the untraced measurement of one workload."""

    name = ""
    heuristics: Sequence[str] = ()
    policy = "event"
    deadline: Optional[int] = None
    #: Host seconds one unit of the population takes on a 2-vCPU x86 VM;
    #: ``--seconds`` buys round(seconds / UNIT_SECONDS) units, at least one.
    UNIT_SECONDS = 1.0

    def units(self, seconds: int) -> int:
        return max(1, round(seconds / self.UNIT_SECONDS))

    def scenarios(self, seed: int, seconds: int) -> list:
        raise NotImplementedError

    def setup(self, seed: int, seconds: int) -> Population:
        """Everything before the first run: imports and the population."""
        _repro()
        instances = []
        for scenario in self.scenarios(seed, seconds):
            jobs = [
                Job(
                    label=_label(self.name, scenario.key, 0, h),
                    scenario=scenario,
                    trial=0,
                    heuristic=h,
                    policy=self.policy,
                    deadline=self.deadline,
                )
                for h in self.heuristics
            ]
            instances.append(Instance(key=(*scenario.key, 0), jobs=jobs))
        return Population(workload=self.name, seed=seed, seconds=seconds, instances=instances)

    def measure(self, population: Population, checks: Checks) -> Pass:
        """The untraced, end-to-end measured execution."""
        return run_by_run(self, population.instances, checks)[0]

    def check_pass(self, result: Pass, checks: Checks) -> None:
        """Workload-specific output checks on a finished pass."""
        for outcome in result.outcomes:
            report = outcome.report
            if self.deadline is None and not report.finished:
                checks.fail([outcome.job.label], f"{outcome.job.label}: hit the slot budget")
            if self.deadline is not None and (
                report.slots_simulated != self.deadline
                or report.completed_iterations >= report.target_iterations
            ):
                checks.fail(
                    [outcome.job.label],
                    f"{outcome.job.label}: the deadline did not bind "
                    f"({report.completed_iterations} iterations in "
                    f"{report.slots_simulated} slots)",
                )
        if self.deadline is None:
            problems = table2_problems(result.accumulator, len(self.heuristics))
            if problems:
                checks.fail(list(result.counts), "dfb table inconsistent: " + "; ".join(problems))


class Table2P20(Workload):
    """The Table 2 protocol: all 17 heuristics at p=20, n in {5,20}, ncom=5,
    wmin in {1,2,3}, run by run exactly as ``run_table2``'s units run them
    (``run_table2`` itself exposes no per-run time).

    wmin stops at 3: one scenario per cell of the wmin in {1,5,10} grid
    took 27-81 s depending on the seed (the wmin=10 cells alone 10-27 s
    each), too long for one execution and too few instances for figures
    that hold steady across seeds.
    """

    name = "table2-p20"
    policy = "event"
    N_VALUES = (5, 20)
    NCOM_VALUES = (5,)
    WMIN_VALUES = (1, 2, 3)
    #: A unit is one scenario per cell (six instances, 102 runs, about 8
    #: host seconds); 20 s buys four, for steadier figures across seeds.
    UNIT_SECONDS = 5.0

    @property
    def heuristics(self):
        return tuple(_repro().PAPER_HEURISTICS)

    def scenarios(self, seed, seconds):
        generator = _repro().ScenarioGenerator(seed)
        return list(
            generator.grid(
                self.units(seconds),
                n_values=self.N_VALUES,
                ncom_values=self.NCOM_VALUES,
                wmin_values=self.WMIN_VALUES,
            )
        )


class LargeP2k(Workload):
    """mct and emct* on a 2000-worker low-churn grid, sticky replans."""

    name = "largep-2k"
    heuristics = ("mct", "emct*")
    policy = "sticky"
    P = 2000
    UNIT_SECONDS = 2.2

    def scenarios(self, seed, seconds):
        generator = _repro().ScenarioGenerator(seed, p=self.P, iterations=3)
        return [
            generator.large_grid_scenario(40, 10, 30, index, mean_sojourn=1000)
            for index in range(self.units(seconds))
        ]


class DeadlineComm(Workload):
    """run_slots on the communication-bound (5, 5, 1) cell."""

    name = "deadline-comm"
    heuristics = ("emct*", "mct", "random")
    deadline = 500
    #: Far above what fits in the deadline, so the deadline binds.
    ITERATIONS = 10_000
    UNIT_SECONDS = 0.25

    def scenarios(self, seed, seconds):
        generator = _repro().ScenarioGenerator(seed, iterations=self.ITERATIONS)
        return [generator.scenario(5, 5, 1, index) for index in range(self.units(seconds))]


class ProbeUnit:
    """A no-op work unit: bringing the loopback service up and down."""

    def run(self):
        return None


class CampaignLoopback(Workload):
    """Comm-light units of the four greedy families on DistributedBackend(2)."""

    name = "campaign-loopback"
    heuristics = ("mct", "emct*", "lw", "ud*")
    JOBS = 2
    #: n=5 tasks on ncom=20 >= p channels: transfers never queue.
    CELL = (5, 20, 1)
    UNIT_SECONDS = 0.22
    #: Timed campaigns per execution; slots_per_s is their median.
    CAMPAIGNS = 9

    def scenarios(self, seed, seconds):
        generator = _repro().ScenarioGenerator(seed)
        return [generator.scenario(*self.CELL, index) for index in range(self.units(seconds))]

    def setup(self, seed, seconds):
        population = super().setup(seed, seconds)
        # Bring the coordinator and local cluster up and down once, so
        # set-up covers what the campaign pays before its first unit.
        list(_repro().DistributedBackend(self.JOBS).run([ProbeUnit()]))
        return population

    def config(self):
        r = _repro()
        return r.CampaignConfig(
            heuristics=self.heuristics,
            trials=1,
            options=r.SimulatorOptions(replan_policy=self.policy),
        )

    def loopback(self, population: Population, checks: Checks) -> dict:
        """run_campaign through DistributedBackend, with shard journals, over
        ``CAMPAIGNS`` consecutive slices of the units (each slice is one
        timed campaign, coordinator start-up included)."""
        r = _repro()
        instances = population.instances
        count = min(self.CAMPAIGNS, len(instances))
        looped = {"walls": [], "slots": [], "records": [], "journal_bytes": 0, "loads": []}
        stats = dict.fromkeys(("chunks_assigned", "reissues", "duplicates_dropped", "heartbeats"), 0)
        for index in range(count):
            part = instances[index * len(instances) // count:(index + 1) * len(instances) // count]
            scenarios = [inst.jobs[0].scenario for inst in part]
            journal_dir = Path(tempfile.mkdtemp(prefix="journal-", dir=population.work_dir))
            try:
                backend = r.DistributedBackend(self.JOBS, checkpoint_dir=journal_dir)
                start = time.perf_counter()
                campaign = r.run_campaign(scenarios, self.config(), backend=backend)
                looped["walls"].append(time.perf_counter() - start)
                shards = r.discover_shards(journal_dir)
                looped["journal_bytes"] += sum(os.path.getsize(path) for path in shards)
                load_start = time.perf_counter()
                stored = r.ShardedCheckpoint(journal_dir / r.SHARD_BASENAME).load()
                looped["loads"].append(time.perf_counter() - load_start)
            finally:
                shutil.rmtree(journal_dir, ignore_errors=True)
            if len(stored) != len(part):
                checks.fail(
                    [job.label for inst in part for job in inst.jobs],
                    f"journal reloaded {len(stored)} of {len(part)} units",
                )
            looped["records"].extend(campaign.records)
            looped["slots"].append(sum(sum(m.values()) for _key, m in campaign.records))
            for name in stats:
                stats[name] += getattr(backend.last_stats, name)
        looped["stats"] = stats
        return looped

    def records_to_counts(self, records) -> Dict[str, Dict[str, int]]:
        counts = {}
        for key, makespans in records:
            for heuristic, makespan in makespans.items():
                label = _label(self.name, key[:-1], key[-1], heuristic)
                counts[label] = {"makespan": int(makespan), "slots": int(makespan)}
        return counts

    def compare_records(self, records, reference: Dict[str, Dict[str, int]], checks, what: str):
        """Loopback records must equal the serial records of the same units."""
        looped = self.records_to_counts(records)
        for label, counts in looped.items():
            expected = reference.get(label)
            if expected is None or expected["makespan"] != counts["makespan"]:
                checks.fail([label], f"{label}: loopback makespan {counts['makespan']} != {what} {expected}")
        missing = set(reference) - set(looped)
        if missing:
            checks.fail(sorted(missing), f"loopback campaign lost {len(missing)} run(s)")

    def measure(self, population, checks):
        r = _repro()
        try:
            looped = self.loopback(population, checks)
        except Exception:
            checks.fail(population.labels(), f"loopback campaign raised:\n{traceback.format_exc()}")
            return Pass(wall_s=0.0)
        scenarios = [inst.jobs[0].scenario for inst in population.instances]
        serial = r.run_campaign(scenarios, self.config())
        self.compare_records(looped["records"], self.records_to_counts(serial.records), checks, "serial")
        return Pass(
            wall_s=sum(looped["walls"]),
            accumulator=serial.accumulator,
            counts=self.records_to_counts(looped["records"]),
            rates=[slots / wall for slots, wall in zip(looped["slots"], looped["walls"])],
        )


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (Table2P20(), LargeP2k(), DeadlineComm(), CampaignLoopback())
}


# ----------------------------------------------------------------------
# fidelity


def kendall_tau_b(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Kendall tau-b between two paired sequences (ties allowed)."""
    concordant = discordant = ties_x = ties_y = 0
    n = len(xs)
    for i in range(n):
        for j in range(i + 1, n):
            dx = (xs[i] > xs[j]) - (xs[i] < xs[j])
            dy = (ys[i] > ys[j]) - (ys[i] < ys[j])
            if dx == 0 and dy == 0:
                continue
            if dx == 0:
                ties_x += 1
            elif dy == 0:
                ties_y += 1
            elif dx == dy:
                concordant += 1
            else:
                discordant += 1
    denominator = (
        (concordant + discordant + ties_x) * (concordant + discordant + ties_y)
    ) ** 0.5
    return (concordant - discordant) / denominator if denominator else 0.0


def paper_tau(scores: Dict[str, float]) -> float:
    """Kendall tau between measured scores (lower is better) and the paper's
    Table 2 average dfb, over the heuristics measured."""
    paper = _repro().PAPER_TABLE2
    names = [name for name in scores if name in paper]
    return kendall_tau_b([scores[n] for n in names], [paper[n][0] for n in names])


def table2_problems(accumulator, expected_rows: int) -> List[str]:
    """Consistency of a Table 2: row count, dfb >= 0, wins >= instances."""
    if accumulator is None:
        return ["no table"]
    rows = accumulator.table()
    problems = []
    if len(rows) != expected_rows:
        problems.append(f"{len(rows)} rows, expected {expected_rows}")
    negative = [name for name, dfb, _wins in rows if not dfb >= 0]
    if negative:
        problems.append(f"negative dfb for {negative}")
    wins = sum(w for _name, _dfb, w in rows)
    if wins < accumulator.instance_count:
        problems.append(f"{wins} wins over {accumulator.instance_count} instances")
    return problems


def fidelity_tau(workload: Workload, result: Pass) -> float:
    """Paper-order tau of the workload's own heuristics."""
    if result.accumulator is not None:
        return paper_tau(
            {name: dfb for name, dfb, _wins in result.accumulator.table()}
        )
    # Deadline objective: more completed iterations is better.
    means: Dict[str, List[int]] = {}
    for outcome in result.outcomes:
        means.setdefault(outcome.job.heuristic, []).append(
            outcome.counts["completed_iterations"]
        )
    return paper_tau({h: -statistics.fmean(v) for h, v in means.items()})
