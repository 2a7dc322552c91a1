"""Tests of the benchmark itself, on tiny versions of its workloads.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import dataclasses
import json
import re
import shutil
import subprocess
import sys

import pytest

import run
import workloads as wl
from ledger import Ledger
from tracing import Tracer

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def tiny(name):
    """A fresh workload object shrunk to run in about a second."""
    workload = type(wl.WORKLOADS[name])()
    if name == "table2-p20":
        workload.N_VALUES, workload.WMIN_VALUES = (5,), (1,)
    elif name == "largep-2k":
        workload.P = 100
    elif name == "deadline-comm":
        workload.deadline = 150
    return workload


@pytest.fixture
def bench(monkeypatch, tmp_path):
    """Run ``run.main`` on tiny workloads with a private work directory."""
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    monkeypatch.setattr(run, "SETUP_PROBES", 1)

    def execute(name, trace, capsys, workload=None, seed=3):
        monkeypatch.setitem(wl.WORKLOADS, name, workload or tiny(name))
        code = run.main(
            ["--workload", name, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
        )
        out = capsys.readouterr().out.strip().splitlines()
        return code, json.loads(out[-1])

    return execute


def test_benchmark_json_is_well_formed():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["command"][0] == "python3" and SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert {w["name"] for w in SPEC["workloads"]} == set(wl.WORKLOADS)
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer") for m in SPEC[group]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_every_metric_is_reported_with_its_unit(bench, capsys, name, trace):
    code, result = bench(name, trace, capsys)
    assert code == 0 and result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)


def test_tampered_traced_report_fails_the_run(bench, capsys, monkeypatch):
    honest = wl.simulate

    def tampering(job, tracer=None):
        outcome = honest(job, tracer)
        if tracer is not None:
            outcome.report = dataclasses.replace(
                outcome.report, scheduler_rounds=outcome.report.scheduler_rounds + 1
            )
        return outcome

    monkeypatch.setattr(wl, "simulate", tampering)
    code, result = bench("deadline-comm", 1, capsys)
    assert code == 1 and result["correct"] is False
    assert result["failed"] == result["attempted"]


def test_loopback_records_must_equal_serial_records(bench, capsys):
    workload = tiny("campaign-loopback")
    honest = workload.loopback

    def tampered(population, checks):
        looped = honest(population, checks)
        key, makespans = looped["records"][0]
        first = next(iter(makespans))
        looped["records"][0] = (key, {**makespans, first: makespans[first] + 1})
        return looped

    workload.loopback = tampered
    code, result = bench("campaign-loopback", 0, capsys, workload=workload)
    assert code == 1 and result["correct"] is False and result["failed"] == 1


class FakeTable:
    """A DfbAccumulator double with a chosen table."""

    def __init__(self, rows, instances):
        self.rows, self.instance_count = rows, instances

    def table(self):
        return self.rows


def test_table2_consistency_checks_fire():
    good = [(f"h{i}", float(i), 1) for i in range(17)]
    assert wl.table2_problems(FakeTable(good, 17), 17) == []
    assert wl.table2_problems(FakeTable(good[:16], 16), 17)
    assert wl.table2_problems(FakeTable([("h", -0.5, 17)] + good[1:], 17), 17)
    assert wl.table2_problems(FakeTable(good, 18), 17)
    assert wl.table2_problems(None, 17)


def test_counts_must_repeat_across_executions(bench, capsys):
    assert bench("deadline-comm", 0, capsys)[0] == 0
    assert bench("deadline-comm", 1, capsys)[0] == 0
    [path] = (run.WORK / "ledger").rglob("deadline-comm-3.json")
    records = json.loads(path.read_text())
    label = sorted(records)[0]
    assert {"rounds", "slots", "boundaries", "rows_scored", "calendar_pops",
            "instance_ops", "completed_iterations"} <= set(records[label])
    records[label]["rounds"] += 1
    path.write_text(json.dumps(records))
    code, result = bench("deadline-comm", 0, capsys)
    assert code == 1 and result["failed"] == 1


def test_ledger_is_keyed_by_the_sources(tmp_path):
    first = Ledger(run.ROOT, tmp_path, "w", 1)
    assert first.reconcile({"a": {"rounds": 3}}) == {}
    first.save()
    again = Ledger(run.ROOT, tmp_path, "w", 1)
    assert again.reconcile({"a": {"rounds": 3, "slots": 9}}) == {}
    assert list(again.reconcile({"a": {"rounds": 4}})) == ["a"]


def test_self_times_add_up_to_the_run_span(tmp_path):
    tracer = Tracer()
    root = tracer.begin_run("r")
    outer = tracer.begin("sim.network")
    inner = tracer.begin("sim.network")
    tracer.finish(inner)
    tracer.finish(outer)
    tracer.finish_run(root)
    assert tracer.run_balance_errors() == []
    totals = tracer.layer_totals()
    assert totals["sim.network"]["calls"] == 1
    assert totals["run"]["self_s"] + totals["sim.network"]["self_s"] == pytest.approx(
        totals["run"]["total_s"], abs=1e-12
    )
    tracer.parent[inner] = -1  # misattributed child: the run no longer balances
    assert tracer.run_balance_errors()
    written = tracer.export_chrome(tmp_path / "t.json")
    events = json.loads((tmp_path / "t.json").read_text())["traceEvents"]
    assert written == len(events) == 3 and {e["ph"] for e in events} == {"X"}


def test_kendall_tau():
    assert wl.kendall_tau_b([1, 2, 3], [10, 20, 30]) == 1.0
    assert wl.kendall_tau_b([3, 2, 1], [10, 20, 30]) == -1.0
    assert wl.paper_tau({"emct": 1.0, "mct": 2.0, "random": 9.0}) == 1.0


def test_fails_without_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "deadline-comm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0 and done.stdout.strip() == ""
