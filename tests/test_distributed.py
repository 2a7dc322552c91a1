"""Tests for the distributed campaign service (DESIGN.md §13).

Covers the wire protocol, the coordinator's lease/re-issue/dedupe
machinery, the ``distributed`` execution backend, and the full failure
matrix — every mode asserting the acceptance bar: merged statistics
bit-identical to a serial run.
"""

import json
import socket
import struct
import threading
import time

import pytest

from repro.experiments.backends import SerialBackend, make_backend
from repro.experiments.distributed import (
    CampaignCoordinator,
    CampaignWorker,
    CoordinatorKilled,
    DistributedBackend,
    FaultPlan,
    FaultyWorker,
    RemoteUnitError,
    WorkerCrashed,
    campaign_status,
    render_campaign_status,
    tear_journal,
    units_fingerprint,
)
from repro.experiments.distributed.wire import (
    PROTOCOL_VERSION,
    ConnectionClosed,
    ProtocolError,
    client_handshake,
    recv_msg,
    send_msg,
)
from repro.experiments.harness import (
    CampaignConfig,
    iter_work_units,
    run_campaign,
)
from repro.workload.scenarios import ScenarioGenerator

HEURISTICS = ("mct", "emct", "random")


@pytest.fixture(scope="module")
def scenarios():
    return [ScenarioGenerator(3).scenario(5, 5, 1, i) for i in range(3)]


@pytest.fixture(scope="module")
def config():
    return CampaignConfig(heuristics=HEURISTICS, trials=2)


@pytest.fixture(scope="module")
def units(scenarios, config):
    return list(iter_work_units(scenarios, config))


@pytest.fixture(scope="module")
def serial_result(scenarios, config):
    return run_campaign(scenarios, config, backend=SerialBackend())


def assert_bit_identical(result, serial_result):
    assert result.records == serial_result.records
    assert result.accumulator == serial_result.accumulator
    assert result.per_scenario == serial_result.per_scenario
    assert result.truncated_runs == serial_result.truncated_runs
    for name in HEURISTICS:
        assert result.accumulator.average_dfb_ci(
            name
        ) == serial_result.accumulator.average_dfb_ci(name)


# ---------------------------------------------------------------------------
# wire protocol


class TestWire:
    def test_round_trip(self):
        a, b = socket.socketpair()
        try:
            send_msg(a, {"type": "hello", "payload": [1, 2.5, ("x",)]})
            message = recv_msg(b)
            assert message == {"type": "hello", "payload": [1, 2.5, ("x",)]}
        finally:
            a.close()
            b.close()

    def test_eof_raises_connection_closed(self):
        a, b = socket.socketpair()
        a.close()
        try:
            with pytest.raises(ConnectionClosed):
                recv_msg(b)
        finally:
            b.close()

    def test_eof_mid_frame(self):
        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack(">I", 100) + b"short")
            a.close()
            with pytest.raises(ConnectionClosed, match="unread"):
                recv_msg(b)
        finally:
            b.close()

    def test_non_dict_frame_rejected(self):
        import pickle

        a, b = socket.socketpair()
        try:
            payload = pickle.dumps(["not", "a", "dict"])
            a.sendall(struct.pack(">I", len(payload)) + payload)
            with pytest.raises(ProtocolError, match="malformed"):
                recv_msg(b)
        finally:
            a.close()
            b.close()

    def test_missing_type_rejected(self):
        import pickle

        a, b = socket.socketpair()
        try:
            payload = pickle.dumps({"no_type": 1})
            a.sendall(struct.pack(">I", len(payload)) + payload)
            with pytest.raises(ProtocolError, match="malformed"):
                recv_msg(b)
        finally:
            a.close()
            b.close()

    def test_oversized_frame_announcement_refused(self):
        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack(">I", 2**32 - 1))
            with pytest.raises(ProtocolError, match="refusing"):
                recv_msg(b)
        finally:
            a.close()
            b.close()

    def test_undecodable_frame_rejected(self):
        a, b = socket.socketpair()
        try:
            payload = b"\x80\x05 garbage that is not a pickle"
            a.sendall(struct.pack(">I", len(payload)) + payload)
            with pytest.raises(ProtocolError, match="undecodable"):
                recv_msg(b)
        finally:
            a.close()
            b.close()


class TestHandshake:
    def test_version_mismatch_rejected_before_any_assignment(self, units):
        coordinator = CampaignCoordinator(units[:2]).start()
        try:
            sock = socket.create_connection(coordinator.address)
            try:
                send_msg(
                    sock,
                    {"type": "hello", "version": 999, "worker": "future"},
                )
                reply = recv_msg(sock)
                assert reply["type"] == "reject"
                assert "999" in reply["reason"]
            finally:
                sock.close()
            assert coordinator.stats.chunks_assigned == 0
        finally:
            coordinator.close()

    def test_client_handshake_raises_on_reject(self, units):
        coordinator = CampaignCoordinator(units[:2]).start()
        try:
            sock = socket.create_connection(coordinator.address)
            try:
                # Not a hello at all → coordinator rejects the session.
                send_msg(sock, {"type": "request"})
                with pytest.raises(ProtocolError, match="refused"):
                    client_handshake(sock, worker_id="w")
            finally:
                sock.close()
        finally:
            coordinator.close()

    def test_welcome_advertises_heartbeat_and_total(self, units):
        coordinator = CampaignCoordinator(
            units[:3], lease_timeout=9.0
        ).start()
        try:
            sock = socket.create_connection(coordinator.address)
            try:
                welcome = client_handshake(sock, worker_id="w")
                assert welcome["version"] == PROTOCOL_VERSION
                assert welcome["units_total"] == 3
                assert welcome["heartbeat"] == pytest.approx(3.0)
            finally:
                sock.close()
        finally:
            coordinator.close()


# ---------------------------------------------------------------------------
# registry / backend basics


class TestBackendRegistry:
    def test_make_backend_resolves_lazily(self):
        backend = make_backend("distributed", jobs=2)
        assert isinstance(backend, DistributedBackend)
        assert backend.jobs == 2

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            DistributedBackend(0)
        with pytest.raises(ValueError):
            CampaignCoordinator([], lease_timeout=0)
        with pytest.raises(ValueError):
            CampaignCoordinator([], chunk_size=0)
        with pytest.raises(ValueError):
            CampaignCoordinator([], shards=0)

    def test_empty_unit_list_is_a_noop(self):
        assert list(DistributedBackend(jobs=2).run([])) == []

    def test_fingerprint_for_campaign_units(self, units):
        fp = units_fingerprint(units)
        assert fp["units"] == len(units)
        assert fp == units_fingerprint(list(units))  # deterministic
        assert units_fingerprint([object()]) is None  # generic units


class TestDistributedEqualsSerial:
    """The acceptance bar, healthy path."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(jobs=2),
            dict(jobs=4, chunk_size=1),
            dict(jobs=3, chunk_size=4),
        ],
        ids=["guided-2", "chunk1-4", "chunk4-3"],
    )
    def test_bit_identical(self, scenarios, config, serial_result, kwargs):
        backend = DistributedBackend(**kwargs)
        result = run_campaign(scenarios, config, backend=backend)
        assert_bit_identical(result, serial_result)
        stats = backend.last_stats
        assert stats.units_executed == len(serial_result.records)
        assert stats.duplicates_dropped == 0

    def test_work_is_actually_distributed(self, scenarios, config):
        backend = DistributedBackend(jobs=2, chunk_size=1)
        run_campaign(scenarios, config, backend=backend)
        # Pull-based stealing: with single-unit chunks both local workers
        # get at least one unit (neither can grab the whole queue).
        assert len(backend.last_stats.per_worker) == 2

    def test_campaign_leaves_no_accept_thread(self, scenarios, config):
        def accept_threads():
            return {
                thread
                for thread in threading.enumerate()
                if thread.name == "coordinator-accept"
            }

        before = accept_threads()
        for _ in range(2):
            run_campaign(scenarios, config, backend=DistributedBackend(2))
        assert accept_threads() - before == set()

    def test_checkpointed_run_then_full_restore(
        self, tmp_path, scenarios, config, serial_result
    ):
        ckpt = tmp_path / "camp"
        first = run_campaign(
            scenarios,
            config,
            backend=DistributedBackend(jobs=2, checkpoint_dir=ckpt),
        )
        assert_bit_identical(first, serial_result)
        backend = DistributedBackend(jobs=2, checkpoint_dir=ckpt)
        again = run_campaign(scenarios, config, backend=backend)
        assert_bit_identical(again, serial_result)
        assert backend.last_stats.units_restored == len(serial_result.records)
        assert backend.last_stats.units_executed == 0

    def test_different_campaign_rejected_by_shard_journals(
        self, tmp_path, scenarios, config
    ):
        ckpt = tmp_path / "camp"
        run_campaign(
            scenarios,
            config,
            backend=DistributedBackend(jobs=2, checkpoint_dir=ckpt),
        )
        other = [ScenarioGenerator(9).scenario(5, 5, 1, i) for i in range(3)]
        with pytest.raises(ValueError, match="different campaign"):
            run_campaign(
                other,
                config,
                backend=DistributedBackend(jobs=2, checkpoint_dir=ckpt),
            )

    def test_checkpoint_requires_campaign_units(self, tmp_path):
        backend = DistributedBackend(jobs=2, checkpoint_dir=tmp_path / "c")
        with pytest.raises(ValueError, match="instance_key"):
            list(backend.run([object()]))


# ---------------------------------------------------------------------------
# failure matrix — each mode must leave statistics bit-identical to serial


def _collect_results(coordinator, collected, errors):
    try:
        for index, outcome in coordinator.results():
            collected[index] = outcome
    except BaseException as exc:  # noqa: BLE001 - surfaced to the test
        errors.append(exc)


class TestCrashMidUnit:
    def test_crashed_lease_is_reissued_and_result_unchanged(
        self, units, serial_result
    ):
        # Deterministic choreography: the faulty worker runs *alone*,
        # crashes while delivering its first executed unit, and only then
        # does the rescue worker connect — the re-issue is guaranteed,
        # not a scheduling accident.
        coordinator = CampaignCoordinator(
            units, chunk_size=2, lease_timeout=30.0
        ).start()
        collected, errors = {}, []
        consumer = threading.Thread(
            target=_collect_results,
            args=(coordinator, collected, errors),
            daemon=True,
        )
        consumer.start()
        try:
            faulty = FaultyWorker(
                coordinator.address,
                plan=FaultPlan(crash_before_delivery=0),
                worker_id="crash",
            )
            with pytest.raises(WorkerCrashed):
                faulty.run()
            deadline = time.time() + 5.0
            while (
                coordinator.stats.worker_disconnects == 0
                and time.time() < deadline
            ):
                time.sleep(0.01)
            assert coordinator.stats.worker_disconnects == 1
            assert coordinator.stats.reissues >= 1
            rescue = CampaignWorker(coordinator.address, worker_id="rescue")
            rescue.run()
            consumer.join(timeout=10.0)
            assert not consumer.is_alive()
        finally:
            coordinator.close()
        assert not errors
        assert sorted(collected) == list(range(len(units)))
        makespans = [
            collected[i].makespans for i in range(len(units))
        ]
        assert makespans == [m for _k, m in serial_result.records]
        # The crashed unit was executed again — but entered the stream once.
        assert coordinator.stats.units_executed == len(units)
        assert coordinator.stats.per_worker == {"rescue": len(units)}

    def test_backend_level_crash_is_survived(
        self, scenarios, config, serial_result
    ):
        # Whole-stack version: slot 0 crashes on its first delivery; the
        # rescue worker waits for the disconnect before connecting.
        backend_box = {}

        class LateRescue(CampaignWorker):
            def run(self):
                stats = backend_box["backend"].last_stats
                deadline = time.time() + 5.0
                while (
                    stats.worker_disconnects == 0 and time.time() < deadline
                ):
                    time.sleep(0.01)
                return super().run()

        def factory(address, slot):
            if slot == 0:
                return FaultyWorker(
                    address,
                    plan=FaultPlan(crash_before_delivery=0),
                    worker_id="crash",
                )
            return LateRescue(address, worker_id="rescue")

        backend = DistributedBackend(
            jobs=2, chunk_size=2, worker_factory=factory
        )
        backend_box["backend"] = backend
        result = run_campaign(scenarios, config, backend=backend)
        assert_bit_identical(result, serial_result)
        assert backend.last_stats.worker_disconnects >= 1
        assert backend.last_stats.reissues >= 1


class TestDuplicateDelivery:
    def test_duplicates_are_counted_and_dropped(
        self, scenarios, config, serial_result
    ):
        def factory(address, slot):
            return FaultyWorker(
                address,
                plan=FaultPlan(duplicate_results=True),
                worker_id=f"dup-{slot}",
            )

        backend = DistributedBackend(
            jobs=2, chunk_size=3, worker_factory=factory
        )
        result = run_campaign(scenarios, config, backend=backend)
        assert_bit_identical(result, serial_result)
        assert backend.last_stats.duplicates_dropped >= 1
        assert backend.last_stats.units_executed == len(serial_result.records)

    def test_coordinator_dedupes_direct_double_accept(self, units):
        coordinator = CampaignCoordinator(units[:1])
        outcome = units[0].run()
        coordinator._accept_result("w", 0, 0, outcome)
        coordinator._accept_result("w", 0, 0, outcome)
        assert coordinator.stats.units_executed == 1
        assert coordinator.stats.duplicates_dropped == 1


class TestHangPastLease:
    def test_expired_lease_reissues_and_late_delivery_is_dropped(
        self, units, serial_result
    ):
        # The hanging worker goes silent past its lease while holding a
        # chunk; the consumer tick reaps the lease; the rescue worker
        # (started only after the expiry) re-executes; the hanging
        # worker's late delivery is deduplicated.
        coordinator = CampaignCoordinator(
            units, chunk_size=2, lease_timeout=0.3
        ).start()
        collected, errors = {}, []
        consumer = threading.Thread(
            target=_collect_results,
            args=(coordinator, collected, errors),
            daemon=True,
        )
        consumer.start()
        hang = FaultyWorker(
            coordinator.address,
            plan=FaultPlan(hang_before_delivery=0, hang_seconds=1.5),
            worker_id="hang",
        )
        hang_thread = threading.Thread(target=hang.run, daemon=True)
        hang_thread.start()
        try:
            deadline = time.time() + 5.0
            while (
                coordinator.stats.lease_expiries == 0
                and time.time() < deadline
            ):
                time.sleep(0.01)
            assert coordinator.stats.lease_expiries >= 1
            assert coordinator.stats.reissues >= 1
            rescue = CampaignWorker(coordinator.address, worker_id="rescue")
            rescue.run()
            # Let the hanging worker wake up and deliver late while the
            # coordinator is still alive.
            hang_thread.join(timeout=10.0)
            consumer.join(timeout=10.0)
            assert not consumer.is_alive()
        finally:
            coordinator.close()
        assert not errors
        assert sorted(collected) == list(range(len(units)))
        makespans = [collected[i].makespans for i in range(len(units))]
        assert makespans == [m for _k, m in serial_result.records]
        assert coordinator.stats.duplicates_dropped >= 1
        assert coordinator.stats.units_executed == len(units)

    def test_backend_level_hang_is_survived(
        self, scenarios, config, serial_result
    ):
        backend_box = {}

        class LateRescue(CampaignWorker):
            def run(self):
                stats = backend_box["backend"].last_stats
                deadline = time.time() + 5.0
                while stats.lease_expiries == 0 and time.time() < deadline:
                    time.sleep(0.01)
                return super().run()

        def factory(address, slot):
            if slot == 0:
                return FaultyWorker(
                    address,
                    plan=FaultPlan(hang_before_delivery=0, hang_seconds=1.2),
                    worker_id="hang",
                )
            return LateRescue(address, worker_id="rescue")

        backend = DistributedBackend(
            jobs=2,
            chunk_size=2,
            lease_timeout=0.3,
            worker_factory=factory,
        )
        backend_box["backend"] = backend
        result = run_campaign(scenarios, config, backend=backend)
        assert_bit_identical(result, serial_result)
        assert backend.last_stats.lease_expiries >= 1
        assert backend.last_stats.reissues >= 1


class TestCoordinatorKillAndResume:
    def test_kill_then_resume_is_bit_identical(
        self, tmp_path, scenarios, config, serial_result
    ):
        ckpt = tmp_path / "camp"
        killed = DistributedBackend(
            jobs=2, chunk_size=1, checkpoint_dir=ckpt, stop_after_units=3
        )
        with pytest.raises(CoordinatorKilled):
            run_campaign(scenarios, config, backend=killed)
        assert killed.last_stats.units_executed == 3

        resumed_backend = DistributedBackend(
            jobs=2, chunk_size=1, checkpoint_dir=ckpt
        )
        resumed = run_campaign(scenarios, config, backend=resumed_backend)
        assert_bit_identical(resumed, serial_result)
        stats = resumed_backend.last_stats
        # No unit enters the merged statistics twice: restored + executed
        # partition the campaign exactly.
        assert stats.units_restored == 3
        assert stats.units_restored + stats.units_executed == len(
            serial_result.records
        )

    def test_torn_shard_between_kill_and_resume(
        self, tmp_path, scenarios, config, serial_result
    ):
        from repro.experiments.persistence import (
            discover_shards,
            read_journal_entries,
        )

        ckpt = tmp_path / "camp"
        killed = DistributedBackend(
            jobs=2, chunk_size=1, checkpoint_dir=ckpt, stop_after_units=3
        )
        with pytest.raises(CoordinatorKilled):
            run_campaign(scenarios, config, backend=killed)
        # Simulate the kill landing mid-append: tear one shard journal.
        victim = next(
            path
            for path in discover_shards(ckpt)
            if read_journal_entries(path)
        )
        before = len(read_journal_entries(victim))
        tear_journal(victim)
        assert len(read_journal_entries(victim)) == before - 1

        resumed_backend = DistributedBackend(
            jobs=2, chunk_size=1, checkpoint_dir=ckpt
        )
        resumed = run_campaign(scenarios, config, backend=resumed_backend)
        assert_bit_identical(resumed, serial_result)
        stats = resumed_backend.last_stats
        assert stats.units_restored == 2  # exactly the torn entry re-runs
        assert stats.units_restored + stats.units_executed == len(
            serial_result.records
        )

    def test_kill_does_not_stall_surviving_workers(
        self, tmp_path, scenarios, config
    ):
        # close() drops live worker connections, so the backend's
        # cluster.join() returns promptly after a kill.
        backend = DistributedBackend(
            jobs=2,
            chunk_size=1,
            checkpoint_dir=tmp_path / "camp",
            stop_after_units=2,
        )
        started = time.time()
        with pytest.raises(CoordinatorKilled):
            run_campaign(scenarios, config, backend=backend)
        assert time.time() - started < 8.0


class TestWorkerErrorsAndLiveness:
    def test_remote_unit_error_propagates_with_traceback(self):
        backend = DistributedBackend(jobs=2)
        with pytest.raises(RemoteUnitError, match="boom-unit"):
            list(backend.run([_ExplodingUnit()]))

    def test_all_workers_dead_raises_instead_of_hanging(
        self, scenarios, config
    ):
        def factory(address, slot):
            return FaultyWorker(
                address,
                plan=FaultPlan(crash_before_delivery=0),
                worker_id=f"crash-{slot}",
            )

        backend = DistributedBackend(
            jobs=2, chunk_size=1, lease_timeout=0.3, worker_factory=factory
        )
        with pytest.raises(RuntimeError, match="no live workers"):
            run_campaign(scenarios, config, backend=backend)


class _ExplodingUnit:
    """A picklable unit whose run() always raises."""

    def run(self):
        raise ValueError("boom-unit")


# ---------------------------------------------------------------------------
# campaign-status


class TestCampaignStatus:
    def test_finished_campaign(self, tmp_path, scenarios, config):
        ckpt = tmp_path / "camp"
        run_campaign(
            scenarios,
            config,
            backend=DistributedBackend(jobs=2, checkpoint_dir=ckpt),
        )
        summary = campaign_status(ckpt)
        total = len(scenarios) * config.trials
        assert summary["total"] == total
        assert summary["done"] == total
        assert summary["pending"] == 0
        assert summary["finished"] is True
        assert summary["workers"]  # journal carries worker provenance
        assert sum(w["units"] for w in summary["workers"].values()) == total
        text = render_campaign_status(summary)
        assert "state: finished" in text
        assert f"{total}/{total} units done" in text
        json.dumps(summary)  # JSON-safe for --json output

    def test_killed_campaign_reports_pending(self, tmp_path, scenarios, config):
        ckpt = tmp_path / "camp"
        backend = DistributedBackend(
            jobs=2, chunk_size=1, checkpoint_dir=ckpt, stop_after_units=3
        )
        with pytest.raises(CoordinatorKilled):
            run_campaign(scenarios, config, backend=backend)
        summary = campaign_status(ckpt)
        total = len(scenarios) * config.trials
        assert summary["total"] == total
        assert summary["done"] == 3
        assert summary["finished"] is False
        assert "state: finished" not in render_campaign_status(summary)

    def test_journals_without_manifest(self, tmp_path, scenarios, config):
        from repro.experiments.persistence import ShardedCheckpoint

        base = tmp_path / "camp.ckpt"
        units = list(iter_work_units(scenarios, config))
        journal = ShardedCheckpoint(base, shards=2)
        journal.append(units[0].instance_key, {"mct": 1.0}, ())
        summary = campaign_status(tmp_path)
        assert summary["total"] is None
        assert summary["done"] == 1
        assert "total unknown" in render_campaign_status(summary)

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            campaign_status(tmp_path / "nope")


# ---------------------------------------------------------------------------
# CLI plumbing


class TestCli:
    def test_parser_accepts_service_commands(self):
        from repro.experiments.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(
            [
                "coordinator",
                "--study", "table2",
                "--bind", "127.0.0.1:0",
                "--local-workers", "2",
                "--scenarios", "1",
                "--trials", "1",
                "--checkpoint-dir", "/tmp/x",
                "--shards", "2",
            ]
        )
        assert args.command == "coordinator"
        assert args.local_workers == 2
        args = parser.parse_args(["worker", "--connect", "localhost:9999"])
        assert args.command == "worker"
        args = parser.parse_args(["campaign-status", "some/dir", "--json"])
        assert args.command == "campaign-status"
        assert args.json is True

    def test_parse_address(self):
        from repro.experiments.cli import _parse_address

        assert _parse_address("127.0.0.1:80") == ("127.0.0.1", 80)
        with pytest.raises(SystemExit):
            _parse_address("no-port")
        with pytest.raises(SystemExit):
            _parse_address(":1234")

    def test_backend_choice_includes_distributed(self):
        from repro.experiments.cli import build_parser

        args = build_parser().parse_args(
            ["table2", "--backend", "distributed", "--jobs", "2"]
        )
        assert args.backend == "distributed"

    def test_coordinator_command_runs_local_campaign(self, tmp_path, capsys):
        from repro.experiments.cli import main

        code = main(
            [
                "coordinator",
                "--study", "table2",
                "--scenarios", "1",
                "--trials", "1",
                "--wmin", "1",
                "--local-workers", "2",
                "--checkpoint-dir", str(tmp_path / "camp"),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "coordinator listening on" in captured.err
        assert "campaign complete" in captured.err
        assert "dfb" in captured.out  # the rendered table made it out

    def test_campaign_status_command(self, tmp_path, scenarios, config, capsys):
        from repro.experiments.cli import main

        ckpt = tmp_path / "camp"
        run_campaign(
            scenarios,
            config,
            backend=DistributedBackend(jobs=2, checkpoint_dir=ckpt),
        )
        assert main(["campaign-status", str(ckpt)]) == 0
        assert "state: finished" in capsys.readouterr().out
        assert main(["campaign-status", str(ckpt), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["finished"] is True


# ---------------------------------------------------------------------------
# true external deployment (separate worker session over TCP)


class TestExternalMode:
    def test_external_worker_session(self, units, serial_result):
        addresses = []
        backend = DistributedBackend(
            external=True,
            chunk_size=2,
            on_listening=addresses.append,
        )
        collected = {}

        def consume():
            for index, outcome in backend.run(units):
                collected[index] = outcome

        consumer = threading.Thread(target=consume, daemon=True)
        consumer.start()
        deadline = time.time() + 5.0
        while not addresses and time.time() < deadline:
            time.sleep(0.01)
        assert addresses, "coordinator never announced its address"
        worker = CampaignWorker(addresses[0], worker_id="external-1")
        stats = worker.run()
        consumer.join(timeout=10.0)
        assert not consumer.is_alive()
        # The final ack may be cut off by the coordinator closing the
        # moment the last result lands, so the worker's own counter can
        # trail by one — the authoritative count is the collected set.
        assert stats.units_done >= len(units) - 1
        assert sorted(collected) == list(range(len(units)))
        makespans = [collected[i].makespans for i in range(len(units))]
        assert makespans == [m for _k, m in serial_result.records]
