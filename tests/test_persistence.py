"""Tests for campaign persistence (save / load / rebuild / merge / shards)."""

import copy
import json

import pytest

from repro.experiments.harness import (
    CampaignConfig,
    _campaign_fingerprint,
    iter_work_units,
    run_campaign,
)
from repro.experiments.persistence import (
    CampaignCheckpoint,
    ShardedCheckpoint,
    discover_shards,
    load_records,
    merge_records,
    read_journal_entries,
    rebuild_result,
    save_campaign,
)
from repro.workload.scenarios import ScenarioGenerator


@pytest.fixture(scope="module")
def scenarios():
    return [ScenarioGenerator(3).scenario(5, 5, 1, i) for i in range(2)]


@pytest.fixture(scope="module")
def campaign(scenarios):
    return run_campaign(
        scenarios, CampaignConfig(heuristics=("mct", "random"), trials=2)
    )


class TestSaveLoad:
    def test_round_trip(self, campaign, tmp_path):
        path = tmp_path / "campaign.json"
        save_campaign(campaign, path, meta={"seed": 3})
        records, meta = load_records(path)
        assert meta == {"seed": 3}
        assert len(records) == campaign.instances
        assert records == campaign.records

    def test_save_without_records_rejected(self, tmp_path):
        from repro.experiments.harness import CampaignResult

        with pytest.raises(ValueError, match="no instance records"):
            save_campaign(CampaignResult(), tmp_path / "x.json")

    def test_load_rejects_wrong_format(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "nope", "records": []}')
        with pytest.raises(ValueError, match="unsupported campaign format"):
            load_records(path)

    def test_load_rejects_empty_makespans(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"format": "repro-campaign-v1", "records": '
            '[{"key": [1], "makespans": {}}]}'
        )
        with pytest.raises(ValueError, match="no makespans"):
            load_records(path)


class TestRebuild:
    def test_rebuild_matches_original_aggregates(self, campaign, tmp_path):
        path = tmp_path / "campaign.json"
        save_campaign(campaign, path)
        records, _meta = load_records(path)
        rebuilt = rebuild_result(records)
        assert rebuilt.instances == campaign.instances
        for name in ("mct", "random"):
            assert rebuilt.accumulator.average_dfb(name) == pytest.approx(
                campaign.accumulator.average_dfb(name)
            )
            assert rebuilt.accumulator.wins(name) == campaign.accumulator.wins(name)
        assert set(rebuilt.per_scenario) == set(campaign.per_scenario)


class TestMerge:
    def test_merge_disjoint(self, campaign):
        half = len(campaign.records) // 2
        merged = merge_records(campaign.records[:half], campaign.records[half:])
        assert len(merged) == len(campaign.records)

    def test_merge_overlapping_consistent(self, campaign):
        merged = merge_records(campaign.records, campaign.records)
        assert len(merged) == len(campaign.records)

    def test_merge_conflicting_rejected(self, campaign):
        key, makespans = campaign.records[0]
        altered = [(key, {name: value + 1 for name, value in makespans.items()})]
        with pytest.raises(ValueError, match="conflicting results"):
            merge_records(campaign.records, altered)


class TestJournalExtras:
    def test_extra_fields_round_trip_raw_but_not_in_load(self, tmp_path, campaign):
        path = tmp_path / "extras.ckpt"
        journal = CampaignCheckpoint(path)
        key, makespans = campaign.records[0]
        journal.append(key, makespans, (), extra={"worker": "w0", "t": 12.5})
        # The resume view ignores provenance…
        assert journal.load() == {key: (makespans, [])}
        # …but the observability view keeps it.
        (entry,) = read_journal_entries(path)
        assert entry["worker"] == "w0"
        assert entry["t"] == 12.5

    def test_extra_shadowing_reserved_key_rejected(self, tmp_path, campaign):
        journal = CampaignCheckpoint(tmp_path / "clash.ckpt")
        key, makespans = campaign.records[0]
        with pytest.raises(ValueError, match="reserved"):
            journal.append(key, makespans, (), extra={"makespans": {}})

    def test_read_entries_tolerates_absent_and_torn(self, tmp_path):
        assert read_journal_entries(tmp_path / "absent") == []
        torn = tmp_path / "torn"
        torn.write_text('{"form')  # torn header
        assert read_journal_entries(torn) == []
        foreign = tmp_path / "foreign"
        foreign.write_text('{"format": "something-else"}\n{"key": [1]}\n')
        assert read_journal_entries(foreign) == []


class TestShardedCheckpoint:
    def test_append_routes_and_load_merges(self, tmp_path, campaign):
        sharded = ShardedCheckpoint(tmp_path / "camp.ckpt", shards=3)
        for key, makespans in campaign.records:
            sharded.append(key, makespans, ())
        loaded = sharded.load()
        assert set(loaded) == {key for key, _ in campaign.records}
        # More than one shard actually received entries.
        assert len(sharded.existing_paths()) > 1
        per_shard = sum(
            len(read_journal_entries(p)) for p in sharded.existing_paths()
        )
        assert per_shard == len(campaign.records)

    def test_routing_is_stable_across_instances(self, tmp_path, campaign):
        a = ShardedCheckpoint(tmp_path / "camp.ckpt", shards=4)
        b = ShardedCheckpoint(tmp_path / "camp.ckpt", shards=4)
        for key, _ in campaign.records:
            assert a._route(key).path == b._route(key).path

    def test_resume_appends_to_original_shard(self, tmp_path, campaign):
        base = tmp_path / "camp.ckpt"
        key, makespans = campaign.records[0]
        ShardedCheckpoint(base, shards=4).append(key, makespans, ())
        before = discover_shards(base)
        # A "restarted coordinator" re-appending the same unit lands in
        # the same file — every shard stays individually append-only.
        ShardedCheckpoint(base, shards=4).append(key, makespans, ())
        assert discover_shards(base) == before
        (path,) = before
        assert len(read_journal_entries(path)) == 2

    def test_shard_count_change_still_loads_everything(self, tmp_path, campaign):
        base = tmp_path / "camp.ckpt"
        writer = ShardedCheckpoint(base, shards=2)
        for key, makespans in campaign.records:
            writer.append(key, makespans, ())
        # load() scans *existing* files, not the configured range.
        reloaded = ShardedCheckpoint(base, shards=5).load()
        assert set(reloaded) == {key for key, _ in campaign.records}

    def test_overlapping_consistent_shards_merge(self, tmp_path, campaign):
        base = tmp_path / "camp.ckpt"
        sharded = ShardedCheckpoint(base, shards=2)
        key, makespans = campaign.records[0]
        # The same unit journalled in two shards (a shard-count change
        # re-routed it) is fine as long as the entries agree.
        sharded.shard(0).append(key, makespans, ())
        sharded.shard(1).append(key, makespans, ())
        assert sharded.load() == {key: (makespans, [])}

    def test_conflicting_shards_rejected(self, tmp_path, campaign):
        base = tmp_path / "camp.ckpt"
        sharded = ShardedCheckpoint(base, shards=2)
        key, makespans = campaign.records[0]
        altered = {name: value + 1 for name, value in makespans.items()}
        sharded.shard(0).append(key, makespans, ())
        sharded.shard(1).append(key, altered, ())
        with pytest.raises(ValueError, match="disagree"):
            sharded.load()

    def test_two_torn_headers_healed_then_merged(self, tmp_path, campaign):
        # Both shard journals were killed inside their very first append:
        # each holds only a torn header.  Loading treats both as empty,
        # appending heals each in place, and the merged view is whole.
        base = tmp_path / "camp.ckpt"
        sharded = ShardedCheckpoint(base, shards=2)
        sharded.shard_path(0).write_text('{"forma')
        sharded.shard_path(1).write_text('{"f')
        assert sharded.load() == {}
        (key0, ms0), (key1, ms1) = campaign.records[:2]
        sharded.shard(0).append(key0, ms0, ())
        sharded.shard(1).append(key1, ms1, ())
        healed = ShardedCheckpoint(base, shards=2).load()
        assert healed == {key0: (ms0, []), key1: (ms1, [])}
        for path in discover_shards(base):
            header = json.loads(path.read_text().splitlines()[0])
            assert header["format"] == "repro-checkpoint-v1"

    def test_torn_tail_drops_only_that_entry(self, tmp_path, campaign):
        from repro.experiments.distributed import tear_journal

        base = tmp_path / "camp.ckpt"
        sharded = ShardedCheckpoint(base, shards=1)
        for key, makespans in campaign.records:
            sharded.append(key, makespans, ())
        tear_journal(sharded.shard_path(0))
        assert len(sharded.load()) == len(campaign.records) - 1

    def test_meta_mismatch_rejected(self, tmp_path, campaign):
        base = tmp_path / "camp.ckpt"
        key, makespans = campaign.records[0]
        ShardedCheckpoint(base, shards=2, meta={"digest": "a"}).append(
            key, makespans, ()
        )
        with pytest.raises(ValueError, match="different campaign"):
            ShardedCheckpoint(base, shards=2, meta={"digest": "b"}).load()

    def test_bad_shard_count_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="shards"):
            ShardedCheckpoint(tmp_path / "x", shards=0)

    def test_discover_excludes_tmp_and_sorts(self, tmp_path):
        base = tmp_path / "camp.ckpt"
        for name in ("camp.ckpt.shard-02", "camp.ckpt.shard-00",
                     "camp.ckpt.shard-01.tmp"):
            (tmp_path / name).write_text("")
        found = discover_shards(base)
        assert [p.name for p in found] == [
            "camp.ckpt.shard-00", "camp.ckpt.shard-02"
        ]
        # Directory form finds the same files.
        assert discover_shards(tmp_path) == found


class TestShardedResume:
    """No ordering drift: resumed statistics are bit-identical, CIs included."""

    def test_run_campaign_accepts_sharded_journal(
        self, tmp_path, scenarios, campaign
    ):
        config = CampaignConfig(heuristics=("mct", "random"), trials=2)
        journal = ShardedCheckpoint(tmp_path / "camp.ckpt", shards=3)
        first = run_campaign(scenarios, config, checkpoint=journal)
        assert first == campaign
        assert len(journal.load()) == campaign.instances
        # Second run restores everything — zero simulation.
        executed = []
        resumed = run_campaign(
            scenarios,
            config,
            checkpoint=ShardedCheckpoint(tmp_path / "camp.ckpt", shards=3),
            progress=lambda done, key: executed.append(key),
        )
        assert resumed == campaign

    def test_scrambled_shard_layout_cannot_drift_statistics(
        self, tmp_path, scenarios, campaign
    ):
        # Rewrite the journals adversarially — all entries crammed into
        # one shard, in *reverse* completion order, plus a second shard
        # overlapping half of them — and resume.  The harness folds
        # restored units in campaign order (never journal order), so
        # every statistic, including the order-sensitive bootstrap CI,
        # must come out bit-identical.
        config = CampaignConfig(heuristics=("mct", "random"), trials=2)
        base = tmp_path / "camp.ckpt"
        run_campaign(
            scenarios, config, checkpoint=ShardedCheckpoint(base, shards=3)
        )
        entries = []
        for path in discover_shards(base):
            entries.extend(read_journal_entries(path))
            path.unlink()
        assert len(entries) == campaign.instances
        scrambled = ShardedCheckpoint(base, shards=2)
        for entry in reversed(entries):
            scrambled.shard(0).append(
                tuple(entry["key"]), entry["makespans"], entry["truncated"]
            )
        for entry in entries[: len(entries) // 2]:
            scrambled.shard(1).append(
                tuple(entry["key"]), entry["makespans"], entry["truncated"]
            )
        resumed = run_campaign(
            scenarios, config, checkpoint=ShardedCheckpoint(base, shards=2)
        )
        assert resumed == campaign
        assert resumed.records == campaign.records  # exact order, exact bits
        for name in ("mct", "random"):
            assert resumed.accumulator.average_dfb_ci(
                name
            ) == campaign.accumulator.average_dfb_ci(name)


class TestOldJournalFingerprints:
    """Journals written under since-removed options must not resume."""

    @pytest.mark.parametrize("layout", ["single", "sharded"])
    def test_removed_option_in_meta_rejected(self, tmp_path, scenarios, layout):
        config = CampaignConfig(heuristics=("mct", "random"), trials=2)
        units = list(iter_work_units(scenarios, config))
        meta = _campaign_fingerprint(units, config)
        # The fingerprint an older build wrote: its options still carried
        # the exact round-elision switch.
        old_meta = copy.deepcopy(meta)
        old_meta["options"]["round_relevance"] = "exact"
        path = tmp_path / "camp.ckpt"
        if layout == "single":
            CampaignCheckpoint(path, meta=old_meta).append(
                units[0].instance_key, {"mct": 10.0, "random": 12.0}
            )
            checkpoint = path
        else:
            ShardedCheckpoint(path, shards=2, meta=old_meta).append(
                units[0].instance_key, {"mct": 10.0, "random": 12.0}
            )
            checkpoint = ShardedCheckpoint(path, shards=2, meta=meta)
        with pytest.raises(ValueError, match="different campaign"):
            run_campaign(scenarios, config, checkpoint=checkpoint)
