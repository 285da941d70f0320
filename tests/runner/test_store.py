"""Tests for the persistent result store and its job addressing."""

import json

import pytest

from repro.runner import (
    STORE_VERSION,
    ExperimentRunner,
    JobSpec,
    ResultStore,
    payload_checksum,
    shard_of,
)
from repro.session import Session
from repro.util import write_json_atomic


def flow_spec(**overrides):
    base = dict(
        kind="flow", app="conv", scale="tiny",
        type_system="V2", precision=1e-1,
    )
    base.update(overrides)
    return JobSpec(**base)


class TestJobSpec:
    def test_flow_requires_type_system(self):
        with pytest.raises(ValueError):
            JobSpec("flow", "conv", "tiny")

    def test_report_requires_variant(self):
        with pytest.raises(ValueError):
            JobSpec("report", "conv", "tiny")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            JobSpec("magic", "conv", "tiny", "V2", 1e-1)

    def test_specs_are_hashable_and_deduplicate(self):
        a, b = flow_spec(), flow_spec()
        assert len({a, b}) == 1

    def test_describe_mentions_all_fields(self):
        spec = JobSpec(
            "report", "pca", "tiny", "V2", 1e-3, variant="pca_manual"
        )
        text = spec.describe()
        for token in ("report", "pca", "tiny", "V2", "0.001", "pca_manual"):
            assert token in text


class TestStoreLayout:
    def test_flow_path(self, tmp_path):
        store = ResultStore(tmp_path, backend="reference")
        path = store.path(flow_spec())
        name = "conv-tiny-V2-0.1-reference.json"
        assert path == (
            tmp_path / f"v{STORE_VERSION}" / "flow" / shard_of(name) / name
        )

    def test_entries_fan_out_across_shards(self, tmp_path):
        store = ResultStore(tmp_path)
        shards = {
            store.path(flow_spec(precision=p)).parent.name
            for p in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)
        }
        # 2-hex fan-out: every shard is a two-hex-digit directory, and
        # distinct keys actually spread (all five in one shard would
        # mean the fan-out hashes the wrong thing).
        assert all(
            len(s) == 2 and set(s) <= set("0123456789abcdef")
            for s in shards
        )
        assert len(shards) > 1

    def test_report_path_without_type_system(self, tmp_path):
        store = ResultStore(tmp_path, backend="fast")
        spec = JobSpec("report", "conv", "tiny", variant="baseline")
        assert store.path(spec).name == "baseline-conv-tiny-fast.json"

    def test_backends_never_alias(self, tmp_path):
        ref = ResultStore(tmp_path, backend="reference")
        fast = ResultStore(tmp_path, backend="fast")
        assert ref.path(flow_spec()) != fast.path(flow_spec())

    def test_precisions_never_alias(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.path(flow_spec(precision=1e-1)) != store.path(
            flow_spec(precision=1e-2)
        )


class TestStoreRoundTrip:
    def test_save_then_load(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save(flow_spec(), {"answer": 42})
        assert store.load(flow_spec()) == {"answer": 42}

    def test_hit_and_miss_counters(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.load(flow_spec()) is None
        store.save(flow_spec(), {"x": 1})
        store.load(flow_spec())
        store.load(flow_spec())
        assert (store.hits, store.misses) == (2, 1)

    def test_contains_does_not_count(self, tmp_path):
        store = ResultStore(tmp_path)
        assert not store.contains(flow_spec())
        store.save(flow_spec(), {})
        assert store.contains(flow_spec())
        assert (store.hits, store.misses) == (0, 0)

    def test_envelope_is_self_describing(self, tmp_path):
        store = ResultStore(tmp_path, backend="reference")
        path = store.save(flow_spec(), {"x": 1})
        envelope = json.loads(path.read_text())
        assert envelope["version"] == STORE_VERSION
        assert envelope["kind"] == "flow"
        assert envelope["key"]["app"] == "conv"
        assert envelope["key"]["backend"] == "reference"

    def test_version_mismatch_is_a_miss(self, tmp_path):
        old = ResultStore(tmp_path, version=STORE_VERSION)
        path = old.save(flow_spec(), {"x": 1})
        # Simulate a payload written by an older store format.
        envelope = json.loads(path.read_text())
        envelope["version"] = STORE_VERSION - 1
        path.write_text(json.dumps(envelope))
        assert old.load(flow_spec()) is None
        assert old.misses == 1

    def test_corrupt_file_is_quarantined_not_a_crash(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.save(flow_spec(), {"x": 1})
        path.write_text("{ torn json")
        assert store.load(flow_spec()) is None
        # Corruption is counted apart from cold misses, and the entry
        # moves to quarantine instead of shadowing the key forever.
        assert (store.corrupt, store.misses) == (1, 0)
        assert not path.exists()
        assert list(store.quarantine_dir.rglob("*.json"))

    def test_envelope_without_payload_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.save(flow_spec(), {"x": 1})
        path.write_text(json.dumps({"version": STORE_VERSION}))
        assert store.load(flow_spec()) is None
        assert store.misses == 1

    def test_non_dict_json_is_quarantined(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.save(flow_spec(), {"x": 1})
        path.write_text(json.dumps([1, 2, 3]))
        assert store.load(flow_spec()) is None
        assert store.corrupt == 1

    def test_aliased_filename_is_a_miss_not_wrong_data(self, tmp_path):
        """%g truncates precision to 6 significant digits in filenames;
        the envelope's exact key must catch the collision."""
        store = ResultStore(tmp_path)
        a = flow_spec(precision=0.1234567)
        b = flow_spec(precision=0.1234568)
        assert store.path(a) == store.path(b)  # the collision is real
        store.save(a, {"who": "a"})
        assert store.load(b) is None           # not a's payload
        assert store.load(a) == {"who": "a"}

    def test_no_temp_residue_after_write(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save(flow_spec(), {"x": 1})
        leftovers = [
            p for p in tmp_path.rglob("*") if p.suffix == ".tmp"
        ]
        assert leftovers == []

    def test_wipe_and_entries(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save(flow_spec(), {})
        store.save(flow_spec(precision=1e-2), {})
        assert len(store.entries()) == 2
        assert store.wipe() == 2
        assert store.entries() == []
        assert store.load(flow_spec()) is None


class TestStrategyKeys:
    """Non-default strategies must never alias stored greedy results."""

    def test_default_strategy_keeps_legacy_key(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = flow_spec()
        assert spec.strategy == "greedy"
        assert store.path(spec).name == "conv-tiny-V2-0.1-reference.json"

    def test_non_default_strategy_tagged_in_path(self, tmp_path):
        store = ResultStore(tmp_path)
        greedy = flow_spec()
        bisect = flow_spec(strategy="bisect")
        assert store.path(greedy) != store.path(bisect)
        assert "bisect" in store.path(bisect).name

    def test_strategies_never_alias(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save(flow_spec(), {"who": "greedy"})
        assert store.load(flow_spec(strategy="bisect")) is None
        store.save(flow_spec(strategy="bisect"), {"who": "bisect"})
        assert store.load(flow_spec()) == {"who": "greedy"}
        assert store.load(flow_spec(strategy="bisect")) == {
            "who": "bisect"
        }

    def test_envelope_records_strategy(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.save(flow_spec(strategy="anneal"), {"x": 1})
        envelope = json.loads(path.read_text())
        assert envelope["key"]["strategy"] == "anneal"

    def test_report_with_type_system_carries_strategy(self):
        spec = JobSpec(
            "report", "conv", "tiny", "V2", 1e-1,
            variant="castless", strategy="bisect",
        )
        assert spec.strategy == "bisect"
        assert "bisect" in spec.describe()

    def test_tuning_independent_report_normalizes_strategy(self):
        # The binary32 baseline replay is identical under every
        # strategy; keying it apart would only cause recomputation.
        spec = JobSpec(
            "report", "conv", "tiny", variant="baseline",
            strategy="bisect",
        )
        assert spec.strategy == "greedy"
        assert spec == JobSpec(
            "report", "conv", "tiny", variant="baseline"
        )


class TestStoreCompatibility:
    """Entries already on disk keep their names and stay hits."""

    SPECS = {
        "conv-tiny-V2-0.1": flow_spec(),
        "baseline-conv-tiny": JobSpec(
            "report", "conv", "tiny", variant="baseline"
        ),
        "castless-conv-tiny-V2-0.1": JobSpec(
            "report", "conv", "tiny", "V2", 1e-1, variant="castless"
        ),
        "conv-tiny-V2-0.1-c4r2": JobSpec(
            "cluster", "conv", "tiny", "V2", 1e-1, cores=4, fpu_ratio=2
        ),
        "conv-tiny-V2-0.1-bisect": flow_spec(strategy="bisect"),
    }

    @pytest.mark.parametrize("stem", sorted(SPECS))
    @pytest.mark.parametrize("backend", ["reference", "fast"])
    def test_every_kind_is_named_by_key_and_backend(
        self, tmp_path, stem, backend
    ):
        runner = ExperimentRunner(
            session=Session(backend=backend, cache_dir=tmp_path),
            scale="tiny",
            store_dir=tmp_path / "store",
        )
        name = runner.store.name(self.SPECS[stem])
        assert name == f"{stem}-{backend}.json"

    @pytest.mark.parametrize("stem", sorted(SPECS))
    def test_envelope_with_empty_env_field_is_a_hit(self, tmp_path, stem):
        """An envelope exactly as earlier stores wrote it -- every key
        field spelled out, ``"env": ""`` included -- is served."""
        spec = self.SPECS[stem]
        key = {
            "app": spec.app,
            "scale": spec.scale,
            "type_system": spec.type_system,
            "precision": spec.precision,
            "variant": spec.variant,
            "strategy": spec.strategy,
            "backend": "reference",
            "env": "",
        }
        if spec.kind == "cluster":
            key["cores"] = spec.cores
            key["fpu_ratio"] = spec.fpu_ratio
        payload = {"answer": 42}
        name = f"{stem}-reference.json"
        path = (
            tmp_path / f"v{STORE_VERSION}" / spec.kind / shard_of(name)
            / name
        )
        write_json_atomic(path, {
            "version": STORE_VERSION,
            "kind": spec.kind,
            "key": key,
            "checksum": payload_checksum(payload),
            "payload": payload,
        })
        store = ResultStore(tmp_path)
        assert store.load(spec) == payload
        assert (store.hits, store.misses, store.corrupt) == (1, 0, 0)
