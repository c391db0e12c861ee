"""The content-addressed result store: keys, atomicity, quarantine, GC."""

import functools
import json
import os

import pytest

from repro.sched.store import (
    ResultStore,
    canonical_spec,
    content_key,
    fn_ref,
    import_bench_cache,
    task_spec,
)


def point_fn(n, g=4.0):
    return {"measured": n * g, "correct": True}


class TestContentKeys:
    def test_key_is_order_invariant(self):
        a = content_key({"x": 1, "y": 2}, "v1")
        b = content_key({"y": 2, "x": 1}, "v1")
        assert a == b
        assert len(a) == 64  # sha-256 hex

    def test_version_salts_the_key(self):
        spec = {"x": 1}
        assert content_key(spec, "v1") != content_key(spec, "v2")

    def test_default_version_is_package_version(self, tmp_path):
        from repro import __version__

        store = ResultStore(str(tmp_path))
        assert store.version == __version__

    def test_fn_ref_names_module_and_qualname(self):
        assert fn_ref(point_fn) == f"{__name__}:point_fn"

    def test_fn_ref_distinguishes_partials(self):
        p1 = functools.partial(point_fn, g=2.0)
        p2 = functools.partial(point_fn, g=8.0)
        assert fn_ref(p1) != fn_ref(p2)
        assert fn_ref(p1).startswith(f"{__name__}:point_fn|partial:")

    def test_task_spec_accepts_scope_string(self):
        spec = task_spec("t1a_qsm_time", {"n": 4}, {"base_seed": 0})
        assert spec == {"fn": "t1a_qsm_time", "kwargs": {"n": 4}, "base_seed": 0}

    def test_canonical_spec_handles_unjsonable_values(self):
        # default=repr: exotic values degrade to a stable string instead of
        # raising mid-campaign.
        text = canonical_spec({"fn": point_fn})
        assert "point_fn" in text


class TestReadWrite:
    def test_put_get_roundtrip(self, tmp_path):
        store = ResultStore(str(tmp_path))
        key = store.key_for(point_fn, {"n": 8})
        outcome = {"measured": 32.0, "correct": True}
        path = store.put(key, outcome, spec=task_spec(point_fn, {"n": 8}))
        assert os.path.exists(path)
        assert store.contains(key)
        entry = store.get(key)
        assert entry["outcome"] == outcome
        assert entry["spec"]["kwargs"] == {"n": 8}
        assert store.get_outcome(key) == outcome

    def test_missing_key_reads_as_none(self, tmp_path):
        store = ResultStore(str(tmp_path))
        assert store.get("0" * 64) is None
        assert not store.contains("0" * 64)

    def test_shard_fanout_layout(self, tmp_path):
        store = ResultStore(str(tmp_path))
        key = store.key_for(point_fn, {"n": 8})
        store.put(key, {"measured": 1.0})
        assert store.path_for(key).endswith(
            os.path.join("objects", key[:2], key + ".json")
        )

    def test_no_temp_files_left_behind(self, tmp_path):
        store = ResultStore(str(tmp_path))
        for n in range(5):
            store.put(store.key_for(point_fn, {"n": n}), {"measured": float(n)})
        leftovers = [
            name
            for _, _, names in os.walk(str(tmp_path))
            for name in names
            if name.startswith(".store-")
        ]
        assert leftovers == []

    def test_keys_enumerates_everything(self, tmp_path):
        store = ResultStore(str(tmp_path))
        written = {
            store.key_for(point_fn, {"n": n}) for n in range(4)
        }
        for key in written:
            store.put(key, {"measured": 0.0})
        assert set(store.keys()) == written


class TestQuarantine:
    def test_corrupt_entry_is_quarantined_and_rereadable_as_missing(self, tmp_path):
        store = ResultStore(str(tmp_path))
        key = store.key_for(point_fn, {"n": 8})
        store.put(key, {"measured": 1.0})
        with open(store.path_for(key), "w") as fh:
            fh.write("{torn")
        with pytest.warns(RuntimeWarning, match="quarantine|unusable"):
            assert store.get(key) is None
        assert not store.contains(key)
        assert os.path.exists(store.path_for(key) + ".quarantined")
        assert store.stats().quarantined == 1

    def test_schema_violation_is_quarantined(self, tmp_path):
        store = ResultStore(str(tmp_path))
        key = store.key_for(point_fn, {"n": 8})
        path = store.path_for(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"key": key, "outcome": {}}, fh)  # missing fields
        with pytest.warns(RuntimeWarning):
            assert store.get(key) is None


class TestPrune:
    def _fill(self, store, count=4):
        keys = []
        for n in range(count):
            key = store.key_for(point_fn, {"n": n})
            store.put(key, {"measured": float(n)})
            keys.append(key)
        return keys

    def test_full_prune_removes_everything(self, tmp_path):
        store = ResultStore(str(tmp_path))
        keys = self._fill(store)
        pruned = store.prune()
        assert sorted(pruned) == sorted(keys)
        assert store.stats().entries == 0
        assert not os.listdir(os.path.join(str(tmp_path), "objects"))

    def test_age_cutoff_keeps_recent_entries(self, tmp_path):
        store = ResultStore(str(tmp_path))
        keys = self._fill(store, count=2)
        old, recent = keys
        # Backdate one entry by rewriting its created stamp.
        path = store.path_for(old)
        entry = json.load(open(path))
        entry["created"] -= 10_000.0
        json.dump(entry, open(path, "w"))
        pruned = store.prune(older_than_s=3600.0)
        assert pruned == [old]
        assert store.contains(recent)

    def test_keep_set_survives_full_prune(self, tmp_path):
        store = ResultStore(str(tmp_path))
        keys = self._fill(store)
        pruned = store.prune(keep=[keys[0]])
        assert keys[0] not in pruned
        assert store.contains(keys[0])
        assert store.stats().entries == 1

    def test_dry_run_deletes_nothing(self, tmp_path):
        store = ResultStore(str(tmp_path))
        keys = self._fill(store)
        pruned = store.prune(dry_run=True)
        assert sorted(pruned) == sorted(keys)
        assert store.stats().entries == len(keys)

    def test_prune_sweeps_quarantined_files(self, tmp_path):
        store = ResultStore(str(tmp_path))
        key = self._fill(store, count=1)[0]
        with open(store.path_for(key), "w") as fh:
            fh.write("garbage")
        with pytest.warns(RuntimeWarning):
            store.get(key)
        assert store.stats().quarantined == 1
        store.prune()
        assert store.stats().quarantined == 0


class TestBenchCacheMigration:
    def test_import_rekeys_like_live_runs(self, tmp_path):
        # A legacy BENCH_*.json maps json-encoded params to outcomes.
        legacy = {
            json.dumps({"n": 4}, sort_keys=True): {"measured": 16.0, "correct": True},
            json.dumps({"n": 8}, sort_keys=True): {"measured": 32.0, "correct": True},
            "not-json-params": {"measured": 0.0},
        }
        cache = tmp_path / "BENCH_demo.json"
        cache.write_text(json.dumps(legacy))
        store = ResultStore(str(tmp_path / "store"))
        imported = import_bench_cache(store, str(cache), point_fn)
        assert imported == 2
        # Live keying (what parallel_sweep(store=...) computes) hits the
        # imported entries directly.
        assert store.get_outcome(store.key_for(point_fn, {"n": 4})) == {
            "measured": 16.0, "correct": True,
        }

    def test_import_missing_cache_is_a_noop(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        assert import_bench_cache(store, str(tmp_path / "nope.json"), point_fn) == 0

    def test_import_rejects_non_object_cache(self, tmp_path):
        bad = tmp_path / "BENCH_bad.json"
        bad.write_text("[1, 2, 3]")
        store = ResultStore(str(tmp_path / "store"))
        with pytest.raises(ValueError, match="not a sweep cache"):
            import_bench_cache(store, str(bad), point_fn)


class TestConcurrentWriters:
    """put() under contention: same-key racers and the prune-rmdir race."""

    def test_same_key_concurrent_puts_neither_raises(self, tmp_path):
        import threading

        store = ResultStore(str(tmp_path / "store"))
        key = store.key_for(point_fn, {"n": 4})
        errors = []

        def write(tag):
            try:
                for _ in range(50):
                    store.put(key, {"measured": 16.0, "correct": True, "by": tag})
            except BaseException as exc:  # noqa: BLE001 - the assertion target
                errors.append(exc)

        threads = [threading.Thread(target=write, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        # Whoever won, the entry is whole and valid (no quarantine).
        outcome = store.get_outcome(key)
        assert outcome is not None and outcome["measured"] == 16.0
        assert not os.path.exists(store.path_for(key) + ".quarantined")

    def test_put_survives_prune_rmdir_between_makedirs_and_mkstemp(
        self, tmp_path, monkeypatch
    ):
        import tempfile as _tempfile

        store = ResultStore(str(tmp_path / "store"))
        real_mkstemp = _tempfile.mkstemp
        raced = {"done": False}

        def racing_mkstemp(*args, **kwargs):
            if not raced["done"]:
                raced["done"] = True
                # A concurrent prune() rmdirs the (empty) shard just now.
                os.rmdir(kwargs["dir"])
                return real_mkstemp(*args, **kwargs)  # raises FileNotFoundError
            return real_mkstemp(*args, **kwargs)

        monkeypatch.setattr("repro.sched.store.tempfile.mkstemp", racing_mkstemp)
        key = store.key_for(point_fn, {"n": 8})
        path = store.put(key, {"measured": 32.0, "correct": True})
        assert raced["done"]
        assert os.path.exists(path)
        assert store.get_outcome(key)["measured"] == 32.0

    def test_put_survives_prune_rmdir_before_replace(self, tmp_path, monkeypatch):
        import shutil

        store = ResultStore(str(tmp_path / "store"))
        real_replace = os.replace
        raced = {"count": 0}

        def racing_replace(src, dst):
            if raced["count"] == 0 and ".store-" in src:
                raced["count"] += 1
                shutil.rmtree(os.path.dirname(dst))  # prune wins the race
            return real_replace(src, dst)

        monkeypatch.setattr("repro.sched.store.os.replace", racing_replace)
        key = store.key_for(point_fn, {"n": 16})
        store.put(key, {"measured": 64.0, "correct": True})
        assert raced["count"] == 1
        assert store.get_outcome(key)["measured"] == 64.0

    def test_put_survives_prune_rmdir_inside_makedirs(self, tmp_path, monkeypatch):
        """Regression: makedirs(exist_ok=True) re-raises FileExistsError
        when the shard vanishes between its mkdir (EEXIST) and its own
        isdir check."""
        import errno

        store = ResultStore(str(tmp_path / "store"))
        key = store.key_for(point_fn, {"n": 32})
        shard = os.path.dirname(store.path_for(key))
        os.makedirs(shard)  # an empty shard, as a prune is about to see it
        real_mkdir = os.mkdir
        raced = {"done": False}

        def racing_mkdir(path, mode=0o777):
            if path == shard and not raced["done"]:
                raced["done"] = True
                os.rmdir(path)  # prune removes the empty shard just now
                raise FileExistsError(errno.EEXIST, "File exists", path)
            return real_mkdir(path, mode)

        monkeypatch.setattr(os, "mkdir", racing_mkdir)
        path = store.put(key, {"measured": 128.0, "correct": True})
        assert raced["done"]
        assert os.path.exists(path)
        assert store.get_outcome(key)["measured"] == 128.0

    @pytest.mark.parametrize("race", ["put_lands", "shard_gone"])
    def test_prune_skips_a_shard_that_changes_under_it(
        self, tmp_path, monkeypatch, race
    ):
        """Regression: prune's rmdir of an emptied shard raised when a
        put landed a temp file in it (ENOTEMPTY) or the shard was
        already gone (ENOENT)."""
        store = ResultStore(str(tmp_path / "store"))
        key = store.key_for(point_fn, {"n": 64})
        store.put(key, {"measured": 256.0, "correct": True})
        shard = os.path.dirname(store.path_for(key))
        real_rmdir = os.rmdir
        raced = {"done": False}

        def racing_rmdir(path, *args, **kwargs):
            if path == shard and not raced["done"]:
                raced["done"] = True
                if race == "put_lands":
                    with open(os.path.join(path, ".store-racing"), "w"):
                        pass
                else:
                    real_rmdir(path)
            return real_rmdir(path, *args, **kwargs)

        monkeypatch.setattr(os, "rmdir", racing_rmdir)
        assert store.prune(older_than_s=0) == [key]
        assert raced["done"]
        assert store.get(key) is None
        assert os.path.isdir(shard) == (race == "put_lands")

    def test_concurrent_put_and_prune_stress(self, tmp_path):
        import threading

        store = ResultStore(str(tmp_path / "store"))
        errors = []
        stop = threading.Event()

        def writer():
            try:
                for i in range(200):
                    key = store.key_for(point_fn, {"n": i})
                    store.put(key, {"measured": float(i), "correct": True})
            except BaseException as exc:  # noqa: BLE001 - the assertion target
                errors.append(exc)
            finally:
                stop.set()

        def pruner():
            while not stop.is_set():
                try:
                    store.prune(older_than_s=0)
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)

        threads = [threading.Thread(target=writer), threading.Thread(target=pruner)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []


class TestCrashDuringWrite:
    def test_crash_mid_write_leaves_no_partial_object(self, tmp_path, monkeypatch):
        store = ResultStore(str(tmp_path / "store"))
        key = store.key_for(point_fn, {"n": 4})

        def exploding_dump(*args, **kwargs):
            raise KeyboardInterrupt  # the harshest interruption json can see

        monkeypatch.setattr("repro.sched.store.json.dump", exploding_dump)
        with pytest.raises(KeyboardInterrupt):
            store.put(key, {"measured": 16.0, "correct": True})
        monkeypatch.undo()
        # No entry, no quarantine, no leaked temp file anywhere.
        assert store.get(key) is None
        leftovers = [
            name
            for root, _, names in os.walk(str(tmp_path / "store"))
            for name in names
        ]
        assert leftovers == []
        # The next attempt (the retry a crashed task gets) lands cleanly.
        store.put(key, {"measured": 16.0, "correct": True})
        assert store.get_outcome(key)["measured"] == 16.0
