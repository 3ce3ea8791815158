"""Tests for the content-addressed result cache (repro.engine.cache)."""

import hashlib
import json

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core import Instance, Job
from repro.engine import ResultCache, instance_digest, task_digest
from repro.engine import cache as cache_module
from repro.engine.cache import canonical_task

_SCALARS = st.one_of(
    st.integers(-3, 3),
    st.floats(allow_nan=False),
    st.booleans(),
    st.none(),
    st.text(max_size=4),
)


@pytest.fixture
def inst():
    return Instance.from_tuples([(0, 4, 2), (1, 5, 3)])


class TestDigests:
    def test_same_content_same_digest(self, inst):
        clone = Instance.from_tuples([(0, 4, 2), (1, 5, 3)])
        assert instance_digest(inst) == instance_digest(clone)
        assert task_digest(inst, "active", "minimal", 2) == task_digest(
            clone, "active", "minimal", 2
        )

    def test_label_does_not_affect_digest(self):
        from repro.core import Job

        plain = Instance.from_tuples([(0, 4, 2)])
        labeled = Instance((Job(0, 4, 2, id=0, label="rigid"),))
        assert plain == labeled  # Job.label is compare=False
        assert instance_digest(plain) == instance_digest(labeled)

    def test_job_order_matters(self):
        a = Instance.from_tuples([(0, 4, 2), (1, 5, 3)])
        b = Instance(tuple(reversed(a.jobs)))
        assert instance_digest(a) != instance_digest(b)

    def test_every_axis_changes_digest(self, inst):
        base = task_digest(inst, "active", "minimal", 2)
        assert base != task_digest(inst, "busy", "minimal", 2)
        assert base != task_digest(inst, "active", "rounding", 2)
        assert base != task_digest(inst, "active", "minimal", 3)
        assert base != task_digest(
            inst, "active", "minimal", 2, {"extra": 1}
        )

    def test_canonical_task_lists_every_axis_without_labels(self):
        inst = Instance((Job(0, 4, 2, id=3, label="a"), Job(1, 5, 3, id=1)))
        assert canonical_task(
            inst, "busy", "exact", 2, {"seed": 1, "backend": "x"}
        ) == {
            "jobs": [[0, 4, 2, 3], [1, 5, 3, 1]],
            "problem": "busy",
            "algorithm": "exact",
            "g": 2,
            "params": {"backend": "x", "seed": 1},
        }
        assert canonical_task(inst, "busy", "exact", 2)["params"] == {}

    @settings(max_examples=60, deadline=None)
    @given(
        times=st.lists(
            st.tuples(
                st.sampled_from([0, 1, 0.0, -0.0, 1.0, 2.5]),
                st.sampled_from([1, 2, 1.0, 0.5]),
            ),
            max_size=4,
        ),
        problem=st.text(max_size=6),
        g=_SCALARS,
        params=st.dictionaries(
            st.text(max_size=4),
            st.one_of(
                _SCALARS,
                st.dictionaries(st.text(max_size=3), _SCALARS, max_size=3),
            ),
            max_size=3,
        ),
    )
    def test_digest_hashes_the_canonical_task_json(
        self, times, problem, g, params
    ):
        """The digest is the SHA-256 of the canonical task's sorted JSON,
        byte for byte, though the jobs are serialized on their own."""
        inst = Instance(tuple(
            Job(r, r + p, p, id=k) for k, (r, p) in enumerate(times)
        ))
        text = json.dumps(
            canonical_task(inst, problem, "alg", g, params),
            sort_keys=True,
            separators=(",", ":"),
        )
        assert task_digest(inst, problem, "alg", g, params) == (
            hashlib.sha256(text.encode("utf-8")).hexdigest()
        )

    def test_param_key_order_is_irrelevant(self, inst):
        assert task_digest(
            inst, "active", "minimal", 2, {"a": 1, "b": 2}
        ) == task_digest(inst, "active", "minimal", 2, {"b": 2, "a": 1})


class TestMemoryLayer:
    def test_hit_miss_counters(self):
        cache = ResultCache()
        assert cache.get("k") is None
        cache.put("k", {"objective": 1.0})
        assert cache.get("k") == {"objective": 1.0}
        assert cache.stats == {
            "hits": 1, "misses": 1, "size": 1,
            "evictions_disk": 0, "evictions_memory": 0,
        }

    def test_lru_eviction(self, monkeypatch):
        monkeypatch.setattr(cache_module, "_MAXSIZE", 2)
        cache = ResultCache()
        cache.put("a", {"v": 1})
        cache.put("b", {"v": 2})
        assert cache.get("a") is not None  # refresh a; b is now LRU
        cache.put("c", {"v": 3})
        assert len(cache) == 2
        assert cache.get("b") is None
        assert cache.get("a") is not None
        assert cache.get("c") is not None

    def test_returned_record_is_not_aliased_to_the_cache(self):
        # Regression: get/put made only shallow copies, so the nested
        # metrics/meta dicts were shared between the cache and callers —
        # mutating a returned record corrupted the cached entry.
        cache = ResultCache()
        cache.put("k", {"ok": True, "metrics": {"lb": 2.0}, "meta": {"s": 1}})
        first = cache.get("k")
        first["metrics"]["lb"] = -99.0
        first["meta"]["injected"] = True
        again = cache.get("k")
        assert again["metrics"] == {"lb": 2.0}
        assert again["meta"] == {"s": 1}

    def test_record_passed_to_put_is_not_aliased_either(self):
        record = {"ok": True, "metrics": {"lb": 2.0}}
        cache = ResultCache()
        cache.put("k", record)
        record["metrics"]["lb"] = -99.0  # caller reuses its dict
        assert cache.get("k")["metrics"] == {"lb": 2.0}

    def test_disk_roundtrip_is_not_aliased(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        cache.put("k", {"ok": True, "metrics": {"lb": 2.0}})
        cache.clear()  # force the next get through the disk layer
        first = cache.get("k")
        first["metrics"]["lb"] = -99.0
        assert cache.get("k")["metrics"] == {"lb": 2.0}

    def test_returned_record_is_a_copy(self):
        cache = ResultCache()
        cache.put("k", {"v": 1})
        record = cache.get("k")
        record["v"] = 99
        assert cache.get("k")["v"] == 1


class TestDiskLayer:
    def test_roundtrip_across_instances(self, tmp_path):
        ResultCache(directory=tmp_path).put("key", {"objective": 7.0})
        fresh = ResultCache(directory=tmp_path)
        assert fresh.get("key") == {"objective": 7.0}
        assert fresh.stats["hits"] == 1

    def test_disk_miss_counts(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        assert cache.get("absent") is None
        assert cache.stats["misses"] == 1

    def test_corrupt_file_is_a_miss(self, tmp_path):
        (tmp_path / "bad.json").write_text("{not json")
        cache = ResultCache(directory=tmp_path)
        assert cache.get("bad") is None

    @pytest.mark.parametrize(
        "content",
        [b"\x80\x81", b"[1, 2]", b"", b"null", b'"objective"', b"7.5"],
        ids=["not-utf8", "not-an-object", "empty", "null", "string", "number"],
    )
    def test_undecodable_file_is_a_miss(self, tmp_path, content):
        (tmp_path / "bad.json").write_bytes(content)
        cache = ResultCache(directory=tmp_path)
        assert cache.get("bad") is None
        assert cache.stats["misses"] == 1
        assert cache.stats["hits"] == 0

    def test_put_over_an_unreadable_file_reads_back(self, tmp_path):
        (tmp_path / "bad.json").write_bytes(b"{not json")
        ResultCache(directory=tmp_path).put("bad", {"objective": 3.0})
        assert ResultCache(directory=tmp_path).get("bad") == {"objective": 3.0}

    def test_clear_keeps_disk(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        cache.put("key", {"v": 1})
        cache.clear()
        assert len(cache) == 0
        assert cache.get("key") == {"v": 1}  # reloaded from disk


class TestDiskEviction:
    def _fill(self, cache, count, pad=64):
        import os
        import time

        for i in range(count):
            cache.put(f"key-{i}", {"objective": float(i), "pad": "x" * pad})
            # distinct mtimes so oldest-first order is deterministic
            path = cache.directory / f"key-{i}.json"
            stamp = time.time() - (count - i) * 10
            os.utime(path, (stamp, stamp))

    def test_budget_enforced_on_put(self, tmp_path):
        cache = ResultCache(directory=tmp_path, disk_budget=600)
        self._fill(cache, 8)
        cache.put("key-last", {"objective": 9.0, "pad": "x" * 64})
        num, size = cache.disk_usage()
        assert size <= 600
        assert num < 9
        assert cache.evictions > 0
        # the newest write always survives
        assert (tmp_path / "key-last.json").exists()

    def test_oldest_mtime_evicted_first(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        self._fill(cache, 6)
        _, total = cache.disk_usage()
        summary = cache.prune(total // 2)
        assert summary["removed"] > 0
        assert summary["kept_bytes"] <= total // 2
        survivors = {p.name for p, _, _ in cache.disk_entries()}
        # survivors are a suffix of the write order (newest kept)
        kept_ids = sorted(int(n.split("-")[1].split(".")[0]) for n in survivors)
        assert kept_ids == list(range(6 - len(kept_ids), 6))

    def test_prune_to_zero_empties_store(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        self._fill(cache, 3)
        summary = cache.prune(0)
        assert summary == {
            "removed": 3,
            "removed_bytes": summary["removed_bytes"],
            "kept": 0,
            "kept_bytes": 0,
        }
        assert cache.disk_usage() == (0, 0)

    def test_prune_without_directory_is_noop(self):
        cache = ResultCache()
        assert cache.prune(0)["removed"] == 0

    def test_unbounded_by_default(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        self._fill(cache, 10)
        assert cache.disk_usage()[0] == 10
        assert cache.evictions == 0

    def test_rejects_negative_budget(self, tmp_path):
        with pytest.raises(ValueError):
            ResultCache(directory=tmp_path, disk_budget=-1)

    def test_disk_hit_refreshes_mtime(self, tmp_path):
        import os
        import time

        cache = ResultCache(directory=tmp_path)
        cache.put("hot", {"v": 1})
        path = tmp_path / "hot.json"
        old = time.time() - 3600
        os.utime(path, (old, old))
        # fresh instance: empty memory layer forces a *disk* hit
        assert ResultCache(directory=tmp_path).get("hot") == {"v": 1}
        assert path.stat().st_mtime > old + 1800

    def test_read_entries_survive_eviction_over_unread_ones(self, tmp_path):
        # Regression: prune() evicts oldest-mtime first, but get() never
        # refreshed mtime — so the most frequently *read* entries were
        # evicted first under a byte budget.
        cache = ResultCache(directory=tmp_path)
        self._fill(cache, 6)  # key-0 oldest ... key-5 newest
        # Read the two oldest entries through a fresh (memory-empty)
        # cache: disk hits must make them the *newest* by mtime.
        reader = ResultCache(directory=tmp_path)
        assert reader.get("key-0") is not None
        assert reader.get("key-1") is not None

        _, total = cache.disk_usage()
        per_entry = total // 6
        cache.prune(per_entry * 3)  # keep ~3 of 6
        survivors = {p.name for p, _, _ in cache.disk_entries()}
        # the hot (recently read) entries survive ...
        assert "key-0.json" in survivors
        assert "key-1.json" in survivors
        # ... while the cold oldest-mtime entries were evicted first
        assert "key-2.json" not in survivors
        assert "key-3.json" not in survivors

    def test_memory_hit_leaves_disk_mtime_alone(self, tmp_path):
        # Only *disk* hits touch the file: a memory hit must not pay a
        # syscall per lookup.
        import os
        import time

        cache = ResultCache(directory=tmp_path)
        cache.put("k", {"v": 1})
        path = tmp_path / "k.json"
        old = time.time() - 3600
        os.utime(path, (old, old))
        assert cache.get("k") == {"v": 1}  # served from memory
        assert abs(path.stat().st_mtime - old) < 5

    def test_eviction_does_not_break_memory_layer(self, tmp_path):
        cache = ResultCache(directory=tmp_path, disk_budget=0)
        cache.put("k", {"v": 1})
        assert cache.disk_usage() == (0, 0)
        assert cache.get("k") == {"v": 1}  # memory layer still serves it


class TestEvictionCounters:
    """Satellite: `stats` distinguishes memory/disk evictions under
    forced pressure."""

    def test_memory_eviction_counter(self, monkeypatch):
        monkeypatch.setattr(cache_module, "_MAXSIZE", 2)
        cache = ResultCache()
        for i in range(5):
            cache.put(f"key-{i}", {"objective": float(i)})
        stats = cache.stats
        assert stats["evictions_memory"] == 3
        assert stats["size"] == 2
        assert stats["evictions_disk"] == 0

    def test_disk_eviction_counter(self, tmp_path):
        cache = ResultCache(directory=tmp_path, disk_budget=600)
        for i in range(9):
            cache.put(f"key-{i}", {"objective": float(i), "pad": "x" * 64})
        stats = cache.stats
        assert stats["evictions_disk"] > 0
        assert stats["evictions_disk"] == cache.evictions

    def test_counters_survive_clear(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cache_module, "_MAXSIZE", 1)
        cache = ResultCache(directory=tmp_path)
        cache.put("a", {"objective": 1.0})
        cache.put("b", {"objective": 2.0})
        assert cache.evictions_memory == 1
        cache.clear()
        # clear drops entries, not lifetime counters
        assert cache.stats["evictions_memory"] == 1
