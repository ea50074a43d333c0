"""Pipeline tests: substrate cache semantics, parallel determinism, and
the run manifest."""

import os
import threading

import pytest

from repro.harness.cache import (
    SUBSTRATE_CACHE,
    SubstrateCache,
    freeze,
    memoize_substrate,
)
from repro.harness.pipeline import (
    ARTIFACT_SUBSTRATES,
    SUBSTRATES,
    artifact_names,
    run_pipeline,
)
from repro.resilience import FaultPlan, FaultRule
from repro.scenario import ScenarioSpec, scenario_context


class TestFreeze:
    def test_scalars_pass_through(self):
        assert freeze(3) == 3
        assert freeze("x") == "x"

    def test_containers_become_hashable(self):
        key = freeze({"b": [1, 2], "a": {"c": 3}})
        assert hash(key) == hash(freeze({"a": {"c": 3}, "b": (1, 2)}))

    def test_unhashable_leaf_falls_back_to_repr(self):
        import numpy as np

        key = freeze(np.zeros(2))
        hash(key)


class TestSubstrateCache:
    def test_computes_once_per_key(self):
        cache = SubstrateCache()
        calls = []
        for _ in range(3):
            value = cache.get_or_compute(
                "s", lambda: calls.append(1) or 42, key=(1,)
            )
        assert value == 42
        assert len(calls) == 1
        assert cache.stats().hits == 2
        assert cache.stats().misses == 1

    def test_distinct_keys_are_distinct_entries(self):
        cache = SubstrateCache()
        cache.get_or_compute("s", lambda: "a", key=(1,))
        cache.get_or_compute("s", lambda: "b", key=(2,))
        assert len(cache) == 2
        assert cache.substrates() == ("s",)
        assert cache.holds("s", (1,)) and not cache.holds("s", (3,))
        assert not cache.holds("t", (1,))

    def test_clear_resets_counters(self):
        cache = SubstrateCache()
        cache.get_or_compute("s", lambda: 1)
        cache.clear()
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.entries) == (0, 0, 0)

    def test_concurrent_requests_compute_once(self):
        cache = SubstrateCache()
        calls = []

        def factory():
            calls.append(1)
            return "value"

        barrier = threading.Barrier(8)

        def worker():
            barrier.wait()
            assert cache.get_or_compute("s", factory) == "value"

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(calls) == 1
        assert cache.stats().hits == 7

    def test_memoize_substrate_normalises_default_args(self):
        cache = SubstrateCache()
        calls = []

        @memoize_substrate("demo", cache=cache)
        def build(*, size: int = 5, seed: int = 7):
            calls.append((size, seed))
            return size * seed

        assert build() == build(size=5) == build(seed=7, size=5) == 35
        assert len(calls) == 1
        assert build(size=6) == 42
        assert len(calls) == 2
        assert build.uncached(size=5) == 35  # bypasses the cache
        assert len(calls) == 3


class TestSubstrateCacheBounds:
    """The store is LRU-bounded: many distinct seeds must not grow it
    (or its per-key lock map) without limit."""

    def test_default_bound_is_generous_but_finite(self):
        from repro.harness.cache import DEFAULT_MAX_ENTRIES

        cache = SubstrateCache()
        assert cache.max_entries == DEFAULT_MAX_ENTRIES == 128
        assert cache.stats().max_entries == 128

    def test_insertion_past_the_bound_evicts_lru(self):
        cache = SubstrateCache(max_entries=2)
        for seed in (1, 2, 3):
            cache.get_or_compute("s", lambda s=seed: s, key=(seed,))
        assert len(cache) == 2
        assert cache.stats().evictions == 1
        # seed=1 was evicted: asking again recomputes it
        calls = []
        cache.get_or_compute("s", lambda: calls.append(1) or 1, key=(1,))
        assert calls == [1]

    def test_hit_refreshes_recency(self):
        cache = SubstrateCache(max_entries=2)
        cache.get_or_compute("s", lambda: "a", key=(1,))
        cache.get_or_compute("s", lambda: "b", key=(2,))
        cache.get_or_compute("s", lambda: None, key=(1,))  # touch key 1
        cache.get_or_compute("s", lambda: "c", key=(3,))   # evicts key 2
        calls = []
        assert cache.get_or_compute(
            "s", lambda: calls.append(1) or "a2", key=(1,)
        ) == "a"
        assert calls == []  # key 1 survived the eviction

    def test_eviction_prunes_key_locks(self):
        cache = SubstrateCache(max_entries=2)
        for seed in range(10):
            cache.get_or_compute("s", lambda s=seed: s, key=(seed,))
        assert len(cache) == 2
        assert len(cache._key_locks) <= 2
        assert cache.stats().evictions == 8

    def test_unbounded_when_max_entries_is_none(self):
        cache = SubstrateCache(max_entries=None)
        for seed in range(300):
            cache.get_or_compute("s", lambda s=seed: s, key=(seed,))
        assert len(cache) == 300
        assert cache.stats().evictions == 0
        assert cache.stats().max_entries is None

    def test_invalid_bound_rejected(self):
        with pytest.raises(ValueError, match="max_entries"):
            SubstrateCache(max_entries=0)

    def test_prime_respects_the_bound(self):
        cache = SubstrateCache(max_entries=2)
        for seed in range(4):
            cache.prime("s", (seed,), seed)
        assert len(cache) == 2
        assert cache.stats().evictions == 2

    def test_clear_resets_eviction_counter(self):
        cache = SubstrateCache(max_entries=1)
        cache.get_or_compute("s", lambda: 1, key=(1,))
        cache.get_or_compute("s", lambda: 2, key=(2,))
        assert cache.stats().evictions == 1
        cache.clear()
        assert cache.stats().evictions == 0


class TestPipelineRegistry:
    def test_every_artifact_declares_substrates(self):
        assert set(ARTIFACT_SUBSTRATES) == set(artifact_names())

    def test_declared_substrates_exist(self):
        for name, deps in ARTIFACT_SUBSTRATES.items():
            for dep in deps:
                assert dep in SUBSTRATES, f"{name} wants unknown {dep!r}"

    def test_builders_populate_their_substrate(self):
        SUBSTRATE_CACHE.clear()
        SUBSTRATES["k_year"].builder()()  # builder() returns the factory
        assert SUBSTRATE_CACHE.substrates() == ("k_year",)
        SUBSTRATE_CACHE.clear()


class TestRunPipeline:
    def test_invalid_jobs(self):
        with pytest.raises(ValueError, match="jobs"):
            run_pipeline(["table1"], jobs=0)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="nope"):
            run_pipeline(["nope"])

    def test_selection_preserves_order(self):
        run = run_pipeline(["sec3a", "table1"])
        assert list(run.results) == ["sec3a", "table1"]

    def test_substrates_computed_once_across_artifacts(self):
        # fig3 and fig4 share workload_profiles: a cold cache must see
        # exactly one miss for it.
        SUBSTRATE_CACHE.clear()
        run_pipeline(["fig3", "fig4"])
        stats = SUBSTRATE_CACHE.stats()
        assert stats.misses == 1
        assert stats.hits >= 1  # fig3's pull; fig4 adds more on a cold lru
        SUBSTRATE_CACHE.clear()

    def test_manifest_shape(self):
        run = run_pipeline(["sec3a"], jobs=2)
        m = run.manifest
        assert m["schema_version"] == 4
        assert m["jobs"] == 2
        assert m["status"] == "ok"
        assert m["fault_plan"] is None
        assert m["scenario"] == {
            "label": "baseline", "fingerprint": None, "spec": {},
        }
        assert m["total_wall_time_s"] > 0
        assert set(m["artifacts"]) == {"sec3a"}
        entry = m["artifacts"]["sec3a"]
        assert entry["substrates"] == ["k_year"]
        assert entry["seed"] == 20180401
        assert entry["status"] == "ok"
        assert entry["retries"] == 0
        assert entry["wall_time_s"] >= 0
        assert len(entry["text_sha256"]) == 64
        assert m["substrates"]["k_year"]["seed"] == 20180401
        assert {"hits", "misses", "entries", "evictions"} <= set(m["cache"])


def _die_in_child(substrate, scenario):
    """A forked substrate builder that kills its worker process."""
    os._exit(3)


class TestProcessWarming:
    def test_forked_warm_path_primes_cache_and_stays_deterministic(
        self, monkeypatch
    ):
        """Force the multi-core branch: substrates built in forked
        workers and primed back must yield the exact serial results."""
        import multiprocessing

        from repro.harness import pipeline

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("no fork on this platform")
        SUBSTRATE_CACHE.clear()
        serial = run_pipeline(["sec3a", "table8"], jobs=1)
        SUBSTRATE_CACHE.clear()
        monkeypatch.setattr(pipeline, "_cpu_capacity", lambda: 8)
        forked = run_pipeline(["sec3a", "table8"], jobs=2)
        assert SUBSTRATE_CACHE.substrates() == ("k_year", "ozaki_splits")
        for name in serial.results:
            assert serial.results[name]["text"] == forked.results[name]["text"]
        assert not forked.manifest["substrates"]["k_year"]["cached"]
        SUBSTRATE_CACHE.clear()

    def test_fault_plan_manifest_is_the_same_for_every_jobs(
        self, monkeypatch
    ):
        """An armed plan fires every rule in the one injector: the
        injected k_year failure is retried and recorded, and the cache
        sites are counted, exactly as in a serial run."""
        from repro.harness import pipeline

        plan = FaultPlan(rules=(FaultRule(site="substrate:k_year"),))

        def provenance(jobs):
            SUBSTRATE_CACHE.clear()
            m = run_pipeline(
                ["sec3a", "table3"], jobs=jobs, fault_plan=plan
            ).manifest
            substrates = {
                name: {k: entry[k] for k in ("retries", "status", "cached")}
                for name, entry in m["substrates"].items()
            }
            return substrates, m["fault_plan"]["seen"], m["fault_plan"]["injected"]

        serial = provenance(1)
        monkeypatch.setattr(pipeline, "_cpu_capacity", lambda: 8)
        forked = provenance(2)
        SUBSTRATE_CACHE.clear()
        assert serial[0]["k_year"]["retries"] == 1
        assert serial[1]["cache:spack_index"] == 2
        assert forked == serial

    def test_dead_worker_falls_back_to_in_process_builds(self, monkeypatch):
        """A worker that dies breaks the pool; every substrate is then
        built in-process and the run completes unchanged."""
        import multiprocessing

        from repro.harness import pipeline

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("no fork on this platform")
        SUBSTRATE_CACHE.clear()
        serial = run_pipeline(["sec3a", "table8"], jobs=1)
        SUBSTRATE_CACHE.clear()
        monkeypatch.setattr(pipeline, "_cpu_capacity", lambda: 8)
        monkeypatch.setattr(pipeline, "_compute_substrate", _die_in_child)
        broken = run_pipeline(["sec3a", "table8"], jobs=2)
        SUBSTRATE_CACHE.clear()
        assert broken.manifest["status"] == "ok"
        for name in ("k_year", "ozaki_splits"):
            entry = broken.manifest["substrates"][name]
            assert (entry["status"], entry["cached"], entry["retries"]) == (
                "ok", False, 0,
            )
        for name in serial.results:
            assert serial.results[name]["text"] == broken.results[name]["text"]

    def test_prime_counts_as_miss_and_respects_existing(self):
        cache = SubstrateCache()
        cache.prime("s", (1,), "computed-elsewhere")
        assert cache.stats().misses == 1
        assert cache.get_or_compute("s", lambda: "recomputed", key=(1,)) == (
            "computed-elsewhere"
        )
        cache.prime("s", (1,), "late-duplicate")  # first value wins
        assert cache.get_or_compute("s", lambda: None, key=(1,)) == (
            "computed-elsewhere"
        )


class TestScenarioResidency:
    """Residency is asked per cache key: a baseline entry does not make
    an overlay's substrate warm."""

    OVERLAY = ScenarioSpec(name="reseed", substrate_seeds={"k_year": 7})

    def test_resident_follows_the_active_scenario(self):
        from repro.joblog import generate_k_year

        SUBSTRATE_CACHE.clear()
        generate_k_year()
        assert generate_k_year.resident()
        with scenario_context(self.OVERLAY):
            assert not generate_k_year.resident()
            generate_k_year()
            assert generate_k_year.resident()
        assert SUBSTRATE_CACHE.stats().hits == 0  # peeks count nothing
        SUBSTRATE_CACHE.clear()

    def test_overlay_run_records_its_build_as_uncached(self):
        SUBSTRATE_CACHE.clear()
        run_pipeline(["sec3a"])
        misses = SUBSTRATE_CACHE.stats().misses
        m = run_pipeline(["sec3a"], scenario=self.OVERLAY).manifest
        SUBSTRATE_CACHE.clear()
        assert m["substrates"]["k_year"]["cached"] is False
        assert m["substrates"]["k_year"]["seed"] == 7
        assert m["cache"]["misses"] == misses + 1

    def test_cold_overlay_substrates_are_prefetched(self, monkeypatch):
        import multiprocessing

        from repro.harness import pipeline

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("no fork on this platform")
        handed: list[list[str]] = []

        def record(cold, jobs, scenario):
            handed.append(list(cold))
            return {}  # build everything in-process

        SUBSTRATE_CACHE.clear()
        run_pipeline(["sec3a", "table3"])
        monkeypatch.setattr(pipeline, "_cpu_capacity", lambda: 2)
        monkeypatch.setattr(pipeline, "_prefetch", record)
        m = run_pipeline(
            ["sec3a", "table3"], jobs=2, scenario=self.OVERLAY
        ).manifest
        SUBSTRATE_CACHE.clear()
        assert handed == [["k_year", "spack_index"]]
        assert not any(e["cached"] for e in m["substrates"].values())


class TestDeterminismUnderParallelism:
    """run_all(jobs=1) and run_all(jobs=8) must be indistinguishable —
    seeded RNG state is isolated per artefact, never shared."""

    @pytest.fixture(scope="class")
    def serial_and_parallel(self):
        SUBSTRATE_CACHE.clear()
        serial = run_pipeline(jobs=1)
        SUBSTRATE_CACHE.clear()  # force real recomputation in parallel
        parallel = run_pipeline(jobs=8)
        SUBSTRATE_CACHE.clear()
        return serial, parallel

    def test_same_artifact_set(self, serial_and_parallel):
        serial, parallel = serial_and_parallel
        assert list(serial.results) == list(parallel.results)

    def test_identical_text(self, serial_and_parallel):
        serial, parallel = serial_and_parallel
        for name in serial.results:
            assert serial.results[name]["text"] == parallel.results[name]["text"], (
                f"{name}: text differs between jobs=1 and jobs=8"
            )

    def test_identical_manifest_hashes(self, serial_and_parallel):
        serial, parallel = serial_and_parallel
        hashes = lambda run: {
            name: meta["text_sha256"]
            for name, meta in run.manifest["artifacts"].items()
        }
        assert hashes(serial) == hashes(parallel)

    def test_identical_structured_results(self, serial_and_parallel):
        from repro.harness.export import to_jsonable

        serial, parallel = serial_and_parallel
        for name in serial.results:
            s = to_jsonable({k: v for k, v in serial.results[name].items()
                             if k != "text"})
            p = to_jsonable({k: v for k, v in parallel.results[name].items()
                             if k != "text"})
            assert s == p, f"{name}: structured payload differs"

    def test_run_all_wrapper_matches(self):
        from repro.harness import run_all

        assert list(run_all(["table1"], jobs=4)) == ["table1"]
