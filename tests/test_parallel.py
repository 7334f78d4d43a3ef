"""Tests for the parallel harness: executor, cache, shared memory.

The harness's contract is bit-identity: the same suite must produce
byte-identical formatted tables whether it runs serially, across a
process pool, or out of a warm artifact cache.  These tests pin that
contract at a tiny scale, plus the cache-key stability and corruption
safety the cache's correctness rests on.
"""

import numpy as np
import pytest

from repro.experiments.report import run_all
from repro.experiments.workloads import ExperimentScale, default_graph
from repro.parallel import cache as cache_mod
from repro.parallel.cache import (
    ArtifactCache,
    activate,
    cache_from_env,
    cache_key,
    cached_point,
    canonical_params,
)
from repro.parallel.sharedmem import SharedWorkload, attach_workload
from repro.parallel.tasks import plan_experiment, suite_options

TINY = ExperimentScale(n_pages=400, n_sites=20, seed=9)

#: A fast, representative suite subset (overlay build + two
#: graph-based experiments with distinct reference tolerances).
SUBSET = ("table1", "partitioning", "tradeoff")
SUBSET_KW = dict(scale=TINY, only=SUBSET, table1_ns=(1_000,))


class TestExecutionModeIdentity:
    @pytest.fixture(scope="class")
    def serial(self):
        return run_all(**SUBSET_KW)

    def test_pool_matches_serial(self, serial):
        parallel = run_all(**SUBSET_KW, jobs=2)
        assert parallel.sections == serial.sections

    def test_pool_without_shm_matches_serial(self, serial, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_SHM", "0")
        parallel = run_all(**SUBSET_KW, jobs=2)
        assert parallel.sections == serial.sections

    def test_cold_then_warm_cache_matches_serial(self, serial, tmp_path):
        cold_cache = ArtifactCache(tmp_path)
        cold = run_all(**SUBSET_KW, cache=cold_cache)
        assert cold.sections == serial.sections
        assert cold_cache.stores > 0 and cold_cache.hits == 0

        warm_cache = ArtifactCache(tmp_path)
        warm = run_all(**SUBSET_KW, cache=warm_cache)
        assert warm.sections == serial.sections
        assert warm_cache.misses == 0 and warm_cache.hits > 0
        assert warm_cache.stores == 0

    def test_results_in_selected_order(self, serial):
        assert tuple(serial.sections) == SUBSET
        assert tuple(serial.results) == SUBSET

    def test_task_durations_cover_every_task(self, serial):
        options = suite_options(TINY, table1_ns=(1_000,))
        for name in SUBSET:
            assert len(serial.task_durations[name]) == len(
                plan_experiment(name, options)
            )
            assert serial.durations[name] == pytest.approx(
                sum(serial.task_durations[name])
            )

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError, match="jobs"):
            run_all(**SUBSET_KW, jobs=0)


class TestCacheKeys:
    def test_golden_key_pinned(self):
        # Pinned hex: guards the canonical-JSON rendering (key order,
        # separators, tuple->list, schema version).  If this moves,
        # every existing cache on disk silently invalidates — bump
        # CACHE_SCHEMA_VERSION deliberately instead.
        assert (
            cache_key(
                "point/golden",
                {"alpha": 0.85, "n": 1000, "grid": (1, 2, 3), "label": "A"},
            )
            == "14797a7aef7a46436ed17e0ab272058b60efa38ba05e5c59681525a445444918"
        )

    def test_key_independent_of_param_order(self):
        assert cache_key("k", {"a": 1, "b": 2}) == cache_key("k", {"b": 2, "a": 1})

    def test_key_sensitive_to_every_component(self):
        base = cache_key("k", {"a": 1, "b": 2.0})
        assert cache_key("k2", {"a": 1, "b": 2.0}) != base
        assert cache_key("k", {"a": 2, "b": 2.0}) != base
        assert cache_key("k", {"a": 1, "b": 2.5}) != base
        assert cache_key("k", {"a": 1, "b": 2.0, "c": None}) != base

    def test_schema_bump_invalidates(self, monkeypatch):
        before = cache_key("k", {"a": 1})
        monkeypatch.setattr(cache_mod, "CACHE_SCHEMA_VERSION", 999)
        assert cache_key("k", {"a": 1}) != before

    def test_numpy_scalars_canonicalize(self):
        assert cache_key("k", {"n": np.int64(7)}) == cache_key("k", {"n": 7})

    def test_unhashable_params_rejected(self):
        with pytest.raises(TypeError, match="canonicalize"):
            canonical_params({"arr": np.zeros(3)})


class TestArtifactCache:
    def test_array_round_trip(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        ranks = np.linspace(0.0, 1.0, 17)
        cache.store_arrays("a" * 64, ranks=ranks)
        out = cache.load_arrays("a" * 64)
        assert out["ranks"].tobytes() == ranks.tobytes()

    def test_object_round_trip_preserves_none(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        with activate(cache):
            calls = []
            for _ in range(2):
                value = cached_point("point/t", {"x": 1}, lambda: calls.append(1))
            assert value is None  # legitimately-None value is a hit,
            assert calls == [1]  # not a recompute

    def test_graph_round_trip(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        graph = default_graph(TINY)
        cache.store_graph("b" * 64, graph)
        out = cache.load_graph("b" * 64)
        assert out.fingerprint() == graph.fingerprint()

    def test_corrupt_entry_is_a_miss_and_discarded(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = "c" * 64
        cache.store_arrays(key, x=np.arange(5))
        path = cache.path_for(key, ".npz")
        path.write_bytes(b"not an npz archive")
        assert cache.load_arrays(key) is None
        assert not path.exists()
        # Object and graph entries degrade the same way.
        cache.store_object(key, {"value": 3})
        cache.path_for(key, ".pkl").write_bytes(b"\x80garbage")
        assert cache.load_object(key) is None
        cache.path_for(key, ".graph.npz").write_bytes(b"junk")
        assert cache.load_graph(key) is None

    def test_no_temp_files_linger(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.store_arrays("d" * 64, x=np.arange(3))
        cache.store_object("e" * 64, {"value": 1})
        cache.store_graph("f" * 64, default_graph(TINY))
        assert not [p for p in tmp_path.rglob("*.tmp*")]

    def test_cached_point_without_cache_computes_every_time(self):
        calls = []
        for _ in range(2):
            cached_point("point/t", {"x": 1}, lambda: calls.append(1))
        assert calls == [1, 1]

    def test_cache_from_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert cache_from_env() is None
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        cache = cache_from_env()
        assert cache is not None and cache.root == tmp_path / "envcache"


class TestSharedWorkload:
    def test_shm_round_trip(self):
        graph = default_graph(TINY)
        refs = {"default": np.linspace(0.0, 1.0, graph.n_pages)}
        keepalive = []
        with SharedWorkload(graph, refs) as workload:
            if not workload.uses_shm:
                pytest.skip("shared memory unavailable on this platform")
            spec = workload.spec()
            out_graph, out_refs = attach_workload(spec, keepalive)
            assert out_graph.fingerprint() == graph.fingerprint()
            assert out_refs["default"].tobytes() == refs["default"].tobytes()
            assert not out_refs["default"].flags.writeable
            assert not out_graph.indices.flags.writeable
            del out_graph, out_refs
            keepalive.clear()

    def test_pickle_fallback_round_trip(self):
        graph = default_graph(TINY)
        refs = {"default": np.linspace(0.0, 1.0, graph.n_pages)}
        with SharedWorkload(graph, refs, use_shm=False) as workload:
            assert not workload.uses_shm
            out_graph, out_refs = attach_workload(workload.spec())
            assert out_graph is graph
            assert out_refs["default"] is refs["default"]


# ----------------------------------------------------------------------
# One definition, one runner
# ----------------------------------------------------------------------
import dataclasses
import inspect

from repro import experiments
from repro.parallel import tasks
from repro.parallel.cache import cached_call

RUNNERS = {
    "table1": experiments.run_table1,
    "fig6": experiments.run_fig6,
    "fig7": experiments.run_fig7,
    "fig8": experiments.run_fig8,
    "partitioning": experiments.run_partitioning_ablation,
    "transport": experiments.run_transport_comparison,
    "compression": experiments.run_compression_ablation,
    "overlay_hops": experiments.run_overlay_hops,
    "tradeoff": experiments.run_time_vs_bandwidth,
}

#: The five bake-offs: registry experiments outside the default suite.
BAKEOFFS = {
    "partitions": experiments.run_partition_bakeoff,
    "engines": experiments.run_engine_bakeoff,
    "chaos": experiments.run_chaos_bakeoff,
    "codecs": experiments.run_compression_bakeoff,
    "serve": experiments.run_serve_demo,
}
RUNNERS.update(BAKEOFFS)
ALL = (*experiments.EXPERIMENTS, *BAKEOFFS)


class TestOneRunner:
    """``run_*`` and ``run_all`` are the same plan on the same executor."""

    @pytest.fixture(scope="class")
    def shared_cache(self, tmp_path_factory):
        """One artifact cache for the suite run and the single runs, so
        each point is computed once and a self-timed point replays its
        measured wall clock."""
        return ArtifactCache(tmp_path_factory.mktemp("one-runner"))

    @pytest.fixture(scope="class")
    def suite(self, shared_cache):
        return run_all(scale=TINY, only=ALL, cache=shared_cache)

    @pytest.fixture
    def point_calls(self, monkeypatch):
        """Spy on every registered point: ``[(kind, keywords), ...]``."""
        calls = []
        for kind, registered in list(tasks.POINTS.items()):

            def spy(*inputs, _kind=kind, _fn=registered.fn, **params):
                calls.append((_kind, params))
                return _fn(*inputs, **params)

            monkeypatch.setitem(
                tasks.POINTS, kind, dataclasses.replace(registered, fn=spy)
            )
        return calls

    def test_registry_is_the_suite(self):
        assert set(tasks.REGISTRY) == set(experiments.EXPERIMENTS) | set(BAKEOFFS)
        assert set(tasks.REGISTRY) == set(RUNNERS)

    @pytest.mark.parametrize("name", ALL)
    def test_single_run_is_the_suite_section(self, name, suite, shared_cache, point_calls):
        options = suite_options(TINY)
        run = RUNNERS[name]
        workload = (
            {"graph": default_graph(TINY)}
            if "graph" in inspect.signature(run).parameters
            else {}
        )
        with activate(shared_cache):
            result = run(**workload, **options.get(name, {}))
        # Byte for byte the section run_all printed (same defaults) ...
        assert result.format() == suite.sections[name]
        # ... from exactly the planned point calls, in plan order.
        assert point_calls == [
            (task.kind, task.params) for task in plan_experiment(name, options)
        ]

    def test_unknown_option_rejected(self):
        with pytest.raises(ValueError, match="no option"):
            plan_experiment("fig6", {"fig6": {"n_grups": 8}})
        with pytest.raises(TypeError):
            experiments.run_fig6(n_grups=8)

    def test_inline_run_releases_the_workload(self):
        experiments.run_partitioning_ablation(
            default_graph(TINY), n_groups=4, measure_traffic=False
        )
        with pytest.raises(RuntimeError, match="not installed"):
            tasks.execute_task("fig8_cpr", {"threshold": 1e-4})
        with pytest.raises(RuntimeError, match="needs the workload graph, but"):
            tasks.execute_task("n_pages", {})


#: Every cached point: the registry's point functions.
CACHED_POINTS = [registered.fn for registered in tasks.POINTS.values()]


def _two_values(name, parameter):
    """Two distinct valid bindings for one point-function parameter."""
    if name == "graph":
        return default_graph(TINY), default_graph(dataclasses.replace(TINY, seed=10))
    if name == "reference":
        return np.linspace(0.0, 1.0, 5), np.linspace(0.0, 2.0, 5)
    return {
        "int": (3, 4),
        "float": (0.5, 0.25),
        "str": ("a", "b"),
        "bool": (True, False),
    }[parameter.annotation]


class TestDerivedCacheKeys:
    def test_every_cached_point_is_registered(self):
        """No experiment module memoizes a point outside the registry."""
        import importlib
        import pkgutil

        cached = {
            fn
            for info in pkgutil.iter_modules(experiments.__path__)
            for fn in vars(importlib.import_module(f"repro.experiments.{info.name}")).values()
            if callable(getattr(fn, "key_params", None))
        }
        assert cached == set(CACHED_POINTS)
        assert len(CACHED_POINTS) == 18

    @pytest.mark.parametrize("fn", CACHED_POINTS, ids=lambda fn: fn.__name__)
    def test_key_tracks_every_bound_argument(self, fn):
        parameters = inspect.signature(fn).parameters
        values = {name: _two_values(name, p) for name, p in parameters.items()}
        call = {name: pair[0] for name, pair in values.items()}

        def key(keywords):
            return cache_key("k", fn.key_params(**keywords))

        assert key(dict(reversed(call.items()))) == key(call)
        for name, (_, other) in values.items():
            assert key({**call, name: other}) != key(call), name

    def test_key_covers_constants_defaults_and_spelling(self):
        def fn(a, b=2, *, c=3):
            return a + b + c

        keyed = cached_call("k", period=6.0)(fn)
        assert keyed(1) == 6
        assert keyed.key_params(1) == {"period": 6.0, "a": 1, "b": 2, "c": 3}
        assert keyed.key_params(1, 2, c=3) == keyed.key_params(a=1, c=3, b=2)
        other = cached_call("k", period=7.0)(fn)
        assert other.key_params(1) != keyed.key_params(1)

    def test_cached_call_memoizes_through_the_active_cache(self, tmp_path):
        calls = []

        @cached_call("point/t")
        def fn(x, *, y=1):
            calls.append((x, y))
            return x * y

        with activate(ArtifactCache(tmp_path)):
            assert [fn(2), fn(2, y=1), fn(x=2), fn(2, y=3)] == [2, 2, 2, 6]
        assert calls == [(2, 1), (2, 3)]
