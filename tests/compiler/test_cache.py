"""Tests for the structure-keyed compilation cache (compile-once/bind-many).

Covers cache keying edge cases (same structure/different values hits;
noise-dimension, added-factor, ordering, variable-dimension changes
miss), provenance preservation across rebind, one template per stream
name, the obs counters, LRU eviction, and frames keying through the
process-wide default cache.
"""

import numpy as np
import pytest

import repro.obs as obs
from repro.compiler import (
    CompilationCache,
    clear_default_cache,
    compile_application,
    compile_graph,
    default_cache,
    graph_structure,
)
from repro.compiler.isa import Opcode
from repro.factorgraph import FactorGraph, Isotropic, Values, X, Y
from repro.factors import BetweenFactor, GPSFactor, PriorFactor
from repro.geometry import Pose


def chain(value_seed=0, num_poses=3, space=3, sigma=0.2, with_gps=False):
    rng = np.random.default_rng(value_seed)
    graph = FactorGraph()
    values = Values()
    poses = [Pose.random(space, rng) for _ in range(num_poses)]
    dim = poses[0].dim
    graph.add(PriorFactor(X(0), poses[0], Isotropic(dim, 0.1)))
    values.insert(X(0), poses[0].retract(0.05 * rng.standard_normal(dim)))
    for i in range(1, num_poses):
        graph.add(BetweenFactor(X(i), X(i - 1),
                                poses[i].ominus(poses[i - 1]),
                                Isotropic(dim, sigma)))
        values.insert(X(i), poses[i].retract(0.05 * rng.standard_normal(dim)))
    if with_gps:
        graph.add(GPSFactor(X(1), poses[1].t, Isotropic(space, 0.3)))
    return graph, values


def fingerprint(graph, values, ordering=None):
    return graph_structure(graph, values, ordering).fingerprint


class TestKeying:
    def test_same_structure_different_values_hits(self):
        g1, v1 = chain(0)
        g2, v2 = chain(99)
        assert fingerprint(g1, v1) == fingerprint(g2, v2)
        cache = CompilationCache()
        cache.compile_stream(g1, v1)
        cache.compile_stream(g2, v2)
        assert cache.stats() == {"hits": 1, "misses": 1, "entries": 1}

    def test_different_noise_sigma_same_structure_hits(self):
        # Noise *values* are numerics, not structure.
        g1, v1 = chain(0, sigma=0.2)
        g2, v2 = chain(0, sigma=0.9)
        assert fingerprint(g1, v1) == fingerprint(g2, v2)

    def test_added_factor_misses(self):
        g1, v1 = chain(0)
        g2, v2 = chain(0, with_gps=True)
        assert fingerprint(g1, v1) != fingerprint(g2, v2)

    def test_changed_variable_dims_miss(self):
        g2d = chain(0, space=2)
        g3d = chain(0, space=3)
        assert fingerprint(*g2d) != fingerprint(*g3d)

    def test_changed_ordering_misses(self):
        graph, values = chain(0)
        keys = list(graph.keys())
        fp_default = fingerprint(graph, values)
        fp_forward = fingerprint(graph, values, keys)
        fp_reverse = fingerprint(graph, values, keys[::-1])
        assert len({fp_default, fp_forward, fp_reverse}) == 3

    def test_changed_noise_dims_miss(self):
        graph, values = chain(0)
        g2 = FactorGraph()
        for f in graph.factors:
            g2.add(f)
        g2.add(PriorFactor(Y(0), np.zeros(2), Isotropic(2, 1.0)))
        v2 = values.copy()
        v2.insert(Y(0), np.zeros(2))
        assert fingerprint(graph, values) != fingerprint(g2, v2)


class TestRebind:
    def test_rebound_values_are_fresh(self):
        g1, v1 = chain(0)
        g2, v2 = chain(42)
        cache = CompilationCache()
        cache.compile_stream(g1, v1)
        rebound = cache.compile_stream(g2, v2)
        cold = compile_graph(g2, v2)
        by_uid = {i.uid: i for i in cold.program.instructions}
        checked = 0
        for instr in rebound.program.instructions:
            if instr.op is Opcode.CONST:
                assert np.array_equal(instr.meta["value"],
                                      by_uid[instr.uid].meta["value"])
                checked += 1
        assert checked > 0

    def test_provenance_preserved_across_rebind(self):
        g1, v1 = chain(0)
        g2, v2 = chain(7)
        cache = CompilationCache()
        template = cache.compile_stream(g1, v1)
        rebound = cache.compile_stream(g2, v2)
        tagged = 0
        for got, ref in zip(rebound.program.instructions,
                            template.program.instructions):
            assert (got.provenance is None) == (ref.provenance is None)
            if got.provenance is not None:
                assert got.provenance.factor_ids == ref.provenance.factor_ids
                assert got.provenance.stage == ref.provenance.stage
                tagged += 1
        assert tagged > 0

    def test_new_name_renamed_once_then_rebound_from_its_template(self):
        cache = CompilationCache()
        cold = cache.compile_stream(*chain(0), name="a")
        renamed = cache.compile_stream(*chain(1), name="b")
        again = cache.compile_stream(*chain(2), name="b")
        # The rename clones every instruction; the next hit under the
        # same name rebinds the renamed template, sharing its value-free
        # instructions and cloning only the value-bearing ones.
        assert not any(x is y for x, y in zip(renamed.program.instructions,
                                              cold.program.instructions))
        shared = [x is y for x, y in zip(again.program.instructions,
                                         renamed.program.instructions)]
        assert any(shared) and not all(shared)
        assert again.program.structure_slot() is \
            renamed.program.structure_slot()

    def test_default_ordering_reused_from_template(self):
        g1, v1 = chain(0, num_poses=5)
        g2, v2 = chain(3, num_poses=5)
        cache = CompilationCache()
        template = cache.compile_stream(g1, v1)
        rebound = cache.compile_stream(g2, v2)
        assert rebound.ordering == template.ordering
        assert rebound.ordering == compile_graph(g2, v2).ordering


class TestCachePolicy:
    def test_lru_eviction(self, monkeypatch):
        monkeypatch.setattr(CompilationCache, "MAX_ENTRIES", 2)
        cache = CompilationCache()
        problems = [chain(0, num_poses=n) for n in (2, 3, 4)]
        for g, v in problems:
            cache.compile_stream(g, v)
        assert len(cache) == 2
        # Oldest (2-pose) structure was evicted: compiling it again misses.
        cache.compile_stream(*problems[0])
        assert cache.stats()["misses"] == 4

    def test_clear_resets_stats(self):
        cache = CompilationCache()
        cache.compile_stream(*chain(0))
        cache.clear()
        assert cache.stats() == {"hits": 0, "misses": 0, "entries": 0}

    def test_counters_emitted_when_observing(self):
        obs.enable()
        try:
            obs.collector().drain()
            cache = CompilationCache()
            cache.compile_stream(*chain(0))
            cache.compile_stream(*chain(5))
            snapshot = obs.collector().drain()
        finally:
            obs.disable()
        assert snapshot.counters["compiler.cache.miss"] == 1
        assert snapshot.counters["compiler.cache.hit"] == 1

    def test_frames_use_the_default_cache(self):
        clear_default_cache()
        try:
            compile_application({"a": chain(0)})
            compile_application({"a": chain(1)})
            assert default_cache().stats() == {
                "hits": 1, "misses": 1, "entries": 1,
            }
        finally:
            clear_default_cache()


class TestStructure:
    def test_fingerprint_is_stable_hex(self):
        graph, values = chain(0)
        fp = fingerprint(graph, values)
        assert fp == fingerprint(graph, values)
        assert len(fp) == 64
        int(fp, 16)

    def test_binder_rejects_embedded_factors(self):
        from repro.compiler.cache import Binder
        from repro.errors import CompileError
        from repro.factors import CameraFactor, PinholeCamera

        graph, values = chain(0)
        g2 = FactorGraph()
        for f in graph.factors:
            g2.add(f)
        cam = PinholeCamera()
        values.insert(Y(0), np.array([0.2, -0.3, 6.0]))
        g2.add(CameraFactor(X(0), Y(0), np.array([1.0, 1.0]), cam))
        with pytest.raises(CompileError, match="no expression DAG"):
            Binder(g2, values).write({}, ("expr", len(g2.factors) - 1, 0))

    def test_embedded_factor_graphs_cache_and_rebind(self):
        from repro.factors import CameraFactor, PinholeCamera

        def slam(value_seed):
            rng = np.random.default_rng(value_seed)
            graph, values = chain(value_seed)
            cam = PinholeCamera()
            landmark = np.array([0.5, -0.3, 6.0]) \
                + 0.1 * rng.standard_normal(3)
            values.insert(Y(0), landmark)
            g2 = FactorGraph()
            for f in graph.factors:
                g2.add(f)
            g2.add(CameraFactor(X(0), Y(0), np.array([320.0, 240.0]), cam))
            g2.add(PriorFactor(Y(0), landmark, Isotropic(3, 1.0)))
            return g2, values

        cache = CompilationCache()
        cache.compile_stream(*slam(0))
        g, v = slam(9)
        rebound = cache.compile_stream(g, v)
        assert cache.stats() == {"hits": 1, "misses": 1, "entries": 1}
        cold = compile_graph(g, v)
        embeds = [i for i in rebound.program.instructions
                  if i.op is Opcode.EMBED]
        assert embeds and all(i.meta["values"] is v for i in embeds)
        from repro.compiler import Executor

        got = rebound.extract_solution(Executor().run(rebound.program))
        want = cold.extract_solution(Executor().run(cold.program))
        for key in want:
            assert np.allclose(got[key], want[key], atol=1e-10)
