"""Tests for the LP-result memo cache (canonicalized constraint keys)."""

from __future__ import annotations

import threading

import numpy as np

from repro.lp import (LinearProgramSolver, LPResultCache, LPStats,
                      install_shared_lp_cache, shared_lp_cache)


def _square(shift: float = 0.0):
    """Constraints of the unit square shifted by ``shift``, as (A, b)."""
    a = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    b = np.array([1.0 + shift, 0.0, 1.0 + shift, 0.0])
    return a, b


class TestLPResultCache:
    def test_disabled_by_default(self):
        stats = LPStats()
        solver = LinearProgramSolver(stats=stats)
        a, b = _square()
        for __ in range(2):
            solver.solve(np.zeros(2), a, b)
        assert solver.cache is None
        assert stats.solved == 2
        assert stats.cache_hits == 0

    def test_identical_solves_hit(self):
        stats = LPStats()
        solver = LinearProgramSolver(stats=stats, cache_size=16)
        a, b = _square()
        first = solver.solve(np.zeros(2), a, b)
        second = solver.solve(np.zeros(2), a, b)
        assert stats.solved == 1
        assert stats.cache_hits == 1
        assert second is first

    def test_row_order_is_canonicalized(self):
        stats = LPStats()
        solver = LinearProgramSolver(stats=stats, cache_size=16)
        a, b = _square()
        solver.solve(np.zeros(2), a, b)
        perm = [2, 0, 3, 1]
        solver.solve(np.zeros(2), a[perm], b[perm])
        assert stats.solved == 1
        assert stats.cache_hits == 1

    def test_different_instances_miss(self):
        stats = LPStats()
        solver = LinearProgramSolver(stats=stats, cache_size=16)
        a, b = _square()
        solver.solve(np.zeros(2), a, b)
        a2, b2 = _square(shift=0.5)
        solver.solve(np.zeros(2), a2, b2)
        solver.solve(np.array([1.0, 0.0]), a, b)  # same set, new objective
        assert stats.solved == 3
        assert stats.cache_hits == 0

    def test_results_match_uncached(self):
        cached = LinearProgramSolver(stats=LPStats(), cache_size=16)
        plain = LinearProgramSolver(stats=LPStats())
        a, b = _square()
        c = np.array([-1.0, -2.0])
        want = plain.solve(c, a, b)
        got = cached.solve(c, a, b)
        again = cached.solve(c, a, b)
        assert got.status == want.status == again.status
        assert np.isclose(got.objective, want.objective)

    def test_lru_eviction_bounds_size(self):
        cache = LPResultCache(maxsize=2)
        solver = LinearProgramSolver(stats=LPStats(), cache_size=2)
        solver.cache = cache
        for shift in (0.0, 0.25, 0.5, 0.75):
            a, b = _square(shift)
            solver.solve(np.zeros(2), a, b)
        assert len(cache) == 2

    def test_cache_hits_reset(self):
        stats = LPStats()
        stats.record_cache_hit()
        assert stats.cache_hits == 1
        stats.reset()
        assert stats.cache_hits == 0


class TestInstalledMemo:
    def test_installation_is_per_thread(self):
        """Two threads interleave install and restore (A installs, B
        installs, A restores, B restores): each sees only its own memo,
        and nothing stays installed afterwards."""
        memos = {"A": LPResultCache(8), "B": LPResultCache(8)}
        a_installed, b_installed = threading.Event(), threading.Event()
        a_restored = threading.Event()
        seen: dict[str, object] = {}

        def run(name, wait_for, signal_installed, signal_restored):
            previous = install_shared_lp_cache(memos[name])
            signal_installed.set()
            assert wait_for.wait(10.0)
            seen[name] = shared_lp_cache()
            seen[name + " solver"] = LinearProgramSolver(
                stats=LPStats(), cache_size=8).cache
            install_shared_lp_cache(previous)
            seen[name + " after"] = shared_lp_cache()
            if signal_restored is not None:
                signal_restored.set()

        thread_a = threading.Thread(
            target=run, args=("A", b_installed, a_installed, a_restored))
        thread_a.start()
        assert a_installed.wait(10.0)
        thread_b = threading.Thread(
            target=run, args=("B", a_restored, b_installed, None))
        thread_b.start()
        for thread in (thread_a, thread_b):
            thread.join(10.0)
            assert not thread.is_alive()
        for name in ("A", "B"):
            assert seen[name] is memos[name]
            assert seen[name + " solver"] is memos[name]
            assert seen[name + " after"] is None
        assert shared_lp_cache() is None
