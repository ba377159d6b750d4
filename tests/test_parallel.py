import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

from digraphon import parallel
from digraphon.parallel import WORKERS_ENV, map_tasks, resolve_workers, split_range
from digraphon.stepgraphon import _warn_if_large


class TestResolveWorkers:
    def test_explicit_override_wins(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "4")
        assert resolve_workers(2) == 2

    def test_env_var_default(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "3")
        assert resolve_workers() == 3

    def test_unset_means_one(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert resolve_workers() == 1

    def test_garbage_env_falls_back(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "many")
        assert resolve_workers() == 1

    def test_floor_at_one(self):
        assert resolve_workers(0) == 1
        assert resolve_workers(-3) == 1


class TestSplitRange:
    def test_covers_exactly(self):
        chunks = split_range(0, 100, 7)
        assert chunks[0][0] == 0 and chunks[-1][1] == 100
        assert sum(hi - lo for lo, hi in chunks) == 100
        assert all(lo < hi for lo, hi in chunks)
        assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))

    def test_more_chunks_than_items(self):
        assert split_range(0, 2, 10) == [(0, 1), (1, 2)]

    def test_empty(self):
        assert split_range(5, 5, 3) == []


def _square(x):
    return x * x


def _exit_worker(x):
    os._exit(1)


class TestMapTasks:
    def test_sequential(self):
        assert map_tasks(_square, [1, 2, 3], workers=1) == [1, 4, 9]

    def test_pooled_preserves_order(self):
        assert map_tasks(_square, list(range(20)), workers=2) == \
            [x * x for x in range(20)]

    def test_pool_is_reused_per_worker_count(self, monkeypatch):
        started = []

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, max_workers):
                started.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", CountingPool)
        # Start from no pool; the one in place is restored afterwards.
        monkeypatch.setattr(parallel, "_pool", None)
        monkeypatch.setattr(parallel, "_pool_workers", 0)
        try:
            assert map_tasks(_square, [1, 2, 3], workers=2) == [1, 4, 9]
            assert map_tasks(_square, [4, 5], workers=2) == [16, 25]
            assert started == [2]
            assert map_tasks(_square, [1, 2, 3], workers=3) == [1, 4, 9]
            assert started == [2, 3]
            with pytest.raises(BrokenProcessPool):
                map_tasks(_exit_worker, [1, 2], workers=3)
            assert map_tasks(_square, [6, 7], workers=3) == [36, 49]
            assert started == [2, 3, 3]
        finally:
            if parallel._pool is not None:
                parallel._pool.shutdown()


def test_large_density_sums_warn():
    with pytest.warns(RuntimeWarning):
        _warn_if_large(10**7 + 1)


def test_env_var_drives_exhaustive_scan(monkeypatch):
    from digraphon import OrientedGraph, check_directed_sidorenko_exhaustive

    path3 = OrientedGraph(3, [(0, 1), (1, 2)])
    baseline = check_directed_sidorenko_exhaustive(path3, 3)
    monkeypatch.setenv(WORKERS_ENV, "2")
    pooled = check_directed_sidorenko_exhaustive(path3, 3)
    assert pooled.verdict == baseline.verdict
    assert pooled.witness.margin == baseline.witness.margin
    assert pooled.witness.host == baseline.witness.host
