"""The worker-pool layer: ordering, shared memory, and the degrade contract.

Two groups of tests:

- the layer on its own — no process for one worker, task order under
  chunking and a bounded window, arrays through shared memory released
  on success and on failure, a pool that cannot start, a genuine task
  error;
- fault injection at every site that fans out through the layer.  The
  site's module-level task function is patched to SIGKILL its own
  worker on the second task any worker runs; the site must still
  return exactly what its one-worker run returns, leave no child
  process and no shared-memory segment behind, and (where it has one)
  name the degrade in its executor label.
"""

from __future__ import annotations

import functools
import importlib
import multiprocessing
import os
import signal
from pathlib import Path

import numpy as np
import pytest

from repro.api import Campaign, Portfolio, VerificationEngine
from repro.api.portfolio import _verdict_side
from repro.bench import Track, generate_smoke_suite, run_competition
from repro.interchange import load_instances
from repro.nn import Dense, Flatten, ReLU, Sequential
from repro.perception.network import build_mlp_perception_network
from repro.properties.library import steer_far_left
from repro.properties.risk import RiskCondition, output_geq
from repro.scenario.regions import scenario_region_grid
from repro.scenario.streaming import StreamPlan, run_stream
from repro.verification import pool as pool_module
from repro.verification import shm
from repro.verification.cegar import CegarConfig, CegarLoop
from repro.verification.pool import WorkerPool

_SHM_DIR = Path("/dev/shm")


def _segments() -> set[str]:
    if not _SHM_DIR.is_dir():
        return set()
    return {p.name for p in _SHM_DIR.iterdir() if p.name.startswith("psm_")}


@pytest.fixture
def no_leaks():
    """Each test leaves no child process and no shared-memory segment."""
    before = _segments()
    yield
    assert multiprocessing.active_children() == []
    assert _segments() - before == set()


# -- module-level task functions (pool callables must pickle) ---------------


def _offset_init(offset: int) -> int:
    return offset


def _add(offset: int, value: int) -> int:
    return offset + value


def _describe(_state, index: int, array: np.ndarray) -> tuple:
    if index == 3:
        raise ValueError("task 3 is broken")
    return index, float(array.sum()), array.flags.writeable


class TestLayer:
    def test_one_worker_starts_no_process(self, monkeypatch, no_leaks):
        def refuse(*args, **kwargs):
            raise AssertionError("a one-worker pool started an executor")

        monkeypatch.setattr(pool_module, "ProcessPoolExecutor", refuse)
        with WorkerPool(1, initializer=_offset_init, initargs=(10,)) as pool:
            assert not pool.live
            results = pool.map(
                _add, [(i,) for i in range(5)], fallback=lambda v: v + 100
            )
        assert results == [100, 101, 102, 103, 104]
        assert pool.label("process-pool[1]") == "sequential"

    def test_results_keep_task_order_under_chunks_and_window(self, no_leaks):
        tasks = ((i,) for i in range(11))  # lazy, like a stream
        with WorkerPool(2, initializer=_offset_init, initargs=(10,)) as pool:
            results = pool.map(
                _add, tasks, fallback=lambda v: v + 10, chunksize=2, window=2
            )
            assert pool.submit(_add, 5).result() == 15
        assert results == [i + 10 for i in range(11)]
        assert pool.label("process-pool[2]") == "process-pool[2]"

    @pytest.mark.skipif(not shm.available(), reason="no shared memory")
    def test_arrays_ship_read_only_through_shared_memory(self, no_leaks):
        tasks = [(i, np.full(4, float(i))) for i in range(3)]
        with WorkerPool(2) as pool:
            results = pool.map(
                _describe, tasks, fallback=lambda *t: _describe(None, *t),
                chunksize=2,
            )
        # workers read views of the parent's segment, never a copy
        assert results == [(i, 4.0 * i, False) for i in range(3)]

    def test_genuine_task_error_propagates_and_releases_blocks(self, no_leaks):
        tasks = [(i, np.ones(2)) for i in range(6)]
        with WorkerPool(2) as pool:
            with pytest.raises(ValueError, match="task 3"):
                pool.map(_describe, tasks, fallback=lambda *t: _describe(None, *t))
        assert pool.failure is None  # an error in a task is not a degrade

    def test_pool_that_cannot_start_degrades_in_place(self, monkeypatch, no_leaks):
        def refuse(*args, **kwargs):
            raise OSError("fork refused")

        monkeypatch.setattr(pool_module, "ProcessPoolExecutor", refuse)
        with WorkerPool(2, initializer=_offset_init, initargs=(10,)) as pool:
            results = pool.map(
                _add, [(i,) for i in range(3)], fallback=lambda v: v + 10
            )
        assert results == [10, 11, 12]
        assert pool.failure == "OSError"
        assert pool.label("process-pool[2]") == (
            "process-pool[2] (degraded to in-process: OSError)"
        )


# -- fault injection at every site ------------------------------------------

#: the pytest process; only its forked workers may die
_PARENT = os.getpid()
#: worker tasks started so far (shared with the workers across fork)
_STARTED = multiprocessing.Value("i", 0)
#: the worker task that SIGKILLs its own process
_KILL_AT = 2


def _killing(original):
    """``original``, except that the ``_KILL_AT``-th task a worker starts
    kills that worker.  ``functools.wraps`` keeps the module path and
    name, so the patched function pickles to itself in the workers."""

    @functools.wraps(original)
    def task(*args, **kwargs):
        if os.getpid() != _PARENT:
            with _STARTED.get_lock():
                _STARTED.value += 1
                started = _STARTED.value
            if started == _KILL_AT:
                os.kill(os.getpid(), signal.SIGKILL)
        return original(*args, **kwargs)

    return task


@pytest.fixture(scope="module")
def grid_model():
    model = Sequential(
        [Flatten(), Dense(8), ReLU(), Dense(2)],
        input_shape=(1, 32, 32),
        seed=7,
    )
    model.forward(
        np.random.default_rng(0).uniform(0, 1, size=(4, 1, 32, 32)),
        training=True,
    )
    return model


@pytest.fixture(scope="module")
def grid_setup(grid_model):
    """(engine, a provable and a falsifiable risk, region set names)."""
    engine = VerificationEngine(grid_model, 3, solver="highs")
    names = engine.add_region_sets(scenario_region_grid(n_scenes=1, seed=3))
    enclosures = engine.output_enclosures(names)
    lo = min(float(e.lower[0]) for e in enclosures)
    hi = max(float(e.upper[0]) for e in enclosures)
    risks = [
        steer_far_left(round(hi + 0.25, 3)),
        steer_far_left(round(0.5 * (lo + hi), 3)),
    ]
    return engine, risks, names


def _verdicts(report) -> list:
    return [r.verdict.verdict.value for r in report.results]


def _engine_site(request, workers):
    engine, risks, names = request.getfixturevalue("grid_setup")
    campaign = Campaign("faults").add_grid(
        risks=risks, properties=(None,), sets=names
    )
    report = engine.run(campaign, workers=workers)
    return _verdicts(report), report.executor


def _portfolio_site(request, workers):
    engine, risks, names = request.getfixturevalue("grid_setup")
    campaign = Campaign("faults").add_grid(
        risks=risks, properties=(None,), sets=names[:2]
    )
    report = Portfolio(engine).run(campaign, workers=workers)
    # racers may decide the same side with different verdict values, and
    # which racer wins a parallel race is a matter of timing
    return [_verdict_side(r) for r in report.results], report.executor


def _stream_site(request, workers):
    engine, risks, _names = request.getfixturevalue("grid_setup")
    report = run_stream(
        engine,
        StreamPlan(n_scenes=2, seed=3, shard_size=2),
        risks,
        workers=workers,
    )
    return (report.verdict_counts, report.coverage), report.executor


def _cegar_site(request, workers):
    model = build_mlp_perception_network(
        input_dim=4, hidden=(8,), feature_width=4, seed=1
    )
    rng = np.random.default_rng(0)
    reach = float(model.forward(rng.uniform(0, 1, (4000, 4)), training=False)[:, 0].max())
    # just above the reachable maximum: ~30 subproblems, most rounds
    # hand several leaves to the solver rung
    risk = RiskCondition("y0-high", (output_geq(2, 0, reach + 0.05),))
    loop = CegarLoop(
        model, risk, 0.0, 1.0, cut_layer=2, config=CegarConfig(solve_depth=1)
    )
    result = loop.run(budget=2000, workers=workers)
    return (result.status, round(result.decided_fraction, 12)), None


@pytest.fixture(scope="module")
def smoke_instances(tmp_path_factory):
    suite = tmp_path_factory.mktemp("faults-suite")
    generate_smoke_suite(suite)
    return load_instances(suite)


def _bench_site(request, workers):
    instances = request.getfixturevalue("smoke_instances")
    tracks = (
        Track(name="interval-bnb", domain="interval", method="exact",
              solver="branch-and-bound"),
        Track(name="zonotope-highs", domain="zonotope", method="exact",
              solver="highs"),
    )
    report = run_competition(instances, tracks, workers=workers)
    return [(o.track, o.instance, o.status) for o in report.outcomes], None


SITES = {
    "engine.run": ("repro.api.engine", "_worker_run", _engine_site),
    "CegarLoop.run": ("repro.verification.cegar", "_pool_leaf_solve", _cegar_site),
    "Portfolio.run": ("repro.api.portfolio", "_racer_run", _portfolio_site),
    "run_stream": ("repro.scenario.streaming", "_stream_worker_run", _stream_site),
    "run_competition": ("repro.bench.runner", "_run_cell", _bench_site),
}


@pytest.mark.parametrize("site", sorted(SITES))
def test_worker_death_keeps_every_answer(site, request, monkeypatch, no_leaks):
    module_name, task_name, run = SITES[site]
    module = importlib.import_module(module_name)
    # the CEGAR loop caps its pool at the core count; force two workers
    monkeypatch.setattr("repro.verification.cegar.os.cpu_count", lambda: 4)

    expected, _ = run(request, 1)
    monkeypatch.setattr(module, task_name, _killing(getattr(module, task_name)))
    _STARTED.value = 0
    answers, executor = run(request, 2)

    assert _STARTED.value >= _KILL_AT, "no worker was killed"
    assert answers == expected
    if executor is not None:
        assert "degraded to in-process: BrokenProcessPool" in executor
