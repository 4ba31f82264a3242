"""The track-based competition runner.

:func:`run_competition` is the CHC-COMP-shaped evaluation loop: every
:class:`~repro.bench.tracks.Track` answers every
:class:`~repro.interchange.instances.BenchmarkInstance` under a
per-instance wall-clock budget, outcomes are scored
(:mod:`repro.bench.scoring`) and cross-checked for verdict consistency,
and the whole run is collected into a JSON-able
:class:`CompetitionReport` (rendered by :mod:`repro.bench.report`).

Models and parsed properties are loaded once per instance and shared
across tracks; each track still gets a **fresh**
:class:`~repro.api.VerificationEngine` per instance, so no track
benefits from another track's caches — times are attributable to the
configuration alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.bench.scoring import (
    InstanceOutcome,
    TrackScore,
    rank_scores,
    score_track,
    verdict_disagreements,
)
from repro.api import VerificationQuery
from repro.bench.tracks import Track
from repro.core.verdict import Verdict
from repro.interchange.instances import (
    SAT,
    UNKNOWN,
    UNSAT,
    BenchmarkInstance,
    combine_disjunct_verdicts,
    instance_engine,
)
from repro.verification.pool import WorkerPool

#: default cegar subproblem budget when a cegar track does not set one
_CEGAR_BUDGET = 32

_VERDICT_STATUS = {
    Verdict.UNSAFE_IN_SET: SAT,
    Verdict.SAFE: UNSAT,
    Verdict.CONDITIONALLY_SAFE: UNSAT,
    Verdict.UNKNOWN: UNKNOWN,
}


@dataclass
class CompetitionReport:
    """Everything one :func:`run_competition` call learned."""

    instance_dir: str
    suite: str | None
    tracks: list[Track]
    instances: list[str]
    outcomes: list[InstanceOutcome]
    scores: list[TrackScore]
    disagreements: list[str]
    total_time: float
    timeout: float | None = None  #: CLI-level override, if any

    @property
    def consistent(self) -> bool:
        return not self.disagreements

    @property
    def unsound_answers(self) -> int:
        return sum(score.unsound for score in self.scores)

    @property
    def ok(self) -> bool:
        """Whether the run is trustworthy: consistent, sound, error-free."""
        return (
            self.consistent
            and self.unsound_answers == 0
            and all(score.errors == 0 for score in self.scores)
        )

    def outcome(self, track: str, instance: str) -> InstanceOutcome | None:
        for row in self.outcomes:
            if row.track == track and row.instance == instance:
                return row
        return None

    def to_dict(self) -> dict:
        return {
            "instance_dir": self.instance_dir,
            "suite": self.suite,
            "tracks": [track.to_dict() for track in self.tracks],
            "instances": list(self.instances),
            "scores": [score.to_dict() for score in rank_scores(self.scores)],
            "outcomes": [outcome.to_dict() for outcome in self.outcomes],
            "disagreements": list(self.disagreements),
            "consistent": self.consistent,
            "unsound_answers": self.unsound_answers,
            "ok": self.ok,
            "total_time": round(self.total_time, 4),
        }


def run_instance(
    track: Track,
    instance: BenchmarkInstance,
    model=None,
    prop=None,
    timeout: float | None = None,
) -> InstanceOutcome:
    """Answer one instance under one track's configuration.

    ``model``/``prop`` may be passed pre-loaded (the runner shares them
    across tracks); ``timeout`` overrides the instance's own budget.
    The wall clock covers engine construction, so expensive encodings
    count against the track that needs them.

    The budget is a genuine **per-instance** wall budget, CHC-COMP
    style: every disjunct query is given only the *remaining* budget as
    its solver limit, a ``sat`` disjunct ends the instance early, and
    an answer arriving after the budget has elapsed does not count —
    the outcome is ``timeout`` regardless of what the solver said.
    """
    budget = float(timeout if timeout is not None else instance.timeout)
    start = time.perf_counter()
    refine_budget = (
        (track.refine_budget or _CEGAR_BUDGET) if track.method == "cegar" else None
    )
    try:
        model = instance.load_model() if model is None else model
        prop = instance.load_property() if prop is None else prop
        engine = instance_engine(model, prop, solver=track.solver)
        statuses: list[str] = []
        deciders: set[str] = set()
        timed_out = False
        for disjunct in prop.disjuncts:
            remaining = budget - (time.perf_counter() - start)
            if remaining <= 0.0:
                timed_out = True
                break
            result = engine.run_query_safe(
                VerificationQuery(
                    risk=disjunct,
                    set_name="instance",
                    method=track.method,
                    domain=track.domain,
                    time_limit=remaining,
                    refine_budget=refine_budget,
                )
            )
            if not result.ok:
                return InstanceOutcome(
                    track=track.name,
                    instance=instance.name,
                    status="error",
                    elapsed=time.perf_counter() - start,
                    timeout=budget,
                    expected=instance.expected,
                    detail=result.error or "query error",
                )
            if result.decided_by:
                deciders.add(result.decided_by)
            statuses.append(_VERDICT_STATUS.get(result.verdict.verdict, UNKNOWN))
            if statuses[-1] == SAT:
                break  # any reachable disjunct decides the instance
    except Exception as exc:  # a broken instance must not sink the run
        return InstanceOutcome(
            track=track.name,
            instance=instance.name,
            status="error",
            elapsed=time.perf_counter() - start,
            timeout=budget,
            expected=instance.expected,
            detail=f"{type(exc).__name__}: {exc}",
        )
    elapsed = time.perf_counter() - start

    status = combine_disjunct_verdicts(statuses)
    if timed_out or elapsed > budget:
        status = "timeout"
    return InstanceOutcome(
        track=track.name,
        instance=instance.name,
        status=status,
        elapsed=elapsed,
        timeout=budget,
        expected=instance.expected,
        detail=",".join(sorted(deciders)),
    )


def run_instance_daemon(
    client,
    track: Track,
    instance: BenchmarkInstance,
    timeout: float | None = None,
) -> InstanceOutcome:
    """Answer one instance by submitting it to a running daemon.

    ``client`` is a :class:`~repro.service.ServiceClient`.  The daemon
    applies the same per-instance wall-budget semantics as
    :func:`run_instance` (late answers score ``timeout``), but against
    long-lived engines and the persistent result store — so unlike the
    in-process runner, repeated instances may be answered from the
    store, and times are not attributable to the track configuration
    alone.
    """
    budget = float(timeout if timeout is not None else instance.timeout)
    payload: dict = {
        "model": str(instance.model_path),
        "property": str(instance.property_path),
        "method": track.method,
        "domain": track.domain,
        "solver": track.solver,
        "timeout": budget,
        "label": f"{track.name}/{instance.name}",
    }
    if track.method == "cegar":
        payload["refine_budget"] = track.refine_budget or _CEGAR_BUDGET
    try:
        job = client.submit(payload)
        # generous client-side deadline: the job may sit in the queue
        # behind others before its own wall budget even starts
        job = client.wait_for(job["id"], timeout=max(4.0 * budget, 60.0))
    except Exception as exc:
        return InstanceOutcome(
            track=track.name,
            instance=instance.name,
            status="error",
            elapsed=0.0,
            timeout=budget,
            expected=instance.expected,
            detail=f"{type(exc).__name__}: {exc}",
        )
    result = job.get("result") or {}
    state = job["state"]
    if state == "done":
        status = result.get("status", UNKNOWN)
        detail = ",".join(result.get("decided_by", ()))
    elif state == "timeout":
        status = "timeout"
        detail = ",".join(result.get("decided_by", ()))
    else:
        status = "error"
        detail = job.get("error") or state
    return InstanceOutcome(
        track=track.name,
        instance=instance.name,
        status=status,
        elapsed=float(result.get("elapsed", 0.0)),
        timeout=budget,
        expected=instance.expected,
        detail=detail,
    )


def _run_cell(
    _state: tuple,
    track: Track,
    instance: BenchmarkInstance,
    timeout: float | None,
) -> InstanceOutcome:
    """One (track, instance) competition cell, self-contained.

    The parallel runner's pool callable (module-level so it pickles;
    the pool keeps no worker state): loads model and property itself —
    workers share nothing, so every cell's time stays attributable to
    its configuration alone — and applies the same static-IR pre-check
    as the sequential loop.
    """
    try:
        model = instance.load_model()
        prop = instance.load_property()
    except Exception as exc:
        return InstanceOutcome(
            track=track.name,
            instance=instance.name,
            status="error",
            elapsed=0.0,
            timeout=float(timeout if timeout is not None else instance.timeout),
            expected=instance.expected,
            detail=f"{type(exc).__name__}: {exc}",
        )
    from repro.analysis.ir_analysis import model_error_summary

    diagnostics = model_error_summary(model)
    if diagnostics is not None:
        return InstanceOutcome(
            track=track.name,
            instance=instance.name,
            status="error",
            elapsed=0.0,
            timeout=float(timeout if timeout is not None else instance.timeout),
            expected=instance.expected,
            detail=f"static analysis rejected model: {diagnostics}",
        )
    return run_instance(track, instance, model, prop, timeout=timeout)


def _run_cells_parallel(
    instances: Sequence[BenchmarkInstance],
    tracks: Sequence[Track],
    timeout: float | None,
    workers: int,
    progress: Callable[[str], None] | None,
) -> list[InstanceOutcome]:
    """All (instance, track) cells on a process pool, sequential order.

    Wall budgets stay **per instance** — each cell enforces its own
    budget inside the worker — and the returned outcomes are ordered
    exactly as the sequential loop would have produced them.
    """
    cells = [(track, instance, timeout) for instance in instances for track in tracks]
    with WorkerPool(workers) as pool:
        outcomes = pool.map(
            _run_cell, cells, fallback=lambda *cell: _run_cell((), *cell)
        )
    if progress is not None:
        for outcome in outcomes:
            progress(
                f"  {outcome.track:<18} {outcome.instance:<22} "
                f"{outcome.status:<8} {outcome.elapsed:7.3f}s"
            )
        if pool.failure is not None:
            progress(f"  executor: {pool.label(f'process-pool[{workers}]')}")
    return outcomes


def run_competition(
    instances: Sequence[BenchmarkInstance],
    tracks: Sequence[Track] | None = None,
    *,
    instance_dir: str = "",
    suite: str | None = None,
    timeout: float | None = None,
    progress: Callable[[str], None] | None = None,
    daemon: str | None = None,
    workers: int = 1,
) -> CompetitionReport:
    """Run every track over every instance and score the matrix.

    ``daemon`` targets a running service (a base URL) instead of
    constructing in-process engines: every (track, instance) cell is
    submitted as a job via :func:`run_instance_daemon`.

    ``workers > 1`` fans the (instance, track) cells out over a process
    pool (ignored under ``daemon`` — the daemon is the executor there).
    Per-instance wall budgets still apply inside each worker, and the
    outcome order matches the sequential loop.  Cells a dead worker
    left unfinished, or every cell when no pool can start, run
    in-process.
    """
    tracks = list(tracks) if tracks else None
    if not tracks:
        from repro.bench.tracks import DEFAULT_TRACKS

        tracks = list(DEFAULT_TRACKS)
    names = [track.name for track in tracks]
    if len(set(names)) != len(names):
        raise ValueError(f"track names must be unique, got {names}")
    if not instances:
        raise ValueError("run_competition needs at least one instance")

    client = None
    if daemon is not None:
        from repro.service.client import ServiceClient

        client = ServiceClient(daemon)

    start = time.perf_counter()
    outcomes: list[InstanceOutcome] = []
    if workers > 1 and client is None:
        outcomes = _run_cells_parallel(
            instances, tracks, timeout, workers, progress
        )
    if outcomes:
        scores = [score_track(track.name, outcomes) for track in tracks]
        return CompetitionReport(
            instance_dir=str(instance_dir),
            suite=suite,
            tracks=tracks,
            instances=[instance.name for instance in instances],
            outcomes=outcomes,
            scores=scores,
            disagreements=verdict_disagreements(outcomes),
            total_time=time.perf_counter() - start,
            timeout=timeout,
        )
    for instance in instances:
        if client is not None:
            for track in tracks:
                outcome = run_instance_daemon(client, track, instance, timeout=timeout)
                outcomes.append(outcome)
                if progress is not None:
                    progress(
                        f"  {track.name:<18} {instance.name:<22} "
                        f"{outcome.status:<8} {outcome.elapsed:7.3f}s"
                    )
            continue
        # load once, share across tracks (engines are still per-track);
        # a file outside the supported subset becomes an error outcome
        # for every track instead of sinking the whole run
        load_error: str | None = None
        model = prop = None
        try:
            model = instance.load_model()
            prop = instance.load_property()
        except Exception as exc:
            load_error = f"{type(exc).__name__}: {exc}"
        if load_error is None and model is not None:
            # static IR check up front: an invalid model scores as an
            # error outcome with op-indexed diagnostics instead of a
            # numpy traceback from inside some track's propagation
            from repro.analysis.ir_analysis import model_error_summary

            diagnostics = model_error_summary(model)
            if diagnostics is not None:
                load_error = f"static analysis rejected model: {diagnostics}"
        for track in tracks:
            if load_error is not None:
                outcome = InstanceOutcome(
                    track=track.name,
                    instance=instance.name,
                    status="error",
                    elapsed=0.0,
                    timeout=float(timeout if timeout is not None else instance.timeout),
                    expected=instance.expected,
                    detail=load_error,
                )
            else:
                outcome = run_instance(track, instance, model, prop, timeout=timeout)
            outcomes.append(outcome)
            if progress is not None:
                progress(
                    f"  {track.name:<18} {instance.name:<22} "
                    f"{outcome.status:<8} {outcome.elapsed:7.3f}s"
                )
    scores = [score_track(track.name, outcomes) for track in tracks]
    return CompetitionReport(
        instance_dir=str(instance_dir),
        suite=suite,
        tracks=tracks,
        instances=[instance.name for instance in instances],
        outcomes=outcomes,
        scores=scores,
        disagreements=verdict_disagreements(outcomes),
        total_time=time.perf_counter() - start,
        timeout=timeout,
    )
