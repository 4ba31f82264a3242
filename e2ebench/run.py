"""The repository's benchmark: one workload, measured from cold processes.

    python3 e2ebench/run.py --workload grid-stream --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout.  Every measured program process is
a cold ``repro`` CLI or daemon child started through ``boot.py`` with
``--workers 1`` and one BLAS/OpenMP thread; this process is one thread.

A run prepares its seeded inputs and compiles ``src/`` (untimed), then
repeats timed passes for ``--seconds`` and reports every end-to-end
number as the median over those passes.  Every measured child shares
one CPU with ``probe.py``, which times a fixed loop every 20 ms; the
end-to-end times are taken to the reference host speed with the
probe's median over the same window.  ``--trace 1`` adds one traced
pass and reports the per-layer numbers instead.  Every pass is checked
for correctness.

The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; a table with units
and sample counts precedes it, and the full record (machine
fingerprint, input digests, every per-pass sample) is written under
``.e2ebench/results/``.  A failed correctness gate exits 1.  See
``e2ebench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import http.client
import json
import os
import platform
import random
import re
import shutil
import signal
import statistics
import struct
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
BOOT = HERE / "boot.py"
INPUTS = HERE / "inputs.py"
PROBE = HERE / "probe.py"

#: (name, unit) of the end-to-end metrics, every one reported on every workload
END_TO_END = (
    ("setup_s", "s"),
    ("queries_per_s", "1/s"),
    ("decided_frac", "ratio"),
    ("peak_rss_mb", "MB"),
)

#: span name -> per-layer self-time metric
SPAN_METRICS = {
    "cli.import": "cli.import_s",
    "engine.load": "engine.load_s",
    "ir.lower": "ir.lower_s",
    "streaming.shard": "streaming.shard_s",
    "abstraction.propagate": "abstraction.propagate_s",
    "prescreen.enclosure": "prescreen.enclosure_s",
    "pgd": "pgd.s",
    "engine.run_query": "engine.run_query_s",
    "milp.encode": "milp.encode_s",
    "lp.solve": "lp.solve_s",
    "bnb.solve": "bnb.solve_s",
    "cegar.run": "cegar.run_s",
    "merge.build": "merge.build_s",
    "runner.instance": "runner.instance_s",
    "interchange.onnx": "interchange.onnx_s",
    "interchange.vnnlib": "interchange.vnnlib_s",
    "digest": "digest.s",
    "store.get": "store.get_s",
    "store.put": "store.put_s",
    "store.open": "store.open_s",
}

#: (name, unit) of the per-layer metrics, every one reported on every
#: workload (0 where the workload does not reach the layer)
PER_LAYER = (
    *((metric, "s") for metric in SPAN_METRICS.values()),
    ("ir.lower_misses", "count"),
    ("prescreen.decided_frac", "ratio"),
    ("pgd.calls", "count"),
    ("pgd.hit_frac", "ratio"),
    ("engine.run_query_calls", "count"),
    ("lp.calls", "count"),
    ("lp.ms_mean", "ms"),
    ("bnb.nodes", "count"),
    ("cegar.rounds", "count"),
    ("cegar.subproblems", "count"),
    ("http.submit_ms_p50", "ms"),
    ("http.poll_ms_p50", "ms"),
    ("jobs.queue_ms_p50", "ms"),
    ("jobs.run_ms_p50", "ms"),
    ("store.hits", "count"),
    ("store.hit_frac", "ratio"),
    ("store.bytes", "bytes"),
    ("service.warm_questions", "count"),
    ("service.cold_ms_p50", "ms"),
    ("service.cold_ms_p90", "ms"),
    ("service.warm_ms_p50", "ms"),
    ("service.warm_ms_p90", "ms"),
    ("error_frac", "ratio"),
    ("trace.unexplained_s", "s"),
    ("trace.overhead_s", "s"),
)

#: timed passes every run makes, however slow the host
MIN_TIMED_PASSES = 3
#: deadline for one CLI pass or one daemon shutdown
CHILD_DEADLINE_S = 120.0
#: the CPU every measured child, the host probe and this process run on
CPU = max(os.sched_getaffinity(0))
#: seconds the host probe sleeps between two samples
PROBE_INTERVAL_S = 0.02
#: duration of the probe's work at the reference host speed (README, "Noise")
PROBE_REF_MS = 0.25
#: fewest probe samples a window's host speed is judged on
PROBE_MIN_SAMPLES = 5


class GateFailure(Exception):
    """A correctness gate did not hold."""


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100]; 0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by a set of intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def tree_digest(paths: list[Path]) -> str:
    """SHA-256 over the relative names and bytes of every file under ``paths``."""
    digest = hashlib.sha256()
    for root in paths:
        files = [root] if root.is_file() else sorted(
            p for p in root.rglob("*") if p.is_file() and "__pycache__" not in p.parts
        )
        for path in files:
            digest.update(str(path.relative_to(root.parent)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


class _Expired(Exception):
    pass


def _expire(*_) -> None:
    raise _Expired


@contextlib.contextmanager
def deadline(seconds: float):
    """Interrupt a blocking call after ``seconds`` with :class:`_Expired`.

    This process blocks in ``wait4`` and ``readline`` instead of polling,
    so it never wakes while a measured child runs.
    """
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class Child:
    """One measured process: spawn time, exit status and peak RSS.

    With ``pipe`` its standard output is a pipe (the daemon's address is
    read from it) that is copied into the log when the child is reaped.
    """

    def __init__(self, cmd: list[str], env: dict, cwd: Path, log: Path,
                 pipe: bool = False):
        self.log_path = log
        self.log = log.open("wb")
        self.spawn = time.monotonic()
        env = {**env, "E2EBENCH_SPAWN": repr(self.spawn)}
        self.proc = subprocess.Popen(
            cmd, env=env, cwd=cwd, stderr=self.log,
            stdout=subprocess.PIPE if pipe else self.log,
        )
        self.code: int | None = None
        self.rss_mb = 0.0
        self.cpu_s = 0.0
        self.end = 0.0

    def readline(self, seconds: float) -> bytes:
        with deadline(seconds):
            try:
                line = self.proc.stdout.readline()
            except _Expired:
                line = b""
        self.log.write(line)
        return line

    def _reap(self, seconds: float) -> bool:
        with deadline(seconds):
            try:
                _, status, usage = os.wait4(self.proc.pid, 0)
            except _Expired:
                return False
        self.end = time.monotonic()
        self.code = os.waitstatus_to_exitcode(status)
        self.proc.returncode = self.code  # reaped here, not by Popen
        self.rss_mb = usage.ru_maxrss / 1024.0  # Linux reports KiB
        self.cpu_s = usage.ru_utime + usage.ru_stime
        if self.proc.stdout is not None:
            self.log.write(self.proc.stdout.read())
            self.proc.stdout.close()
        self.log.close()
        return True

    def wait(self, seconds: float = CHILD_DEADLINE_S) -> int:
        if self.code is None and not self._reap(seconds):
            self.kill()
            raise GateFailure(f"child {self.proc.args[5:]} ran past {seconds}s")
        return self.code

    def kill(self) -> None:
        """Stop the child for good and reap it (idempotent)."""
        if self.code is not None:
            return
        try:
            self.proc.kill()
        except ProcessLookupError:
            pass
        self._reap(CHILD_DEADLINE_S)


class Probe:
    """The host's speed over time, sampled by ``probe.py`` on :data:`CPU`.

    The host runs a CPU at a speed that changes within seconds (README,
    "Noise"); the probe shares the CPU with the measured child and times
    the same small work every :data:`PROBE_INTERVAL_S`.
    """

    def __init__(self, workload: Workload):
        self.path = workload.run_dir / "probe.bin"
        self.child = Child([sys.executable, str(PROBE), str(self.path), str(PROBE_INTERVAL_S)],
                           workload.env, workload.run_dir, workload.run_dir / "probe.log")
        workload.children.append(self.child)
        limit = time.monotonic() + 60.0
        while len(self.samples()) < PROBE_MIN_SAMPLES:
            if time.monotonic() > limit:
                raise GateFailure("the host probe wrote no samples; see probe.log")
            time.sleep(0.1)

    def samples(self) -> list[tuple[float, float]]:
        """Every (end time, duration in seconds) the probe has written."""
        data = self.path.read_bytes() if self.path.exists() else b""
        return list(struct.iter_unpack("dd", data[:len(data) // 16 * 16]))

    def ms(self, start: float, end: float) -> float:
        """Median probe duration in ms over ``[start, end]``, or around it if short."""
        samples = self.samples()
        inside = [d for t, d in samples if start <= t <= end]
        if len(inside) < PROBE_MIN_SAMPLES:
            middle = (start + end) / 2
            nearest = sorted(samples, key=lambda s: abs(s[0] - middle))
            inside = [d for _, d in nearest[:PROBE_MIN_SAMPLES]]
        return statistics.median(inside) * 1e3


class Workload:
    """Shared pass loop; subclasses define inputs, passes and gates."""

    name = ""
    entry = ""
    #: timed passes a run stops at even if ``--seconds`` has time left
    max_timed_passes = 1000

    def __init__(self, root: Path, run_dir: Path, seed: int):
        self.root = root
        self.run_dir = run_dir
        self.seed = seed
        self.env = {
            **os.environ,
            "PYTHONPATH": str(root / "src"),
            "OPENBLAS_NUM_THREADS": "1",
            "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1",
            "PYTHONHASHSEED": "0",
            "REPRO_CACHE_DIR": str(run_dir / "cache"),
        }
        self.children: list[Child] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.input_paths: list[Path] = []

    # -- helpers -----------------------------------------------------------

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        self.failures.append(message)

    def spawn(self, mode: str, index: int, argv: list[str],
              pipe: bool = False) -> tuple[Child, Path]:
        out = self.run_dir / f"pass{index}.json"
        cmd = [sys.executable, "-u", str(BOOT), mode, str(out), self.entry, "--", *argv]
        child = Child(cmd, self.env, self.run_dir, self.run_dir / f"pass{index}.log",
                      pipe)
        self.children.append(child)
        return child, out

    def helper(self, argv: list[str]) -> None:
        """Run an untimed helper process (input generation, builds)."""
        log = self.run_dir / "helper.log"
        with log.open("ab") as handle:
            try:
                code = subprocess.run(
                    [sys.executable, *argv], env=self.env, cwd=self.run_dir,
                    stdout=handle, stderr=subprocess.STDOUT, timeout=600,
                ).returncode
            except subprocess.TimeoutExpired:
                code = "a timeout"
        if code != 0:
            raise GateFailure(f"helper {argv[:2]} exited {code}; see {log}")

    def stop(self) -> None:
        for child in self.children:
            child.kill()

    # -- the parts a workload defines ---------------------------------------

    def prepare(self) -> None:
        raise NotImplementedError

    def run_pass(self, mode: str, index: int) -> dict:
        raise NotImplementedError

    def layer_outputs(self, traced: dict) -> dict:
        """Per-layer numbers a workload reads off its own outputs."""
        return {"prescreen.decided_frac":
                traced.get("prescreen", 0) / (traced.get("queries") or 1)}

    def finish(self, passes: list[dict]) -> None:
        """Gates that compare passes with each other."""


class CliWorkload(Workload):
    """A workload whose pass is one cold ``repro`` CLI process."""

    def cli_args(self, index: int) -> list[str]:
        raise NotImplementedError

    def outputs(self, index: int, record: dict) -> dict:
        """Queries, decided count and gate data of one finished pass."""
        raise NotImplementedError

    def run_pass(self, mode: str, index: int) -> dict:
        child, out = self.spawn(mode, index, self.cli_args(index))
        child.wait()
        try:
            record = json.loads(out.read_text())
        except (OSError, json.JSONDecodeError):
            record = {}
        sample = {"mode": mode, "code": child.code, "rss_mb": child.rss_mb,
                  "cpu_s": child.cpu_s, "wall_s": child.end - child.spawn,
                  "record": record}
        if child.code != 0 or "entry" not in record:
            self.fail(1, f"pass {index}: exit code {child.code}; see pass{index}.log")
            sample.update(queries=0, decided=0)
            return sample
        sample["setup_s"] = record["entry"] - child.spawn
        sample["entry_s"] = record["exit"] - record["entry"]
        sample["windows"] = {"setup": (child.spawn, record["entry"]),
                             "entry": (record["entry"], record["exit"])}
        sample.update(self.outputs(index, record))
        self.attempted += sample["queries"]
        return sample


class GridStream(CliWorkload):
    """``repro campaign --scenario-grid N --stream`` over a fixed system."""

    name = "grid-stream"
    entry = "stream"
    regions = 192

    def prepare(self) -> None:
        # the system is the default `repro build` (seed 0): it is an input
        # of the sweep, not of the seed; see README "grid-stream"
        key = tree_digest([self.root / "src"])[:16]
        cache = self.root / ".e2ebench" / "cache"
        self.system = cache / f"system-{key}"
        if not (self.system / "meta.json").is_file():
            staging = cache / f"building-{os.getpid()}"
            shutil.rmtree(staging, ignore_errors=True)
            staging.mkdir(parents=True)
            self.helper(["-m", "repro", "build", "--out", str(staging), "--seed", "0"])
            try:
                staging.rename(self.system)
            except OSError:  # built meanwhile by another run
                shutil.rmtree(staging, ignore_errors=True)
        self.input_paths = [self.system]

    def cli_args(self, index: int) -> list[str]:
        return ["campaign", "--out", str(self.system), "--scenario-grid",
                str(self.regions), "--stream", "--workers", "1",
                "--seed", str(self.seed),
                "--json", str(self.run_dir / f"report{index}.json")]

    def outputs(self, index: int, record: dict) -> dict:
        report = json.loads((self.run_dir / f"report{index}.json").read_text())
        verdicts = report["verdict_counts"]
        queries = report["total_queries"]
        errors = verdicts.get("error", 0)
        if errors:
            self.fail(errors, f"pass {index}: {errors} error verdicts")
        unsafe = verdicts.get("unsafe-in-set", 0)
        if record["witness_failures"] or record["witnesses"] != unsafe:
            self.fail(
                max(unsafe, 1),
                f"pass {index}: {record['witnesses']} attack witnesses for "
                f"{unsafe} unsafe verdicts, {record['witness_failures']} "
                f"did not replay inside their region",
            )
        decided = sum(v for k, v in verdicts.items() if k not in ("unknown", "error"))
        return {"queries": queries, "decided": decided, "verdicts": verdicts,
                "prescreen": report["decided_by_counts"].get("prescreen", 0)}

    def finish(self, passes: list[dict]) -> None:
        seen = {json.dumps(p.get("verdicts"), sort_keys=True) for p in passes}
        if len(seen) > 1:
            self.fail(len(passes), f"verdict counts differ across passes: {seen}")


class SolveHard(CliWorkload):
    """``repro bench`` over seeded width-hard sub-boxes, two tracks."""

    name = "solve-hard"
    entry = "competition"
    tracks = ("exact=interval:exact:branch-and-bound",
              "cegar=interval:cegar:branch-and-bound")

    def prepare(self) -> None:
        self.instances = self.run_dir / "instances"
        self.helper([str(INPUTS), "solve-hard", str(self.seed), str(self.instances)])
        self.input_paths = [self.instances]

    def cli_args(self, index: int) -> list[str]:
        args = ["bench", "--instances", str(self.instances), "--quiet",
                "--workers", "1", "--out", str(self.run_dir / f"bench{index}")]
        for track in self.tracks:
            args += ["--track", track]
        return args

    def outputs(self, index: int, record: dict) -> dict:
        report = json.loads((self.run_dir / f"bench{index}" / "report.json").read_text())
        cells = {}
        decided = 0
        for row in report["outcomes"]:
            status = row["status"]
            cells[f"{row['track']}/{row['instance']}"] = status
            if status in ("error", "timeout"):
                self.fail(1, f"pass {index}: {row['track']} {row['instance']} {status}")
            elif status in ("sat", "unsat"):
                decided += 1
                if status != row["expected"]:
                    self.fail(1, f"pass {index}: {row['track']} {row['instance']} "
                                 f"answered {status}, expected {row['expected']}")
        if report["disagreements"]:
            self.fail(len(report["disagreements"]),
                      f"pass {index}: tracks disagree: {report['disagreements']}")
        prescreen = sum("prescreen" in (row.get("detail") or "")
                        for row in report["outcomes"])
        return {"queries": len(cells), "decided": decided, "cells": cells,
                "prescreen": prescreen}

    def finish(self, passes: list[dict]) -> None:
        seen = {json.dumps(p.get("cells"), sort_keys=True) for p in passes}
        if len(seen) > 1:
            self.fail(len(passes), "verdicts differ across passes")


class Service(Workload):
    """``repro serve`` child driven by a closed loop with one client."""

    name = "service"
    entry = "serve"
    # one block of inputs.service's pool, so every pass asks the same mix
    new_per_pass = 64
    repeats_per_pass = 64
    # the question pool holds new questions for these and the traced pass
    max_timed_passes = 24

    def prepare(self) -> None:
        self.questions_dir = self.run_dir / "questions"
        count = self.new_per_pass * (self.max_timed_passes + 1)
        self.helper([str(INPUTS), "service", str(self.seed),
                     str(self.questions_dir), str(count)])
        self.pool = json.loads((self.questions_dir / "questions.json").read_text())
        self.store = self.run_dir / "store.jsonl"
        self.asked: list[int] = []  # pool indices asked so far, in order
        self.answers: dict[int, str] = {}  # first (cold) answer per question
        self.input_paths = [self.questions_dir]

    def sequence(self, index: int) -> list[int]:
        """Half new questions, half repeats of questions already asked."""
        rng = random.Random(self.seed * 1000 + index)
        fresh = list(range(index * self.new_per_pass, (index + 1) * self.new_per_pass))
        order = ["new"] * self.new_per_pass + ["repeat"] * self.repeats_per_pass
        rng.shuffle(order)
        asked = list(self.asked)
        out = []
        for kind in order:
            if kind == "repeat" and asked:
                out.append(rng.choice(asked))
            else:
                question = fresh.pop(0) if fresh else rng.choice(asked)
                asked.append(question)
                out.append(question)
        return out

    def run_pass(self, mode: str, index: int) -> dict:
        argv = ["serve", "--workers", "1", "--port", "0", "--store", str(self.store),
                "--root", str(self.questions_dir)]
        child, out = self.spawn(mode, index, argv, pipe=True)
        sample: dict = {"mode": mode, "queries": 0, "decided": 0}
        try:
            self.address = self._address(child)
            status = self._request("GET", "/healthz")[0]
            if status != 200:
                raise GateFailure(f"pass {index}: /healthz answered {status}")
            ready = time.monotonic()
            sample["setup_s"] = ready - child.spawn
            sample.update(self._loop(index))
            sample["windows"] = {"setup": (child.spawn, ready),
                                 "entry": (sample["start"], sample["start"] + sample["entry_s"])}
        finally:
            if child.code is None:
                child.proc.send_signal(signal.SIGTERM)
            child.wait()
        sample.update(code=child.code, rss_mb=child.rss_mb, cpu_s=child.cpu_s,
                      wall_s=child.end - child.spawn)
        if child.code != 0:
            self.fail(1, f"pass {index}: daemon exit code {child.code}")
        if mode == "trace":
            sample["record"] = json.loads(out.read_text())
        return sample

    @staticmethod
    def _address(child: Child) -> tuple[str, int]:
        pattern = re.compile(rb"listening on http://([\d.]+):(\d+)")
        match = pattern.search(child.readline(60.0))
        if match is None:
            raise GateFailure(f"daemon printed no address; see {child.log_path}")
        return match.group(1).decode(), int(match.group(2))

    def _request(self, method: str, path: str, body: str | None = None
                 ) -> tuple[int, dict]:
        """One request on its own connection, as ``ServiceClient`` makes it.

        On a kept-alive connection every response waits ~40 ms for the
        client's delayed ACK (README, Findings), which would hide the
        layers this workload measures.
        """
        connection = http.client.HTTPConnection(*self.address, timeout=60)
        try:
            headers = {"Content-Type": "application/json"} if body else {}
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            return response.status, json.loads(response.read() or b"{}")
        finally:
            connection.close()

    def _loop(self, index: int) -> dict:
        sequence = self.sequence(index)
        cold, warm, submit_ms, poll_ms, jobs = [], [], [], [], []
        decided = warm_count = 0
        start = time.monotonic()
        for question in sequence:
            spec = self.pool[question]
            repeat = question in self.answers
            body = json.dumps({"model": spec["model"], "property": spec["property"],
                               "method": "exact", "domain": "interval"})
            t0 = time.monotonic()
            status, job = self._request("POST", "/v1/jobs", body)
            submit_ms.append((time.monotonic() - t0) * 1e3)
            if status != 201:
                self.fail(1, f"pass {index}: submit {spec['property']} -> {status} {job}")
                continue
            limit = t0 + CHILD_DEADLINE_S
            while job["state"] in ("queued", "running") and time.monotonic() < limit:
                t2 = time.monotonic()
                _, job = self._request("GET", f"/v1/jobs/{job['id']}?wait=30")
                poll_ms.append((time.monotonic() - t2) * 1e3)
            latency_ms = (time.monotonic() - t0) * 1e3
            jobs.append(job)
            result = job.get("result") or {}
            status = result.get("status")
            if status in ("sat", "unsat"):
                decided += 1
            if job["state"] != "done" or status != spec["expected"]:
                self.fail(1, f"pass {index}: {spec['property']} ended "
                             f"{job['state']}/{status}, expected {spec['expected']}")
            elif repeat and status != self.answers[question]:
                self.fail(1, f"pass {index}: warm answer {status} to "
                             f"{spec['property']} differs from cold "
                             f"{self.answers[question]}")
            if repeat:
                warm.append(latency_ms)
                warm_count += 1
            else:
                cold.append(latency_ms)
                self.answers[question] = status
                self.asked.append(question)
        loop_s = time.monotonic() - start
        self.attempted += len(sequence)
        return {
            "queries": len(sequence), "decided": decided, "start": start, "entry_s": loop_s,
            "cold_ms": cold, "warm_ms": warm, "submit_ms": submit_ms,
            "poll_ms": poll_ms, "warm_questions": warm_count,
            "queue_ms": [(j["started"] - j["created"]) * 1e3 for j in jobs
                         if j.get("started") is not None],
            "run_ms": [(j["finished"] - j["started"]) * 1e3 for j in jobs
                       if j.get("finished") is not None and j.get("started") is not None],
            "prescreen": sum("prescreen" in ((j.get("result") or {}).get("decided_by") or [])
                             for j in jobs),
        }

    def layer_outputs(self, traced: dict) -> dict:
        return {
            **super().layer_outputs(traced),
            "http.submit_ms_p50": percentile(traced.get("submit_ms", []), 50),
            "http.poll_ms_p50": percentile(traced.get("poll_ms", []), 50),
            "jobs.queue_ms_p50": percentile(traced.get("queue_ms", []), 50),
            "jobs.run_ms_p50": percentile(traced.get("run_ms", []), 50),
            "store.bytes": self.store.stat().st_size if self.store.exists() else 0,
        }


WORKLOADS = {cls.name: cls for cls in (GridStream, SolveHard, Service)}


def end_to_end(timed: list[dict], corrected: bool = True) -> dict[str, tuple[float, int]]:
    """Every end-to-end metric as (median over timed passes, sample count).

    Times are taken to the reference host speed: a window's seconds are
    scaled by :data:`PROBE_REF_MS` over the probe's median in that window
    (README, "Noise").  With ``corrected=False`` they are wall-clock.
    """
    ok = [p for p in timed if "setup_s" in p and p.get("entry_s")]
    n = len(ok)
    if not n:
        raise GateFailure("no timed pass completed")

    def speed(sample: dict, window: str) -> float:
        return sample["probe_ms"][window] / PROBE_REF_MS if corrected else 1.0

    return {
        "setup_s": (statistics.median(p["setup_s"] / speed(p, "setup") for p in ok), n),
        "queries_per_s": (statistics.median(
            p["queries"] / p["entry_s"] * speed(p, "entry") for p in ok), n),
        "decided_frac": (sum(p["decided"] for p in ok) / sum(p["queries"] for p in ok), n),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in ok), n),
    }


def per_layer(workload: Workload, traced: dict, timed: list[dict]) -> dict:
    """Every per-layer metric as (value, sample count) from the traced pass."""
    record = traced["record"]
    closed = [(i, s) for i, s in enumerate(record["spans"]) if s[2] is not None]
    spans = [s for _, s in closed]
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[3] is not None:
            children.setdefault(span[3], []).append((span[1], span[2]))
    totals: dict[str, float] = {}
    samples: dict[str, int] = {}
    for index, span in closed:
        metric = SPAN_METRICS.get(span[0])
        if metric is None:
            continue
        own = span[2] - span[1] - union_length(children.get(index, []))
        totals[metric] = totals.get(metric, 0.0) + own
        samples[metric] = samples.get(metric, 0) + 1
    counters = record.get("counters", {})
    out = {metric: (totals.get(metric, 0.0), samples.get(metric, 0))
           for metric in SPAN_METRICS.values()}

    def count(name: str) -> tuple[float, int]:
        value = counters.get(name, 0)
        return value, int(value)

    lp_time = sum(s[2] - s[1] for s in spans if s[0] == "lp.solve")
    lp_calls = counters.get("lp.calls", 0)
    attacked = counters.get("pgd.attacked", 0)
    gets = counters.get("store.gets", 0)
    out.update({
        "ir.lower_misses": (record["lowering"]["misses"], 1),
        "pgd.calls": count("pgd.calls"),
        "pgd.hit_frac": (counters.get("pgd.killed", 0) / attacked if attacked else 0.0,
                         int(attacked)),
        "engine.run_query_calls": count("engine.run_query_calls"),
        "lp.calls": count("lp.calls"),
        "lp.ms_mean": (lp_time / lp_calls * 1e3 if lp_calls else 0.0, int(lp_calls)),
        "bnb.nodes": count("bnb.nodes"),
        "cegar.rounds": count("cegar.rounds"),
        "cegar.subproblems": count("cegar.subproblems"),
        "store.hits": count("store.hits"),
        "store.hit_frac": (counters.get("store.hits", 0) / gets if gets else 0.0, int(gets)),
    })
    for name, value in workload.layer_outputs(traced).items():
        out[name] = (value, traced.get("queries", 0))
    for name in ("http.submit_ms_p50", "http.poll_ms_p50", "jobs.queue_ms_p50",
                 "jobs.run_ms_p50", "store.bytes"):
        out.setdefault(name, (0.0, 0))
    cold = [x for p in timed for x in p.get("cold_ms", [])]
    warm = [x for p in timed for x in p.get("warm_ms", [])]
    out.update({
        "service.warm_questions": (traced.get("warm_questions", 0), 1),
        "service.cold_ms_p50": (percentile(cold, 50), len(cold)),
        "service.cold_ms_p90": (percentile(cold, 90), len(cold)),
        "service.warm_ms_p50": (percentile(warm, 50), len(warm)),
        "service.warm_ms_p90": (percentile(warm, 90), len(warm)),
    })
    # wall time of the traced pass that no span covers
    spawn, end = traced["wall_window"]
    covered = union_length(
        [(max(s[1], spawn), min(s[2], end)) for s in spans if s[2] > spawn and s[1] < end]
    )
    walls = [p["wall_s"] for p in timed if "wall_s" in p]
    out["trace.unexplained_s"] = (traced["wall_s"] - covered, len(spans))
    out["trace.overhead_s"] = (traced["wall_s"] - statistics.median(walls), len(walls))
    return out


def fingerprint() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), **versions}


def print_table(title: str, metrics: dict, units: dict) -> None:
    print(f"\n{title}")
    print(f"  {'metric':<26} {'value':>14} {'unit':<6} samples")
    for name, (value, n) in metrics.items():
        print(f"  {name:<26} {value:>14.6g} {units[name]:<6} {n}")


def measure(workload: Workload, seconds: int, trace: bool) -> dict:
    """Timed passes for ``seconds`` (at least three), optional traced pass."""
    workload.prepare()
    # compiled bytecode is set-up, not a sample of the first pass
    workload.helper(["-m", "compileall", "-q", str(workload.root / "src")])
    # every child from here on inherits the CPU, so the probe sees its speed
    os.sched_setaffinity(0, {CPU})
    probe = Probe(workload)
    passes: list[dict] = []
    window_end = time.monotonic() + seconds
    while True:
        walls = [p["wall_s"] for p in passes if "wall_s" in p]
        estimate = statistics.median(walls) if walls else 0.0
        if len(passes) >= MIN_TIMED_PASSES and time.monotonic() + estimate > window_end:
            break
        if len(passes) >= workload.max_timed_passes:
            break
        passes.append(workload.run_pass("time", len(passes)))
    timed = list(passes)
    traced = None
    if trace:
        traced = workload.run_pass("trace", len(passes))
        passes.append(traced)
        record = traced.get("record") or {}
        if "spans" not in record:
            raise GateFailure("traced pass wrote no spans")
        spawn = record["spans"][0][1]  # boot.interpreter starts at spawn
        traced["wall_window"] = (spawn, spawn + traced["wall_s"])
    for sample in passes:
        sample["probe_ms"] = {name: probe.ms(*window)
                              for name, window in sample.get("windows", {}).items()}
    workload.finish(passes)
    return {"passes": passes, "timed": timed, "traced": traced}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # a terminated run still runs its finally blocks, which stop every
    # child: a daemon left on its port would be "measured" by the next run
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    if not (root / "src" / "repro" / "cli.py").is_file():
        print(f"error: no program to measure: {root / 'src/repro/cli.py'} is missing",
              file=sys.stderr)
        return 2
    run_dir = root / ".e2ebench" / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    workload = WORKLOADS[args.workload](root, run_dir, args.seed)
    started = time.time()
    try:
        result = measure(workload, args.seconds, bool(args.trace))
        e2e = end_to_end(result["timed"])
        wall = end_to_end(result["timed"], corrected=False)
        layers = per_layer(workload, result["traced"], result["timed"]) if args.trace else {}
    except GateFailure as exc:
        workload.fail(1, str(exc))
        result, e2e, wall, layers = {"passes": []}, {}, {}, {}
    finally:
        workload.stop()
    attempted = max(workload.attempted, 1)
    if layers:
        layers["error_frac"] = (workload.failed / attempted, attempted)
        layers = {name: layers[name] for name, _ in PER_LAYER}
    correct = workload.failed == 0

    units = dict(END_TO_END) | dict(PER_LAYER)
    print(f"workload {args.workload}, seed {args.seed}: "
          f"{len(result.get('timed', []))} timed passes, "
          f"{workload.attempted} queries, {workload.failed} failed")
    if e2e:
        print_table("end to end (untraced, median over timed passes, at reference "
                    "host speed)", e2e, units)
        print_table("wall clock, for comparison (not reported)",
                    {k: wall[k] for k in ("setup_s", "queries_per_s")}, units)
    if layers:
        print_table("per layer (one traced pass)", layers, units)
    for message in workload.failures:
        print(f"GATE FAILED: {message}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "started": started, "fingerprint": fingerprint(),
        "inputs": {str(p.relative_to(root)): tree_digest([p])
                   for p in workload.input_paths if p.exists()},
        "src": tree_digest([root / "src"]),
        "correct": correct, "attempted": workload.attempted, "failed": workload.failed,
        "failures": workload.failures,
        "end_to_end": e2e, "end_to_end_wall": wall, "per_layer": layers,
        "passes": [{k: v for k, v in p.items() if k != "record"}
                   for p in result.get("passes", [])],
    }
    results = root / ".e2ebench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{int(started)}.json"
    (results / name).write_text(json.dumps(record, indent=1))
    shutil.rmtree(run_dir, ignore_errors=True)

    chosen = layers if args.trace else e2e
    metrics = {name: {"value": value, "unit": units[name]}
               for name, (value, _) in chosen.items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": workload.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
