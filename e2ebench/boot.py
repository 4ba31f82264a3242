"""Child-process bootstrap: run ``repro.cli.main`` under the benchmark's eyes.

    python3 e2ebench/boot.py MODE OUT.json ENTRY -- <repro CLI arguments>

``run.py`` starts every measured program process through
this file.  In every mode it wraps the workload's entry function
(``ENTRY``: ``stream`` for ``repro.scenario.streaming.run_stream``,
``competition`` for ``repro.bench.run_competition``, ``serve`` for none)
and records the ``time.monotonic()`` of its first call and of its
return; ``run.py`` compares these with its own spawn time
(CLOCK_MONOTONIC is one clock for every process on the host).  On
``stream`` it also keeps every attack hit ``pgd_hits_in_boxes`` returns
and, after the command ends (outside the entry marks), replays each
through ``model.forward`` and checks it against its box.  ``MODE`` picks
how much more it watches:

``time``
    Nothing more.
``trace``
    ``time`` plus a span around every public layer function listed in
    ``TARGETS``.  Spans (name, start, end, parent, job id) stay in
    memory and are written to ``OUT.json`` when the command returns.

Nothing under ``src/`` is changed: each function is replaced where its
callers look it up, i.e. on its class, or in every loaded module that
holds a reference to it.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time

BOOT = time.monotonic()

#: (module, attribute, span name) of the functions the traced pass wraps;
#: a dotted attribute names a method on a class
TARGETS = (
    ("repro.nn.serialization", "load_model", "engine.load"),
    ("repro.api.engine", "VerificationEngine.__init__", "engine.load"),
    ("repro.api.engine", "VerificationEngine.run_query", "engine.run_query"),
    ("repro.verification.ir", "lower_network", "ir.lower"),
    ("repro.scenario.streaming", "stream_scenario_regions", "streaming.shard"),
    ("repro.verification.abstraction.propagate", "propagate_regions",
     "abstraction.propagate"),
    ("repro.verification.abstraction.propagate", "region_boxes",
     "abstraction.propagate"),
    ("repro.verification.prescreen", "output_enclosure_batch",
     "prescreen.enclosure"),
    ("repro.verification.prescreen", "output_enclosure", "prescreen.enclosure"),
    ("repro.verification.counterexample", "pgd_hits_in_boxes", "pgd"),
    ("repro.verification.counterexample", "pgd_in_boxes", "pgd"),
    ("repro.verification.milp.encoder", "encode_verification_problem",
     "milp.encode"),
    ("repro.verification.milp.relaxed", "encode_relaxed_problem", "milp.encode"),
    ("repro.verification.solver.lp", "solve_lp_relaxation", "lp.solve"),
    ("repro.verification.solver.branch_bound", "BranchAndBoundSolver.solve",
     "bnb.solve"),
    ("repro.verification.cegar", "CegarLoop.run", "cegar.run"),
    ("repro.verification.abstraction.merge.abstraction", "MergeState.coarsest",
     "merge.build"),
    ("repro.verification.abstraction.merge.abstraction", "MergeState.program",
     "merge.build"),
    ("repro.bench.runner", "run_instance", "runner.instance"),
    ("repro.interchange.onnx", "import_onnx", "interchange.onnx"),
    ("repro.interchange.vnnlib", "read_vnnlib", "interchange.vnnlib"),
    ("repro.service.digest", "model_digest", "digest"),
    ("repro.service.digest", "property_digest", "digest"),
    ("repro.service.digest", "query_digest", "digest"),
    ("repro.service.store", "ResultStore.__init__", "store.open"),
    ("repro.service.store", "ResultStore.get", "store.get"),
    ("repro.service.store", "ResultStore.put", "store.put"),
    ("repro.service.jobs", "VerificationService._execute", "jobs.execute"),
    ("repro.service.httpd", "_Handler.do_GET", "http.handle"),
    ("repro.service.httpd", "_Handler.do_POST", "http.handle"),
)


class Recorder:
    """In-memory spans and counters of one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, job]
        self.counters: dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, job: str | None = None) -> int:
        stack = self._stack()
        if job is None:
            job = getattr(self._local, "job", None)
        else:
            self._local.job = job
        parent = stack[-1] if stack else None
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.monotonic(), None, parent, job])
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.monotonic()
        self._stack().pop()
        if self.spans[index][0] == "jobs.execute":
            self._local.job = None

    def count(self, name: str, by: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + by

    def add_span(self, name: str, start: float, end: float) -> None:
        with self._lock:
            self.spans.append([name, start, end, None, None])


def _count_result(rec: Recorder, name: str, args: tuple, result, before) -> None:
    """Work counts read off a wrapped call's arguments and result."""
    if name == "pgd":
        boxes = len(args[2]) if len(args) > 2 else 0
        rec.count("pgd.calls")
        rec.count("pgd.attacked", boxes)
        if isinstance(result, list):
            rec.count("pgd.killed", len(result))
        elif result is not None:
            rec.count("pgd.killed", 1)
    elif name == "lp.solve":
        rec.count("lp.calls")
    elif name == "bnb.solve":
        rec.count("bnb.nodes", getattr(result, "nodes_explored", 0) or 0)
    elif name == "engine.run_query":
        rec.count("engine.run_query_calls")
    elif name == "cegar.run" and before is not None:
        loop = args[0]
        rec.count("cegar.subproblems", loop.subproblems_processed - before[0])
        rec.count("cegar.rounds", len(loop.trace.rounds) - before[1])
    elif name == "store.get":
        rec.count("store.gets")
        if result is not None:
            rec.count("store.hits")


def _span_wrapper(rec: Recorder, name: str, fn):
    if getattr(fn, "__wrapped_by_e2ebench__", False):
        return fn
    if name == "streaming.shard":  # a generator: time each step, not the object
        @functools.wraps(fn)
        def generator(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                index = rec.open(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    rec.close(index)
                yield item

        generator.__wrapped_by_e2ebench__ = True
        return generator

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        job = None
        if name == "jobs.execute":
            job = args[1].id
        before = None
        if name == "cegar.run":
            before = (args[0].subproblems_processed, len(args[0].trace.rounds))
        index = rec.open(name, job)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(index)
        _count_result(rec, name, args, result, before)
        return result

    wrapper.__wrapped_by_e2ebench__ = True
    return wrapper


def replace_function(module_name: str, attr: str, make) -> None:
    """Swap ``module.attr`` for ``make(original)`` wherever it is bound.

    A dotted ``attr`` (``Class.method``) is replaced on the class, which
    is where every caller looks it up; a plain function is replaced in
    every loaded module whose namespace holds the same object, so both
    ``module.f()`` and ``from module import f`` callers see the wrapper.
    """
    module = importlib.import_module(module_name)
    if "." in attr:
        class_name, method = attr.split(".")
        cls = getattr(module, class_name)
        raw = cls.__dict__[method]
        if isinstance(raw, classmethod):
            setattr(cls, method, classmethod(make(raw.__func__)))
        else:
            setattr(cls, method, make(raw))
        return
    original = getattr(module, attr)
    wrapped = make(original)
    for loaded in list(sys.modules.values()):
        namespace = getattr(loaded, "__dict__", None)
        if not namespace or not getattr(loaded, "__name__", "").startswith("repro"):
            continue
        for key, value in list(namespace.items()):
            if value is original:
                setattr(loaded, key, wrapped)


def instrument(rec: Recorder) -> None:
    """Wrap every function in :data:`TARGETS` with a span."""
    for module_name, _, _ in TARGETS:
        importlib.import_module(module_name)
    for module_name, attr, name in TARGETS:
        replace_function(
            module_name, attr, lambda fn, name=name: _span_wrapper(rec, name, fn)
        )


def watch_entry(entry: str, marks: dict) -> None:
    """Record the first call into, and the last return from, the entry."""
    if entry == "serve":
        return
    module_name, attr = {
        "stream": ("repro.scenario.streaming", "run_stream"),
        "competition": ("repro.bench.runner", "run_competition"),
    }[entry]

    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            marks.setdefault("entry", time.monotonic())
            try:
                return fn(*args, **kwargs)
            finally:
                marks["exit"] = time.monotonic()

        return wrapper

    replace_function(module_name, attr, make)


def structural_cegar() -> None:
    """Give every bench-runner engine the structural CEGAR axis.

    ``repro bench`` has no flag for it, and the axis only changes what
    ``cegar`` queries do, so the exact track is unaffected.
    """

    def make(fn):
        return functools.partial(fn, cegar_structural=True)

    replace_function("repro.bench.runner", "instance_engine", make)


def watch_witnesses(hits: list) -> None:
    """Keep every attack hit of the streamed sweep for :func:`replay`."""

    def make(fn):
        @functools.wraps(fn)
        def wrapper(model, risk, lower, upper, **kwargs):
            result = fn(model, risk, lower, upper, **kwargs)
            for index, cex in result:
                # copies, so a hit does not keep its whole batch alive
                hits.append((model, risk, lower[index].copy(),
                             upper[index].copy(), cex.image))
            return result

        return wrapper

    replace_function("repro.scenario.streaming", "pgd_hits_in_boxes", make)


def replay(hits: list) -> dict:
    """Re-check each witness: inside its box, and the risk really occurs."""
    failures = 0
    for model, risk, lower, upper, image in hits:
        inside = bool((image >= lower).all() and (image <= upper).all())
        output = model.forward(image[None, ...], training=False)
        occurs = float(risk.margin(output)[0]) >= 0.0
        failures += not (inside and occurs)
    return {"witnesses": len(hits), "witness_failures": failures}


def main() -> int:
    mode, out_path, entry = sys.argv[1:4]
    if sys.argv[4] != "--":
        raise SystemExit("usage: boot.py MODE OUT.json ENTRY -- ARGS...")
    argv = sys.argv[5:]
    spawn = float(os.environ["E2EBENCH_SPAWN"])
    rec = Recorder()
    rec.add_span("boot.interpreter", spawn, BOOT)
    marks: dict = {}
    index = rec.open("cli.import")
    import repro.cli

    rec.close(index)
    hits: list = []
    index = rec.open("boot.instrument")
    if mode == "trace":
        instrument(rec)
    watch_entry(entry, marks)
    if entry == "competition":
        structural_cegar()
    if entry == "stream":
        watch_witnesses(hits)
    rec.close(index)
    code = 1
    try:
        code = repro.cli.main(argv)
    finally:
        record: dict = {"mode": mode, "code": code, **marks}
        if entry == "stream":
            index = rec.open("boot.replay")
            record.update(replay(hits))
            rec.close(index)
        if mode == "trace":
            from repro.verification.ir import lowering_stats

            record["spans"] = rec.spans
            record["counters"] = rec.counters
            record["lowering"] = lowering_stats()
        record["end"] = time.monotonic()
        with open(out_path, "w") as handle:
            json.dump(record, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
