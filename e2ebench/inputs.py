"""Seeded inputs for the solve-hard and service workloads.

    PYTHONPATH=src python3 e2ebench/inputs.py solve-hard SEED DIR
    PYTHONPATH=src python3 e2ebench/inputs.py service SEED DIR COUNT

Every verdict is known by construction, never by asking the program:

- UNSAT: the box lies inside a box whose exact output maximum is
  committed with the repository's instances, and the threshold lies
  above that maximum.
- SAT: the threshold lies below the output the network computes at a
  point of the box, so that point is a witness.

The program under test is only used to evaluate the network at those
witness points (``model.forward``), which is the semantics every
verdict is judged against.
"""

from __future__ import annotations

import csv
import json
import re
import shutil
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SMOKE = ROOT / "benchmarks" / "instances" / "smoke"
STRUCTURAL = ROOT / "benchmarks" / "instances" / "structural"

#: the width-hard net's exact64 maximum on the unit box is ~0.05
#: (``wide-unsat.vnnlib``), so y_0 >= 0.3 is unreachable in every sub-box
WIDE_UNSAT_THRESHOLD = 0.3
#: solve-hard's fixed suite of sub-boxes: side length, box counts and
#: the seed of their design; a run's seed only shuffles their order (see
#: the README for why the boxes are not redrawn per seed)
WIDE_SIDE = 0.40
WIDE_DESIGN_SEED = 20_240
WIDE_UNSAT_BOXES = 5
WIDE_SAT_BOXES = 5
#: instance wall budget: far above the slowest exact proof (~5 s), so a
#: slow minute on the host cannot turn an answer into a timeout
WIDE_TIMEOUT = 600
#: slices of the side and margin ranges a service block draws from once each
STRATA = 8


def format_vnnlib(lower, upper, n_outputs: int, threshold: float, comment: str) -> str:
    """``y_0 >= threshold`` over the box ``[lower, upper]``."""
    lines = [f"; {comment}"]
    lines += [f"(declare-const X_{i} Real)" for i in range(len(lower))]
    lines += [f"(declare-const Y_{j} Real)" for j in range(n_outputs)]
    for i, (lo, hi) in enumerate(zip(lower, upper)):
        lines.append(f"(assert (>= X_{i} {float(lo)!r}))")
        lines.append(f"(assert (<= X_{i} {float(hi)!r}))")
    lines.append(f"(assert (>= Y_0 {float(threshold)!r}))")
    return "\n".join(lines) + "\n"


def read_box(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """Input box of a committed ``.vnnlib`` (``X_i`` bounds only)."""
    text = path.read_text()
    pairs = re.findall(r"\(assert \((>=|<=) X_(\d+) ([-0-9.e]+)\)\)", text)
    n = 1 + max(int(i) for _, i, _ in pairs)
    lower, upper = np.zeros(n), np.zeros(n)
    for op, i, value in pairs:
        (lower if op == ">=" else upper)[int(i)] = float(value)
    return lower, upper


def forward(model, x: np.ndarray) -> np.ndarray:
    return model.forward(np.asarray(x, dtype=float)[None, :], training=False)[0]


def solve_hard(seed: int, out: Path) -> None:
    """The width-hard suite, half UNSAT and half SAT, in seeded order."""
    from repro.interchange import import_onnx

    model = import_onnx(STRUCTURAL / "wide.onnx")
    out.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(STRUCTURAL / "wide.onnx", out / "wide.onnx")
    design = np.random.default_rng(WIDE_DESIGN_SEED)
    half = WIDE_SIDE / 2
    centres = design.uniform(half, 1 - half, (WIDE_UNSAT_BOXES + WIDE_SAT_BOXES, 8))
    # where each SAT box's witness sits inside its box
    offsets = design.uniform(-0.9, 0.9, (WIDE_SAT_BOXES, 8)) * half
    rows = []
    for k, centre in enumerate(centres):
        lower, upper = centre - half, centre + half
        if k < WIDE_UNSAT_BOXES:
            expected, threshold = "unsat", WIDE_UNSAT_THRESHOLD
            comment = f"box {k}: above the unit-box maximum"
        else:
            value = float(forward(model, centre + offsets[k - WIDE_UNSAT_BOXES])[0])
            expected, threshold = "sat", value - 0.002
            comment = f"box {k}: witness output {value!r}"
        name = f"wide-{k:02d}-{expected}.vnnlib"
        (out / name).write_text(format_vnnlib(lower, upper, 1, threshold, comment))
        rows.append(["wide.onnx", name, WIDE_TIMEOUT, expected])
    order = np.random.default_rng(seed).permutation(len(rows))
    with (out / "instances.csv").open("w", newline="") as handle:
        csv.writer(handle).writerows(rows[i] for i in order)


def _parents() -> list[dict]:
    """Committed boxes with a known exact maximum of output 0.

    ``e1-unreachable`` puts its threshold 0.5 above the exact maximum
    over the unit box; the ``grid-*`` files record the exact reachable
    range of their box in their header comment.
    """
    parents = []
    e1 = (SMOKE / "e1-unreachable.vnnlib").read_text()
    e1_threshold = float(re.search(r"\(assert \(>= Y_0 ([-0-9.e]+)\)\)", e1).group(1))
    lower, upper = read_box(SMOKE / "e1-unreachable.vnnlib")
    parents.append({"model": "e1.onnx", "lower": lower, "upper": upper,
                    "max": e1_threshold - 0.5, "outputs": 2})
    for path in sorted(SMOKE.glob("grid-*.vnnlib")):
        match = re.search(r"reachable waypoint in \[([-0-9.]+), ([-0-9.]+)\]",
                          path.read_text())
        lower, upper = read_box(path)
        parents.append({"model": "grid.onnx", "lower": lower, "upper": upper,
                        "max": float(match.group(2)), "outputs": 2})
    return parents


def service(seed: int, out: Path, count: int) -> None:
    """``count`` distinct questions over the smoke ``grid``/``e1`` nets.

    Questions come in blocks of 64: each (parent box, answer) class
    :data:`STRATA` times, in seeded order, drawing the sub-box side and
    the threshold margin once from each of :data:`STRATA` equal slices
    of their ranges.  A SAT question costs about three times an UNSAT
    one and both costs follow the side and the margin, so drawing them
    freely per question would let the seed, not the code, move a pass's
    cost; stratified, every block asks the same mix.
    """
    from repro.interchange import import_onnx

    out.mkdir(parents=True, exist_ok=True)
    models = {}
    for name in ("e1.onnx", "grid.onnx"):
        shutil.copyfile(SMOKE / name, out / name)
        models[name] = import_onnx(SMOKE / name)
    rng = np.random.default_rng(seed)

    def draw(low: float, high: float, slice_: int) -> float:
        return low + (high - low) * (slice_ + rng.uniform()) / STRATA

    classes = [(parent, sat) for parent in _parents() for sat in (False, True)]
    size = len(classes) * STRATA
    questions = []
    for k in range(count):
        if k % size == 0:
            # (class, side slice, margin slice) of each question in the block
            items = [(c, side, margin) for c in range(len(classes))
                     for side, margin in zip(range(STRATA), rng.permutation(STRATA))]
            block = [items[i] for i in rng.permutation(size)]
        c, side_slice, margin_slice = block[k % size]
        parent, sat = classes[c]
        width = parent["upper"] - parent["lower"]
        side = width * draw(0.3, 0.8, side_slice)
        lower = parent["lower"] + rng.uniform(0, 1, width.size) * (width - side)
        upper = lower + side
        if not sat:
            # the 4-decimal comment rounds the maximum; stay clear of it
            threshold = parent["max"] + draw(0.002, 0.05, margin_slice)
            expected = "unsat"
        else:
            point = lower + rng.uniform(0, 1, width.size) * side
            value = float(forward(models[parent["model"]], point)[0])
            threshold = value - draw(0.001, 0.05, margin_slice)
            expected = "sat"
        name = f"q-s{seed}-{k:04d}.vnnlib"
        (out / name).write_text(
            format_vnnlib(lower, upper, parent["outputs"], threshold,
                          f"seed {seed} question {k}: {expected} by construction")
        )
        questions.append({"model": parent["model"], "property": name,
                          "expected": expected})
    (out / "questions.json").write_text(json.dumps(questions, indent=1))


def main(argv: list[str]) -> int:
    workload, seed, out = argv[0], int(argv[1]), Path(argv[2])
    if workload == "solve-hard":
        solve_hard(seed, out)
    elif workload == "service":
        service(seed, out, int(argv[3]))
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
