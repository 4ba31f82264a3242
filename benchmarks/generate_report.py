"""Regenerate every experiment's measured numbers for EXPERIMENTS.md.

Runs the full E1-E10 measurement campaign on the benchmark system and
prints a markdown report.  (Timing distributions are pytest-benchmark's
job; this script produces the *result* tables.)

Run:  python benchmarks/generate_report.py
"""

from __future__ import annotations

import dataclasses
import json
import time
from pathlib import Path

import numpy as np

from repro.api import VerificationQuery
from repro.core import ExperimentConfig, build_verified_system
from repro.core.verdict import Verdict
from repro.monitor.runtime import RuntimeMonitor
from repro.monitor.throughput import monitor_feature_batch
from repro.perception.characterizer import train_characterizer
from repro.perception.features import extract_features
from repro.properties.library import STEER_STRAIGHT, steer_far_left
from repro.scenario.dataset import balanced_property_dataset, render_scene, sample_scene
from repro.scenario.weather import Weather
from repro.verification.abstraction.propagate import region_boxes
from repro.verification.sets import BoxBatch
from repro.verification.assume_guarantee import (
    box_with_diffs_from_data,
    feature_set_from_data,
)
from repro.verification.milp.encoder import encode_verification_problem
from repro.verification.output_range import output_range
from repro.verification.sets import Box
from repro.verification.solver import BranchAndBoundSolver, HighsSolver


def balanced_accuracy(decisions: np.ndarray, labels: np.ndarray) -> float:
    labels = labels.astype(bool)
    if labels.all() or not labels.any():
        return 0.5
    return 0.5 * (
        float(decisions[labels].mean()) + float((~decisions[~labels]).mean())
    )


def main() -> None:  # noqa: C901 - a linear report script
    config = ExperimentConfig(
        train_scenes=500,
        val_scenes=200,
        epochs=30,
        feature_width=12,
        properties=("bends_right", "bends_left"),
        seed=0,
    )
    t0 = time.time()
    system = build_verified_system(config)
    print(f"<!-- system built in {time.time() - t0:.1f}s -->")
    print(f"\n## System under test\n\n```\n{system.summary()}\n```\n")

    suffix = system.engine.suffix
    characterizer = system.characterizers["bends_right"].as_piecewise_linear()
    data_set = system.engine.feature_set("data")

    # ---------------------------------------------------------------- E6/E3
    print("## E6 — reachable waypoint frontier (max y0, m left)\n")
    print("| feature set | no characterizer | with characterizer |")
    print("|---|---|---|")
    frontier = {}
    for kind in ("box", "box+diff", "box+pairs"):
        fs = feature_set_from_data(system.train_features, kind=kind)
        no_h = output_range(suffix, fs, None).upper
        with_h = output_range(suffix, fs, characterizer).upper
        frontier[kind] = with_h
        print(f"| {kind} | {no_h:.3f} | {with_h:.3f} |")
    bend_mask = system.train_data.property_labels("bends_right") > 0.5
    empirical = system.model.suffix_apply(
        system.train_features[bend_mask], system.cut_layer
    )[:, 0].max()
    print(f"| (empirical bend-right scenes) | — | {empirical:.3f} |")

    threshold = frontier["box+diff"] + 0.25

    # ---------------------------------------------------------------- E1/E3/E4
    print("\n## E1/E3/E4 — verification verdicts\n")
    print("| phi | psi | verdict | solver time | nodes |")
    print("|---|---|---|---|---|")
    campaign = [
        ("bends_right", steer_far_left(threshold), "E3 (provable)"),
        ("bends_right", STEER_STRAIGHT, "E4 (unprovable)"),
    ]
    for prop, risk, _tag in campaign:
        verdict = system.engine.run_query(
            VerificationQuery(risk=risk, property_name=prop)
        ).verdict
        sr = verdict.solve_result
        print(
            f"| {prop} | {risk.name} ({risk.description}) | "
            f"{verdict.verdict.value} | {sr.solve_time * 1000:.1f} ms | "
            f"{sr.nodes_explored} |"
        )

    # ---------------------------------------------------------------- E2
    print("\n## E2 — Table I statistics (held-out, n = "
          f"{len(system.val_data)})\n")
    print("| property | alpha | beta | gamma | delta | 1-gamma (>= at 95%) |")
    print("|---|---|---|---|---|---|")
    for name, confusion in system.confusions.items():
        print(
            f"| {name} | {confusion.alpha:.3f} | {confusion.beta:.3f} | "
            f"{confusion.gamma:.3f} | {confusion.delta:.3f} | "
            f"{confusion.guarantee:.3f} (>= {confusion.guarantee_lower:.3f}) |"
        )

    # ---------------------------------------------------------------- E5
    print("\n## E5 — characterizer balanced accuracy at the cut layer\n")
    print("| property | balanced accuracy (val) |")
    print("|---|---|")
    for prop in ("bends_right", "bends_left", "adjacent_traffic", "is_foggy"):
        char_data = balanced_property_dataset(
            300, prop, config.scene, seed=900 + hash(prop) % 100
        )
        feats = extract_features(system.model, char_data.images, system.cut_layer)
        char, _ = train_characterizer(
            prop, system.cut_layer, feats, char_data.property_labels(prop),
            system.val_features, system.val_data.property_labels(prop),
            hidden=(16,), epochs=150, seed=0,
        )
        ba = balanced_accuracy(
            char.decide(system.val_features),
            system.val_data.property_labels(prop),
        )
        print(f"| {prop} | {ba:.3f} |")

    # ---------------------------------------------------------------- E7
    print("\n## E7 — static input-domain analysis vs data envelope\n")
    shape = system.model.input_shape
    static_box = region_boxes(
        system.model,
        BoxBatch(np.zeros((1,) + shape), np.ones((1,) + shape)),
        system.cut_layer,
    ).box(0)
    dlo, dhi = data_set.bounds()
    ratio = float(np.median(
        (static_box.upper - static_box.lower) / np.maximum(dhi - dlo, 1e-9)
    ))
    system.engine.add_raw_set(static_box, sound=True, name="static-report")
    static_verdict = system.engine.run_query(
        VerificationQuery(
            risk=steer_far_left(threshold),
            property_name="bends_right",
            set_name="static-report",
        )
    ).verdict
    in_odd = data_set.contains(
        static_verdict.counterexample.features[None], tol=1e-6
    )[0] if static_verdict.counterexample is not None else None
    print(f"- median per-neuron width ratio static/data: **{ratio:.1f}x**")
    print(f"- same property under static S: **{static_verdict.verdict.value}**")
    print(f"- static counterexample inside the data envelope: **{in_odd}** "
          "(out-of-ODD, as footnote 1 predicts)")

    # ---------------------------------------------------------------- E8
    print("\n## E8 — monitor cost vs inference\n")
    frames = np.asarray(system.val_data.images)
    feats = system.val_features
    t0 = time.time()
    for _ in range(100):
        monitor_feature_batch(data_set, feats)
    t_mon = (time.time() - t0) / 100
    t0 = time.time()
    system.model.forward(frames)
    t_fwd = time.time() - t0
    print(f"- batch membership check ({feats.shape[0]} frames): "
          f"**{t_mon * 1e6:.0f} us**")
    print(f"- network forward pass (same frames): **{t_fwd * 1e3:.1f} ms**")
    print(f"- overhead ratio: **{t_fwd / max(t_mon, 1e-12):.0f}x** cheaper")

    # monitor ODD-exit detection
    rng = np.random.default_rng(5)
    night = []
    for _ in range(100):
        scene = sample_scene(rng, config.scene)
        scene = dataclasses.replace(
            scene, weather=Weather(brightness=0.35, noise_sigma=0.04)
        )
        night.append(render_scene(scene, config.scene))
    night = np.stack(night)
    margin_set = box_with_diffs_from_data(system.train_features, margin=0.1)
    monitor = RuntimeMonitor(system.model, system.cut_layer, margin_set, False)
    in_odd_rate = monitor.run(frames).violation_rate
    monitor = RuntimeMonitor(system.model, system.cut_layer, margin_set, False)
    night_rate = monitor.run(night).violation_rate
    print(f"- false alarms in-ODD (margin 0.1): **{in_odd_rate:.1%}**; "
          f"night-stream violations: **{night_rate:.1%}**")

    # ---------------------------------------------------------------- E9
    print("\n## E9 — Lemma ladder (same property, three set levels)\n")
    print("| level | set | verdict |")
    print("|---|---|---|")
    dim = system.model.feature_dim(system.cut_layer)
    system.engine.add_raw_set(
        Box(np.full(dim, -1e4), np.full(dim, 1e4)), sound=True, name="lemma1-report"
    )
    levels = [
        ("Lemma 1 (R^dl surrogate)", "lemma1-report"),
        ("Lemma 2 (static S)", "static-report"),
        ("assume-guarantee (S~)", "data"),
    ]
    for label, set_name in levels:
        verdict = system.engine.run_query(
            VerificationQuery(
                risk=steer_far_left(threshold),
                property_name="bends_right",
                set_name=set_name,
            )
        ).verdict
        print(f"| {label} | {set_name} | {verdict.verdict.value} |")

    # ---------------------------------------------------------------- E10
    print("\n## E10 — solver scalability (near-frontier instances)\n")
    print("| suffix | binaries | branch-and-bound | HiGHS |")
    print("|---|---|---|---|")
    from repro.nn import Dense, ReLU, Sequential
    from repro.properties.risk import RiskCondition, output_geq

    for width, depth in [(8, 2), (12, 2), (16, 2), (10, 1), (10, 3)]:
        rng = np.random.default_rng(width * 10 + depth)
        layers = []
        for _ in range(depth):
            layers.extend([Dense(width), ReLU()])
        layers.append(Dense(2))
        model = Sequential(layers, input_shape=(8,), seed=width + depth)
        net = model.full_network()
        train = rng.normal(size=(200, 8))
        sbox = box_with_diffs_from_data(train)
        outs = net.apply(train)
        risk = RiskCondition(
            "frontier", (output_geq(2, 0, float(outs[:, 0].max()) + 1.5),)
        )
        problem = encode_verification_problem(net, sbox, risk)
        bb = BranchAndBoundSolver(node_limit=20_000, time_limit=120.0).solve(
            problem.model
        )
        hs = HighsSolver(time_limit=120.0).solve(problem.model)
        print(
            f"| {width}x{depth} | {problem.model.num_binaries} | "
            f"{bb.status.value} {bb.solve_time * 1000:.0f} ms "
            f"({bb.nodes_explored} nodes) | "
            f"{hs.status.value} {hs.solve_time * 1000:.0f} ms |"
        )


#: headline metric per BENCH file: (json key, display label, format)
_HEADLINES = (
    ("speedup_fast32_vs_legacy", "fast32 vs legacy layer-walk", "{:.1f}x"),
    ("speedup_exact64_vs_legacy", "lowered IR vs legacy layer-walk", "{:.2f}x"),
    ("portfolio_speedup", "portfolio vs fixed symbolic ladder", "{:.2f}x"),
    ("stream_memory_ratio", "streamed peak-memory growth (16x grid)", "{:.2f}x"),
    (
        "node_ratio_full_vs_merged",
        "width-hard UNSAT proof: full-width vs merged MILP nodes",
        "{:.1f}x",
    ),
    (
        "structural_speedup",
        "structural CEGAR vs region-only at equal budget",
        "{:.0f}x",
    ),
)


def collect_trajectory(root: Path) -> list[tuple[str, dict]]:
    """Every committed ``BENCH_*.json`` at the repo root, PR-ordered."""
    entries = []
    for path in sorted(root.glob("BENCH_*.json")):
        try:
            entries.append((path.name, json.loads(path.read_text())))
        except (OSError, json.JSONDecodeError) as exc:
            entries.append((path.name, {"error": str(exc)}))
    return entries


def render_trajectory(entries: list[tuple[str, dict]]) -> str:
    """The performance-trajectory page for ``docs/benchmarks/``."""
    lines = [
        "# Performance trajectory",
        "",
        "Measured ratios from every committed acceptance benchmark",
        "(`BENCH_<PR>.json` at the repo root, one file per perf PR;",
        "regenerate with `python benchmarks/generate_report.py "
        "--trajectory`).",
        "",
        "## Headlines",
        "",
        "| source | metric | measured |",
        "|---|---|---|",
    ]
    for name, payload in entries:
        for key, label, fmt in _HEADLINES:
            if key in payload:
                lines.append(
                    f"| `{name}` | {label} | {fmt.format(payload[key])} |"
                )
    lines += ["", "## Raw measurements", ""]
    for name, payload in entries:
        lines += [f"### `{name}`", "", "| key | value |", "|---|---|"]
        for key in sorted(payload):
            value = payload[key]
            if isinstance(value, float):
                value = f"{value:.4g}"
            lines.append(f"| `{key}` | {value} |")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def write_trajectory() -> Path:
    root = Path(__file__).resolve().parent.parent
    out_dir = root / "docs" / "benchmarks"
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / "trajectory.md"
    out_path.write_text(render_trajectory(collect_trajectory(root)))
    return out_path


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--trajectory",
        action="store_true",
        help="collect BENCH_*.json into docs/benchmarks/trajectory.md "
        "instead of running the full E1-E10 measurement campaign",
    )
    cli_args = parser.parse_args()
    if cli_args.trajectory:
        print(f"trajectory written to {write_trajectory()}")
    else:
        main()
