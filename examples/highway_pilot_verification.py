"""Full verification campaign for a highway-pilot direct perception stack.

The scenario the paper's introduction motivates: a camera-based network
computes the next waypoint and orientation as a hot standby for the
mediated perception channel.  Before deployment, the safety team wants

- per-property conditional proofs with explicit residual risk,
- an ablation showing which abstraction ingredients each proof needs,
- the exact counterexample for every property that fails.

Everything runs through the declarative :mod:`repro.api` stack: the
ablation is a range campaign over three registered feature sets, and the
sign-off is one parallel verdict campaign with a JSON-able report.

Run:  python examples/highway_pilot_verification.py
"""

import numpy as np

from repro.api import Campaign, VerificationQuery
from repro.core import ExperimentConfig, build_verified_system
from repro.properties.library import (
    STEER_STRAIGHT,
    steer_far_left,
    steer_far_right,
)


def main() -> None:
    config = ExperimentConfig(
        train_scenes=500,
        val_scenes=200,
        epochs=30,
        properties=("bends_right", "bends_left"),
        seed=0,
    )
    print("== building system ==")
    system = build_verified_system(config)
    print(system.summary())

    engine = system.engine

    # ------------------------------------------------------------------
    # 1. abstraction ablation: reachable waypoint maxima per ingredient
    # ------------------------------------------------------------------
    print("\n== reachable waypoint frontier (max y0, meters left) ==")
    for kind in ("box", "box+pairs"):  # "box+diff" is already registered as "data"
        engine.add_feature_set_from_features(
            system.train_features, kind=kind, name=kind
        )
    set_names = {"box": "box", "box+diff": "data", "box+pairs": "box+pairs"}
    ablation = Campaign("ablation").add_ranges(
        output_indices=(0,),
        properties=(None, "bends_right"),
        sets=tuple(set_names.values()),
    )
    frontier_report = engine.run(ablation, workers=2)
    broken = frontier_report.errors
    if broken:
        raise SystemExit(
            f"range query {broken[0].query.name} failed: {broken[0].error}"
        )
    frontiers = {}
    print(f"{'feature set':<12}{'no h':>10}{'with h':>10}")
    for kind, set_name in set_names.items():
        by_prop = {
            r.query.property_name: r.output_range.upper
            for r in frontier_report
            if r.query.set_name == set_name
        }
        frontiers[kind] = by_prop["bends_right"]
        print(f"{kind:<12}{by_prop[None]:>10.3f}{by_prop['bends_right']:>10.3f}")
    bend_mask = system.train_data.property_labels("bends_right") > 0.5
    empirical = system.model.suffix_apply(
        system.train_features[bend_mask], system.cut_layer
    )[:, 0].max()
    print(f"{'(empirical)':<12}{'':>10}{empirical:>10.3f}   <- real bend-right scenes")

    # ------------------------------------------------------------------
    # 2. the verification campaign (parallel, cached encodings)
    # ------------------------------------------------------------------
    provable_threshold = frontiers["box+diff"] + 0.25
    campaign = Campaign("sign-off").add(
        VerificationQuery(
            risk=steer_far_left(provable_threshold), property_name="bends_right"
        ),
        VerificationQuery(risk=STEER_STRAIGHT, property_name="bends_right"),
        VerificationQuery(
            risk=steer_far_right(-(provable_threshold + 2.0)),
            property_name="bends_left",
        ),
    )
    print("\n== verification campaign ==")
    report = engine.run(campaign, workers=2)
    for result in report:
        risk = result.query.risk
        print(f"\nphi={result.query.property_name}, psi={risk.name} "
              f"({risk.description}):")
        print("  " + result.verdict.summary().replace("\n", "\n  "))
        if result.verdict.counterexample is not None:
            cx = result.verdict.counterexample
            print(f"  counterexample features (cut layer): "
                  f"{np.round(cx.features, 2)}")
    print(f"\n{report.summary()}")

    # ------------------------------------------------------------------
    # 3. residual risk accounting (Section III)
    # ------------------------------------------------------------------
    print("\n== residual risk (Table I cells per characterizer) ==")
    for name, confusion in system.confusions.items():
        print(f"  {name}: {confusion.summary()}")


if __name__ == "__main__":
    main()
