"""Closed-loop lane keeping: the paper's hot-standby architecture, end to end.

The introduction's motivating system: a direct-perception network feeds
affordances to a controller, acting as hot standby for the classical
mediated perception channel.  This example drives a winding highway
segment three ways:

1. **oracle channel** — exact affordances (the mediated system);
2. **NN channel** — the trained direct-perception network alone;
3. **hot standby** — NN channel, but any frame flagged by the runtime
   monitor (assume-guarantee envelope violated) falls back to the oracle
   for that step.

Run:  python examples/closed_loop_driving.py
"""

from repro.core import ExperimentConfig, build_verified_system
from repro.scenario.controller import PurePursuitController, simulate_closed_loop


def main() -> None:
    config = ExperimentConfig(
        train_scenes=500, val_scenes=150, epochs=30, properties=(), seed=0
    )
    system = build_verified_system(config)
    controller = PurePursuitController()

    runs = {}
    runs["oracle (mediated channel)"] = simulate_closed_loop(
        None,
        controller,
        num_steps=250,
        initial_offset=0.5,
        scene_config=config.scene,
        seed=11,
    )
    runs["direct perception (NN)"] = simulate_closed_loop(
        system.model,
        controller,
        num_steps=250,
        initial_offset=0.5,
        scene_config=config.scene,
        seed=11,
    )
    runs["hot standby (NN + monitor fallback)"] = simulate_closed_loop(
        system.model,
        controller,
        num_steps=250,
        initial_offset=0.5,
        scene_config=config.scene,
        monitor=system.engine.make_monitor(keep_events=False),
        seed=11,
    )
    # the interesting case: night falls mid-drive (ODD exit at step 125)
    runs["NN alone, night from step 125"] = simulate_closed_loop(
        system.model,
        controller,
        num_steps=250,
        initial_offset=0.5,
        scene_config=config.scene,
        odd_exit_step=125,
        seed=11,
    )
    runs["hot standby, night from step 125"] = simulate_closed_loop(
        system.model,
        controller,
        num_steps=250,
        initial_offset=0.5,
        scene_config=config.scene,
        monitor=system.engine.make_monitor(keep_events=False),
        odd_exit_step=125,
        seed=11,
    )

    print(f"{'channel':<38}{'RMS err':>9}{'max err':>9}{'fallback':>10}")
    for name, result in runs.items():
        print(
            f"{name:<38}{result.rms_lateral_error:>8.3f}m"
            f"{result.max_lateral_error:>8.3f}m"
            f"{result.fallback_rate:>9.1%}"
        )

    print(
        "\nThe monitor-backed channel inherits the NN's autonomy on covered "
        "frames and the oracle's safety on envelope violations — the "
        "deployment pattern the conditional safety proof assumes."
    )


if __name__ == "__main__":
    main()
