"""Self-check: are the end-to-end metrics steady enough for their bounds?

    python3 e2ebench/selfcheck.py [--workload NAME ...]

Runs ``BENCHMARK.json``'s command on every workload (or each
``--workload``) in two sets of ten seeds, 1-10 and 11-20, interleaved in
time (seed 1, seed 11, seed 2, seed 12, ...), so a change in the host's
speed falls on both sets alike.  For each end-to-end metric it prints
both sets' spreads (the distance between the first and third quartile
as a share of the median) and how far set 2's median moved from set
1's, both ways, against the metric's bound.  Exits 1 if a spread or a
move exceeds its bound, or a run failed.  Run it from a checkout's root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SEEDS = 10
SETS = (range(1, 1 + SEEDS), range(1 + SEEDS, 1 + 2 * SEEDS))


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def run(bench: dict, workload: str, seed: int) -> dict[str, float]:
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if done.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed:\n{done.stdout[-2000:]}")
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    print(f"  {workload} seed {seed}: "
          + ", ".join(f"{k}={v:.4g}" for k, v in values.items()), flush=True)
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", default=[])
    args = parser.parse_args(argv)
    bench = json.loads(Path("BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    ok = True
    for workload in workloads:
        sets: tuple[dict, dict] = ({}, {})
        for pair in zip(*SETS):
            for values, seed in zip(sets, pair):
                for name, value in run(bench, workload, seed).items():
                    values.setdefault(name, []).append(value)
        print(f"\n{workload}")
        print(f"  {'metric':<16} {'bound':>6} {'spread1':>8} {'spread2':>8} {'move':>8}")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first, second = (sets[0][name], sets[1][name])
            spreads = (spread(first), spread(second))
            move = (statistics.median(second) - statistics.median(first)) \
                / statistics.median(first)
            flag = ""
            if max(spreads) > bound or abs(move) > bound:
                ok = False
                flag = "  OVER BOUND"
            elif max(spreads) > bound / 3:
                flag = "  above a third of the bound"
            print(f"  {name:<16} {bound:>6.3f} {spreads[0]:>8.4f} {spreads[1]:>8.4f} "
                  f"{move:>+8.4f}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
