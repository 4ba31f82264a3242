"""Host-speed probe: time one small fixed piece of work, again and again.

    python3 e2ebench/probe.py OUT INTERVAL_S

``run.py`` starts it on the CPU the measured children run on.  It
repeats: run :func:`work` once to bring the interpreter's code back into
the CPU's caches, run it again and time it, append ``(end, duration)``
as two native doubles (``time.monotonic()`` and seconds) to ``OUT``,
sleep ``INTERVAL_S``.  One unit of work takes about a quarter of a
millisecond, so it is not preempted and costs the measured child about
2.5% of the CPU.  Timed warm, its duration follows how fast the host runs
that CPU right now, not what the measured child left in the caches.  It
runs until it is killed.
"""

from __future__ import annotations

import os
import struct
import sys
import time


def work() -> int:
    """Interpreter arithmetic: a fixed loop with no memory traffic to speak of."""
    total = 0
    for i in range(3000):
        total += i * i % 7
    return total


def main(out: str, interval: float) -> None:
    fd = os.open(out, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    for _ in range(200):
        work()
    while True:
        work()
        start = time.perf_counter()
        work()
        duration = time.perf_counter() - start
        os.write(fd, struct.pack("dd", time.monotonic(), duration))
        time.sleep(interval)


if __name__ == "__main__":
    main(sys.argv[1], float(sys.argv[2]))
