"""Fixed reference task: a machine-speed probe that does not touch sigvol.

The benchmark host is shared, and its speed drifts by tens of percent within
minutes, most of all in what a fresh process pays: start-up, imports and
first-touch page faults.  Run as a script, this file does the same kinds of
work as a benchmark operation without sigvol: it starts an interpreter,
imports numpy, does small-array arithmetic (as in the Chen step), formats
numbers into text (as in the CSV writers) and touches 64 MB of fresh memory.
The benchmark times it from spawn to exit after every round and scales that
round's times by REFERENCE_NOMINAL_S / (the reference time), which cancels
most of the drift.
"""

import math

import numpy as np

REFERENCE_NOMINAL_S = 0.5  # reported times are for a host where this script takes 0.5 s


def main() -> None:
    x = np.linspace(0.0, 1.0, 4096 * 31).reshape(4096, 31)
    acc = 0.0
    for _ in range(40):
        acc += float(((x[:, :, None] * x[:, None, :8]).reshape(4096, -1) / 3.0).sum())
    lines = [f"{i},{i * 0.1:.17g},{math.sqrt(i):.17g},{acc:.17g}\n" for i in range(20000)]
    fresh = np.ones((4096, 2048))
    fresh *= 2.0
    if len(lines) != 20000 or not math.isfinite(acc) or fresh[-1, -1] != 2.0:
        raise SystemExit("reference task computed a wrong result")


if __name__ == "__main__":
    main()
