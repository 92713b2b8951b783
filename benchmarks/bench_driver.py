"""Per-layer timing of the Brownian driver (pytest-benchmark).

Run from the repository root:

    PYTHONPATH=src python -m pytest benchmarks -o python_files='bench_*.py'

The Tier-1 suite collects only test_*.py, so it never runs these.  The case
runs once with one drawing thread and once with one per CPU in the affinity
mask (the driver's default), and stores the thread count, its throughput and
the minor page faults (ru_minflt) of one call, taken after a warm-up call, in
the benchmark's extra_info; add --benchmark-json=FILE to keep them.  The Chen
step and the block stepper are timed in bench_stepper.py.
"""

import resource

import pytest

from sigvol import signature
from sigvol.signature import simulate_brownian_grid


def _faults(fn) -> int:
    """Minor page faults of one call of fn, after a warm-up call."""
    fn()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    fn()
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


@pytest.mark.parametrize("workers", sorted({1, signature._WORKERS}))
def test_driver_block(benchmark, monkeypatch, workers):
    n_paths, steps, d = 16384, 128, 1
    monkeypatch.setattr(signature, "_WORKERS", workers)

    def block():
        return simulate_brownian_grid(d, 1.0, steps, n_paths, seed=1)

    faults = _faults(block)
    benchmark.pedantic(block, rounds=7, warmup_rounds=1)
    # stats is None under --benchmark-disable, which runs each case once untimed
    median = benchmark.stats and benchmark.stats.stats.median
    benchmark.extra_info.update(paths=n_paths, steps=steps, d=d, minflt=faults, workers=workers,
                                normals_per_s=median and n_paths * steps * d / median)
