"""Per-layer timings of the Brownian driver and the Chen step (pytest-benchmark).

Run from the repository root:

    PYTHONPATH=src python -m pytest benchmarks -o python_files='bench_*.py'

The Tier-1 suite collects only test_*.py, so it never runs these.  Each case
stores its throughput and the minor page faults (ru_minflt) of one call,
taken after a warm-up call, in the benchmark's extra_info; add
--benchmark-json=FILE to keep them.
"""

import resource

import numpy as np

from sigvol.signature import BatchSignature, simulate_brownian_grid


def _faults(fn) -> int:
    """Minor page faults of one call of fn, after a warm-up call."""
    fn()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    fn()
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


def test_driver_block(benchmark):
    n_paths, steps, d = 16384, 128, 1

    def block():
        return simulate_brownian_grid(d, 1.0, steps, n_paths, seed=1)

    faults = _faults(block)
    benchmark.pedantic(block, rounds=7, warmup_rounds=1)
    median = benchmark.stats.stats.median
    benchmark.extra_info.update(paths=n_paths, steps=steps, d=d, minflt=faults,
                                normals_per_s=n_paths * steps * d / median)


def test_chen_step(benchmark):
    n_paths, d, depth = 20000, 1, 4
    inc = np.diff(simulate_brownian_grid(d, 1.0, 16, n_paths, seed=2).grid, axis=0)
    sig = BatchSignature(n_paths, d, depth)
    dx = inc[0].T  # what PathBlock passes: the transpose of a contiguous step

    def step():
        sig.chen_step(dx)

    faults = _faults(step)
    benchmark.pedantic(step, rounds=30, warmup_rounds=2)
    median = benchmark.stats.stats.median
    benchmark.extra_info.update(paths=n_paths, d=d, depth=depth, minflt=faults,
                                path_steps_per_s=n_paths / median)
