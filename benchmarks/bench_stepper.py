"""Per-layer cost of the Chen step, the block stepper, the price CSV and streamed `simulate`.

Run from the repository root:

    PYTHONPATH=src python -m pytest benchmarks -o python_files='bench_*.py'

These are pytest-benchmark cases; the Tier-1 suite collects only test_*.py,
so it never runs them.  Each case stores in the benchmark's extra_info the
median time of one call, the minor page faults (ru_minflt) of one call and
the tracemalloc peak of one call, both taken after a warm-up call; add
--benchmark-json=FILE to keep them.
"""

import os
import resource
import tracemalloc

import numpy as np
import pytest

from sigvol import sde, signature
from sigvol.algebra import GradedTensor, Weight
from sigvol.models import preset
from sigvol.sde import PathBlock, SigVolParams, simulate_price, stream_paths, write_price_csv
from sigvol.signature import BatchSignature, simulate_brownian_grid


def _record(benchmark, fn, rounds: int, **params) -> None:
    """Time fn, then store its median, page faults and traced peak with params."""
    fn()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    fn()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    benchmark.pedantic(fn, rounds=rounds, warmup_rounds=1)
    # stats is None under --benchmark-disable, which runs each case once untimed
    benchmark.extra_info.update(params, median_s=benchmark.stats and benchmark.stats.stats.median,
                                minflt=faults, traced_peak_bytes=peak)


def _step(sig: BatchSignature, seed: int):
    # what PathBlock passes: the transpose of one contiguous (d+1, paths) row
    dx = (np.random.default_rng(seed).normal(size=(sig.n_letters, sig.n_paths)) * 0.1).T
    return lambda: sig.chen_step(dx)


def test_chen_step_all_words(benchmark):
    # the hedge_depth_scan engine: every word up to depth 4 is read
    n_paths, d, depth = 20000, 1, 4
    _record(benchmark, _step(BatchSignature(n_paths, d, depth), 2), 30,
            paths=n_paths, d=d, depth=depth, words=2**(depth + 1) - 1)


def test_chen_step_all_words_d2(benchmark):
    # every word up to depth 3 over three letters: each split is an outer product
    n_paths, d, depth = 20000, 2, 3
    _record(benchmark, _step(BatchSignature(n_paths, d, depth), 4), 30,
            paths=n_paths, d=d, depth=depth, words=(3 ** (depth + 1) - 1) // 2)


def test_chen_step_carried_words(benchmark):
    # the price_paths_deep engine: a depth-6 symbol that reads 7 words
    ell = preset("rough_bergomi_approx").ell
    n_paths, depth = 1024, max(map(len, ell.coeffs))
    sig = BatchSignature(n_paths, 1, depth, list(ell.coeffs))
    _record(benchmark, _step(sig, 3), 200, paths=n_paths, d=1, depth=depth,
            words=len(ell.coeffs))


def test_stream_paths_block(benchmark):
    # one 16384 x 128 block of the transform_mc stepper: draw, then step to the end
    pre = preset("first_order")
    params = SigVolParams(pre.ell, pre.weight, 1.0, pre.eta, 1.0, 128)

    def one_pass():
        for block in stream_paths(params, 16384, 1):
            for _ in block.steps():
                pass

    _record(benchmark, one_pass, 7, paths=16384, steps=128, d=1)


@pytest.mark.parametrize("d", [1, 3])
def test_path_block_steps(benchmark, d):
    # the pairing and log-price step over one drawn 16384-path block: eta . dW, the Ito
    # sums and xi = <ell, sig> per step, under a depth-1 symbol whose Chen step is small
    ell = GradedTensor(d, 1, {(): 0.2, (d,): 0.1})
    params = SigVolParams(ell, Weight.constant(), 1.0, np.full(d, d**-0.5), 1.0, 32)
    paths = simulate_brownian_grid(d, 1.0, 32, 16384, 1)

    def one_block():
        # stepping reads the grid and never writes it, so each call can step it afresh
        for _ in PathBlock(params, paths).steps():
            pass

    _record(benchmark, one_block, 15, paths=16384, steps=32, d=d)


@pytest.mark.parametrize("workers", sorted({1, signature._WORKERS}))
def test_write_price_csv(benchmark, monkeypatch, workers):
    # the price_paths_deep block's rows alone, formatted on `workers` processes; the
    # traced peak is this process's only, not the forked row writers'
    pre = preset("rough_bergomi_approx")
    params = SigVolParams(pre.ell, pre.weight, 1.0, pre.eta, 1.0, 128)
    prices = simulate_price(next(stream_paths(params, 1024, 1)))
    monkeypatch.setattr(signature, "_WORKERS", workers)

    def one_block():
        with open(os.devnull, "w", encoding="utf-8", newline="\n") as fh:
            write_price_csv(prices, fh)

    _record(benchmark, one_block, 7, paths=1024, steps=128, d=1, workers=workers)


@pytest.mark.parametrize("blocks", [1, 4])
def test_simulate_streamed(benchmark, monkeypatch, blocks):
    # what `simulate` does per block at the price_paths_deep size: price it, write its rows;
    # the traced peak should not grow with the number of blocks
    pre = preset("rough_bergomi_approx")
    params = SigVolParams(pre.ell, pre.weight, 1.0, pre.eta, 1.0, 128)
    block = 1024
    monkeypatch.setattr(sde, "BLOCK_PATHS", block)

    def one_run():
        with open(os.devnull, "w", encoding="utf-8", newline="\n") as fh:
            for paths in stream_paths(params, blocks * block, 1):
                write_price_csv(simulate_price(paths), fh)

    _record(benchmark, one_run, 3, paths=blocks * block, block=block, steps=128, d=1)
