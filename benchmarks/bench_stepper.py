"""Per-layer cost of the Chen step, the block stepper, path ranges, the price CSV and `simulate`.

Run from the repository root:

    PYTHONPATH=src python -m pytest benchmarks -o python_files='bench_*.py'

These are pytest-benchmark cases; the Tier-1 suite collects only test_*.py,
so it never runs them.  Each in-process case stores in the benchmark's
extra_info the median time of one call, the minor page faults (ru_minflt) of
one call and the tracemalloc peak of one call, both taken after a warm-up
call; the `transform --mc-check` child cases store the median wall time and
peak RSS (ru_maxrss) of a fresh process instead.  Add --benchmark-json=FILE
to keep them.
"""

import os
import resource
import statistics
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from sigvol import sde, signature
from sigvol.algebra import GradedTensor, Weight
from sigvol.hedging import HedgeBasis, simulate_hedge_dataset
from sigvol.models import preset
from sigvol.sde import PathBlock, SigVolParams, simulate_price, stream_paths, write_price_csv
from sigvol.signature import BatchSignature, all_words, engine_rows, simulate_brownian_grid


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
    _record(benchmark, _step(BatchSignature(n_paths, d, all_words(d, depth)), 2), 30,
            paths=n_paths, d=d, depth=depth, words=2**(depth + 1) - 1)


def test_chen_step_all_words_d2(benchmark):
    # every word up to depth 3 over three letters: each split is an outer product
    n_paths, d, depth = 20000, 2, 3
    _record(benchmark, _step(BatchSignature(n_paths, d, all_words(d, depth)), 4), 30,
            paths=n_paths, d=d, depth=depth, words=(3 ** (depth + 1) - 1) // 2)


def test_chen_step_carried_words(benchmark):
    # the price_paths_deep engine: a depth-6 symbol that reads 7 words
    ell = preset("rough_bergomi_approx").ell
    n_paths, depth = 1024, max(map(len, ell.coeffs))
    sig = BatchSignature(n_paths, 1, list(ell.coeffs))
    _record(benchmark, _step(sig, 3), 200, paths=n_paths, d=1, depth=depth,
            words=len(ell.coeffs))


def _step_to_end(block: PathBlock) -> None:
    for _ in block.steps():
        pass


def test_stream_paths_block(benchmark):
    # a 16384-path, 128-step run of the transform_mc stepper (two 8192-path blocks): draw,
    # then step to the end
    pre = preset("first_order")
    params = SigVolParams(pre.ell, pre.weight, 1.0, pre.eta, 1.0, 128)

    def one_pass():
        for _ in stream_paths(params, 16384, 1, _step_to_end):
            pass

    _record(benchmark, one_pass, 7, paths=16384, steps=128, d=1)


def _ranges(monkeypatch, split: str) -> int:
    """Walk every block as one range, or as one range per CPU; the number of ranges a block."""
    monkeypatch.setattr(sde, "SPLIT_ROW_PATHS", 0 if split == "ranges" else float("inf"))
    return signature._WORKERS if split == "ranges" else 1


# the engines of the workloads: transform_mc (first_order), price_paths_deep (rough_bergomi)
# and the depth-report scan (every word up to depth 4), and one between the last two
_ENGINES = {"first_order": (preset("first_order").ell, []),
            "rough_bergomi": (preset("rough_bergomi_approx").ell, []),
            "words_3": (preset("first_order").ell, all_words(1, 3)),
            "words_4": (preset("first_order").ell, all_words(1, 4))}


@pytest.mark.parametrize("split", ["one", "ranges"])
@pytest.mark.parametrize("paths", [4096, 8192, 12288, 16384])
@pytest.mark.parametrize("engine", list(_ENGINES))
def test_path_range_crossover(benchmark, monkeypatch, engine, paths, split):
    # one block drawn and stepped to the end, 32 steps, as one range or one range per CPU;
    # sde.SPLIT_ROW_PATHS is where `ranges` starts to win, in engine rows x block paths
    ell, words = _ENGINES[engine]
    params = SigVolParams(ell, Weight.constant(), 1.0, np.array([1.0]), 1.0, 32)
    ranges = _ranges(monkeypatch, split)

    def one_block():
        for _ in stream_paths(params, paths, 1, _step_to_end, words):
            pass

    rows = engine_rows([*ell.coeffs, *words])
    _record(benchmark, one_block, 15, engine=engine, rows=rows, paths=paths,
            rows_x_paths=rows * paths, steps=32, d=1, ranges=ranges)


@pytest.mark.parametrize("split", ["one", "ranges"])
def test_hedge_block(benchmark, monkeypatch, split):
    # the hedge_depth_scan block: 16384 paths, 16 steps, every word up to depth 4 carried
    # (61 engine rows) and the gains of the words up to depth 3 summed per step; drawn, then
    # walked as one range or one range per CPU
    pre = preset("first_order")
    params = SigVolParams(pre.ell, pre.weight, 1.0, pre.eta, 1.0, 16)
    ranges = _ranges(monkeypatch, split)
    _record(benchmark, lambda: simulate_hedge_dataset(params, HedgeBasis(3), "asian",
                                                      {"strike": 1.0}, 16384, 1),
            15, paths=16384, steps=16, d=1, depth=4, rows=61, ranges=ranges)


@pytest.mark.parametrize("d", [1, 3])
def test_path_block_steps(benchmark, d):
    # the pairing and log-price step over one drawn 16384-path block: eta . dW, the Ito
    # sums and xi = <ell, sig> per step, under a depth-1 symbol whose Chen step is small
    ell = GradedTensor(d, {(): 0.2, (d,): 0.1})
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
    prices = next(stream_paths(params, 1024, 1, simulate_price))
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
            for prices in stream_paths(params, blocks * block, 1, simulate_price):
                write_price_csv(prices, fh)

    _record(benchmark, one_run, 3, paths=blocks * block, block=block, steps=128, d=1)


# The kernel keeps a process's RSS high-water mark across exec, so a child's ru_maxrss counts
# the pages of whatever spawned it: the CLI is spawned from this small launcher, not from the
# test process, whose RSS grows with the cases before it.
_LAUNCHER = """
import os, subprocess, sys, time
start = time.perf_counter()
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(time.perf_counter() - start, usage.ru_maxrss / 1024, os.waitstatus_to_exitcode(status))
"""


def record_children(benchmark, argv: list[str], **params) -> None:
    """Run the CLI's argv in fresh processes; store their median wall time and peak RSS."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    cmd = [sys.executable, "-c", _LAUNCHER, sys.executable, "-m", "sigvol.cli", *argv]
    runs = []

    def child():
        wall, peak, code = subprocess.run(cmd, env=env, capture_output=True, text=True,
                                          check=True).stdout.split()
        assert code == "0"
        runs.append((float(wall), float(peak)))  # ru_maxrss is in KiB on Linux

    benchmark.pedantic(child, rounds=3, warmup_rounds=1)
    benchmark.extra_info.update(params, median_s=statistics.median(wall for wall, _ in runs),
                                peak_rss_mb=statistics.median(peak for _, peak in runs))


@pytest.mark.parametrize("paths", [16384, 12000])
@pytest.mark.parametrize("steps", [128, 512, 2048])
def test_transform_mc_check_child(benchmark, tmp_path, steps, paths):
    # a fresh `transform --mc-check` process: a driver block holds at most 2**20 normals, so
    # 8192 paths at 128 steps and 4096 at 512 and 2048 steps; 16384 paths are whole blocks,
    # 12000 end on a short block of 3808 paths, drawn into the same grid
    record_children(benchmark, ["transform", "--model", "first_order", "--uX", "0.25",
                                "--mc-check", "--paths", str(paths), "--steps", str(steps),
                                "--seed", "1", "--out", str(tmp_path)],
                    paths=paths, steps=steps, d=1)
