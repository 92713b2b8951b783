"""Per-layer cost of the GKW projection (pytest-benchmark).

Run from the repository root:

    PYTHONPATH=src python -m pytest benchmarks/bench_hedging.py -o python_files='bench_*.py'

The Tier-1 suite collects only test_*.py, so it never runs these.  The
design is the one of the hedge_depth_scan workload: first_order, an Asian
call, 20000 paths x 16 steps, integrand depth 3 and residual window (3, 4),
so 40 columns.  Each in-process case stores the median time of one call and
the tracemalloc peak of one call in the benchmark's extra_info; add
--benchmark-json=FILE to keep them.  The dataset case builds that design
from its paths; the reference case runs the tall per-depth solves of the
tests' oracle on the same design.  The child cases run that workload's
`depth-report` in fresh processes at 20000, 80000 and 320000 paths and store
their median wall time and peak RSS (ru_maxrss), as bench_stepper.py's do.
"""

import os
import sys
import tracemalloc

import pytest

from sigvol.hedging import HedgeBasis, _factor, _project, simulate_hedge_dataset
from sigvol.models import preset
from sigvol.sde import SigVolParams

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "tests"))
from _oracles import gkw_project_tall, restrict_depth  # noqa: E402
from bench_stepper import record_children  # noqa: E402

PATHS, STEPS, DEPTHS = 20000, 16, (0, 1, 2, 3)


@pytest.fixture(scope="module")
def scan_data():
    pre = preset("first_order")
    params = SigVolParams(pre.ell, pre.weight, 1.0, pre.eta, 1.0, STEPS)
    basis = HedgeBasis(3, (3, 4))
    return pre, basis, simulate_hedge_dataset(params, basis, "asian", {"strike": 1.0}, PATHS, 1)


def _record(benchmark, fn, rounds: int, data) -> None:
    fn()
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    benchmark.pedantic(fn, rounds=rounds, warmup_rounds=1)
    columns = data.design.z.shape[1]
    # stats is None under --benchmark-disable, which runs each case once untimed
    benchmark.extra_info.update(paths=PATHS, steps=STEPS, depths=len(DEPTHS), columns=columns,
                                median_s=benchmark.stats and benchmark.stats.stats.median,
                                traced_peak_bytes=peak)


def test_simulate_hedge_dataset(benchmark, scan_data):
    # the dataset of the scan: the driver, the Chen steps and the gains of every path
    pre, basis, data = scan_data
    params = SigVolParams(pre.ell, pre.weight, 1.0, pre.eta, 1.0, STEPS)
    _record(benchmark, lambda: simulate_hedge_dataset(params, basis, "asian", {"strike": 1.0},
                                                      PATHS, 1), 7, data)


def test_depth_scan_projection(benchmark, scan_data):
    # what depth_scan does after the dataset: one factor, then every depth read from it
    pre, basis, data = scan_data
    design, x = data.design, data.payoffs

    def scan():
        r = _factor(x, design)
        for depth in DEPTHS:
            keep = [i for i, w in enumerate(design.dyn_words) if len(w) <= depth]
            _project(x, r, keep, design, basis, pre.weight)

    _record(benchmark, scan, 15, data)


def test_depth_scan_projection_tall_reference(benchmark, scan_data):
    # the same four depths as tall ridge solves on a copied, centred design per depth
    pre, basis, data = scan_data

    def scan():
        for depth in DEPTHS:
            gkw_project_tall(data.payoffs, restrict_depth(data.design, depth), basis, pre.weight)

    _record(benchmark, scan, 7, data)


@pytest.mark.parametrize("paths", [20000, 80000, 320000])
def test_depth_report_child(benchmark, tmp_path, paths):
    # hedge_depth_scan's command in a fresh process: the held design grows with --paths
    record_children(benchmark, ["depth-report", "--model", "first_order", "--payoff",
                                "asian:K=1.0", "--depths", ",".join(map(str, DEPTHS)),
                                "--paths", str(paths), "--steps", str(STEPS), "--seed", "1",
                                "--out", str(tmp_path)],
                    paths=paths, steps=STEPS, depths=len(DEPTHS))
