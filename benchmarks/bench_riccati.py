"""Per-layer timings of the closure build and the Riccati flow (pytest-benchmark).

Run from the repository root:

    PYTHONPATH=src python -m pytest benchmarks/bench_riccati.py -o python_files='bench_*.py'

The Tier-1 suite collects only test_*.py, so it never runs these.  Each case
stores the median seconds of one call and the closure's coordinate and Gamma
term counts in the benchmark's extra_info, and the blow-up flow its
microseconds per accepted step; add --benchmark-json=FILE to keep them.  The
cases are the closure builds of the riccati_flows workload's table op, of
rough_bergomi_approx's --uX 0.3 at trunc 12, 13 and 16, of two dense
d = 2 starts at trunc 8: every word of length <= 4, and every word of length
<= 3 with X live under a degree-1 ell, whose one shuffle_product call per
Brownian word dominates the build, and of a dense d = 1 start at trunc 12,
every word of length <= 5, whose 8191 coordinates and 1.76 M Gamma terms
time the prefix-pair table at its largest, and of first_order's --u 1.1.1:0.1
at trunc 26, a cut closure of 27 of the 2^27 - 1 words up to that length,
with the build's tracemalloc peak; then the blow-up flow, one call of its
vector field, the trunc-12 flow of rough_bergomi_approx, the trunc-26 flow of
the cut closure, and a preset's moment blow-up, guyon_lekeufack_approx at
--uX 2.  Last, a fresh `transform` process of the cut closure at --trunc 34,
whose transform.csv
is streamed one trace entry at a time, stores the median wall time and peak
RSS (ru_maxrss) of the process, as bench_stepper.py's child cases do.
"""

import tracemalloc

import numpy as np
import pytest

from sigvol.algebra import GradedTensor, Weight
from sigvol.models import preset
from sigvol.riccati import RiccatiState, build_generator, integrate_flow
from sigvol.sde import SigVolParams
from sigvol.signature import all_words

from bench_stepper import record_children


def _model(name, **sigmas):
    # the preset's model as `transform` resolves it at its defaults (T = 1, s0 = 1)
    pre = preset(name, **sigmas)
    return SigVolParams(pre.ell, pre.weight, 1.0, pre.eta, 1.0, 128)


def _record(benchmark, table, **info):
    # stats is None under --benchmark-disable, which runs each case once untimed
    benchmark.extra_info.update(median_s=benchmark.stats and benchmark.stats.stats.median,
                                gamma_terms=len(table.gamma), state_dim=table.state_dim, **info)


def test_closure_riccati_flows_table(benchmark):
    # transform --model black_scholes --sigma 0.2 --u 1:0.3 --uX 0.5 --trunc 9
    state = RiccatiState(GradedTensor(1, {(1,): 0.3}), u_x=0.5)
    table = benchmark.pedantic(build_generator, args=(state, _model("black_scholes", sigma=0.2), 9),
                               rounds=50, warmup_rounds=1)
    _record(benchmark, table, trunc=9, d=1)


@pytest.mark.parametrize("trunc", [12, 13, 16])
def test_closure_rough_bergomi(benchmark, trunc):
    # transform --model rough_bergomi_approx --uX 0.3 --trunc N; 12 is its shuffle window
    state = RiccatiState(GradedTensor.zero(1), u_x=0.3)
    table = benchmark.pedantic(build_generator, args=(state, _model("rough_bergomi_approx"), trunc),
                               rounds=20, warmup_rounds=1)
    _record(benchmark, table, trunc=trunc, d=1)


def test_closure_dense_d2_trunc8(benchmark):
    # every word of length <= 4 over three letters: the closure is every word up to 8
    state = RiccatiState(GradedTensor(2, {w: 1.0 for w in all_words(2, 4)}))
    model = SigVolParams(GradedTensor.zero(2), Weight.constant(), 1.0, np.array([1.0, 0.0]),
                         1.0, 1)
    table = benchmark.pedantic(build_generator, args=(state, model, 8), rounds=9, warmup_rounds=1)
    _record(benchmark, table, trunc=8, d=2)


def test_closure_dense_d2_trunc8_with_x(benchmark):
    # every word of length <= 3 and X: the closure is every word up to 8, and X
    state = RiccatiState(GradedTensor(2, {w: 1.0 for w in all_words(2, 3)}), u_x=0.5)
    ell = GradedTensor(2, {(): 0.2, (0,): 0.05, (1,): 0.1, (2,): -0.03})
    model = SigVolParams(ell, Weight.constant(), 1.0, np.array([0.6, 0.8]), 1.0, 1)
    table = benchmark.pedantic(build_generator, args=(state, model, 8), rounds=5, warmup_rounds=1)
    _record(benchmark, table, trunc=8, d=2)


def test_closure_dense_d1_trunc12(benchmark):
    # every word of length <= 5 over two letters: the closure is every word up to 12
    state = RiccatiState(GradedTensor(1, {w: 1.0 for w in all_words(1, 5)}))
    model = SigVolParams(GradedTensor.zero(1), Weight.constant(), 1.0, np.array([1.0]), 1.0, 1)
    table = benchmark.pedantic(build_generator, args=(state, model, 12), rounds=5, warmup_rounds=1)
    _record(benchmark, table, trunc=12, d=1)


def cut_closure_state() -> RiccatiState:
    # transform --model first_order --u 1.1.1:0.1: its closure is the words 1^k, k <= trunc
    return RiccatiState(GradedTensor(1, {(1, 1, 1): 0.1}))


def test_closure_cut_trunc26(benchmark):
    args = (cut_closure_state(), _model("first_order"), 26)
    tracemalloc.start()
    build_generator(*args)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    table = benchmark.pedantic(build_generator, args=args, rounds=5, warmup_rounds=1)
    _record(benchmark, table, trunc=26, d=1, build_peak_mb=peak / 1e6)


def test_blowup_flow(benchmark):
    # E exp(2 <e_11, W_T>) blows up at T = 1/2
    state = RiccatiState(GradedTensor(1, {(1, 1): 2.0}))
    table = build_generator(state, _model("first_order"), 7)

    def flow():
        return integrate_flow(table)

    out = benchmark.pedantic(flow, rounds=9, warmup_rounds=1)
    _record(benchmark, table, trunc=7, d=1, accepted_steps=out.steps, rejected=out.rejected,
            carried=out.carried, exploded_at=out.t_star,
            us_per_accepted_step=benchmark.stats and benchmark.stats.stats.median / out.steps * 1e6)


def test_vector_field_call(benchmark):
    # the field the blow-up flow steps: the closure of e_11 and its terms
    state = RiccatiState(GradedTensor(1, {(1, 1): 2.0}))
    table = build_generator(state, _model("first_order"), 7)
    rhs = table.field
    benchmark.pedantic(rhs, args=(table.u0,), rounds=200, iterations=10,
                       warmup_rounds=1)
    _record(benchmark, table, trunc=7, d=1, terms=len(rhs.coeffs))


def test_flow_trunc12_rough_bergomi(benchmark):
    # transform --model rough_bergomi_approx --uX 0.3, its closure built once
    table = build_generator(RiccatiState(GradedTensor.zero(1), u_x=0.3),
                            _model("rough_bergomi_approx"), 12)
    out = benchmark.pedantic(integrate_flow, args=(table,), rounds=5, warmup_rounds=1)
    _record(benchmark, table, trunc=12, d=1, accepted_steps=out.steps, rejected=out.rejected,
            carried=out.carried)


def test_flow_cut_trunc26(benchmark):
    # transform --model first_order --u 1.1.1:0.1 --trunc 26
    table = build_generator(cut_closure_state(), _model("first_order"), 26)
    out = benchmark.pedantic(integrate_flow, args=(table,), rounds=5, warmup_rounds=1)
    _record(benchmark, table, trunc=26, d=1, accepted_steps=out.steps, rejected=out.rejected,
            carried=out.carried, lambda0=out.lambda0)


def test_flow_preset_blowup(benchmark):
    # transform --model guyon_lekeufack_approx --uX 2: E S_T^2 is infinite from T = 0.98473,
    # where the proposed step falls below the floor
    table = build_generator(RiccatiState(GradedTensor.zero(1), u_x=2.0),
                            _model("guyon_lekeufack_approx"))
    out = benchmark.pedantic(integrate_flow, args=(table,), rounds=5, warmup_rounds=1)
    _record(benchmark, table, trunc=table.trunc, d=1, accepted_steps=out.steps,
            rejected=out.rejected, carried=out.carried, exploded_at=out.t_star)


def test_transform_cut_trunc34_child(benchmark, tmp_path):
    # the whole command: closure build, flow, and transform.csv written entry by entry
    record_children(benchmark, ["transform", "--model", "first_order", "--u", "1.1.1:0.1",
                                "--trunc", "34", "--out", str(tmp_path)],
                    trunc=34, d=1)
