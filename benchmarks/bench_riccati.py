"""Per-layer timings of the closure build and the Riccati flow (pytest-benchmark).

Run from the repository root:

    PYTHONPATH=src python -m pytest benchmarks/bench_riccati.py -o python_files='bench_*.py'

The Tier-1 suite collects only test_*.py, so it never runs these.  Each case
stores the median seconds of one call and the closure's coordinate and Gamma
term counts in the benchmark's extra_info, and the blow-up flow its
microseconds per accepted step; add --benchmark-json=FILE to keep them.  The
cases are the closure builds of the riccati_flows workload's table op, of
rough_bergomi_approx's --uX 0.3 at trunc 12, 13 and 16, and of a dense d = 2
direction (every word of length <= 4 at trunc 8); then the blow-up flow, one
call of its vector field, and the trunc-12 flow of rough_bergomi_approx.
"""

import math

import numpy as np
import pytest

from sigvol.algebra import GradedTensor
from sigvol.models import preset
from sigvol.riccati import RiccatiState, build_generator, integrate_flow
from sigvol.signature import all_words


def _record(benchmark, table, **info):
    # stats is None under --benchmark-disable, which runs each case once untimed
    benchmark.extra_info.update(median_s=benchmark.stats and benchmark.stats.stats.median,
                                gamma_terms=len(table.gamma), state_dim=table.state_dim, **info)


def test_closure_riccati_flows_table(benchmark):
    # transform --model black_scholes --sigma 0.2 --u 1:0.3 --uX 0.5 --trunc 9
    state = RiccatiState(GradedTensor(1, 1, {(1,): 0.3}), u_x=0.5)
    ell = GradedTensor(1, 0, {(): 0.2})
    table = benchmark.pedantic(build_generator, args=(9, 1, state, (ell, np.array([1.0]))),
                               rounds=50, warmup_rounds=1)
    _record(benchmark, table, trunc=9, d=1)


@pytest.mark.parametrize("trunc", [12, 13, 16])
def test_closure_rough_bergomi(benchmark, trunc):
    # transform --model rough_bergomi_approx --uX 0.3 --trunc N; 12 is its shuffle window
    pre = preset("rough_bergomi_approx")
    state = RiccatiState(GradedTensor.zero(1, 0), u_x=0.3)
    table = benchmark.pedantic(build_generator, args=(trunc, 1, state, (pre.ell, pre.eta)),
                               rounds=20, warmup_rounds=1)
    _record(benchmark, table, trunc=trunc, d=1)


def test_closure_dense_d2_trunc8(benchmark):
    # every word of length <= 4 over three letters: the closure is every word up to 8
    state = RiccatiState(GradedTensor(2, 4, {w: 1.0 for w in all_words(2, 4)}))
    table = benchmark.pedantic(build_generator, args=(8, 2, state), rounds=9, warmup_rounds=1)
    _record(benchmark, table, trunc=8, d=2)


def test_blowup_flow(benchmark):
    # E exp(2 <e_11, W_T>) blows up at T = 1/2
    pre = preset("first_order")
    state = RiccatiState(GradedTensor(1, 2, {(1, 1): 2.0}))
    table = build_generator(7, 1, state)

    def flow():
        return integrate_flow(state, 1.0, table, tol=1e-10, weight=pre.weight)

    out = benchmark.pedantic(flow, rounds=9, warmup_rounds=1)
    _record(benchmark, table, trunc=7, d=1, accepted_steps=out.steps, rejected=out.rejected,
            carried=out.carried, exploded_at=out.t_star,
            us_per_accepted_step=benchmark.stats and benchmark.stats.stats.median / out.steps * 1e6)


def test_vector_field_call(benchmark):
    # the field the blow-up flow steps: the closure of e_11 and its terms
    state = RiccatiState(GradedTensor(1, 2, {(1, 1): 2.0}))
    table = build_generator(7, 1, state)
    rhs = table.field
    benchmark.pedantic(rhs, args=(table.vector(state.sig),), rounds=200, iterations=10,
                       warmup_rounds=1)
    _record(benchmark, table, trunc=7, d=1, terms=len(rhs.coeffs))


def test_flow_trunc12_rough_bergomi(benchmark):
    # transform --model rough_bergomi_approx --uX 0.3 --threshold inf, its closure built once
    pre = preset("rough_bergomi_approx")
    state = RiccatiState(GradedTensor.zero(1, 0), u_x=0.3)
    table = build_generator(12, 1, state, (pre.ell, pre.eta))

    def flow():
        return integrate_flow(state, 1.0, table, tol=1e-10, explosion_threshold=math.inf,
                              weight=pre.weight)

    out = benchmark.pedantic(flow, rounds=5, warmup_rounds=1)
    _record(benchmark, table, trunc=12, d=1, accepted_steps=out.steps, rejected=out.rejected,
            carried=out.carried)
