"""Per-layer timings of the generator table and the Riccati flow (pytest-benchmark).

Run from the repository root:

    PYTHONPATH=src python -m pytest benchmarks/bench_riccati.py -o python_files='bench_*.py'

The Tier-1 suite collects only test_*.py, so it never runs these.  Each case
stores the median seconds of one call and the table's Gamma term count in
the benchmark's extra_info, and the blow-up flow its microseconds per
accepted step; add --benchmark-json=FILE to keep them.  The
cases are the table and the blow-up flow of the riccati_flows workload, the
trunc-12 pure table of rough_bergomi_approx, its trunc-12 price-extended
table, one call of the blow-up flow's vector field, and the trunc-12
price-extended flow of rough_bergomi_approx.
"""

import math

import numpy as np

from sigvol.algebra import GradedTensor
from sigvol.models import preset
from sigvol.riccati import RiccatiState, build_generator, integrate_flow


def _record(benchmark, table, **info):
    # stats is None under --benchmark-disable, which runs each case once untimed
    benchmark.extra_info.update(median_s=benchmark.stats and benchmark.stats.stats.median,
                                gamma_terms=len(table.quad[0]),
                                state_dim=table.state_dim, **info)


def test_table_trunc9_extended_bs(benchmark):
    ell = GradedTensor(1, 0, {(): 0.2})

    def build():
        return build_generator(9, 1, (ell, np.array([1.0])))

    table = benchmark.pedantic(build, rounds=9, warmup_rounds=1)
    _record(benchmark, table, trunc=9, d=1)


def test_table_trunc12_pure(benchmark):
    def build():
        return build_generator(12, 1)

    table = benchmark.pedantic(build, rounds=3, warmup_rounds=1)
    _record(benchmark, table, trunc=12, d=1)


def test_table_trunc12_extended_rough_bergomi(benchmark):
    # the table transform --model rough_bergomi_approx --uX 0.3 builds at its shuffle window
    pre = preset("rough_bergomi_approx")

    def build():
        return build_generator(12, 1, (pre.ell, pre.eta))

    table = benchmark.pedantic(build, rounds=3, warmup_rounds=1)
    _record(benchmark, table, trunc=12, d=1)


def test_blowup_flow(benchmark):
    # E exp(2 <e_11, W_T>) blows up at T = 1/2
    pre = preset("first_order")
    table = build_generator(7, 1)
    state = RiccatiState(GradedTensor(1, 2, {(1, 1): 2.0}))

    def flow():
        return integrate_flow(state, 1.0, table, tol=1e-10, weight=pre.weight)

    out = benchmark.pedantic(flow, rounds=9, warmup_rounds=1)
    _record(benchmark, table, trunc=7, d=1, accepted_steps=out.steps, rejected=out.rejected,
            carried=out.carried, exploded_at=out.t_star,
            us_per_accepted_step=benchmark.stats and benchmark.stats.stats.median / out.steps * 1e6)


def test_vector_field_call(benchmark):
    # the field the blow-up flow steps: the closure of e_11 and the terms that read only it
    table = build_generator(7, 1)
    full = table.vector(GradedTensor(1, 2, {(1, 1): 2.0}))
    rhs = table.vector_field(full != 0.0)
    benchmark.pedantic(rhs, args=(full[rhs.live],), rounds=200, iterations=10, warmup_rounds=1)
    _record(benchmark, table, trunc=7, d=1, carried=len(rhs.live), terms=len(rhs.coeffs))


def test_flow_trunc12_rough_bergomi(benchmark):
    # transform --model rough_bergomi_approx --uX 0.3 --threshold inf, its table built once
    pre = preset("rough_bergomi_approx")
    table = build_generator(12, 1, (pre.ell, pre.eta))
    state = RiccatiState(GradedTensor.zero(1, 0), u_x=0.3)

    def flow():
        return integrate_flow(state, 1.0, table, tol=1e-10, explosion_threshold=math.inf,
                              weight=pre.weight)

    out = benchmark.pedantic(flow, rounds=5, warmup_rounds=1)
    _record(benchmark, table, trunc=12, d=1, accepted_steps=out.steps, rejected=out.rejected,
            carried=out.carried)
