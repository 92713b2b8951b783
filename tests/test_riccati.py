import hashlib
import math
from functools import cache

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from sigvol.algebra import EMPTY_WORD, GradedTensor, Weight
from sigvol.models import preset
from sigvol.riccati import (
    GeneratorTable,
    RiccatiState,
    ShuffleWindowError,
    X_LABEL,
    build_generator,
    integrate_flow,
    mc_transform,
)
from sigvol.sde import SigVolParams
from sigvol.signature import all_words

from _oracles import (
    RiccatiExplosion,
    build_generator_by_label,
    full_table,
    generator_regression,
    integrate_flow_full,
    lognormal_mgf,
    projection_compatibility,
    riccati_rhs,
    scalar_explosion_bound,
    transform_value,
    true_cov_matrix,
    true_drift_matrix,
    with_terms,
)


def scalar_quadratic_table(a: float) -> GeneratorTable:
    """Synthetic closure table of the empty word encoding y' = a y^2 on it."""
    table = with_terms(full_table(0, 1), {}, {(EMPTY_WORD, EMPTY_WORD, EMPTY_WORD): 2.0 * a})
    return table.closure(RiccatiState(GradedTensor.unit(1, 0)))


class TestBuildGenerator:
    """Entries of the label-keyed oracle table, to which TestCompiledForms ties
    build_generator bit for bit, and build_generator's rejections."""

    def test_drift_examples(self):
        table = build_generator_by_label(2, 2)
        assert table.b[((), (0,))] == 1.0
        assert table.b[((), (1, 1))] == 0.5
        assert table.b[((), (2, 2))] == 0.5
        assert table.b[((1,), (1, 0))] == 1.0
        assert ((), (1, 2)) not in table.b

    def test_gamma_examples(self):
        table = build_generator_by_label(2, 2)
        assert table.gamma[((), (1,), (1,))] == 1.0
        # mixed last letters never bracket
        assert ((), (1,), (2,)) not in table.gamma
        # words ending in the time letter have no martingale part
        assert all(j[-1] != 0 and k != X_LABEL or True for (_, j, k) in table.gamma
                   if j != X_LABEL)
        for (_, j, k) in table.gamma:
            if j != X_LABEL:
                assert j[-1] >= 1
            if k != X_LABEL:
                assert k[-1] >= 1

    def test_drift_lowers_length(self):
        table = build_generator_by_label(3, 2)
        for (out, src) in table.b:
            if src != X_LABEL:
                assert len(out) < len(src)

    def test_gamma_symmetric_storage(self):
        table = build_generator_by_label(3, 1)
        for (_, j, k) in table.gamma:
            if j != X_LABEL and k != X_LABEL:
                assert (len(j), j) <= (len(k), k)

    def test_pure_block_independent_of_ell(self):
        plain = build_generator_by_label(2, 1)
        ext = build_generator_by_label(2, 1, (GradedTensor(1, 1, {(): 0.2, (1,): 0.1}),
                                              np.array([1.0])))
        for key, val in plain.b.items():
            assert ext.b[key] == val
        for key, val in plain.gamma.items():
            assert ext.gamma[key] == val

    def test_extended_block_values(self):
        ell = GradedTensor(1, 1, {(): 0.2, (1,): 0.1})
        table = build_generator_by_label(2, 1, (ell, np.array([1.0])))
        # ell shuffle ell = 0.04 e + 0.04 e1 + 0.02 e11
        assert table.b[((), X_LABEL)] == pytest.approx(-0.5 * 0.04)
        assert table.gamma[((), X_LABEL, X_LABEL)] == pytest.approx(0.04)
        assert table.gamma[((1,), X_LABEL, X_LABEL)] == pytest.approx(2 * 0.2 * 0.1)
        assert table.gamma[((1, 1), X_LABEL, X_LABEL)] == pytest.approx(2 * 0.01)
        # Gamma(X, Y_(1)) = eta_1 * ell shuffle e_empty
        assert table.gamma[((), (1,), X_LABEL)] == pytest.approx(0.2)
        assert table.gamma[((1,), (1,), X_LABEL)] == pytest.approx(0.1)

    def test_window_guard(self):
        ell = GradedTensor(1, 1, {(1,): 0.1})
        with pytest.raises(ShuffleWindowError):
            build_generator(1, 1, RiccatiState(GradedTensor.zero(1, 0), u_x=1.0),
                            (ell, np.array([1.0])))

    @pytest.mark.parametrize("eta", [math.nan, math.inf, 1e308])
    def test_non_finite_eta_rejected(self, eta):
        # eta * (ell shuffle e_J) is the one coefficient no tensor checks: the closure of
        # e_1 and X holds Gamma(Y_1, X) = eta * 10 on the empty word, and 1e308 * 10 overflows
        ell = GradedTensor(1, 0, {(): 10.0})
        start = RiccatiState(GradedTensor(1, 1, {(1,): 1.0}), u_x=1.0)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="eta must be finite"):
            build_generator(2, 1, start, (ell, np.array([eta])))

    def test_overflowing_ell_square_rejected(self):
        # ell shuffle ell = 1e400 on the empty word, built once X is live
        ell = GradedTensor(1, 0, {(): 1e200})
        with pytest.raises(ValueError, match="eta must be finite"):
            build_generator(2, 1, RiccatiState(GradedTensor.zero(1, 0), u_x=0.5),
                            (ell, np.array([1.0])))

    def test_term_outside_the_closure_is_never_built(self):
        # with X and no Brownian word live no eta * (ell shuffle e_J) term is built, so the
        # overflowing eta * 10 of Gamma(Y_1, X) is never formed
        ell = GradedTensor(1, 0, {(): 10.0})
        table = build_generator(2, 1, RiccatiState(GradedTensor.zero(1, 0), u_x=1.0),
                                (ell, np.array([1e308])))
        assert table.labels == [(), X_LABEL]

    def test_direction_outside_the_closure_rejected(self):
        table = build_generator(2, 1, RiccatiState(GradedTensor(1, 1, {(1,): 1.0})))
        with pytest.raises(ValueError, match="outside the table's closure"):
            integrate_flow(RiccatiState(GradedTensor(1, 1, {(0,): 1.0})), 1.0, table)


def field_bytes(table: GeneratorTable) -> list:
    """dtypes and bytes of the closure field's arrays."""
    f = table.field
    return [(a.dtype, a.tobytes()) for a in (f.live, f.out, f.in1, f.in2, f.coeffs)]


def dense_start(d: int, trunc: int, u_x=None) -> RiccatiState:
    """A direction on every word up to trunc, and on X when u_x is given."""
    return RiccatiState(GradedTensor(d, trunc, {w: 1.0 for w in all_words(d, trunc)}), u_x)


class TestCompileOrder:
    @pytest.mark.parametrize("d, trunc, extended", [
        (1, 6, False), (2, 4, False), (3, 3, False), (1, 6, True), (2, 4, True), (3, 2, True)])
    def test_integer_sort_is_label_sort(self, d, trunc, extended):
        # a dense start makes every coordinate live, so the closure field holds the whole
        # table in the order of its labels
        ell = GradedTensor(d, 1, {(): 0.2, (1,): 0.1, (d,): -0.05})
        eta = np.eye(d)[d - 1]
        ext = (ell, eta) if extended else None
        start = dense_start(d, trunc, 1.0 if extended else None)
        table = build_generator(trunc, d, start, ext)
        oracle = full_table(trunc, d, ext)
        assert table.state_dim == oracle.state_dim
        assert field_bytes(table) == field_bytes(oracle.closure(start))


@st.composite
def closure_cases(draw):
    """Random (trunc, d, extended, start): sparse and dense supports, X with and without
    words, ell words of one length, zero eta components, and ell sums that cancel."""
    d = draw(st.integers(1, 3))
    trunc = draw(st.integers(0, {1: 7, 2: 5, 3: 4}[d]))
    if draw(st.booleans()):
        coeffs = {w: 1.0 for w in all_words(d, draw(st.integers(0, trunc)))}
    else:
        words = st.lists(st.integers(0, d), max_size=trunc).map(tuple)
        coeffs = draw(st.dictionaries(words, st.sampled_from([0.5, -2.0, 1.0]), max_size=3))
    if not draw(st.booleans()):
        return trunc, d, None, RiccatiState(GradedTensor(d, trunc, coeffs))
    deg = draw(st.integers(0, trunc // 2))
    ell_words = st.lists(st.integers(0, d), max_size=deg).map(tuple)
    ell = draw(st.dictionaries(ell_words, st.floats(-2.0, 2.0).filter(bool), max_size=4))
    if deg >= 2 and draw(st.booleans()):
        # a word and its reversal with opposite coefficients: both shuffled with e_J' reach
        # some words with one multiplicity each, whose sums are then exactly 0.0
        u = tuple(draw(st.lists(st.integers(0, d), min_size=2, max_size=deg)))
        c = draw(st.sampled_from([0.3, -1.5]))
        ell.update({u: c, u[::-1]: -c})
    eta = draw(st.lists(st.sampled_from([0.0, 1.0, -0.5, 0.3]), min_size=d, max_size=d))
    u_x = draw(st.sampled_from([None, 0.0, 0.7, -1.2]))
    return (trunc, d, (GradedTensor(d, deg, ell), np.array(eta)),
            RiccatiState(GradedTensor(d, trunc, coeffs), u_x))


@cache
def rough_bergomi_trunc12() -> GeneratorTable:
    """rough_bergomi_approx's closure table of --uX 0.3 at its shuffle window, trunc 12."""
    pre = preset("rough_bergomi_approx")
    return build_generator(12, 1, RiccatiState(GradedTensor.zero(1, 0), u_x=0.3),
                           (pre.ell, pre.eta))


class TestCompiledForms:
    """build_generator's closure table, arrays and dtypes, is the label oracle's bit for bit:
    the whole label table cut down by the closure fixpoint."""

    @settings(max_examples=60, deadline=None)
    @given(closure_cases())
    def test_bit_identical_to_label_oracle(self, case):
        trunc, d, extended, start = case
        table = build_generator(trunc, d, start, extended)
        want = full_table(trunc, d, extended).closure(start)
        assert field_bytes(table) == field_bytes(want)
        assert table.labels == want.labels and table.extended == want.extended

    def test_cancelling_ell_sum_dropped(self):
        # (1.2 shuffle e_1) and (2.1 shuffle e_1) both hold 1.2.1 once, so with ell's
        # coefficients 0.3 and -0.3 Gamma(Y_1.1, X) has no term on 1.2.1
        ell = GradedTensor(2, 2, {(1, 2): 0.3, (2, 1): -0.3})
        extended = (ell, np.array([1.0, 1.0]))
        start = RiccatiState(GradedTensor(2, 2, {(1, 1): 1.0}), u_x=1.0)
        assert ((1, 2, 1), (1, 1), X_LABEL) not in build_generator_by_label(6, 2, extended).gamma
        table = build_generator(6, 2, start, extended)
        assert field_bytes(table) == field_bytes(full_table(6, 2, extended).closure(start))

    def test_trunc12_rough_bergomi_closure_digest(self):
        # taken from the full table's closure fixpoint (59 coordinates, 439 terms, 330 Gamma)
        table = rough_bergomi_trunc12()
        assert (table.state_dim, len(table.field.coeffs), len(table.gamma)) == (59, 439, 330)
        digest = hashlib.sha256()
        for dtype, data in field_bytes(table):
            digest.update(str(dtype).encode())
            digest.update(data)
        assert digest.hexdigest() == (
            "ef433ea3bdbbb6557640f14529cf48bad735a5b2abd98858d449e1185d975ec3")

    @pytest.mark.parametrize("trunc", [13, 16])
    def test_rough_bergomi_closure_stops_growing(self, trunc):
        # past the window the closure is the same 59 coordinates and 439 terms
        pre = preset("rough_bergomi_approx")
        table = build_generator(trunc, 1, RiccatiState(GradedTensor.zero(1, 0), u_x=0.3),
                                (pre.ell, pre.eta))
        assert table.labels == rough_bergomi_trunc12().labels
        assert len(table.field.coeffs) == 439


class TestMCGeneratorOracle:
    # The 0.1 absolute floor covers multiple-comparison dust at this small
    # sample size (SE bands over ~1200 correlated entries with ~t(11) tails);
    # the acceptance suite re-runs the oracle at full size with a 0.02 floor.
    # A wrong structural constant misses by >= 0.5, far above either floor.

    def test_pure_signature_block_with_level3_drift(self):
        # drift targets up to |I| = 3 regressed on level <= 2 coordinates,
        # which span every conditional step mean for those targets
        words, targets, pairs, dm, dse, cm, cse = generator_regression(
            d=2, design_depth=2, steps=32, n_paths_per_group=1200, n_groups=12,
            seed=45, target_depth=3)
        table = build_generator_by_label(3, 2)
        bt, _ = true_drift_matrix(table, words, targets)
        ct = true_cov_matrix(table, words, pairs)
        assert np.all(np.abs(dm - bt) <= 3.0 * dse + 0.1)
        assert np.all(np.abs(cm - ct) <= 3.0 * cse + 0.1)

    def test_extended_block(self):
        pre = preset("first_order", sigma0=0.25, sigma1=0.15)
        table = build_generator_by_label(2, 1, (pre.ell, pre.eta))
        words, targets, pairs, dm, dse, cm, cse = generator_regression(
            d=1, design_depth=2, steps=32, n_paths_per_group=1500, n_groups=12,
            seed=84, extended=(pre.ell, pre.eta, 1.0))
        bt, _ = true_drift_matrix(table, words, targets, extended=True)
        ct = true_cov_matrix(table, words, pairs)
        assert np.all(np.abs(dm - bt) <= 3.0 * dse + 0.1)
        assert np.all(np.abs(cm - ct) <= 3.0 * cse + 0.1)


class TestRhs:
    def test_zero_state(self):
        state = RiccatiState(GradedTensor.zero(2, 2))
        out = riccati_rhs(state, build_generator(2, 2, state))
        assert not out.sig.coeffs

    def test_bs_empty_component(self):
        ell = GradedTensor(1, 0, {(): 0.2})
        state = RiccatiState(GradedTensor.zero(1, 0), u_x=2.0)
        out = riccati_rhs(state, build_generator(2, 1, state, (ell, np.array([1.0]))))
        assert out.sig[()] == pytest.approx(0.5 * 0.04 * (4.0 - 2.0))
        assert out.u_x == pytest.approx(0.0)

    def test_level1_quadratic_lands_on_level0(self):
        state = RiccatiState(GradedTensor(1, 1, {(1,): 3.0}))
        out = riccati_rhs(state, build_generator(2, 1, state))
        # half * Gamma^empty_{(1),(1)} * 3 * 3 = 4.5
        assert out.sig[()] == pytest.approx(4.5)
        assert out.sig.support_degree == 0


class TestIntegrateFlow:
    def test_linear_table_matches_matrix_exponential(self):
        rng = np.random.default_rng(21)
        table = full_table(2, 1)
        n = table.state_dim
        mat = rng.normal(size=(n, n)) * 0.4
        with_terms(table, {(out, src): mat[i, j] for i, out in enumerate(table.words)
                           for j, src in enumerate(table.words)}, {})
        u0 = rng.normal(size=n)
        state = RiccatiState(GradedTensor(1, 2, {w: u0[i] for i, w in enumerate(table.words)}))
        out = integrate_flow(state, 1.0, table.closure(state), tol=1e-11)
        assert out.solved
        expected = scipy.linalg.expm(mat) @ u0
        got = table.vector(out.state.sig, out.state.u_x)
        assert np.max(np.abs(got - expected)) < 1e-8

    def test_scalar_blowup_time(self):
        out = integrate_flow(RiccatiState(GradedTensor(1, 0, {(): 1.0})), 2.0,
                             scalar_quadratic_table(1.0), tol=1e-10)
        assert not out.solved
        assert 0.99 <= out.t_star <= 1.0
        assert out.norm_at_detection > 1e6

    def test_bs_flow_value(self):
        ell = GradedTensor(1, 0, {(): 0.2})
        state = RiccatiState(GradedTensor.zero(1, 0), u_x=2.0)
        table = build_generator(2, 1, state, (ell, np.array([1.0])))
        out = integrate_flow(state, 1.0, table, tol=1e-12)
        assert out.solved
        assert out.state.sig[()] == pytest.approx(0.04, abs=1e-10)
        assert out.state.u_x == pytest.approx(2.0)

    def test_detection_before_comparison_deadline(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            a = float(rng.uniform(0.5, 3.0))
            y0 = float(rng.uniform(0.5, 3.0))
            out = integrate_flow(RiccatiState(GradedTensor(1, 0, {(): y0})), 10.0,
                                 scalar_quadratic_table(a), tol=1e-9)
            assert not out.solved
            true_star = 1.0 / (a * y0)
            assert out.t_star < scalar_explosion_bound(a, y0)
            assert abs(out.t_star - true_star) < 0.02 * true_star

    def test_trace_recorded(self):
        state = RiccatiState(GradedTensor(1, 1, {(0,): 0.5}))
        out = integrate_flow(state, 1.0, build_generator(1, 1, state))
        assert len(out.trace) == out.steps + 1

    def test_step_underflow_reported_as_exploded(self):
        # with the norm threshold disabled, the integrator rides the blow-up
        # until float overflow forces halving below the step floor
        out = integrate_flow(RiccatiState(GradedTensor(1, 0, {(): 1.0})), 2.0,
                             scalar_quadratic_table(1.0), tol=1e-9,
                             explosion_threshold=math.inf)
        assert not out.solved
        assert "underflow" in out.detail
        assert out.t_star == pytest.approx(1.0, abs=1e-3)

    def test_rough_bergomi_trunc12_pin(self):
        # transform --model rough_bergomi_approx --uX 0.3 --threshold inf, at its default
        # trunc 12 (the shuffle window): 59 of 8193 coordinates carried
        out = integrate_flow(RiccatiState(GradedTensor.zero(1, 0), u_x=0.3), 1.0,
                             rough_bergomi_trunc12(), tol=1e-10, explosion_threshold=math.inf,
                             weight=preset("rough_bergomi_approx").weight)
        assert out.solved and (out.steps, out.rejected, out.carried) == (426, 31, 59)
        assert f"{math.exp(out.state.sig[EMPTY_WORD]):.17g}" == "0.99376763711576599"  # s0 = 1


@cache
def flow_tables(d: int, trunc: int, extended: bool) -> tuple:
    """(ell, eta) or None, and the full oracle table of it."""
    if not extended:
        return None, full_table(trunc, d)
    ell = GradedTensor(d, 1, {(): 0.2, (d,): 0.3}) if trunc >= 2 else GradedTensor(d, 0, {(): 0.2})
    return (ell, np.eye(d)[0]), full_table(trunc, d, (ell, np.eye(d)[0]))


def assert_same_flow(got, want):
    """Bit-identical outcome, trace and statistics; live is the only field allowed to differ.

    got's trace holds its carried vectors, want's the full states: each carried vector,
    expanded through got.live, is want's state byte for byte.
    """
    assert (got.solved, got.steps, got.t_star, got.norm_at_detection, got.detail) == (
        want.solved, want.steps, want.t_star, want.norm_at_detection, want.detail)
    assert (got.rejected, got.min_step, got.max_step) == (want.rejected, want.min_step, want.max_step)
    assert np.all(np.diff(got.live) > 0)
    assert len(got.trace) == len(want.trace)
    for k, ((t_got, v_got), (t_want, u_want)) in enumerate(zip(got.trace, want.trace)):
        assert t_got == t_want and v_got.tobytes() == u_want[got.live].tobytes()
        outside = np.delete(u_want, got.live)
        # +0.0 bits everywhere else; only the start may hold a -0.0 of the direction, which is
        # outside its support and which the carried trace leaves out
        assert not outside.any() and (k == 0 or not np.signbit(outside).any())
    if want.solved:
        assert got.state.sig.coeffs == want.state.sig.coeffs
        assert repr(got.state.u_x) == repr(want.state.u_x)


@st.composite
def flow_cases(draw):
    d = draw(st.sampled_from([1, 2]))
    trunc = draw(st.integers(0, 5 if d == 1 else 4))
    extended = draw(st.booleans())
    words = st.lists(st.integers(0, d), max_size=trunc).map(tuple)
    nonzero = st.floats(-4.0, 4.0).filter(bool)
    coeffs = draw(st.dictionaries(words, nonzero, min_size=1, max_size=3))
    u_x = draw(nonzero) if extended else None
    horizon = draw(st.floats(0.05, 2.0))
    threshold = draw(st.sampled_from([1e6, 10.0, 1.0]))
    # w(n) is fixed once per flow, the oracle calls it on every norm
    weight = draw(st.one_of(st.none(), st.floats(1.0, 3.0).map(Weight.geometric),
                            st.floats(0.0, 3.0).map(Weight.polynomial)))
    state = RiccatiState(GradedTensor(d, trunc, coeffs), u_x)
    return trunc, d, extended, state, horizon, threshold, weight


class TestFlowMatchesFullState:
    """integrate_flow on build_generator's closure table must not differ by a bit from the
    flow of every coordinate of the oracle's full table while every product of a dropped
    term is finite."""

    @settings(max_examples=80)
    @given(flow_cases())
    def test_random_sparse_directions(self, case):
        trunc, d, extended, state, horizon, threshold, weight = case
        ext, oracle = flow_tables(d, trunc, extended)
        kwargs = dict(explosion_threshold=threshold, weight=weight)
        assert_same_flow(integrate_flow(state, horizon, build_generator(trunc, d, state, ext),
                                        **kwargs),
                         integrate_flow_full(state, horizon, oracle, **kwargs))

    def test_zero_direction(self):
        ext, oracle = flow_tables(2, 4, True)
        # -0.0 is outside the support: the oracle's trace starts from it, the carried one
        # holds no coordinate
        state = RiccatiState(GradedTensor.zero(2, 0), u_x=-0.0)
        got = integrate_flow(state, 1.0, build_generator(4, 2, state, ext))
        assert got.solved and got.carried == 0 and got.rejected == 0
        assert_same_flow(got, integrate_flow_full(state, 1.0, oracle))

    def test_overflow_against_unreached_word(self):
        # u_(0) = 1 and u_(1) = 1 + tau.  The Gamma term reads u_(1) and the unreached empty
        # word; its coefficient times u_(1) overflows once u_(1) > 1.5.  integrate_flow_full
        # multiplies that inf by the empty word's 0.0, gets NaN and rejects every step from
        # tau = 0.5 on; the closure never carries the term and solves the exact flow
        table = with_terms(full_table(1, 1), {((1,), (0,)): 1.0},
                           {((), (1,), ()): np.finfo(float).max / 1.5})
        state = RiccatiState(GradedTensor(1, 1, {(0,): 1.0, (1,): 1.0}))
        got = integrate_flow(state, 2.0, table.closure(state), explosion_threshold=math.inf)
        assert got.solved and got.carried == 2 and got.rejected == 0
        assert got.state.sig.coeffs == {(0,): 1.0, (1,): 3.0}
        with np.errstate(over="ignore", invalid="ignore"):
            full = integrate_flow_full(state, 2.0, table, explosion_threshold=math.inf)
        assert not full.solved and full.t_star == pytest.approx(0.5, abs=1e-6)

    def test_riccati_flows_blowup_config(self):
        pre = preset("first_order")
        state = RiccatiState(GradedTensor(1, 2, {(1, 1): 2.0}))
        kwargs = dict(tol=1e-10, explosion_threshold=1e6, weight=pre.weight)
        got = integrate_flow(state, 1.0, build_generator(7, 1, state), **kwargs)
        assert not got.solved and got.carried == 2
        assert got.min_step <= got.max_step
        assert_same_flow(got, integrate_flow_full(state, 1.0, full_table(7, 1), **kwargs))


class TestTransformValue:
    def test_zero_direction(self):
        state = RiccatiState(GradedTensor.zero(1, 0))
        assert transform_value(state, 1.0, build_generator(2, 1, state)) == 1.0

    def test_bs_matches_lognormal_mgf(self):
        sigma, s0, horizon = 0.2, 1.3, 1.0
        ell = GradedTensor(1, 0, {(): sigma})
        for u in (-1.0, 0.5, 2.0):
            state = RiccatiState(GradedTensor.zero(1, 0), u_x=u)
            table = build_generator(2, 1, state, (ell, np.array([1.0])))
            got = transform_value(state, horizon, table, x0=math.log(s0))
            assert got == pytest.approx(lognormal_mgf(u, s0, sigma, horizon), rel=1e-8)

    def test_time_word_direction(self):
        state = RiccatiState(GradedTensor(1, 1, {(0,): 0.7}))
        got = transform_value(state, 1.0, build_generator(2, 1, state))
        assert got == pytest.approx(math.exp(0.7), rel=1e-9)

    def test_explosion_propagates(self):
        with pytest.raises(RiccatiExplosion):
            transform_value(RiccatiState(GradedTensor(1, 0, {(): 1.0})), 2.0,
                            scalar_quadratic_table(1.0))


class TestTransformVsMC:
    def test_brownian_square_direction(self):
        # E exp(c W_T^2 / 2) = (1 - c T)^(-1/2) and <e_11, W> = W^2/2
        c, horizon = 0.4, 1.0
        state = RiccatiState(GradedTensor(1, 2, {(1, 1): c}))
        got = transform_value(state, horizon, build_generator(2, 1, state), tol=1e-11)
        assert got == pytest.approx((1.0 - c * horizon) ** -0.5, rel=1e-8)

    def test_first_order_directions_within_mc_ci(self):
        pre = preset("first_order")
        params = SigVolParams(pre.ell, pre.weight, 1.0, pre.eta, 1.0, 256)
        directions = [
            RiccatiState(GradedTensor(1, 1, {(1,): 0.4}), u_x=0.0),
            RiccatiState(GradedTensor.zero(1, 0), u_x=0.5),
            RiccatiState(GradedTensor.zero(1, 0), u_x=-0.5),
            RiccatiState(GradedTensor(1, 1, {(0,): 0.3}), u_x=0.25),
        ]
        for k, state in enumerate(directions):
            table = build_generator(3, 1, state, (pre.ell, pre.eta))
            lam = transform_value(state, 1.0, table, tol=1e-11)
            mc = mc_transform(state, params, 30_000, seed=300 + k)
            assert abs(lam - mc.mean) <= 3.0 * mc.se, (lam, mc)


def _gauss_exact_transform(u, sigma0, sigma1, horizon, m):
    """Exact E[exp(u X_T)] for the left-point grid scheme, s0 = 1.

    The grid log-price is an explicit quadratic form in the standard normal
    increment vector Z: with W = L Z the left-point Brownian values,
    u X = Z' M Z + l' Z + c0, and the Gaussian closed form is
    exp(c0) det(I - 2M)^(-1/2) exp(l' (I - 2M)^(-1) l / 2).  Completely
    independent of the tensor-coordinate machinery.
    """
    h = horizon / m
    lower = np.tril(np.full((m, m), math.sqrt(h)), k=-1)
    ones = np.ones(m)
    mat = u * (math.sqrt(h) * sigma1 * 0.5 * (lower + lower.T)
               - 0.5 * h * sigma1**2 * (lower.T @ lower))
    lin = u * (sigma0 * math.sqrt(h) * ones - h * sigma0 * sigma1 * (lower.T @ ones))
    c0 = -0.5 * u * sigma0**2 * horizon
    vals, vecs = np.linalg.eigh(mat)
    if vals[-1] >= 0.5:
        return math.inf
    lt = vecs.T @ lin
    log_val = (c0 - 0.5 * np.sum(np.log1p(-2.0 * vals))
               + 0.5 * np.sum(lt**2 / (1.0 - 2.0 * vals)))
    return math.exp(log_val)


class TestTransformVsGaussianClosedForm:
    """Noise-free dual route: Riccati flow vs exact Gaussian quadratic form."""

    def test_first_order_machine_agreement(self):
        pre = preset("first_order")
        for u in (0.5, -0.5, 1.5, 2.0, -1.0):
            state = RiccatiState(GradedTensor.zero(1, 0), u_x=u)
            table = build_generator(3, 1, state, (pre.ell, pre.eta))
            ric = transform_value(state, 1.0, table, x0=0.0, tol=1e-12)
            grids = [_gauss_exact_transform(u, 0.2, 0.1, 1.0, m) for m in (128, 256, 512)]
            # quadratic-in-h extrapolation to the continuum
            extrap = grids[0] / 3.0 - 2.0 * grids[1] + 8.0 * grids[2] / 3.0
            assert abs(ric - extrap) / extrap < 1e-9, (u, ric, extrap)

    def test_explosion_classification_agrees(self):
        pre = preset("first_order")

        def flow(u_x):
            state = RiccatiState(GradedTensor.zero(1, 0), u_x=u_x)
            return integrate_flow(state, 1.0, build_generator(3, 1, state, (pre.ell, pre.eta)),
                                  tol=1e-10)

        solvable = flow(10.0)
        assert solvable.solved
        assert math.isfinite(_gauss_exact_transform(10.0, 0.2, 0.1, 1.0, 512))
        exploding = flow(15.0)
        assert not exploding.solved
        assert _gauss_exact_transform(15.0, 0.2, 0.1, 1.0, 512) == math.inf


class TestProjectionCompatibility:
    def test_zero_state(self):
        assert projection_compatibility(RiccatiState(GradedTensor.zero(2, 0)), 5, 3, 2)

    @settings(max_examples=25)
    @given(st.fixed_dictionaries({w: st.floats(-3.0, 3.0) for w in [(), (1,), (2,), (0,)]}))
    def test_random_admissible_states_exact(self, coeffs):
        assert projection_compatibility(RiccatiState(GradedTensor(2, 1, coeffs)), 5, 3, 2)

    @settings(max_examples=25)
    @given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
    def test_extended_random_states_exact(self, c0, c1, u_x):
        pre = preset("first_order")
        state = RiccatiState(GradedTensor(1, 1, {(): c0, (1,): c1}), u_x=u_x)
        assert projection_compatibility(state, 5, 3, 1, (pre.ell, pre.eta))

    def test_window_violation_raises(self):
        state = RiccatiState(GradedTensor(2, 2, {(1, 2): 1.0}))
        with pytest.raises(ShuffleWindowError):
            projection_compatibility(state, 5, 2, 2)

    def test_support_above_m_rejected(self):
        state = RiccatiState(GradedTensor(2, 4, {(1, 1, 1, 1): 1.0}))
        with pytest.raises(ShuffleWindowError):
            projection_compatibility(state, 5, 3, 2)


class TestScalarExplosionBound:
    def test_plug_in(self):
        assert scalar_explosion_bound(2.0, 1.0) == pytest.approx(1.0)

    def test_monotone_in_y0(self):
        assert scalar_explosion_bound(1.0, 100.0) < scalar_explosion_bound(1.0, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            scalar_explosion_bound(-1.0, 1.0)
