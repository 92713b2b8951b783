import hashlib
import math
import warnings
from dataclasses import replace
from functools import cache

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from sigvol.algebra import EMPTY_WORD, GradedTensor
from sigvol.models import preset
from sigvol.riccati import (
    STEP_FLOOR,
    GeneratorTable,
    RiccatiState,
    ShuffleWindowError,
    X_LABEL,
    build_generator,
    integrate_flow,
    mc_transform,
)
from sigvol.signature import all_words

from _oracles import (
    FullTable,
    RiccatiExplosion,
    build_generator_by_label,
    final_state,
    first_order_blowup_time,
    flow_model,
    full_table,
    gaussian_transform,
    generator_regression,
    integrate_flow_full,
    lognormal_mgf,
    preset_model,
    projection_compatibility,
    riccati_rhs,
    richardson,
    scalar_explosion_bound,
    transform_value,
    true_cov_matrix,
    true_drift_matrix,
    with_terms,
)


def scalar_quadratic_table(a: float, y0: float = 1.0, horizon: float = 2.0) -> GeneratorTable:
    """Synthetic closure table of the empty word from y0, encoding y' = a y^2 on it up to
    horizon."""
    table = with_terms(full_table(0, flow_model(1, horizon=horizon)), {},
                       {(EMPTY_WORD, EMPTY_WORD, EMPTY_WORD): 2.0 * a})
    return table.closure(RiccatiState(GradedTensor(1, {EMPTY_WORD: y0})))


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
        ext = build_generator_by_label(2, 1, (GradedTensor(1, {(): 0.2, (1,): 0.1}),
                                              np.array([1.0])))
        for key, val in plain.b.items():
            assert ext.b[key] == val
        for key, val in plain.gamma.items():
            assert ext.gamma[key] == val

    def test_extended_block_values(self):
        ell = GradedTensor(1, {(): 0.2, (1,): 0.1})
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
        # with X live the window is 2*deg(ell) = 2 here, and the exact line the CLI prints
        ell = GradedTensor(1, {(1,): 0.1})
        with pytest.raises(ShuffleWindowError, match=r"^truncation 1 below the shuffle window 2$"):
            build_generator(RiccatiState(GradedTensor.zero(1), u_x=1.0), flow_model(1, ell), 1)

    @pytest.mark.parametrize("start, ell, window", [
        (RiccatiState(GradedTensor(2, {(1, 2): 1.0})), None, 4),
        (RiccatiState(GradedTensor(1, {(0,): 0.5})), None, 2),
        (RiccatiState(GradedTensor(1, {(1,): 1.0}), u_x=0.5), GradedTensor(1, {(1,): 0.1}),
         3),
        (RiccatiState(GradedTensor.zero(1), u_x=0.5), GradedTensor(1, {(1, 0, 0): 0.1}), 6),
        # ell is not read while X is not live
        (RiccatiState(GradedTensor(1, {(1,): 1.0}), u_x=0.0),
         GradedTensor(1, {(1, 0, 0): 0.1}), 2),
    ], ids=["pure-deg2", "pure-deg1", "price-deg1", "price-ell-deg3", "X-not-live"])
    def test_window_and_default_truncation(self, start, ell, window):
        params = flow_model(start.sig.dim, ell)
        with pytest.raises(ShuffleWindowError, match=rf"^truncation {window - 1} below the shuffle "
                                                      rf"window {window}$"):
            build_generator(start, params, window - 1)
        assert build_generator(start, params, window).trunc == window
        assert build_generator(start, params).trunc == max(window, 2)

    def test_default_truncation_is_at_least_two(self):
        params = flow_model(1)
        for start in (RiccatiState(GradedTensor.zero(1)), RiccatiState(GradedTensor.unit(1))):
            assert build_generator(start, params).trunc == 2
        assert build_generator(RiccatiState(GradedTensor.zero(1)), params, 0).trunc == 0

    @pytest.mark.parametrize("eta", [math.nan, math.inf, 1e308])
    def test_non_finite_eta_rejected(self, eta):
        # the model takes only a unit eta, so no eta that would make eta * (ell shuffle e_J)
        # overflow reaches a table
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="unit vector"):
            flow_model(1, GradedTensor(1, {(): 10.0}), np.array([eta]))

    def test_overflowing_ell_square_rejected(self):
        # ell shuffle ell = 1e400 on the empty word, built once X is live
        ell = GradedTensor(1, {(): 1e200})
        with pytest.raises(ValueError, match="ell is too large"):
            build_generator(RiccatiState(GradedTensor.zero(1), u_x=0.5), flow_model(1, ell), 2)

    def test_term_outside_the_closure_is_never_built(self):
        # with X and no Brownian word live no eta * (ell shuffle e_J) term is built: the
        # closure is the empty word and X, with the two terms of ell shuffle ell alone
        ell = GradedTensor(1, {(): 10.0})
        start = RiccatiState(GradedTensor.zero(1), u_x=1.0)
        table = build_generator(start, flow_model(1, ell), 2)
        assert table.labels == [(), X_LABEL]
        assert len(table.field.coeffs) == 2 and len(table.gamma) == 1

    def test_non_finite_u_x_rejected(self):
        for u_x in (math.nan, math.inf):
            with pytest.raises(ValueError, match="u_x must be finite"):
                build_generator(RiccatiState(GradedTensor.zero(1), u_x=u_x), flow_model(1))

    def test_start_vector_recorded(self):
        # the table records the start's carried vector, X last, and the model
        params = flow_model(1, GradedTensor(1, {(): 0.2}))
        start = RiccatiState(GradedTensor(1, {(1,): -0.5, (0,): 0.25}), u_x=1.5)
        table = build_generator(start, params)
        assert table.params is params
        got = dict(zip(table.labels, table.u0.tolist()))
        assert {label: c for label, c in got.items() if c != 0.0} == {(0,): 0.25, (1,): -0.5,
                                                                     X_LABEL: 1.5}


def field_bytes(table: GeneratorTable) -> list:
    """dtypes and bytes of the closure field's arrays."""
    f = table.field
    return [(a.dtype, a.tobytes()) for a in (f.live, f.out, f.in1, f.in2, f.coeffs)]


def dense_start(d: int, trunc: int, u_x=None) -> RiccatiState:
    """A direction on every word up to trunc, and on X when u_x is given."""
    return RiccatiState(GradedTensor(d, {w: 1.0 for w in all_words(d, trunc)}), u_x)


class TestCompileOrder:
    @pytest.mark.parametrize("d, trunc, extended", [
        (1, 6, False), (2, 6, False), (1, 6, True), (2, 4, True), (3, 2, True)])
    def test_integer_sort_is_label_sort(self, d, trunc, extended):
        # every coordinate is live, so the closure field holds the whole table in the order
        # of its labels.  Without X a dense start of degree trunc / 2 >= 3 reaches every
        # word; with X, ell on every word up to trunc / 2 does, through ell shuffle ell
        ell = GradedTensor(d, {w: 1.0 for w in all_words(d, trunc // 2)})
        params = flow_model(d, ell, np.full(d, d**-0.5))
        start = dense_start(d, trunc // 4 if extended else trunc // 2, 1.0 if extended else None)
        table = build_generator(start, params, trunc)
        oracle = full_table(trunc, params, extended)
        assert table.state_dim == oracle.state_dim
        assert field_bytes(table) == field_bytes(oracle.closure(start))


# unit vectors, some with zero components, as the model takes them
UNIT_ETAS = {1: [(1.0,), (-1.0,)], 2: [(1.0, 0.0), (0.0, 1.0), (0.6, 0.8), (0.8, -0.6)],
             3: [(1.0, 0.0, 0.0), (0.0, 0.0, 1.0), (0.0, 0.6, 0.8), (0.48, 0.6, -0.64)]}


@st.composite
def closure_cases(draw):
    """Random (trunc, model, start) with trunc at or above the start's shuffle window:
    sparse and dense supports, X with and without words, ell words of one length, zero eta
    components, and ell sums that cancel."""
    d = draw(st.integers(1, 3))
    trunc = draw(st.integers(0, {1: 7, 2: 5, 3: 4}[d]))
    extended = draw(st.booleans())
    deg = draw(st.integers(0, trunc // 2)) if extended else 0
    u_x = draw(st.sampled_from([None, 0.0, 0.7, -1.2])) if extended else None
    # the window: twice the start's degree, plus deg(ell) when X is live
    top = (trunc - deg) // 2 if u_x else trunc // 2
    if draw(st.booleans()):
        coeffs = {w: 1.0 for w in all_words(d, draw(st.integers(0, top)))}
    else:
        words = st.lists(st.integers(0, d), max_size=top).map(tuple)
        coeffs = draw(st.dictionaries(words, st.sampled_from([0.5, -2.0, 1.0]), max_size=3))
    ell_words = st.lists(st.integers(0, d), max_size=deg).map(tuple)
    ell = draw(st.dictionaries(ell_words, st.floats(-2.0, 2.0).filter(bool), max_size=4))
    if deg >= 2 and draw(st.booleans()):
        # a word and its reversal with opposite coefficients: both shuffled with e_J' reach
        # some words with one multiplicity each, whose sums are then exactly 0.0
        u = tuple(draw(st.lists(st.integers(0, d), min_size=2, max_size=deg)))
        c = draw(st.sampled_from([0.3, -1.5]))
        ell.update({u: c, u[::-1]: -c})
    eta = np.array(draw(st.sampled_from(UNIT_ETAS[d])))
    return (trunc, flow_model(d, GradedTensor(d, ell), eta),
            RiccatiState(GradedTensor(d, coeffs), u_x))


@cache
def rough_bergomi_trunc12() -> GeneratorTable:
    """rough_bergomi_approx's closure table of --uX 0.3 at its shuffle window, trunc 12."""
    return build_generator(RiccatiState(GradedTensor.zero(1), u_x=0.3),
                           preset_model("rough_bergomi_approx"))


class TestCompiledForms:
    """build_generator's closure table, arrays and dtypes, is the label oracle's bit for bit:
    the whole label table cut down by the closure fixpoint."""

    @settings(max_examples=60, deadline=None)
    @given(closure_cases())
    def test_bit_identical_to_label_oracle(self, case):
        trunc, params, start = case
        table = build_generator(start, params, trunc)
        want = full_table(trunc, params, extended=True).closure(start)
        assert field_bytes(table) == field_bytes(want)
        assert table.labels == want.labels and table.u0.tobytes() == want.u0.tobytes()

    def test_cancelling_ell_sum_dropped(self):
        # (1.2 shuffle e_1) and (2.1 shuffle e_1) both hold 1.2.1 once, so with ell's
        # coefficients 0.3 and -0.3 Gamma(Y_1.1, X) has no term on 1.2.1
        ell = GradedTensor(2, {(1, 2): 0.3, (2, 1): -0.3})
        params = flow_model(2, ell, np.array([0.6, 0.8]))
        start = RiccatiState(GradedTensor(2, {(1, 1): 1.0}), u_x=1.0)
        assert ((1, 2, 1), (1, 1), X_LABEL) not in build_generator_by_label(
            6, 2, (ell, params.eta)).gamma
        table = build_generator(start, params, 6)
        assert field_bytes(table) == field_bytes(full_table(6, params, True).closure(start))

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
        table = build_generator(RiccatiState(GradedTensor.zero(1), u_x=0.3),
                                preset_model("rough_bergomi_approx"), trunc)
        assert table.labels == rough_bergomi_trunc12().labels
        assert len(table.field.coeffs) == 439


def flow_at(start, params, trunc):
    """(closure size, lambda0, t*) of start's flow at trunc, at the default tol."""
    table = build_generator(start, params, trunc)
    out = integrate_flow(table)
    return table.state_dim, out.lambda0, out.t_star


class TestTruncationOfClosedClosures:
    """A closure that closes below its default truncation N is invariant under the whole
    generator, so its flow is the same bits at every larger N; one that does not close
    grows with N and its value moves."""

    PRICE = RiccatiState(GradedTensor.zero(1), u_x=0.3)

    @pytest.mark.parametrize("name, sigmas, start, size", [
        ("first_order", {}, PRICE, 4),
        ("rough_bergomi_approx", {}, PRICE, 59),
        ("quintic_ou_approx", {}, PRICE, 42),
        ("guyon_lekeufack_approx", {}, PRICE, 28),
        # the riccati_flows table op, and its blow-up op
        ("black_scholes", {"sigma": 0.2}, RiccatiState(GradedTensor(1, {(1,): 0.3}), u_x=0.5), 3),
        ("first_order", {}, RiccatiState(GradedTensor(1, {(1, 1): 2.0})), 2),
    ], ids=["first_order", "rough_bergomi", "quintic_ou", "guyon_lekeufack", "table_op",
            "blowup_op"])
    def test_closed_closure_is_the_same_bits_at_every_truncation(self, name, sigmas, start,
                                                                 size):
        params = preset_model(name, **sigmas)
        n = build_generator(start, params).trunc
        got = [flow_at(start, params, n + k) for k in (0, 2, 4)]
        assert got[0][0] == size
        assert got[1] == got[0] and got[2] == got[0]

    def test_deep_truncation_keeps_the_bits(self):
        # no list of every word up to N is made, so N = 28 (536870911 words) and N = 61 (the
        # deepest whose int64 coordinates fit over two letters) keep the trunc-12 bits; the
        # Gaussian oracle puts the value at 0.993767637112 (TestGaussianOracle)
        params = preset_model("rough_bergomi_approx")
        got = [flow_at(self.PRICE, params, n) for n in (12, 28, 61)]
        assert got[0][1] == 0.99376763711575977
        assert got[1] == got[0] and got[2] == got[0]

    def test_cut_closure_grows_and_moves(self):
        # Gamma of two length-3 words reaches length 4, and so on up to N
        start = RiccatiState(GradedTensor(1, {(1, 1, 1): 0.1}))
        params = preset_model("first_order")
        n = build_generator(start, params).trunc
        got = [flow_at(start, params, n + k) for k in (0, 2, 4)]
        assert [size for size, _, _ in got] == [7, 9, 11]
        assert len({lam for _, lam, _ in got}) == 3


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
        out = riccati_rhs(build_generator(RiccatiState(GradedTensor.zero(2)), flow_model(2), 2))
        assert not out.sig.coeffs

    def test_bs_empty_component(self):
        ell = GradedTensor(1, {(): 0.2})
        state = RiccatiState(GradedTensor.zero(1), u_x=2.0)
        out = riccati_rhs(build_generator(state, flow_model(1, ell), 2))
        assert out.sig[()] == pytest.approx(0.5 * 0.04 * (4.0 - 2.0))
        assert out.u_x == pytest.approx(0.0)

    def test_level1_quadratic_lands_on_level0(self):
        state = RiccatiState(GradedTensor(1, {(1,): 3.0}))
        out = riccati_rhs(build_generator(state, flow_model(1), 2))
        # half * Gamma^empty_{(1),(1)} * 3 * 3 = 4.5
        assert out.sig[()] == pytest.approx(4.5)
        assert out.sig.support_degree == 0


class TestIntegrateFlow:
    def test_linear_table_matches_matrix_exponential(self):
        rng = np.random.default_rng(21)
        table = full_table(2, flow_model(1))
        n = table.state_dim
        mat = rng.normal(size=(n, n)) * 0.4
        with_terms(table, {(out, src): mat[i, j] for i, out in enumerate(table.words)
                           for j, src in enumerate(table.words)}, {})
        u0 = rng.normal(size=n)
        state = RiccatiState(GradedTensor(1, {w: u0[i] for i, w in enumerate(table.words)}))
        closure = table.closure(state)
        out = integrate_flow(closure, tol=1e-11)
        assert out.solved
        expected = scipy.linalg.expm(mat) @ u0
        end = final_state(closure, out)
        got = table.vector(end.sig, end.u_x)
        assert np.max(np.abs(got - expected)) < 1e-8

    def test_scalar_blowup_time(self):
        out = integrate_flow(scalar_quadratic_table(1.0), tol=1e-10)
        assert not out.solved and out.lambda0 is None
        assert 0.99 <= out.t_star <= 1.0
        assert out.detail == "step underflow below floor"

    def test_bs_flow_value(self):
        ell = GradedTensor(1, {(): 0.2})
        state = RiccatiState(GradedTensor.zero(1), u_x=2.0)
        table = build_generator(state, flow_model(1, ell), 2)
        out = integrate_flow(table, tol=1e-12)
        assert out.solved
        end = final_state(table, out)
        assert end.sig[()] == pytest.approx(0.04, abs=1e-10)
        assert end.u_x == pytest.approx(2.0)

    def test_detection_before_comparison_deadline(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            a = float(rng.uniform(0.5, 3.0))
            y0 = float(rng.uniform(0.5, 3.0))
            out = integrate_flow(scalar_quadratic_table(a, y0, 10.0), tol=1e-9)
            assert not out.solved
            true_star = 1.0 / (a * y0)
            assert out.t_star < scalar_explosion_bound(a, y0)
            assert abs(out.t_star - true_star) < 0.02 * true_star

    def test_trace_recorded(self):
        state = RiccatiState(GradedTensor(1, {(0,): 0.5}))
        out = integrate_flow(build_generator(state, flow_model(1), 2), tol=1e-8)
        assert len(out.trace) == out.steps + 1

    def test_step_underflow_reported_as_exploded(self):
        # the integrator rides the blow-up until the step the error norm proposes falls below
        # the step floor; no accepted step is shorter
        out = integrate_flow(scalar_quadratic_table(1.0), tol=1e-9)
        assert not out.solved
        assert "underflow" in out.detail
        assert out.t_star == pytest.approx(1.0, abs=1e-3)
        assert out.min_step >= STEP_FLOOR

    @pytest.mark.parametrize("y0", [1e100, 1e200])
    def test_overflowing_blowup_is_silent(self, capfd, y0):
        # y' = y^2 from 1e100: the first stages square 1e200 to inf, and from 1e200 the first
        # slope does; every step is rejected down to the floor without a numpy warning
        table = scalar_quadratic_table(1.0, y0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = integrate_flow(table)
        assert (out.solved, out.steps, out.t_star, out.detail) == (
            False, 0, 0.0, "step underflow below floor")
        assert capfd.readouterr() == ("", "")

    def test_horizon_below_the_floor_solves(self):
        # on a horizon of 2e-13 every step, the last one clamped to horizon - t among them,
        # is below STEP_FLOOR: a flow that reaches its horizon is never an underflow
        table = scalar_quadratic_table(1.0, horizon=2e-13)
        out = integrate_flow(table, tol=1e-9)
        assert out.solved and out.rejected == 0 and out.max_step < STEP_FLOOR
        assert out.trace[-1][0] == 2e-13
        assert final_state(table, out).sig[()] == pytest.approx(1.0 + 2e-13, rel=1e-15)

    def test_rough_bergomi_trunc12_pin(self):
        # transform --model rough_bergomi_approx --uX 0.3, at its default trunc 12 (the shuffle
        # window): 59 of 8193 coordinates carried
        out = integrate_flow(rough_bergomi_trunc12(), tol=1e-10)
        assert out.solved and (out.steps, out.rejected, out.carried) == (131, 2, 59)
        assert f"{out.lambda0:.17g}" == "0.99376763711575977"  # s0 = 1


@cache
def flow_tables(d: int, trunc: int, extended: bool) -> FullTable:
    """The full oracle table of a model over d letters, price-extended or not."""
    if not extended:
        return full_table(trunc, flow_model(d))
    ell = GradedTensor(d, {(): 0.2, (d,): 0.3}) if trunc >= 2 else GradedTensor(d, {(): 0.2})
    return full_table(trunc, flow_model(d, ell), True)


def with_model(table: FullTable, **fields) -> FullTable:
    """The oracle table with fields of its model replaced."""
    return replace(table, params=replace(table.params, **fields))


def assert_same_flow(got, want):
    """Bit-identical outcome, trace and statistics; live is the only field allowed to differ.

    got's trace holds its carried vectors, want's the full states: each carried vector,
    expanded through got.live, is want's state byte for byte, a solved flow's last one its
    state at the horizon.
    """
    assert (got.solved, got.steps, got.t_star, got.detail) == (
        want.solved, want.steps, want.t_star, want.detail)
    assert (got.rejected, got.min_step, got.max_step) == (want.rejected, want.min_step, want.max_step)
    assert np.all(np.diff(got.live) > 0)
    assert len(got.trace) == len(want.trace)
    for k, ((t_got, v_got), (t_want, u_want)) in enumerate(zip(got.trace, want.trace)):
        assert t_got == t_want and v_got.tobytes() == u_want[got.live].tobytes()
        outside = np.delete(u_want, got.live)
        # +0.0 bits everywhere else; only the start may hold a -0.0 of the direction, which is
        # outside its support and which the carried trace leaves out
        assert not outside.any() and (k == 0 or not np.signbit(outside).any())


@st.composite
def flow_cases(draw):
    d = draw(st.sampled_from([1, 2]))
    trunc = draw(st.integers(0, 5 if d == 1 else 4))
    extended = draw(st.booleans())
    # within the window: twice the start's degree, plus deg(ell) (1 from trunc 2) with X
    top = (trunc - (trunc >= 2)) // 2 if extended else trunc // 2
    words = st.lists(st.integers(0, d), max_size=top).map(tuple)
    nonzero = st.floats(-4.0, 4.0).filter(bool)
    coeffs = draw(st.dictionaries(words, nonzero, min_size=1, max_size=3))
    u_x = draw(nonzero) if extended else None
    horizon = draw(st.floats(0.05, 2.0))
    state = RiccatiState(GradedTensor(d, coeffs), u_x)
    return trunc, d, extended, state, horizon


class TestFlowMatchesFullState:
    """integrate_flow on build_generator's closure table must not differ by a bit from the
    flow of every coordinate of the oracle's full table while every product of a dropped
    term is finite."""

    @settings(max_examples=80)
    @given(flow_cases())
    def test_random_sparse_directions(self, case):
        trunc, d, extended, state, horizon = case
        oracle = with_model(flow_tables(d, trunc, extended), horizon=horizon)
        assert_same_flow(integrate_flow(build_generator(state, oracle.params, trunc), tol=1e-8),
                         integrate_flow_full(state, oracle, tol=1e-8))

    def test_zero_direction(self):
        oracle = flow_tables(2, 4, True)
        # -0.0 is outside the support: the oracle's trace starts from it, the carried one
        # holds no coordinate
        state = RiccatiState(GradedTensor.zero(2), u_x=-0.0)
        got = integrate_flow(build_generator(state, oracle.params, 4), tol=1e-8)
        assert got.solved and got.carried == 0 and got.rejected == 0
        assert_same_flow(got, integrate_flow_full(state, oracle, tol=1e-8))

    def test_overflow_against_unreached_word(self):
        # u_(0) = 1 and u_(1) = 1 + tau.  The Gamma term reads u_(1) and the unreached empty
        # word; its coefficient times u_(1) overflows once u_(1) > 1.5.  integrate_flow_full
        # multiplies that inf by the empty word's 0.0, gets NaN and rejects every step from
        # tau = 0.5 on; the closure never carries the term and solves the exact flow
        table = with_terms(full_table(1, flow_model(1, horizon=2.0)), {((1,), (0,)): 1.0},
                           {((), (1,), ()): np.finfo(float).max / 1.5})
        state = RiccatiState(GradedTensor(1, {(0,): 1.0, (1,): 1.0}))
        closure = table.closure(state)
        got = integrate_flow(closure, tol=1e-8)
        assert got.solved and got.carried == 2 and got.rejected == 0
        assert final_state(closure, got).sig.coeffs == {(0,): 1.0, (1,): 3.0}
        with np.errstate(over="ignore", invalid="ignore"):
            full = integrate_flow_full(state, table, tol=1e-8)
        assert not full.solved and full.t_star == pytest.approx(0.5, abs=1e-6)

    def test_riccati_flows_blowup_config(self):
        params = preset_model("first_order")
        state = RiccatiState(GradedTensor(1, {(1, 1): 2.0}))
        got = integrate_flow(build_generator(state, params, 7), tol=1e-10)
        assert not got.solved and got.carried == 2
        assert got.min_step <= got.max_step
        assert_same_flow(got, integrate_flow_full(state, full_table(7, params), tol=1e-10))


class TestTransformValue:
    def test_zero_direction(self):
        state = RiccatiState(GradedTensor.zero(1))
        assert transform_value(build_generator(state, flow_model(1))) == 1.0

    def test_bs_matches_lognormal_mgf(self):
        sigma, s0, horizon = 0.2, 1.3, 1.0
        params = flow_model(1, GradedTensor(1, {(): sigma}), horizon=horizon, s0=s0)
        for u in (-1.0, 0.5, 2.0):
            table = build_generator(RiccatiState(GradedTensor.zero(1), u_x=u), params)
            got = transform_value(table)
            assert got == pytest.approx(lognormal_mgf(u, s0, sigma, horizon), rel=1e-8)

    def test_time_word_direction(self):
        state = RiccatiState(GradedTensor(1, {(0,): 0.7}))
        got = transform_value(build_generator(state, flow_model(1)))
        assert got == pytest.approx(math.exp(0.7), rel=1e-9)

    def test_explosion_propagates(self):
        with pytest.raises(RiccatiExplosion):
            transform_value(scalar_quadratic_table(1.0))

    @pytest.mark.parametrize("s0", [1.3, 0.45])
    @pytest.mark.parametrize("start", [
        RiccatiState(GradedTensor(1, {(1,): 0.4, (0,): -0.2})),
        RiccatiState(GradedTensor(1, {(1,): 0.4}), u_x=0.0),
        RiccatiState(GradedTensor.zero(1), u_x=-0.7),
        RiccatiState(GradedTensor(1, {(1,): 0.3, (0,): 0.2}), u_x=0.25),
    ], ids=["pure", "pure-uX-0", "price", "price-and-words"])
    def test_outcome_lambda0_is_the_transform_value(self, start, s0):
        # the flow's own lambda0, bit for bit the oracle's exp(psi_empty(T) + u_x log s0)
        table = build_generator(start, preset_model("first_order", s0=s0))
        assert integrate_flow(table).lambda0 == transform_value(table)

    def test_overflowing_lambda0_is_inf(self):
        # psi_empty(T) = 800 T is finite, exp(800) is not a float
        table = build_generator(RiccatiState(GradedTensor(1, {(0,): 800.0})), flow_model(1))
        out = integrate_flow(table)
        assert out.solved and final_state(table, out).sig[EMPTY_WORD] == 800.0
        assert out.lambda0 == math.inf


class TestTransformVsMC:
    def test_brownian_square_direction(self):
        # E exp(c W_T^2 / 2) = (1 - c T)^(-1/2) and <e_11, W> = W^2/2
        c, horizon = 0.4, 1.0
        state = RiccatiState(GradedTensor(1, {(1, 1): c}))
        got = transform_value(build_generator(state, flow_model(1, horizon=horizon), 4), tol=1e-11)
        assert got == pytest.approx((1.0 - c * horizon) ** -0.5, rel=1e-8)

    def test_first_order_directions_within_mc_ci(self):
        params = replace(preset_model("first_order"), steps=256)
        directions = [
            RiccatiState(GradedTensor(1, {(1,): 0.4}), u_x=0.0),
            RiccatiState(GradedTensor.zero(1), u_x=0.5),
            RiccatiState(GradedTensor.zero(1), u_x=-0.5),
            RiccatiState(GradedTensor(1, {(0,): 0.3}), u_x=0.25),
        ]
        for k, state in enumerate(directions):
            lam = transform_value(build_generator(state, params, 3), tol=1e-11)
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
        params = preset_model("first_order")
        for u in (0.5, -0.5, 1.5, 2.0, -1.0):
            state = RiccatiState(GradedTensor.zero(1), u_x=u)
            ric = transform_value(build_generator(state, params, 3), tol=1e-12)
            grids = [_gauss_exact_transform(u, 0.2, 0.1, 1.0, m) for m in (128, 256, 512)]
            # quadratic-in-h extrapolation to the continuum
            extrap = grids[0] / 3.0 - 2.0 * grids[1] + 8.0 * grids[2] / 3.0
            assert abs(ric - extrap) / extrap < 1e-9, (u, ric, extrap)

    def test_explosion_classification_agrees(self):
        params = preset_model("first_order")

        def flow(u_x):
            return integrate_flow(build_generator(RiccatiState(GradedTensor.zero(1), u_x=u_x),
                                                  params, 3), tol=1e-10)

        solvable = flow(10.0)
        assert solvable.solved
        assert math.isfinite(_gauss_exact_transform(10.0, 0.2, 0.1, 1.0, 512))
        exploding = flow(15.0)
        assert not exploding.solved
        assert _gauss_exact_transform(15.0, 0.2, 0.1, 1.0, 512) == math.inf


class TestGaussianOracle:
    """The flow of an X-only start against the Gaussian quadratic-form oracle, which knows
    nothing of tensors: extrapolated from 250, 500 and 1000 steps to the continuum, and at the
    Monte Carlo's own step count against mc_transform."""

    @pytest.mark.parametrize("name, u_x, oracle", [
        ("rough_bergomi_approx", 0.3, 0.993767637112),
        ("quintic_ou_approx", 0.3, 0.995415428517),
        ("guyon_lekeufack_approx", 0.5, 0.934743708696),
    ])
    def test_flow_matches_extrapolated_oracle(self, name, u_x, oracle):
        params = preset_model(name)
        want = richardson(lambda n: gaussian_transform(params, 1.0, n, u_x))
        assert want == pytest.approx(oracle, abs=1e-11)
        table = build_generator(RiccatiState(GradedTensor.zero(1), u_x=u_x), params)
        got = integrate_flow(table).lambda0
        assert abs(got - want) <= 1e-8, (got, want)

    @pytest.mark.parametrize("name, u_x", [
        ("black_scholes", 2.0), ("first_order", 2.0), ("rough_bergomi_approx", 2.0),
        ("quintic_ou_approx", 2.0), ("guyon_lekeufack_approx", 0.5)])
    def test_oracle_at_n_steps_is_the_mc_mean(self, name, u_x):
        # at 16 steps guyon_lekeufack's scheme is 0.0148 above its flow, some 12 SE here: the
        # oracle at the scheme's n accounts for that bias exactly
        params = replace(preset_model(name), steps=16)
        mc = mc_transform(RiccatiState(GradedTensor.zero(1), u_x=u_x), params, 65536, seed=41)
        want = gaussian_transform(params, 1.0, 16, u_x)
        assert abs(mc.mean - want) <= 3.0 * mc.se, (mc, want)

    def test_non_affine_ell_rejected(self):
        params = flow_model(1, GradedTensor(1, {(1, 1): 0.1}))
        with pytest.raises(ValueError, match="not affine"):
            gaussian_transform(params, 1.0, 4, 1.0)


class TestExplosionVerdicts:
    """A flow explodes exactly when its moment is infinite: the verdict of an X-only start at
    default settings against the Gaussian oracle on 1000 steps, finite or +inf."""

    @pytest.mark.parametrize("u_x", [-2.0, 0.3, 0.5, 1.5, 2.0, 5.0])
    @pytest.mark.parametrize("name", ["first_order", "rough_bergomi_approx", "quintic_ou_approx",
                                      "guyon_lekeufack_approx"])
    def test_verdict_matches_oracle(self, name, u_x):
        params = preset_model(name)
        out = integrate_flow(build_generator(RiccatiState(GradedTensor.zero(1), u_x=u_x), params))
        assert out.solved == math.isfinite(gaussian_transform(params, 1.0, 1000, u_x))
        if out.solved:  # Jensen: E S_T^u <= s0^u for u in [0, 1], >= s0^u outside
            power = params.s0**u_x
            assert out.lambda0 <= power if 0.0 <= u_x <= 1.0 else out.lambda0 >= power

    def test_oracle_brackets_the_explosion(self):
        # guyon_lekeufack at u_X = 2 explodes at 0.98473; the 1000-step scheme's moment turns
        # infinite 5e-4 later, its O(1/n) bias
        params = preset_model("guyon_lekeufack_approx")
        out = integrate_flow(build_generator(RiccatiState(GradedTensor.zero(1), u_x=2.0), params))
        assert not out.solved
        assert math.isfinite(gaussian_transform(params, out.t_star - 2e-3, 1000, 2.0))
        assert gaussian_transform(params, out.t_star + 2e-3, 1000, 2.0) == math.inf


class TestFirstOrderMomentExplosion:
    """E S_T^u under first_order against its closed-form blow-up time T*(u)."""

    @staticmethod
    def flow(u, horizon, sigma0=0.2, sigma1=0.1, s0=1.0, **tolerances):
        params = preset_model("first_order", horizon, s0, sigma0=sigma0, sigma1=sigma1)
        return integrate_flow(build_generator(RiccatiState(GradedTensor.zero(1), u_x=u),
                                              params), **tolerances)

    @pytest.mark.parametrize("sigma0, sigma1", [(0.2, 0.1), (0.5, 0.3)])
    @pytest.mark.parametrize("u", [1.2, 2.0, 5.0, -0.5, -2.0])
    def test_step_floor_meets_blowup(self, u, sigma0, sigma1):
        # the proposed step falls below the floor 1.0k to 1.1k steps in, within 1e-10 of T*
        # relative, on either side, in nine cases of ten.  The time carries the flow's global
        # error, about tol relative (up to 1.0e-9 at tol 1e-9), so at u = 1.2 and sigma1 =
        # 0.1, where T* = 14.1 is the longest, it lands 1.27e-10 early
        t_star = first_order_blowup_time(u, sigma1)
        out = self.flow(u, 1.5 * t_star, sigma0, sigma1)
        assert out.detail == "step underflow below floor"
        bound = 1.3e-10 if (u, sigma1) == (1.2, 0.1) else 1e-10
        assert abs(t_star - out.t_star) / t_star <= bound, out.t_star
        assert out.min_step >= STEP_FLOOR

    def test_solves_before_blowup(self):
        out = self.flow(2.0, 0.9 * first_order_blowup_time(2.0, 0.1))
        assert out.solved and out.lambda0 >= 1.0  # Jensen: E S_T^2 >= s0^2

    @pytest.mark.parametrize("u", [0.3, 1.0])
    def test_no_blowup_inside_the_unit_interval(self, u):
        s0 = 1.3
        assert first_order_blowup_time(u, 0.1) == math.inf
        out = self.flow(u, 200.0, s0=s0)
        assert out.solved
        # E S_T = s0 exactly for the martingale S, and Jensen bounds E S_T^u for u in (0, 1)
        assert out.lambda0 == s0 if u == 1.0 else out.lambda0 <= s0**u


class TestProjectionCompatibility:
    def test_zero_state(self):
        assert projection_compatibility(RiccatiState(GradedTensor.zero(2)), 5, 3, flow_model(2))

    @settings(max_examples=25)
    @given(st.fixed_dictionaries({w: st.floats(-3.0, 3.0) for w in [(), (1,), (2,), (0,)]}))
    def test_random_admissible_states_exact(self, coeffs):
        state = RiccatiState(GradedTensor(2, coeffs))
        assert projection_compatibility(state, 5, 3, flow_model(2))

    @settings(max_examples=25)
    @given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
    def test_extended_random_states_exact(self, c0, c1, u_x):
        state = RiccatiState(GradedTensor(1, {(): c0, (1,): c1}), u_x=u_x)
        assert projection_compatibility(state, 5, 3, preset_model("first_order"))

    def test_window_violation_raises(self):
        state = RiccatiState(GradedTensor(2, {(1, 2): 1.0}))
        with pytest.raises(ShuffleWindowError):
            projection_compatibility(state, 5, 2, flow_model(2))

    def test_support_above_m_rejected(self):
        state = RiccatiState(GradedTensor(2, {(1, 1, 1, 1): 1.0}))
        with pytest.raises(ShuffleWindowError):
            projection_compatibility(state, 8, 3, flow_model(2))


class TestScalarExplosionBound:
    def test_plug_in(self):
        assert scalar_explosion_bound(2.0, 1.0) == pytest.approx(1.0)

    def test_monotone_in_y0(self):
        assert scalar_explosion_bound(1.0, 100.0) < scalar_explosion_bound(1.0, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            scalar_explosion_bound(-1.0, 1.0)
