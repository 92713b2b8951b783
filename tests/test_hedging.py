import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from sigvol.algebra import GradedTensor, Weight, shuffle_product
from sigvol.hedging import (
    ROW_CHUNK,
    DegenerateGram,
    HedgeBasis,
    HedgeDesign,
    _factor,
    _project,
    default_strikes,
    depth_scan,
    gkw_project,
    kappa_tail,
    simulate_hedge_dataset,
)
from sigvol import sde
from sigvol.models import preset
from sigvol.sde import PathBlock, SigVolParams, simulate_price
from sigvol.signature import BatchSignature, all_words, simulate_brownian_grid

from _oracles import (
    base_matrix,
    brownian_values,
    build_design,
    default_ridge,
    gkw_project_tall,
    path_major_steps,
    restrict_depth,
    ridge_lstsq,
    sparse_signatures,
)


def make_params(name="black_scholes", steps=64, **kw):
    pre = preset(name, **kw)
    return pre, SigVolParams(pre.ell, pre.weight, s0=1.0, eta=pre.eta,
                             horizon=1.0, steps=steps)


@pytest.fixture(scope="module")
def bs_dataset():
    pre, params = make_params(steps=64)
    basis = HedgeBasis(integrand_depth=2, residual_window=(0, 2))
    data = simulate_hedge_dataset(params, basis, "call", {"strike": 1.0}, 8000, seed=71)
    return pre, params, basis, data


class TestPayoff:
    @staticmethod
    def dataset(kind, pay, n_paths, seed, **kw):
        _, params = make_params(steps=16, **kw)
        return simulate_hedge_dataset(params, HedgeBasis(0, (0, 1), static_strikes=()), kind, pay,
                                      n_paths, seed)

    def test_digital_sure_event(self):
        terminal = self.dataset("call", {"strike": 0.0}, 50, 41).design.terminal_price
        data = self.dataset("digital", {"strike": terminal.min() * 0.5}, 50, 41)
        assert np.all(data.payoffs == 1.0)

    def test_variance_swap_constant_sigma(self):
        data = self.dataset("variance_swap", {}, 10, 42, sigma=0.3)
        assert data.payoffs == pytest.approx([0.09] * 10)

    def test_call_at_zero_strike_is_terminal_price(self):
        data = self.dataset("call", {"strike": 0.0}, 10, 43)
        assert data.payoffs == pytest.approx(data.design.terminal_price)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            self.dataset("lookback", {}, 2, 44)


class TestBuildDesign:
    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            build_design([], HedgeBasis(1, (0, 1)), 1)

    def test_truncation_too_low(self):
        _, params = make_params()
        paths = simulate_brownian_grid(1, 1.0, 8, 3, seed=46)
        values = brownian_values(1, 1.0, 8, 3, seed=46)
        prices = simulate_price(PathBlock(params, paths))
        dataset = [(prices.price[i], sparse_signatures(values[i], 1)) for i in range(3)]
        with pytest.raises(ValueError):
            build_design(dataset, HedgeBasis(1, (0, 3)), 1)

    def test_constant_feature_telescopes(self):
        _, params = make_params("first_order")
        paths = simulate_brownian_grid(1, 1.0, 16, 6, seed=47)
        values = brownian_values(1, 1.0, 16, 6, seed=47)
        prices = simulate_price(PathBlock(params, paths))
        dataset = [(prices.price[i], sparse_signatures(values[i], 2)) for i in range(6)]
        design = build_design(dataset, HedgeBasis(1, (1, 2), static_strikes=(1.0,)), 2)
        idx = design.dyn_words.index(())
        assert design.dynamic[:, idx] == pytest.approx(prices.price[:, -1] - 1.0, abs=1e-12)

    def test_zero_ell_zero_dynamics(self):
        ell = GradedTensor.zero(1)
        params = SigVolParams(ell, Weight.geometric(2.0), 1.0, np.array([1.0]), 1.0, 8)
        paths = simulate_brownian_grid(1, 1.0, 8, 4, seed=48)
        values = brownian_values(1, 1.0, 8, 4, seed=48)
        prices = simulate_price(PathBlock(params, paths))
        dataset = [(prices.price[i], sparse_signatures(values[i], 2)) for i in range(4)]
        design = build_design(dataset, HedgeBasis(1, (1, 2), static_strikes=(0.9,)), 2)
        assert np.all(design.dynamic == 0.0)

    def test_streaming_matches_per_path_reference(self):
        pre, params = make_params("first_order", steps=16)
        basis = HedgeBasis(2, (1, 3), static_strikes=(0.9, 1.1))
        data = simulate_hedge_dataset(params, basis, "call", {"strike": 1.0}, 40, seed=49)
        paths = simulate_brownian_grid(1, 1.0, 16, 40, seed=49)
        values = brownian_values(1, 1.0, 16, 40, seed=49)
        prices = simulate_price(PathBlock(params, paths))
        dataset = [(prices.price[i], sparse_signatures(values[i], 3)) for i in range(40)]
        ref = build_design(dataset, basis, 3)
        assert np.max(np.abs(ref.dynamic - data.design.dynamic)) < 1e-10
        assert np.max(np.abs(ref.residual - data.design.residual)) < 1e-10
        assert np.max(np.abs(ref.static - data.design.static)) < 1e-10
        assert ref.dyn_words == data.design.dyn_words

    @pytest.mark.parametrize("depth", [2, 3])
    @pytest.mark.parametrize("model", ["first_order", "inline_d2"])
    def test_blocks_match_per_path_reference_bit_for_bit(self, monkeypatch, model, depth):
        # 150 paths in blocks of 64, 64 and 22; the reference reads the engine's coordinates
        # and log-prices stepped on all 150 paths at once, so every bit must agree
        if model == "first_order":
            params = make_params("first_order", steps=16)[1]
        else:
            ell = GradedTensor(2, {(): 0.2, (1,): 0.1, (2, 0): -0.05, (2,): 0.07})
            params = SigVolParams(ell, Weight.geometric(2.0), 1.0, np.array([0.6, 0.8]), 1.0, 16)
        monkeypatch.setattr(sde, "BLOCK_PATHS", 64)
        basis = HedgeBasis(depth, (depth - 1, depth + 1))
        data = simulate_hedge_dataset(params, basis, "call", {"strike": 1.0}, 150, seed=50)
        words = all_words(params.dim, depth + 1)
        _, _, _, log_s, coords = path_major_steps(params, brownian_values(params.dim, 1.0, 16, 150, 50),
                                                  words)
        prices = np.vstack([np.full(150, params.s0), params.s0 * np.exp(log_s)]).T
        dataset = [(prices[i], [GradedTensor(params.dim, dict(zip(words, c)))
                                for c in coords[:, i]]) for i in range(150)]
        ref = build_design(dataset, basis, depth + 1)
        got = data.design
        assert (got.dyn_words, got.res_words, got.static_labels) == (
            ref.dyn_words, ref.res_words, ref.static_labels)
        for name in ("dynamic", "static", "residual", "terminal_price"):
            a, b = getattr(got, name), getattr(ref, name)
            assert a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64)), name

    def test_default_strikes_are_quantiles(self):
        terminal = np.linspace(0.0, 8.0, 8001)
        strikes = default_strikes(terminal)
        assert strikes == pytest.approx(tuple(np.arange(1, 8)), rel=1e-3)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 1000, 50000])
    @pytest.mark.parametrize("ties", [False, True])
    def test_default_strikes_are_numpy_quantiles_bit_for_bit(self, n, ties):
        terminal = np.random.default_rng(n).lognormal(0.0, 0.4, n)
        if ties:
            terminal = np.round(terminal, 1)
        want = np.quantile(terminal, np.arange(1, 8) / 8)
        got = np.array(default_strikes(terminal))
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_default_strikes_of_a_nan_sample_are_nan(self):
        assert all(math.isnan(k) for k in default_strikes(np.array([1.0, np.nan, 2.0])))


class TestGkwProject:
    def test_constant_payoff(self, bs_dataset):
        _, _, basis, data = bs_dataset
        res = gkw_project(np.full(data.design.n, 2.5), data.design, basis)
        assert res.price == pytest.approx(2.5, abs=1e-10)
        assert res.residual_norm < 1e-10
        assert all(abs(c) < 1e-8 for c in res.dynamic_coeffs.values())

    def test_terminal_price_payoff(self, bs_dataset):
        _, _, basis, data = bs_dataset
        res = gkw_project(data.design.terminal_price, data.design, basis)
        assert res.dynamic_coeffs[()] == pytest.approx(1.0, abs=1e-4)
        assert res.residual_norm < 1e-6 * res.payoff_l2
        assert res.price == pytest.approx(data.design.terminal_price.mean(), abs=1e-12)

    def test_bs_call_small_residual(self, bs_dataset):
        pre, _, basis, data = bs_dataset
        res = gkw_project(data.payoffs, data.design, basis, weight=pre.weight)
        assert res.residual_norm <= 0.05 * res.payoff_l2
        assert res.gram_min_eigenvalue > 0.0
        assert res.kappa_bound == pytest.approx(
            kappa_tail(pre.weight, 2) * res.payoff_l2)

    def test_bs_call_price_matches_closed_form(self, bs_dataset):
        from _oracles import bs_call_price

        pre, _, basis, data = bs_dataset
        res = gkw_project(data.payoffs, data.design, basis)
        se = data.payoffs.std(ddof=1) / math.sqrt(len(data.payoffs))
        assert abs(res.price - bs_call_price(1.0, 1.0, 0.2, 1.0)) <= 3.0 * se

    def test_remainder_orthogonal_to_design(self, bs_dataset):
        pre, _, basis, data = bs_dataset
        res = gkw_project(data.payoffs, data.design, basis)
        n = data.design.n
        base = base_matrix(data.design)
        rem = res_remainder(res, data)
        for j in range(1, base.shape[1]):
            corr = np.corrcoef(rem, base[:, j])[0, 1]
            assert abs(corr) <= 3.0 / math.sqrt(n)

    def test_window_monotonicity(self):
        pre, params = make_params("first_order", steps=32)
        x_norms = []
        for top in (2, 3):
            basis = HedgeBasis(1, (1, top), static_strikes=(1.0,))
            data = simulate_hedge_dataset(params, basis, "asian", {"strike": 1.0},
                                          6000, seed=72)
            res = gkw_project(data.payoffs, data.design, basis)
            x_norms.append((res.residual_norm, res.residual_norm_se))
        assert x_norms[1][0] <= x_norms[0][0] + 2.0 * math.hypot(x_norms[0][1], x_norms[1][1])

    def test_gram_vs_shuffle_expectation(self):
        # sample Gram of terminal coordinates equals the shuffle-coordinate
        # expectation pathwise; cross-checks the two code paths
        d, trunc = 1, 4
        inc = np.diff(brownian_values(d, 1.0, 32, 3000, seed=73), axis=1)
        sig = BatchSignature(3000, d, all_words(d, trunc))
        for k in range(32):
            sig.chen_step(inc[:, k, :])
        words = [w for w in all_words(d, 2) if w]
        for i, iw in enumerate(words):
            for jw in words[i:]:
                lhs = (sig.coord(iw) * sig.coord(jw)).mean()
                sh = shuffle_product(GradedTensor.basis(d, iw),
                                     GradedTensor.basis(d, jw), trunc)
                rhs_samples = np.zeros(3000)
                for w, c in sh.coeffs.items():
                    rhs_samples += c * sig.coord(w)
                diff = (sig.coord(iw) * sig.coord(jw)) - rhs_samples
                se = diff.std(ddof=1) / math.sqrt(3000) + 1e-12
                assert abs(lhs - rhs_samples.mean()) <= 3 * se

    def test_degenerate_gram_raises_at_zero_ridge(self, bs_dataset):
        _, _, _, data = bs_dataset
        design = data.design
        # duplicate a residual column to force quotient dependence, then
        # defeat the drop step with an extreme tolerance via ridge=0 and a
        # doctored window: easiest route is two identical words requested;
        # z's last two columns are the last residual word and the payoff
        doctored = HedgeDesign(design.dyn_words, design.static_labels,
                               design.res_words + [design.res_words[-1]],
                               np.column_stack([design.z[:, :-1], design.z[:, -2:]]),
                               design.terminal_price)
        import sigvol.hedging as H

        old = H.DROP_TOL
        H.DROP_TOL = 0.0
        try:
            with pytest.raises(DegenerateGram):
                gkw_project(data.payoffs, doctored, HedgeBasis(2, (0, 2), ridge=0.0))
        finally:
            H.DROP_TOL = old

    def test_undersampled_warning(self, bs_dataset):
        _, _, basis, data = bs_dataset
        tiny = dataclasses.replace(data.design, z=data.design.z[:40],
                                   terminal_price=data.design.terminal_price[:40])
        with pytest.warns(RuntimeWarning):
            gkw_project(data.payoffs[:40], tiny, basis)


def se_rel_tol(want) -> float:
    """Tolerance of the remainder's sampling error: the per-path remainder is a
    difference of terms the size of X in both routes, so 1e-12 relative or
    64 eps |X| / |remainder|, whichever is larger."""
    return max(1e-12, 64 * np.finfo(float).eps * want.payoff_l2 / want.residual_norm)


def assert_matches_tall(got, want, design):
    """got equals the tall-solve reference up to the rounding either route can resolve.

    A coefficient is compared relative to the largest coefficient of its solve,
    since one near zero has no relative accuracy in either route.  An
    eigenvalue is known to a share of the largest one, so the Gram minimum also passes within 1e-12 of the trace of the
    residual columns' Gram, which bounds the quotient Gram's.
    """
    assert got.dropped_words == want.dropped_words
    assert got.n_samples == want.n_samples and got.undersampled == want.undersampled
    for name in ("price", "residual_norm", "dynamic_residual_norm", "payoff_l2"):
        assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-12, abs=0.0), name
    assert got.residual_norm_se == pytest.approx(want.residual_norm_se, rel=se_rel_tol(want))
    for name in ("dynamic_coeffs", "static_coeffs", "residual_coeffs"):
        assert list(getattr(got, name)) == list(getattr(want, name))

    def solves(res):  # the coefficients of the base solve, then of the Gram solve
        return ([res.price, *res.dynamic_coeffs.values(), *res.static_coeffs.values()],
                list(res.residual_coeffs.values()))

    for got_c, want_c in zip(solves(got), solves(want)):
        scale = max(map(abs, want_c), default=0.0)
        assert np.max(np.abs(np.subtract(got_c, want_c)), initial=0.0) <= 1e-12 * scale
    if math.isnan(want.gram_min_eigenvalue):
        assert math.isnan(got.gram_min_eigenvalue)
    else:
        gram_trace = float((design.residual**2).mean(axis=0).sum())
        assert got.gram_min_eigenvalue == pytest.approx(want.gram_min_eigenvalue, rel=1e-12,
                                                        abs=1e-12 * gram_trace)


PAYOFFS = [("asian", {"strike": 1.0}), ("call", {"strike": 1.0}),
           ("digital", {"strike": 1.0}), ("variance_swap", {})]
TALL_CASES = [pytest.param(kind, pay, ridge, 2000, id=f"{kind}-{name}")
              for kind, pay in PAYOFFS
              for name, ridge in (("default", None), ("explicit", 1e-4), ("zero", 0.0))]
# 30 paths for P = 40 columns: the factor has 30 rows.  The ridge is explicit because
# the default 1e-8 one leaves a near-interpolating fit here, whose remainder (1e-5 of
# X) neither route holds to 1e-9 relative
TALL_CASES.append(pytest.param("asian", {"strike": 1.0}, 1e-4, 30, id="undersampled"))
# 12289 paths: R merged from four ROW_CHUNK-row chunks, the last of one row
TALL_CASES += [pytest.param(kind, pay, ridge, 3 * ROW_CHUNK + 1, id=f"{kind}-{name}-chunks")
               for kind, pay in PAYOFFS
               for name, ridge in (("default", None), ("explicit", 1e-4), ("zero", 0.0))]


@pytest.mark.filterwarnings("ignore:only .* samples:RuntimeWarning")
@pytest.mark.parametrize("kind, pay, ridge, n_paths", TALL_CASES)
def test_one_factor_matches_tall_solves(kind, pay, ridge, n_paths):
    # gkw_project and every depth_scan row read one R factor; the tall solves are the oracle
    pre, params = make_params("first_order", steps=16)
    basis = HedgeBasis(3, (3, 4), ridge=ridge)
    data = simulate_hedge_dataset(params, basis, kind, pay, n_paths, seed=78)
    assert_matches_tall(gkw_project(data.payoffs, data.design, basis, weight=pre.weight),
                        gkw_project_tall(data.payoffs, data.design, basis, weight=pre.weight),
                        data.design)
    rows = depth_scan(params, kind, pay, [0, 1, 2, 3], n_paths, seed=78, basis=basis)
    assert [row.depth for row in rows] == [0, 1, 2, 3]
    for row in rows:
        want = gkw_project_tall(data.payoffs, restrict_depth(data.design, row.depth), basis)
        assert row.residual_norm == pytest.approx(want.residual_norm, rel=1e-12, abs=0.0)
        assert row.se == pytest.approx(want.residual_norm_se, rel=se_rel_tol(want))


@pytest.mark.parametrize("n", [ROW_CHUNK - 1, ROW_CHUNK, ROW_CHUNK + 1, 3 * ROW_CHUNK + 1])
def test_chunked_factor_is_the_r_of_z(n):
    # one chunk up to ROW_CHUNK rows, the QR of z itself; then one merge a chunk.  z is
    # well conditioned: a simulated design is rank deficient, and the trailing rows of its
    # R are rounding in any route.  x takes the place of z's last column
    rng = np.random.default_rng(n)
    z, x = rng.standard_normal((n, 40)), rng.standard_normal(n)
    got = _factor(x, HedgeDesign([], [], [], z, z[:, 1]))  # _factor reads z alone
    want = np.linalg.qr(np.column_stack([z[:, :-1], x]), mode="r")
    signs = np.sign(np.diag(got)) * np.sign(np.diag(want))
    assert np.max(np.abs(signs[:, None] * got - want)) <= 1e-12 * np.max(np.abs(want))
    if n <= ROW_CHUNK:
        assert np.array_equal(got, want)


def test_depth_scan_solves_hold_no_copy_of_z():
    # hedge_depth_scan's design, P = 40: the factor and four projections allocate a chunk
    # and its QR copy, not the n x P copies of z the factor once made
    pre, params = make_params("first_order", steps=16)
    basis = HedgeBasis(3, (3, 4))
    data = simulate_hedge_dataset(params, basis, "asian", {"strike": 1.0}, 20000, seed=1)
    design, x = data.design, data.payoffs
    assert design.z.shape == (20000, 40)
    tracemalloc.start()
    try:
        r = _factor(x, design)
        for depth in range(4):
            keep = [i for i, w in enumerate(design.dyn_words) if len(w) <= depth]
            _project(x, r, keep, design, basis, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < design.z.nbytes / 2


def res_remainder(res, data):
    """Reassemble the final remainder from the reported coefficients."""
    base = data.design
    dyn = np.array([res.dynamic_coeffs[w] for w in base.dyn_words])
    stat = np.array([res.static_coeffs[lbl] for lbl in base.static_labels])
    centred_dyn = base.dynamic - base.dynamic.mean(0)
    centred_stat = base.static - base.static.mean(0)
    eps = data.payoffs - res.price - centred_dyn @ dyn - centred_stat @ stat
    if res.residual_coeffs:
        mat = np.hstack([np.ones((base.n, 1)), centred_dyn, centred_stat])
        theta = ridge_lstsq(mat, base.residual, default_ridge(mat))
        quot = base.residual - mat @ theta
        for w, c in res.residual_coeffs.items():
            eps = eps - c * quot[:, base.res_words.index(w)]
    return eps


class TestKappaTail:
    def test_closed_form_r2_n1(self):
        assert kappa_tail(Weight.geometric(2.0), 1) ** 2 == pytest.approx(1.0 / 12.0)

    def test_closed_form_vs_tail_sum(self):
        for r in (1.5, 2.0, 4.0):
            w = Weight.geometric(r)
            for level in (0, 1, 3):
                brute = math.sqrt(sum(r ** (-2 * n) for n in range(level + 1, level + 201)))
                assert kappa_tail(w, level) == pytest.approx(brute, rel=1e-12)

    def test_monotone_to_zero(self):
        w = Weight.geometric(2.0)
        vals = [kappa_tail(w, n) for n in range(10)]
        assert all(vals[i + 1] < vals[i] for i in range(9))
        assert vals[-1] < 1e-2

    def test_polynomial_tail(self):
        w = Weight.polynomial(1.0)
        brute = math.sqrt(sum((n + 1.0) ** -2 for n in range(3, 200000)))
        assert kappa_tail(w, 2) == pytest.approx(brute, rel=1e-4)

    def test_non_summable_rejected(self):
        with pytest.raises(ValueError):
            kappa_tail(Weight.constant(), 2)
        with pytest.raises(ValueError):
            kappa_tail(Weight.polynomial(0.4), 2)


class TestDepthScan:
    def test_bs_call_small_everywhere(self):
        _, params = make_params(steps=64)
        rows = depth_scan(params, "call", {"strike": 1.0}, [0, 1, 2], 6000, seed=74,
                          basis=HedgeBasis(2, (2, 3)))
        for row in rows:
            assert row.residual_norm < 0.05

    def test_zero_ell_residual_zero(self):
        ell = GradedTensor.zero(1)
        params = SigVolParams(ell, Weight.geometric(2.0), 1.0, np.array([1.0]), 1.0, 16)
        rows = depth_scan(params, "call", {"strike": 0.5}, [0, 1], 500, seed=75)
        for row in rows:
            assert row.residual_norm < 1e-10

    def test_first_order_asian_strictly_decreasing(self):
        _, params = make_params("first_order", steps=64)
        rows = depth_scan(params, "asian", {"strike": 1.0}, [0, 1, 2], 20000, seed=76,
                          basis=HedgeBasis(2, (1, 3)))
        for a, b in zip(rows, rows[1:]):
            assert b.residual_norm < a.residual_norm - 2.0 * math.hypot(a.se, b.se)

    def test_repeated_depths_dropped(self):
        _, params = make_params("first_order", steps=8)
        args = (params, "asian", {"strike": 1.0})
        rows = depth_scan(*args, [1, 0, 1, 0], 400, seed=79)
        assert rows == depth_scan(*args, [0, 1], 400, seed=79)
        assert [row.depth for row in rows] == [0, 1]

    def test_monotone_up_to_noise(self):
        pre, params = make_params("first_order", steps=32)
        rows = depth_scan(params, "digital", {"strike": 1.0}, [0, 1, 2], 4000, seed=77,
                          basis=HedgeBasis(2, (2, 3)))
        for a, b in zip(rows, rows[1:]):
            assert b.residual_norm <= a.residual_norm + 2.0 * math.hypot(a.se, b.se)
