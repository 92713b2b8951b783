import io
import math
import os
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from sigvol import sde, signature
from sigvol.algebra import GradedTensor, Weight
from sigvol.hedging import HedgeBasis, simulate_hedge_dataset
from sigvol.models import preset
from sigvol.riccati import RiccatiState, mc_transform
from sigvol.sde import (
    PathBlock,
    SigVolParams,
    check_H1,
    estimate_H3,
    martingale_check,
    simulate_price,
    stream_paths,
    write_price_csv,
)
from sigvol.signature import all_words, simulate_brownian_grid

from _oracles import (
    TruncationTooLow,
    brownian_values,
    gaussian_transform,
    path_major_steps,
    preset_model,
    richardson,
    sparse_signatures,
    volatility_path,
)


def step_to_end(paths: PathBlock) -> None:
    for _ in paths.steps():
        pass


def make_params(name="black_scholes", steps=32, horizon=1.0, s0=1.0, **kw):
    pre = preset(name, **kw)
    return SigVolParams(pre.ell, pre.weight, s0=s0, eta=pre.eta,
                        horizon=horizon, steps=steps)


class TestParams:
    def test_eta_must_be_unit(self):
        ell = GradedTensor(2, {(): 0.2})
        with pytest.raises(ValueError):
            SigVolParams(ell, Weight.geometric(2.0), 1.0, np.array([1.0, 0.5]), 1.0, 8)

    def test_s0_positive(self):
        ell = GradedTensor(1, {(): 0.2})
        with pytest.raises(ValueError):
            SigVolParams(ell, Weight.geometric(2.0), -1.0, np.array([1.0]), 1.0, 8)


class TestVolatilityPath:
    def test_constant_sigma(self):
        params = make_params(sigma=0.3)
        path = brownian_values(1, 1.0, 8, 1, seed=1)[0]
        assert volatility_path(params, sparse_signatures(path, 1), 1) == pytest.approx([0.3] * 9)

    def test_first_order_is_affine_in_w(self):
        params = make_params("first_order", sigma0=0.2, sigma1=0.1)
        path = brownian_values(1, 1.0, 8, 1, seed=2)[0]
        expected = (0.2 + 0.1 * path[:, 1]).tolist()
        assert volatility_path(params, sparse_signatures(path, 2), 2) == pytest.approx(expected)

    def test_zero_ell(self):
        ell = GradedTensor.zero(1)
        params = SigVolParams(ell, Weight.geometric(2.0), 1.0, np.array([1.0]), 1.0, 8)
        path = brownian_values(1, 1.0, 8, 1, seed=3)[0]
        assert volatility_path(params, sparse_signatures(path, 1), 1) == pytest.approx([0.0] * 9)

    def test_truncation_too_low(self):
        params = make_params("first_order")
        path = brownian_values(1, 1.0, 4, 1, seed=4)[0]
        with pytest.raises(TruncationTooLow):
            volatility_path(params, sparse_signatures(path, 0), 0)


class TestSimulatePrice:
    def test_black_scholes_bit_exact(self):
        params = make_params(sigma=0.25, s0=1.4, steps=64)
        paths = simulate_brownian_grid(1, 1.0, 64, 200, seed=5)
        prices = simulate_price(PathBlock(params, paths))
        closed = 1.4 * np.exp(0.25 * prices.driver - 0.5 * 0.25**2 * prices.times[None, :])
        assert np.max(np.abs(prices.price - closed)) < 1e-12

    def test_zero_ell_constant_price(self):
        ell = GradedTensor.zero(1)
        params = SigVolParams(ell, Weight.geometric(2.0), 2.5, np.array([1.0]), 1.0, 16)
        paths = simulate_brownian_grid(1, 1.0, 16, 50, seed=6)
        prices = simulate_price(PathBlock(params, paths))
        assert np.all(prices.price == 2.5)

    def test_positivity(self):
        params = make_params("first_order", steps=64)
        paths = simulate_brownian_grid(1, 1.0, 64, 500, seed=7)
        prices = simulate_price(PathBlock(params, paths))
        assert prices.price.min() > 0.0

    def test_bracket_nondecreasing(self):
        params = make_params("first_order", steps=32)
        paths = simulate_brownian_grid(1, 1.0, 32, 100, seed=8)
        prices = simulate_price(PathBlock(params, paths))
        assert np.all(np.diff(prices.bracket, axis=1) >= -1e-15)

    @pytest.mark.parametrize("ell, pad", [
        (preset("first_order").ell, 4),
        (GradedTensor(1, {(): 0.2, (1,): 0.05, (1, 1): 0.02, (0, 1, 1): 0.01}), 6),
    ], ids=["first_order", "level_3"])
    def test_finite_support_truncation_is_exact(self, ell, pad):
        # carrying every word up to depth `pad`, past ell's support, cannot change paths
        params = SigVolParams(ell, Weight.geometric(2.0), 1.0, np.array([1.0]), 1.0, 16)
        paths = simulate_brownian_grid(1, 1.0, 16, 40, seed=9)
        base = simulate_price(PathBlock(params, paths))
        padded = simulate_price(PathBlock(params, paths, all_words(1, pad)))
        assert np.array_equal(base.price.view(np.uint64), padded.price.view(np.uint64))

    def test_qv_stable_under_refinement(self):
        pre = preset("first_order")
        means = []
        for steps in (32, 64, 128):
            params = SigVolParams(pre.ell, pre.weight, 1.0, pre.eta, 1.0, steps)
            paths = simulate_brownian_grid(1, 1.0, steps, 4000, seed=10)
            means.append(simulate_price(PathBlock(params, paths)).bracket[:, -1].mean())
        assert abs(means[-1] - means[-2]) < 0.05 * abs(means[-1])

    def test_midpoint_vs_leftpoint_consistency(self):
        # replacing left-point by midpoint evaluation in the bracket
        # quadrature shifts E[S_T] by O(dt); the dB sum must stay
        # predictable (a midpoint dB sum adds the Ito-Stratonovich drift).
        pre = preset("first_order", sigma1=0.3)
        gaps = []
        for steps in (16, 64):
            paths = simulate_brownian_grid(1, 1.0, steps, 30_000, seed=11)
            params = SigVolParams(pre.ell, pre.weight, 1.0, pre.eta, 1.0, steps)
            prices = simulate_price(PathBlock(params, paths))
            xi_mid_sq = (0.5 * (prices.xi[:, :-1] + prices.xi[:, 1:])) ** 2
            db = np.diff(prices.driver, axis=1)
            dt = np.diff(prices.times)
            s_mid = np.exp(np.sum(prices.xi[:, :-1] * db, axis=1)
                           - 0.5 * np.sum(xi_mid_sq * dt[None, :], axis=1))
            gaps.append(abs(s_mid.mean() - prices.price[:, -1].mean()))
        assert gaps[1] < 0.6 * gaps[0]


class TestH1:
    def test_constant_ell(self):
        ell = GradedTensor(1, {(): 0.7})
        rep = check_H1(ell, Weight.geometric(2.0))
        assert rep.value == pytest.approx(0.49)
        assert not rep.divergent

    def test_sharpness_family_diverges(self):
        rep = check_H1(lambda n: 0.0 if n == 0 else n**-0.5, Weight.polynomial(1.0),
                       tail_terms=2000)
        assert rep.divergent
        assert rep.partial_sums[-1] > rep.partial_sums[len(rep.partial_sums) // 2] + 100.0

    def test_convergent_rule_not_flagged(self):
        rep = check_H1(lambda n: 2.0**-n, Weight.geometric(1.5), tail_terms=2000)
        assert not rep.divergent
        assert rep.value == pytest.approx(sum(1.5**n * 4.0**-n for n in range(200)), rel=1e-9)

    def test_finite_support_hand_sum(self):
        ell = GradedTensor(1, {(): 0.5, (1,): 0.3, (1, 1): 0.2})
        rep = check_H1(ell, Weight.geometric(2.0))
        assert rep.value == pytest.approx(0.25 + 2 * 0.09 + 4 * 0.04)


class TestH3:
    def test_constant_sigma_exact(self):
        params = make_params(sigma=0.3, steps=16)
        rep = estimate_H3(params, 2.0, 64, seed=12)
        assert rep.mean == pytest.approx(math.exp(2.0 * 0.09), rel=1e-12)
        assert rep.ci_halfwidth == pytest.approx(0.0, abs=1e-12)
        assert not rep.suspicious_heavy_tail

    def test_zero_ell(self):
        ell = GradedTensor.zero(1)
        params = SigVolParams(ell, Weight.geometric(2.0), 1.0, np.array([1.0]), 1.0, 8)
        rep = estimate_H3(params, 1.0, 32, seed=13)
        assert rep.mean == pytest.approx(1.0)

    def test_two_seed_reproducibility(self):
        params = make_params("first_order", steps=32)
        a = estimate_H3(params, 0.5, 20_000, seed=14)
        b = estimate_H3(params, 0.5, 20_000, seed=15)
        assert abs(a.mean - b.mean) <= math.hypot(a.ci_halfwidth, b.ci_halfwidth) * 3.0 / 1.96
        assert "not decidable" in a.note.lower() or "not a proof" in a.note.lower()

    def test_heavy_tail_flag_positive_control(self):
        # near the exponential-moment explosion regime the estimate is
        # carried by a handful of extreme paths and the flag must trip
        params = make_params("first_order", sigma0=0.2, sigma1=0.8, steps=64)
        rep = estimate_H3(params, 6.0, 20_000, seed=33)
        assert rep.suspicious_heavy_tail

    def test_one_path_rejected(self):
        # a standard error needs two paths; bad driver arguments keep the driver's message
        params = make_params("first_order", steps=8)
        with pytest.raises(ValueError, match="^need at least 2 paths$"):
            estimate_H3(params, 1.0, 1, seed=1)
        with pytest.raises(ValueError, match="^d, steps and n_paths must be >= 1$"):
            estimate_H3(params, 1.0, -5, seed=1)


class TestH3GaussianOracle:
    """E exp(lam int xi^2 dt) from the Gaussian quadratic-form oracle: at the Monte Carlo's
    own step count against estimate_H3, and extrapolated to the continuum."""

    @pytest.mark.parametrize("name", ["first_order", "rough_bergomi_approx", "quintic_ou_approx"])
    def test_oracle_at_n_steps_is_the_mc_mean(self, name):
        params = replace(preset_model(name), steps=16)
        rep = estimate_H3(params, 1.0, 65536, seed=41)
        want = gaussian_transform(params, 1.0, 16, 0.0, lam=1.0)
        assert abs(rep.mean - want) <= 3.0 * rep.ci_halfwidth / 1.96, (rep, want)

    def test_first_order_matches_cameron_martin(self):
        # E exp(beta int_0^T (a + W)^2) = (cos gT)^(-1/2) exp(a^2 g tan(gT) / 2), g = sqrt(2 beta),
        # with a = sigma0 / sigma1 = 2 and beta = lam sigma1^2 = 0.01: 1.0463266204129
        g = math.sqrt(0.02)
        closed = math.cos(g) ** -0.5 * math.exp(4.0 * g * math.tan(g) / 2.0)
        got = richardson(lambda n: gaussian_transform(preset_model("first_order"), 1.0, n, 0.0,
                                                      lam=1.0))
        assert got == pytest.approx(closed, abs=1e-10)

    def test_guyon_lekeufack_outside_h3(self):
        # 2 lam mu_max is about 1.0485 > 1 at T = 1, while hypotheses' Monte Carlo prints a
        # finite mean with heavy_tail 0
        params = preset_model("guyon_lekeufack_approx")
        assert gaussian_transform(params, 1.0, 1000, 0.0, lam=1.0) == math.inf


class TestMartingaleCheck:
    def test_constant_sigma_unbiased(self):
        params = make_params(sigma=0.2, steps=16)
        paths = simulate_brownian_grid(1, 1.0, 16, 50_000, seed=16)
        prices = simulate_price(PathBlock(params, paths))
        rep = martingale_check(prices.terminal_price, prices.s0)
        assert abs(rep.z_score) < 3.0

    def test_zero_ell_exact(self):
        ell = GradedTensor.zero(1)
        params = SigVolParams(ell, Weight.geometric(2.0), 1.0, np.array([1.0]), 1.0, 8)
        paths = simulate_brownian_grid(1, 1.0, 8, 100, seed=17)
        prices = simulate_price(PathBlock(params, paths))
        rep = martingale_check(prices.terminal_price, prices.s0)
        assert rep.mean_terminal == 1.0 and rep.se == 0.0 and rep.z_score == 0.0

    def test_drift_injection_detected(self):
        # negative control: a deterministic drift exp(0.05 t) on the price
        params = make_params(sigma=0.2, steps=16)
        paths = simulate_brownian_grid(1, 1.0, 16, 50_000, seed=18)
        prices = simulate_price(PathBlock(params, paths))
        biased = replace(prices, price=prices.price * np.exp(0.05 * prices.times[None, :]))
        rep = martingale_check(biased.terminal_price, biased.s0)
        assert rep.z_score > 3.0


class TestBlockSize:
    """Results of the block-streaming consumers do not depend on the block size."""

    def test_streaming_consumers_block_invariant(self, monkeypatch):
        params = make_params("first_order", steps=8)
        words = [(1, 0), (0, 1, 1)]
        runs = {}
        for block in (7, 16384):
            monkeypatch.setattr(sde, "BLOCK_PATHS", block)

            def final(paths: PathBlock):
                step_to_end(paths)
                return paths.offset, (paths.xi, paths.driver, paths.mart, paths.qv,
                                      paths.log_s, paths.sig.coords(words))

            batches = list(stream_paths(params, 40, 21, final, words))
            state = RiccatiState(GradedTensor(1, {(1,): 0.3, (1, 0): 0.1}), 0.25)
            # more paths than one moment chunk, so chunks straddle blocks of 7
            mc = mc_transform(state, params, 4100, seed=22)
            data = simulate_hedge_dataset(params, HedgeBasis(1, (1, 2), static_strikes=(1.0,)),
                                          "asian", {"strike": 0.0}, 40, seed=23)
            runs[block] = (batches, mc, data)
        (small, mc_small, data_small), (large, mc_large, data_large) = runs[7], runs[16384]
        assert [off for off, _ in small] == list(range(0, 40, 7)) and len(large) == 1
        for i in range(6):  # final xi, Ito sums and carried coordinates
            stacked = np.concatenate([final[i] for _, final in small])
            assert np.array_equal(stacked.view(np.uint64), large[0][1][i].view(np.uint64))
        assert mc_small == mc_large
        for field in ("dynamic", "static", "residual", "terminal_price"):
            assert np.array_equal(getattr(data_small.design, field),
                                  getattr(data_large.design, field))
        # asian:K=0 pays the time-average price itself
        assert np.array_equal(data_small.payoffs, data_large.payoffs)

    @pytest.mark.parametrize("steps, d, size", [(16, 1, 16384), (128, 1, 8192), (64, 2, 8192),
                                                (2048, 1, 4096)])
    def test_block_holds_its_share_of_normals(self, monkeypatch, steps, d, size):
        # at most 2**20 increments a block, between 4096 and 16384 paths; one range a block
        monkeypatch.setattr(signature, "_WORKERS", 1)
        ell = GradedTensor(d, {(): 0.2, (d,): 0.1})
        params = SigVolParams(ell, Weight.constant(), 1.0, np.full(d, d**-0.5), 1.0, steps)
        assert next(stream_paths(params, 20000, 5, lambda paths: paths.size)) == size


class TestStepMajorFeed:
    def test_stream_paths_matches_path_major_feed(self, monkeypatch):
        # d = 3 and eta mixes every letter, so each dB sums three coordinates; under
        # ell = e_1, xi_0 = 0 starts M with -0.0 on every path whose first dB is negative
        mixed = SigVolParams(GradedTensor(3, {(): 0.2, (1,): 0.1, (2, 3): -0.05, (3,): 0.07,
                                                 (0, 2): 0.02}),
                             Weight.constant(), s0=1.0, eta=np.array([0.48, 0.6, 0.64]),
                             horizon=1.0, steps=9)
        e_1 = SigVolParams(GradedTensor(1, {(1,): 1.0}), Weight.constant(), s0=1.0,
                           eta=np.array([1.0]), horizon=1.0, steps=9)
        monkeypatch.setattr(sde, "BLOCK_PATHS", 128)
        for params, words in ((mixed, [(1, 3, 2), (2, 0)]), (e_1, [(1, 0)])):

            def check(block: PathBlock):
                values = brownian_values(params.dim, 1.0, 9, block.size, 2**64 - 1,
                                         path_offset=block.offset)
                fields = ("driver", "mart", "qv", "log_s")
                got = {name: [] for name in fields}
                coords = []
                for _ in block.steps():
                    for name in fields:
                        got[name].append(getattr(block, name).copy())
                    coords.append(block.sig.coords(words))
                coords.append(block.sig.coords(words))
                refs = path_major_steps(params, values, words)
                for seq, ref in zip([*got.values(), coords], refs):
                    assert np.array_equal(np.array(seq).view(np.uint64), ref.view(np.uint64))
                return refs

            blocks = list(stream_paths(params, 300, 2**64 - 1, check, words))
            assert len(blocks) == 3
        refs = blocks[-1]
        first_m = refs[1][0]  # M after one step of the last e_1 block
        assert np.all(first_m == 0.0) and np.signbit(first_m).any()

    @pytest.mark.parametrize("eta", [1.0, -1.0])
    def test_d1_product_is_the_gemv_form(self, monkeypatch, eta):
        # at d = 1 each step takes eta . dW as one product; d >= 2 hands the C-ordered
        # (paths, d) increments to BLAS's gemv, whose bits the sums must keep
        pre = preset("first_order")
        params = SigVolParams(pre.ell, pre.weight, s0=1.0, eta=np.array([eta]), horizon=1.0, steps=9)
        monkeypatch.setattr(sde, "BLOCK_PATHS", 128)

        def check(block: PathBlock) -> None:
            values = brownian_values(1, 1.0, 9, block.size, 7, path_offset=block.offset)
            inc = np.diff(values[:, :, 1:], axis=1)
            driver, mart = np.full(block.size, -0.0), np.full(block.size, -0.0)
            log_s = np.zeros(block.size)
            for k in block.steps():
                db = np.ascontiguousarray(inc[:, k]) @ params.eta
                dm, dq = block.xi * db, block.xi**2 * block.dt[k]
                driver += db
                mart += dm
                log_s += dm - 0.5 * dq
                for got, want in ((block.driver, driver), (block.mart, mart), (block.log_s, log_s)):
                    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

        assert len(list(stream_paths(params, 300, 7, check))) == 3


class TestPathRanges:
    """A block walked as one path range per CPU gives the bits of one range."""

    # d = 3 with eta mixing every letter, so each dB is a BLAS gemv over the range's paths
    MIXED = SigVolParams(GradedTensor(3, {(): 0.2, (1,): 0.1, (2, 3): -0.05, (3,): 0.07,
                                          (0, 2): 0.02}),
                         Weight.constant(), s0=1.0, eta=np.array([0.48, 0.6, 0.64]),
                         horizon=1.0, steps=6)

    @staticmethod
    def _runs(monkeypatch, compute):
        """compute() as one range a block, then with every block split over 1, 2 and 3 ranges."""
        monkeypatch.setattr(sde, "SPLIT_ROW_PATHS", math.inf)
        one = compute()
        monkeypatch.setattr(sde, "SPLIT_ROW_PATHS", 0)
        runs = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(signature, "_WORKERS", workers)
            runs.append(compute())
        return one, runs

    @staticmethod
    def _bits(*arrays):
        return [np.asarray(a).view(np.uint64).tolist() for a in arrays]

    def test_ranges_split_each_block(self, monkeypatch):
        # blocks of 40 of 90 paths; three ranges of a 40-path block hold 13, 13 and 14 paths
        monkeypatch.setattr(sde, "BLOCK_PATHS", 40)
        one, runs = self._runs(monkeypatch, lambda: list(stream_paths(
            self.MIXED, 90, 3, lambda paths: (paths.offset, paths.size))))
        assert one == runs[0] == [(0, 40), (40, 40), (80, 10)]
        assert runs[1] == [(0, 20), (20, 20), (40, 20), (60, 20), (80, 5), (85, 5)]
        assert runs[2][:3] == [(0, 13), (13, 13), (26, 14)]

    def test_hedge_dataset(self, monkeypatch):
        monkeypatch.setattr(sde, "BLOCK_PATHS", 40)
        params = make_params("first_order", steps=8)
        basis = HedgeBasis(2, (2, 3), static_strikes=(1.0,))

        def dataset():
            data = simulate_hedge_dataset(params, basis, "asian", {"strike": 0.95}, 90, seed=23)
            design = data.design
            return self._bits(design.dynamic, design.static, design.residual,
                              design.terminal_price, data.payoffs)

        one, runs = self._runs(monkeypatch, dataset)
        assert all(run == one for run in runs)

    def test_many_ranges_under_fast_thread_switching(self, monkeypatch):
        # more ranges than CPUs, each writing its rows of the shared design while the
        # interpreter switches threads every microsecond
        monkeypatch.setattr(sde, "BLOCK_PATHS", 40)
        params = make_params("first_order", steps=8)
        basis = HedgeBasis(2, (2, 3), static_strikes=(1.0,))

        def dataset():
            data = simulate_hedge_dataset(params, basis, "call", {"strike": 1.0}, 90, seed=29)
            return self._bits(data.design.dynamic, data.design.residual, data.payoffs)

        one = dataset()
        monkeypatch.setattr(sde, "SPLIT_ROW_PATHS", 0)
        monkeypatch.setattr(signature, "_WORKERS", 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert dataset() == one
        finally:
            sys.setswitchinterval(interval)

    def test_h3(self, monkeypatch):
        monkeypatch.setattr(sde, "BLOCK_PATHS", 40)

        def h3():
            rep = estimate_H3(self.MIXED, 0.5, 90, seed=12)
            return rep.mean, rep.ci_halfwidth, rep.suspicious_heavy_tail, self._bits(rep.terminal_price)

        one, runs = self._runs(monkeypatch, h3)
        assert all(run == one for run in runs)

    def test_mc_transform(self, monkeypatch):
        # blocks of 1500 of 4100 paths: the moments' 4096-sample chunks straddle blocks and ranges
        monkeypatch.setattr(sde, "BLOCK_PATHS", 1500)
        params = make_params("first_order", steps=4)
        state = RiccatiState(GradedTensor(1, {(1,): 0.3, (1, 0): 0.1}), 0.25)
        one, runs = self._runs(monkeypatch, lambda: mc_transform(state, params, 4100, seed=22))
        assert all(run == one for run in runs)

    def test_price_csv(self, monkeypatch):
        # ranges end 16-path CSV chunks mid-way
        monkeypatch.setattr(sde, "BLOCK_PATHS", 40)

        def csv():
            fh = io.StringIO()
            for prices in stream_paths(self.MIXED, 90, 19, simulate_price):
                write_price_csv(prices, fh)
            return fh.getvalue()

        one, runs = self._runs(monkeypatch, csv)
        assert one.count("\n") == 1 + 90 * 7
        assert all(run == one for run in runs)

    def test_error_on_a_stepping_thread_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(sde, "SPLIT_ROW_PATHS", 0)
        monkeypatch.setattr(signature, "_WORKERS", 2)
        stepped_here = threading.get_ident()
        chen_step = signature.BatchSignature.chen_step

        def step(sig, dx):
            if threading.get_ident() != stepped_here:
                raise MemoryError("no room for the levels")
            return chen_step(sig, dx)

        monkeypatch.setattr(signature.BatchSignature, "chen_step", step)
        with pytest.raises(MemoryError, match="no room"):
            for _ in stream_paths(make_params("first_order", steps=4), 64, 1, step_to_end):
                pass
        assert threading.active_count() == 1


class TestStepperMemory:
    """Stepping holds one block grid, however many blocks a run has."""

    @staticmethod
    def _stepping_peak(n_paths: int) -> int:
        params = make_params("first_order", steps=128)
        tracemalloc.start()
        try:
            for _ in stream_paths(params, n_paths, 31, step_to_end, [(1,), (1, 1)]):
                pass
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_bounded_by_one_block(self):
        # bytes of a time-augmented (steps+1, d+1, paths) grid of 16384 paths x 128 steps, d = 1
        augmented_grid = 129 * 2 * 16384 * 8
        one, four = self._stepping_peak(16384), self._stepping_peak(4 * 16384)
        assert one < 0.7 * augmented_grid
        assert four < 0.7 * augmented_grid
        assert abs(four - one) < 2**20
        # at 128 steps a block holds 8192 paths: the run stays below 0.7 of that block's
        # time-augmented grid
        assert four < 0.7 * (129 * 2 * 8192 * 8)


class TestCsvExport:
    def test_header_and_shape(self, tmp_path):
        params = make_params(steps=4)
        paths = simulate_brownian_grid(1, 1.0, 4, 3, seed=19)
        prices = simulate_price(PathBlock(params, paths))
        fn = tmp_path / "prices.csv"
        with open(fn, "w", newline="\n") as fh:
            write_price_csv(prices, fh)
        lines = fn.read_text().splitlines()
        assert lines[0] == "path_id,t,xi,B,M,qv,S"
        assert len(lines) == 1 + 3 * 5

    def test_blocks_make_one_file(self, monkeypatch):
        # the header once, then path ids counting on across blocks, whatever the block size
        # and the number of processes formatting the rows: blocks of 40 of 90 paths end
        # 16-path chunks mid-way
        params = make_params("first_order", steps=4)

        def csv(block: int, workers: int) -> str:
            monkeypatch.setattr(sde, "BLOCK_PATHS", block)
            monkeypatch.setattr(signature, "_WORKERS", workers)
            fh = io.StringIO()
            for prices in stream_paths(params, 90, 19, simulate_price):
                write_price_csv(prices, fh)
            return fh.getvalue()

        one = csv(16384, 1)
        assert one.count("\n") == 1 + 90 * 5
        for block, workers in [(7, 1), (40, 1), (40, 2), (40, 3), (16384, 2), (16384, 3)]:
            assert csv(block, workers) == one

    def test_failed_write_reaps_row_writers(self, monkeypatch):
        # fh fails on the third chunk, while both row writers still have chunks to send
        monkeypatch.setattr(signature, "_WORKERS", 3)
        params = make_params("first_order", steps=4)
        prices = next(stream_paths(params, 160, 19, simulate_price))

        class FailingFile(io.StringIO):
            def write(self, text):
                if self.tell() and text.startswith(f"{2 * sde.CSV_CHUNK_PATHS},"):
                    raise OSError("disk full")
                return super().write(text)

        with pytest.raises(OSError, match="disk full"):
            write_price_csv(prices, FailingFile())
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
