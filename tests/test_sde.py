import io
import math
import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from sigvol import sde, signature
from sigvol.algebra import GradedTensor, Weight
from sigvol.models import preset
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
    project_leq,
    richardson,
    sparse_signatures,
    volatility_path,
)


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

    def test_finite_support_truncation_is_exact(self):
        # carrying every word up to depth 4, past ell's support, cannot change paths
        pre = preset("first_order")
        params = SigVolParams(pre.ell, pre.weight, 1.0, pre.eta, 1.0, 16)
        paths = simulate_brownian_grid(1, 1.0, 16, 40, seed=9)
        base = simulate_price(PathBlock(params, paths))
        pad = simulate_price(PathBlock(params, paths, all_words(1, 4)))
        assert np.array_equal(base.price, pad.price)

    def test_projected_ell_identical_beyond_support(self):
        # ell supported up to level 3: price paths under project_leq(ell, N)
        # are identical for every N >= 3
        ell = GradedTensor(1, {(): 0.2, (1,): 0.05, (1, 1): 0.02, (0, 1, 1): 0.01})
        w = Weight.geometric(2.0)
        eta = np.array([1.0])
        paths = simulate_brownian_grid(1, 1.0, 16, 30, seed=20)
        reference = None
        for level in (3, 4, 6):
            cut = project_leq(ell, level)
            prices = simulate_price(PathBlock(SigVolParams(cut, w, 1.0, eta, 1.0, 16), paths))
            if reference is None:
                reference = prices.price
            else:
                assert np.array_equal(prices.price, reference)

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
        from sigvol.hedging import HedgeBasis, simulate_hedge_dataset
        from sigvol.riccati import RiccatiState, mc_transform

        params = make_params("first_order", steps=8)
        words = [(1, 0), (0, 1, 1)]
        runs = {}
        for block in (7, 16384):
            monkeypatch.setattr(sde, "BLOCK_PATHS", block)
            batches = []
            for paths in stream_paths(params, 40, 21, words):
                for _ in paths.steps():
                    pass
                batches.append((paths.offset, (paths.xi, paths.driver, paths.mart, paths.qv,
                                               paths.log_s, paths.sig.coords(words))))
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
    def test_block_holds_its_share_of_normals(self, steps, d, size):
        # at most 2**20 increments a block, between 4096 and 16384 paths
        ell = GradedTensor(d, {(): 0.2, (d,): 0.1})
        params = SigVolParams(ell, Weight.constant(), 1.0, np.full(d, d**-0.5), 1.0, steps)
        assert next(stream_paths(params, 20000, 5)).size == size


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
            blocks = 0
            for block in stream_paths(params, 300, 2**64 - 1, words):
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
                blocks += 1
            assert blocks == 3
        first_m = refs[1][0]  # M after one step of the last e_1 block
        assert np.all(first_m == 0.0) and np.signbit(first_m).any()

    @pytest.mark.parametrize("eta", [1.0, -1.0])
    def test_d1_product_is_the_gemv_form(self, monkeypatch, eta):
        # at d = 1 each step takes eta . dW as one product; d >= 2 hands the C-ordered
        # (paths, d) increments to BLAS's gemv, whose bits the sums must keep
        pre = preset("first_order")
        params = SigVolParams(pre.ell, pre.weight, s0=1.0, eta=np.array([eta]), horizon=1.0, steps=9)
        monkeypatch.setattr(sde, "BLOCK_PATHS", 128)
        for block in stream_paths(params, 300, 7):
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


class TestStepperMemory:
    """Stepping holds one block grid, however many blocks a run has."""

    @staticmethod
    def _stepping_peak(n_paths: int) -> int:
        params = make_params("first_order", steps=128)
        tracemalloc.start()
        try:
            for block in stream_paths(params, n_paths, 31, [(1,), (1, 1)]):
                for _ in block.steps():
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
            for paths in stream_paths(params, 90, 19):
                write_price_csv(simulate_price(paths), fh)
            return fh.getvalue()

        one = csv(16384, 1)
        assert one.count("\n") == 1 + 90 * 5
        for block, workers in [(7, 1), (40, 1), (40, 2), (40, 3), (16384, 2), (16384, 3)]:
            assert csv(block, workers) == one

    def test_failed_write_reaps_row_writers(self, monkeypatch):
        # fh fails on the third chunk, while both row writers still have chunks to send
        monkeypatch.setattr(signature, "_WORKERS", 3)
        params = make_params("first_order", steps=4)
        prices = simulate_price(next(stream_paths(params, 160, 19)))

        class FailingFile(io.StringIO):
            def write(self, text):
                if self.tell() and text.startswith(f"{2 * sde.CSV_CHUNK_PATHS},"):
                    raise OSError("disk full")
                return super().write(text)

        with pytest.raises(OSError, match="disk full"):
            write_price_csv(prices, FailingFile())
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
