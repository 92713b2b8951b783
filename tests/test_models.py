import math

import numpy as np
import pytest

from sigvol.models import INF, PRESET_NAMES, kernel_expansion, preset
from sigvol.sde import check_H1
from sigvol.signature import BatchSignature, all_words

from _oracles import brownian_values


class TestPresets:
    def test_black_scholes(self):
        pre = preset("black_scholes", sigma=0.3)
        assert pre.ell.coeffs == {(): 0.3}
        assert pre.depth_meta == (0, 1)

    def test_first_order(self):
        pre = preset("first_order", sigma0=0.25, sigma1=0.05)
        assert pre.ell.coeffs == {(): 0.25, (1,): 0.05}
        assert pre.depth_meta == (1, 2)

    def test_heston_is_metadata_only(self):
        pre = preset("heston_meta")
        assert pre.metadata_only and pre.ell is None
        assert pre.depth_meta == (2, 4)

    def test_rough_bergomi_infinite_depth(self):
        pre = preset("rough_bergomi_approx")
        assert pre.depth_meta == (INF, INF)
        assert "poor near zero" in pre.notes or "demonstration" in pre.notes

    def test_quintic_support_depth_five(self):
        pre = preset("quintic_ou_approx")
        assert pre.depth_meta[0] == 5
        assert pre.ell.support_degree == 5

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            preset("zorp")

    def test_every_concrete_preset_satisfies_h1(self):
        for name in PRESET_NAMES:
            pre = preset(name)
            if pre.metadata_only:
                continue
            rep = check_H1(pre.ell, pre.weight)
            assert math.isfinite(rep.value) and not rep.divergent, name


class TestKernelExpansion:
    def test_constant_kernel(self):
        ell = kernel_expansion("exponential", 0, 1, 0.7, kappa=2.0)
        assert ell.coeffs == {(1,): 0.7}

    def test_exponential_coefficients(self):
        ell = kernel_expansion("exponential", 2, 1, 0.5, kappa=3.0)
        assert ell[(1,)] == pytest.approx(0.5)
        assert ell[(1, 0)] == pytest.approx(-1.5)
        assert ell[(1, 0, 0)] == pytest.approx(4.5)

    def test_taylor_remainder_shrinks_with_degree(self):
        # sup-norm mismatch of the exponential kernel on [0, T]
        kappa, horizon = 1.5, 1.0
        grid = np.linspace(0.0, horizon, 200)
        errors = []
        for degree in (1, 3, 5, 7):
            coeff = [(-kappa) ** k / math.factorial(k) for k in range(degree + 1)]
            approx = sum(c * grid**k for k, c in enumerate(coeff))
            errors.append(np.max(np.abs(np.exp(-kappa * grid) - approx)))
        assert all(errors[i + 1] < errors[i] for i in range(3))

    def test_power_kernel_flagged_inputs(self):
        with pytest.raises(ValueError):
            kernel_expansion("power", 3, 1, 1.0, hurst=0.7)
        ell = kernel_expansion("power", 3, 1, 1.0, hurst=0.1, t_star=0.5)
        assert ell.support_degree == 4

    def test_brownian_letter_validation(self):
        with pytest.raises(ValueError):
            kernel_expansion("exponential", 2, 0, 1.0)

    def test_ou_factor_correlation_above_0999(self):
        # quadrature oracle: exact per-segment integration of the exponential
        # kernel against the same piecewise-linear increments
        kappa, horizon, steps, n_paths, degree = 2.0, 1.0, 64, 4000, 6
        ell = kernel_expansion("exponential", degree, 1, 1.0, kappa=kappa)
        values = brownian_values(1, horizon, steps, n_paths, seed=31)
        inc = np.diff(values, axis=1)
        dt = horizon / steps
        sig = BatchSignature(n_paths, 1, all_words(1, degree + 1))
        for k in range(steps):
            sig.chen_step(inc[:, k, :])
        approx = sig.pair(ell)
        t_grid = values[0, :, 0]
        ou = np.zeros(n_paths)
        t_end = t_grid[-1]
        for k in range(steps):
            # int_{t_k}^{t_{k+1}} exp(-kappa (T - s)) ds * (dW_k / dt)
            seg = (math.exp(-kappa * (t_end - t_grid[k + 1]))
                   - math.exp(-kappa * (t_end - t_grid[k]))) / kappa
            ou += seg * inc[:, k, 1] / dt
        corr = np.corrcoef(approx, ou)[0, 1]
        assert corr > 0.999
