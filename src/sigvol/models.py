"""Worked-example presets and kernel-expansion construction of ell.

Presets bundle the volatility symbol ell, the driving direction eta, a
weight, and the documented completeness-depth metadata (N_star, K): a depth,
inf, KERNEL_DEPENDENT, or None where the value is undocumented.  The
Heston entry is metadata-only: no explicit tensor embedding is published
for it, so inventing coefficients would misstate provenance.

Kernel expansions turn a memory kernel into a finitely supported ell via

    int_0^t (t-s)^k dW_s^j = k! <e_{(j,0,...,0)}, W_t>   (k time letters),

so a Taylor-expanded kernel sum a_k u^k maps to coefficients a_k * k! on
the words (j, 0^k).
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass

import numpy as np

from .algebra import GradedTensor, Weight, Word

INF = float("inf")
KERNEL_DEPENDENT = "kernel_dependent"


@dataclass(frozen=True)
class ModelPreset:
    ell: GradedTensor | None
    eta: np.ndarray | None
    weight: Weight
    depth_meta: tuple[float | str, float | str | None]
    notes: str

    @property
    def metadata_only(self) -> bool:
        return self.ell is None


def kernel_expansion(kind: str, degree: int, brownian_letter: int, scale: float,
                     kappa: float = 1.0, hurst: float = 0.1, t_star: float = 0.5) -> GradedTensor:
    """Finitely supported ell on words (j, 0^k), k <= degree, over the alphabet {0..j}.

    kind "exponential": scale * exp(-kappa u), Taylor-expanded at u = 0.
    kind "power": scale * u^(hurst - 1/2), Taylor-expanded at u = t_star;
    this is a demonstration-only approximation, non-uniform near u = 0 and
    deteriorating as the Hurst parameter approaches zero.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    j = int(brownian_letter)
    if j < 1:
        raise ValueError("brownian_letter must be >= 1")
    coeffs: dict[Word, float] = {}
    if kind == "exponential":
        # a_k = scale (-kappa)^k / k!, times k! for the word normalisation
        for k in range(degree + 1):
            coeffs[(j,) + (0,) * k] = scale * (-kappa) ** k
    elif kind == "power":
        # Taylor of u^(h-1/2) at t_star: sum_k binom(h-1/2, k) t*^(h-1/2-k) (u-t*)^k,
        # re-expanded in powers of u, then scaled by k!
        h = hurst
        if not 0.0 < h < 0.5:
            raise ValueError("power kernel expects 0 < hurst < 1/2")
        if t_star <= 0.0:
            raise ValueError("t_star must be positive")
        poly = np.zeros(degree + 1)
        binom = 1.0
        for k in range(degree + 1):
            if k > 0:
                binom *= (h - 0.5 - (k - 1)) / k
            deriv_coeff = binom * t_star ** (h - 0.5 - k)
            # (u - t_star)^k expanded into monomials
            for i in range(k + 1):
                poly[i] += deriv_coeff * math.comb(k, i) * (-t_star) ** (k - i)
        for k in range(degree + 1):
            coeffs[(j,) + (0,) * k] = scale * poly[k] * math.factorial(k)
    else:
        raise ValueError(f"unknown kernel kind {kind!r}")
    return GradedTensor(j, coeffs)


def _black_scholes(sigma: float = 0.2) -> ModelPreset:
    ell = GradedTensor(1, {(): sigma})
    return ModelPreset(ell, _unit(1, 1), Weight.geometric(2.0), (0, 1),
                       "constant volatility; dynamically complete")


def _first_order(sigma0: float = 0.2, sigma1: float = 0.1) -> ModelPreset:
    ell = GradedTensor(1, {(): sigma0, (1,): sigma1})
    return ModelPreset(ell, _unit(1, 1), Weight.geometric(2.0), (1, 2),
                       "volatility sigma0 + sigma1 * W^1; one static completion")


def _heston_meta() -> ModelPreset:
    return ModelPreset(None, None, Weight.geometric(2.0), (2, 4),
                       "metadata only: no explicit tensor embedding is published")


def _rough_bergomi_approx(sigma0: float = 0.2, sigma1: float = 0.1) -> ModelPreset:
    ell = kernel_expansion("power", 5, 1, sigma1)
    ell = GradedTensor(1, {(): sigma0, **ell.coeffs})
    return ModelPreset(ell, _unit(1, 1), Weight.geometric(2.0), (INF, INF),
                       "power-kernel expansion; demonstration only, the "
                       "polynomial approximation is poor near zero lag and "
                       "no finite depth is exact")


def _quintic_ou_approx(sigma0: float = 0.2, sigma1: float = 0.1) -> ModelPreset:
    ell = kernel_expansion("exponential", 4, 1, sigma1, kappa=1.0)
    ell = GradedTensor(1, {(): sigma0, **ell.coeffs})
    return ModelPreset(ell, _unit(1, 1), Weight.geometric(2.0), (5, None),
                       "exponential-kernel expansion with support up to depth "
                       "five; terminal static degree undocumented")


def _guyon_lekeufack_approx(sigma0: float = 0.2, sigma1: float = 0.1) -> ModelPreset:
    fast = kernel_expansion("exponential", 3, 1, sigma1, kappa=8.0)
    slow = kernel_expansion("exponential", 3, 1, 0.5 * sigma1, kappa=1.0)
    ell = GradedTensor(1, {(): sigma0})
    ell = ell + fast + slow
    return ModelPreset(ell, _unit(1, 1), Weight.geometric(2.0),
                       (KERNEL_DEPENDENT, KERNEL_DEPENDENT),
                       "two-timescale exponential past-return kernels; depth "
                       "is kernel dependent, infinite for the untruncated family")


# each preset's builder; its keyword parameters are the sigmas the preset reads
_BUILDERS = {
    "black_scholes": _black_scholes,
    "first_order": _first_order,
    "heston_meta": _heston_meta,
    "rough_bergomi_approx": _rough_bergomi_approx,
    "quintic_ou_approx": _quintic_ou_approx,
    "guyon_lekeufack_approx": _guyon_lekeufack_approx,
}
PRESET_NAMES = tuple(_BUILDERS)


def preset(name: str, **sigmas: float) -> ModelPreset:
    """Named model presets, all over one Brownian letter (d = 1).

    A preset takes only the sigmas it reads; the sigma defaults are
    configuration, not ground truth.
    """
    if name not in _BUILDERS:
        raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    build = _BUILDERS[name]
    own = list(inspect.signature(build).parameters)
    unread = [key for key in sigmas if key not in own]
    if unread:
        raise ValueError(f"preset {name} reads {' and '.join(own) or 'no sigma'}, "
                         f"not {', '.join(unread)}")
    return build(**sigmas)


def _unit(d: int, j: int) -> np.ndarray:
    e = np.zeros(d)
    e[j - 1] = 1.0
    return e
