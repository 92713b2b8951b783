"""Monte Carlo Galtchouk-Kunita-Watanabe decomposition.

The pipeline mirrors the four algebraic steps of the finite truncation
algorithm: assemble terminal coordinates, remove the span of constants,
dynamic gains and static payoffs, solve the quotient Gram normal equations
on the surviving residual directions, and measure the final remainder.

Dynamic integrands are spanned by time-t signature features: the gain
column for a word K is the left-point sum of <e_K, W_t> dS_t, which
realises the same Hilbert projection as the abstract GKW integrand in the
sample limit.  The kappa(w, N) weight-tail constant is reported alongside
the residual but never asserted against it: the quantitative bound only
holds on the weighted payoff class, which is a hypothesis, not a fact
about arbitrary claims.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .algebra import Weight, Word, format_word
from .sde import SigVolParams, stream_paths
from .signature import all_words

DROP_TOL = 1e-6
RIDGE_SCALE = 1e-8


class DegenerateGram(RuntimeError):
    """Quotient Gram system singular after the drop step (and ridge = 0)."""

    def __init__(self, words):
        self.words = list(words)
        pretty = ", ".join(format_word(w) for w in self.words)
        super().__init__(f"singular quotient Gram system; offending words: {pretty}")


@dataclass(frozen=True)
class HedgeBasis:
    """Feature selection for the GKW regression.

    integrand_depth >= 0 bounds the word length of dynamic integrand features;
    residual_window = (n_low, m), 0 <= n_low < m, selects terminal words
    n_low < |I| <= m; static_strikes None means 7 equally spaced quantiles
    of simulated S_T; ridge None means the default 1e-8 * trace(Gram)/dim
    regularisation.  The fields are converted to ints and floats on
    construction, and strikes and ridge must be finite.
    """

    integrand_depth: int
    residual_window: tuple[int, int]
    static_strikes: tuple[float, ...] | None = None
    ridge: float | None = None

    def __post_init__(self):
        depth = int(self.integrand_depth)
        window = tuple(int(k) for k in self.residual_window)
        strikes = self.static_strikes
        strikes = None if strikes is None else tuple(float(k) for k in strikes)
        ridge = None if self.ridge is None else float(self.ridge)
        if depth < 0:
            raise ValueError("integrand depth must be >= 0")
        if len(window) != 2 or not 0 <= window[0] < window[1]:
            raise ValueError("residual window needs two ints 0 <= n_low < m")
        if strikes is not None and not all(map(math.isfinite, strikes)):
            raise ValueError("static strikes must be finite")
        if ridge is not None and not 0.0 <= ridge < math.inf:
            raise ValueError("ridge must be finite and >= 0")
        for name, value in (("integrand_depth", depth), ("residual_window", window),
                            ("static_strikes", strikes), ("ridge", ridge)):
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class GKWResult:
    price: float
    dynamic_coeffs: dict
    static_coeffs: dict
    residual_coeffs: dict
    residual_norm: float
    residual_norm_se: float
    dynamic_residual_norm: float
    kappa_bound: float | None
    gram_min_eigenvalue: float
    dropped_words: tuple
    payoff_l2: float
    n_samples: int
    undersampled: bool


# ---------------------------------------------------------------------------
# Payoffs
# ---------------------------------------------------------------------------

PAYOFF_KINDS = ("call", "digital", "variance_swap", "asian")


def _settle(kind: str, params: dict, terminal: np.ndarray, qv: np.ndarray,
            average: np.ndarray) -> np.ndarray:
    """Payoff per path from the terminal price, the bracket and the trapezoid time-average price."""
    if kind == "call":
        return np.maximum(terminal - params["strike"], 0.0)
    if kind == "digital":
        return (terminal >= params["strike"]).astype(float)
    if kind == "variance_swap":
        return qv.copy()
    return np.maximum(average - params["strike"], 0.0)  # asian


# ---------------------------------------------------------------------------
# Design assembly
# ---------------------------------------------------------------------------


def _window_words(d: int, n_low: int, m: int) -> list[Word]:
    return [w for w in all_words(d, m) if n_low < len(w) <= m]


@dataclass
class HedgeDesign:
    """Column groups of the hedging regression, one row per path."""

    dyn_words: list
    static_labels: list
    res_words: list
    dynamic: np.ndarray
    static: np.ndarray
    residual: np.ndarray
    terminal_price: np.ndarray

    @property
    def n(self) -> int:
        return self.dynamic.shape[0]

    def base_matrix(self) -> np.ndarray:
        const = np.ones((self.n, 1))
        return np.hstack([const, self.dynamic, self.static])

    def restrict_depth(self, depth: int) -> "HedgeDesign":
        keep = [i for i, w in enumerate(self.dyn_words) if len(w) <= depth]
        return HedgeDesign([self.dyn_words[i] for i in keep],
                           self.static_labels, self.res_words,
                           self.dynamic[:, keep], self.static, self.residual,
                           self.terminal_price)


def default_strikes(terminal: np.ndarray, count: int = 7) -> tuple[float, ...]:
    """Equally spaced quantiles of the simulated terminal-price law."""
    qs = np.arange(1, count + 1) / (count + 1)
    return tuple(float(q) for q in np.quantile(terminal, qs))


def _static_block(terminal: np.ndarray, strikes) -> tuple[np.ndarray, list]:
    # Cash + underlying + call strip is the static basis; cash is the
    # regression constant and the underlying payoff is exactly the constant
    # plus the empty-word gain column (S_T = s0 + sum dS), so only the call
    # columns add directions and a separate S_T column would be redundant.
    cols = []
    labels: list = []
    for k in strikes:
        cols.append(np.maximum(terminal - k, 0.0))
        labels.append(f"K={k:.17g}")
    block = np.column_stack(cols) if cols else np.zeros((terminal.shape[0], 0))
    return block, labels


@dataclass
class HedgeDataset:
    """Streaming-accumulated design plus payoff ingredients."""

    design: HedgeDesign
    payoffs: np.ndarray


def simulate_hedge_dataset(params: SigVolParams, basis: HedgeBasis, payoff_kind: str,
                           payoff_params: dict, n_paths: int, seed: int) -> HedgeDataset:
    """Simulate paths in blocks and accumulate the design without storing grids.

    Produces the columns of the per-path reference route (build_design in
    the tests' oracles) on the same driver paths.  The payoff is checked
    before any path is drawn: a kind of PAYOFF_KINDS, and a finite
    payoff_params["strike"] for every kind but variance_swap.
    """
    if payoff_kind not in PAYOFF_KINDS:
        raise ValueError(f"unknown payoff kind {payoff_kind!r}; choose from {PAYOFF_KINDS}")
    strike = payoff_params.get("strike", math.nan)
    if payoff_kind != "variance_swap" and not math.isfinite(strike):
        raise ValueError(f"payoff {payoff_kind} needs a finite strike, e.g. {payoff_kind}:K=1.0")
    n_low, m = basis.residual_window
    dyn_words = all_words(params.dim, basis.integrand_depth)
    res_words = _window_words(params.dim, n_low, m)
    dynamic = np.zeros((n_paths, len(dyn_words)))
    residual = np.zeros((n_paths, len(res_words)))
    terminal = np.zeros(n_paths)
    bracket = np.zeros(n_paths)
    asian = np.zeros(n_paths)
    for paths in stream_paths(params, n_paths, seed, dyn_words + res_words):
        nb = paths.size
        s_prev = np.full(nb, params.s0)
        avg = np.zeros(nb)
        gains = np.zeros((nb, len(dyn_words)))
        for k in paths.steps():
            feats = paths.sig.coords(dyn_words)
            s_new = params.s0 * np.exp(paths.log_s)
            gains += feats * (s_new - s_prev)[:, None]
            avg += 0.5 * (s_prev + s_new) * paths.dt[k]
            s_prev = s_new
        sl = slice(paths.offset, paths.offset + nb)
        dynamic[sl] = gains
        residual[sl] = paths.sig.coords(res_words)
        terminal[sl] = s_prev
        bracket[sl] = paths.qv
        asian[sl] = avg / params.horizon
    strikes = basis.static_strikes if basis.static_strikes is not None else default_strikes(terminal)
    static, labels = _static_block(terminal, strikes)
    design = HedgeDesign(dyn_words, labels, res_words, dynamic, static,
                         residual, terminal)
    x = _settle(payoff_kind, payoff_params, terminal, bracket, asian)
    return HedgeDataset(design, x)


# ---------------------------------------------------------------------------
# Projection
# ---------------------------------------------------------------------------


def _ridge_lstsq(a: np.ndarray, y: np.ndarray, lam: float, skip_first: bool) -> np.ndarray:
    """Minimise (1/n)|y - a b|^2 + lam |b|^2 (constant column unpenalised)."""
    n, p = a.shape
    if lam == 0.0:
        return np.linalg.lstsq(a, y, rcond=None)[0]
    pen = np.sqrt(n * lam) * np.eye(p)
    if skip_first:
        pen = pen[1:]
    a_aug = np.vstack([a, pen])
    y_aug = np.concatenate([y, np.zeros((pen.shape[0],) + y.shape[1:])])
    return np.linalg.lstsq(a_aug, y_aug, rcond=None)[0]


def _default_ridge(mat: np.ndarray) -> float:
    n, p = mat.shape
    gram_trace = float((mat * mat).sum()) / n
    return RIDGE_SCALE * gram_trace / p


def gkw_project(x: np.ndarray, design: HedgeDesign, basis: HedgeBasis,
                weight: Weight | None = None) -> GKWResult:
    """Four-step quotient projection of the payoff sample.

    (1) ridge-regress X on constant + dynamic gains + statics; (2)
    orthogonalise the residual-window columns against that span; (3) drop
    null and dependent quotient classes (one representative per class) and
    solve the quotient Gram normal equations; (4) measure the final
    remainder.  Non-constant columns are centred, so the constant
    coefficient returned as price is exactly the sample mean of X.
    """
    x = np.asarray(x, dtype=float)
    base = design.base_matrix()
    n, p_base = base.shape
    total_cols = p_base + design.residual.shape[1]
    undersampled = n < 10 * total_cols
    if undersampled:
        warnings.warn(f"only {n} samples for {total_cols} columns; "
                      "coefficients will be noisy", RuntimeWarning, stacklevel=2)
    # Centre every non-constant column: instruments enter at their sample
    # price, so the constant coefficient is exactly the sample E_Q[X].
    base = base.copy()
    base[:, 1:] -= base[:, 1:].mean(axis=0, keepdims=True)
    lam1 = basis.ridge if basis.ridge is not None else _default_ridge(base)
    beta = _ridge_lstsq(base, x, lam1, skip_first=True)
    eps_hat = x - base @ beta
    dyn_norm = math.sqrt(float(eps_hat @ eps_hat) / n)

    # quotient columns, then one representative per linear-dependence class:
    # greedy selection keeps a direction only if its component orthogonal to
    # the span and to previously kept directions retains relative mass.
    res = design.residual
    theta = _ridge_lstsq(base, res, lam1, skip_first=True) if res.size else np.zeros((p_base, 0))
    quot = res - base @ theta
    y_norms = np.sqrt((res * res).mean(axis=0)) if res.size else np.zeros(0)
    keep: list[int] = []
    ortho: list[np.ndarray] = []
    for i in range(res.shape[1]):
        if y_norms[i] <= 0.0:
            continue
        v = quot[:, i].copy()
        for q in ortho:
            qq = q @ q
            if qq > 0.0:
                v -= (v @ q) / qq * q
        if math.sqrt(float(v @ v) / n) >= DROP_TOL * y_norms[i]:
            keep.append(i)
            ortho.append(v)
    dropped = tuple(design.res_words[i] for i in range(res.shape[1]) if i not in keep)

    coeffs: dict = {}
    gram_min = math.nan
    remainder = eps_hat
    if keep:
        r_kept = quot[:, keep]
        gram = r_kept.T @ r_kept / n
        rhs = r_kept.T @ eps_hat / n
        eigs = np.linalg.eigvalsh(gram)
        gram_min = float(eigs[0])
        lam3 = basis.ridge if basis.ridge is not None else RIDGE_SCALE * float(np.trace(gram)) / gram.shape[0]
        if lam3 == 0.0 and gram_min <= 1e-12 * max(float(eigs[-1]), 1e-300):
            # identify offenders through the near-null eigenvector support
            vec = np.linalg.eigh(gram)[1][:, 0]
            bad = [design.res_words[keep[i]] for i in np.argsort(-np.abs(vec))[:3]]
            raise DegenerateGram(bad)
        c = np.linalg.solve(gram + lam3 * np.eye(gram.shape[0]), rhs)
        coeffs = {design.res_words[keep[i]]: float(c[i]) for i in range(len(keep))}
        remainder = eps_hat - r_kept @ c

    rn_sq = float(remainder @ remainder) / n
    residual_norm = math.sqrt(rn_sq)
    se_rn_sq = float(np.std(remainder**2, ddof=1)) / math.sqrt(n) if n > 1 else 0.0
    residual_norm_se = se_rn_sq / (2.0 * residual_norm) if residual_norm > 0.0 else 0.0
    payoff_l2 = math.sqrt(float(x @ x) / n)
    kappa_bound = None
    if weight is not None:
        try:
            kappa_bound = kappa_tail(weight, basis.residual_window[1]) * payoff_l2
        except ValueError:
            kappa_bound = None  # non-summable weight tail

    n_dyn = len(design.dyn_words)
    dyn_coeffs = {design.dyn_words[i]: float(beta[1 + i]) for i in range(n_dyn)}
    static_coeffs = {design.static_labels[i]: float(beta[1 + n_dyn + i])
                     for i in range(len(design.static_labels))}
    return GKWResult(price=float(beta[0]), dynamic_coeffs=dyn_coeffs,
                     static_coeffs=static_coeffs, residual_coeffs=coeffs,
                     residual_norm=residual_norm, residual_norm_se=residual_norm_se,
                     dynamic_residual_norm=dyn_norm, kappa_bound=kappa_bound,
                     gram_min_eigenvalue=gram_min, dropped_words=dropped,
                     payoff_l2=payoff_l2, n_samples=n, undersampled=undersampled)


# ---------------------------------------------------------------------------
# Weight-tail constant and depth scans
# ---------------------------------------------------------------------------


def kappa_tail(w: Weight, level: int) -> float:
    """kappa(w, N) = (sum_{n>N} w(n)^-2)^(1/2).

    Geometric weights use the closed form r^-(N+1) / sqrt(1 - r^-2);
    summable polynomial weights (alpha > 1/2) are evaluated through the
    Hurwitz zeta function to full precision.
    """
    if w.kind == "geometric":
        r = w.param
        if r <= 1.0:
            raise ValueError("geometric tail requires r > 1")
        return r ** -(level + 1) / math.sqrt(1.0 - r**-2)
    if w.kind == "polynomial":
        if w.param <= 0.5:
            raise ValueError("polynomial tail requires alpha > 1/2")
        from scipy.special import zeta  # the only scipy use; kept off the import path

        return math.sqrt(float(zeta(2.0 * w.param, level + 2)))
    raise ValueError("constant weight has a non-summable tail")


@dataclass(frozen=True)
class DepthScanRow:
    depth: int
    residual_norm: float
    se: float


def depth_scan(params: SigVolParams, payoff_kind: str, payoff_params: dict,
               depths: list[int], n_paths: int, seed: int,
               basis: HedgeBasis | None = None,
               weight: Weight | None = None) -> list[DepthScanRow]:
    """Residual norms across integrand depths on one shared path set.

    The design at the largest depth is assembled once and column-restricted,
    so the spans are exactly nested and monotonicity holds up to the ridge.
    """
    depths = sorted(int(depth) for depth in depths)
    if not depths or depths[0] < 0:
        raise ValueError("depth scan needs at least one depth, each >= 0")
    if basis is None:
        basis = HedgeBasis(integrand_depth=depths[-1],
                           residual_window=(depths[-1], depths[-1] + 1))
    full_basis = HedgeBasis(integrand_depth=max(depths[-1], basis.integrand_depth),
                            residual_window=basis.residual_window,
                            static_strikes=basis.static_strikes, ridge=basis.ridge)
    data = simulate_hedge_dataset(params, full_basis, payoff_kind, payoff_params,
                                  n_paths, seed)
    rows = []
    for depth in depths:
        sub = data.design.restrict_depth(depth)
        result = gkw_project(data.payoffs, sub, full_basis, weight=weight)
        rows.append(DepthScanRow(depth, result.residual_norm, result.residual_norm_se))
    return rows
