"""Monte Carlo Galtchouk-Kunita-Watanabe decomposition.

The pipeline mirrors the four algebraic steps of the finite truncation
algorithm: assemble terminal coordinates, remove the span of constants,
dynamic gains and static payoffs, solve the quotient Gram normal equations
on the surviving residual directions, and measure the final remainder.

Every number but the remainder's sampling error is an inner product of the
columns z = [1 | dynamic | static | residual | X], so each is read from R in
z = QR, factored once (tall-skinny QR: Demmel, Grigori, Hoemmen and Langou,
SIAM J. Sci. Comput. 34(1), 2012).  A depth restriction re-factors R's kept
columns; one matvec with z gives the per-path remainder.

Dynamic integrands are spanned by time-t signature features: the gain
column for a word K is the left-point sum of <e_K, W_t> dS_t, which
realises the same Hilbert projection as the abstract GKW integrand in the
sample limit.  gkw_project reports the kappa(w, N) weight-tail constant
alongside the residual but never asserts against it: the quantitative
bound only holds on the weighted payoff class, which is a hypothesis, not
a fact about arbitrary claims.  A depth scan reports residual norms only,
so it takes no weight.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .algebra import Weight, Word, exact_int, format_word
from .sde import PathBlock, SigVolParams, stream_paths
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
    n_low < |I| <= m, None meaning (depth, depth + 1), the words just past
    the integrand's; static_strikes None means 7 equally spaced quantiles
    of simulated S_T; ridge None means the default 1e-8 * trace(Gram)/dim
    regularisation.  The depth and window must be exact integers
    (algebra.exact_int: 1.9 is rejected, 2.0 read as 2), strikes and ridge
    are converted to floats and must be finite.
    """

    integrand_depth: int
    residual_window: tuple[int, int] | None = None
    static_strikes: tuple[float, ...] | None = None
    ridge: float | None = None

    def __post_init__(self):
        depth = exact_int(self.integrand_depth, "integrand_depth")
        window = (depth, depth + 1) if self.residual_window is None else tuple(
            exact_int(k, "residual_window") for k in self.residual_window)
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


def default_strikes(terminal: np.ndarray) -> tuple[float, ...]:
    """The 7 equally spaced quantiles of the simulated terminal-price law.

    np.quantile's linear rule, bit for bit, read from one sort: np.quantile
    calls np.unique, whose first call imports numpy.ma (16-20 ms a process)."""
    a = np.sort(terminal)
    at = (a.size - 1) * (np.arange(1, 8) / 8)  # the virtual indexes
    lo = np.floor(at)
    t, lo = at - lo, lo.astype(np.intp)
    below, above = a[lo], a[np.minimum(lo + 1, a.size - 1)]
    step = above - below  # numpy's lerp: from below, or from above where t >= 0.5
    qs = np.where(t >= 0.5, above - step * (1 - t), below + step * t)
    if np.isnan(a[-1]):  # a NaN sorts last, and makes every quantile NaN
        qs[:] = a[-1]
    return tuple(qs.tolist())


def _static_block(terminal: np.ndarray, strikes) -> tuple[np.ndarray, list]:
    # Cash + underlying + call strip is the static basis; cash is the
    # regression constant and the underlying payoff is exactly the constant
    # plus the empty-word gain column (S_T = s0 + sum dS), so only the call
    # columns add directions and a separate S_T column would be redundant.
    block = terminal[:, None] - np.asarray(strikes, float)
    # in place: a second (paths, strikes) array would raise the depth scan's peak memory
    return np.maximum(block, 0.0, out=block), [f"K={k:.17g}" for k in strikes]


@dataclass
class HedgeDataset:
    """Streaming-accumulated design plus payoff ingredients."""

    design: HedgeDesign
    payoffs: np.ndarray


def simulate_hedge_dataset(params: SigVolParams, basis: HedgeBasis, payoff_kind: str,
                           payoff_params: dict, n_paths: int, seed: int) -> HedgeDataset:
    """Simulate paths in blocks and accumulate the design without storing grids.

    Produces the columns of the per-path reference route (build_design in
    the tests' oracles) on the same driver paths.  Each path range of a
    block (sde.stream_paths) writes its own rows of the design.  A range's
    gains are held one row per word, (words, paths): each step adds
    coord(word) * dS to each row, the same product and sum per element as
    one (paths, words) update, and the rows are transposed into `dynamic`
    once per range.  The payoff, then the driver's arguments, are checked
    before any per-path array: a kind of PAYOFF_KINDS, a finite
    payoff_params["strike"] for every kind but variance_swap, and no other parameter.
    """
    if payoff_kind not in PAYOFF_KINDS:
        raise ValueError(f"unknown payoff kind {payoff_kind!r}; choose from {PAYOFF_KINDS}")
    unread = sorted(set(payoff_params) - ({"strike"} if payoff_kind != "variance_swap" else set()))
    if unread:
        raise ValueError(f"payoff {payoff_kind} reads no parameter {', '.join(map(repr, unread))}")
    strike = payoff_params.get("strike", math.nan)
    if payoff_kind != "variance_swap" and not math.isfinite(strike):
        raise ValueError(f"payoff {payoff_kind} needs a finite strike, e.g. {payoff_kind}:K=1.0")
    n_low, m = basis.residual_window
    dyn_words = all_words(params.dim, basis.integrand_depth)
    res_words = _window_words(params.dim, n_low, m)

    def walk(paths: PathBlock) -> None:
        nb = paths.size
        s_prev = np.full(nb, params.s0)
        avg = np.zeros(nb)
        gains = np.zeros((len(dyn_words), nb))
        for k in paths.steps():
            s_new = params.s0 * np.exp(paths.log_s)
            ds = s_new - s_prev
            for gain, word in zip(gains, dyn_words):
                gain += paths.sig.coord(word) * ds
            avg += 0.5 * (s_prev + s_new) * paths.dt[k]
            s_prev = s_new
        sl = slice(paths.offset, paths.offset + nb)
        dynamic[sl] = gains.T
        residual[sl] = paths.sig.coords(res_words)
        terminal[sl] = s_prev
        bracket[sl] = paths.qv
        asian[sl] = avg / params.horizon

    ranges = stream_paths(params, n_paths, seed, walk, dyn_words + res_words)
    # each range writes its own rows
    dynamic = np.zeros((n_paths, len(dyn_words)))
    residual = np.zeros((n_paths, len(res_words)))
    terminal = np.zeros(n_paths)
    bracket = np.zeros(n_paths)
    asian = np.zeros(n_paths)
    for _ in ranges:
        pass
    strikes = basis.static_strikes if basis.static_strikes is not None else default_strikes(terminal)
    static, labels = _static_block(terminal, strikes)
    design = HedgeDesign(dyn_words, labels, res_words, dynamic, static,
                         residual, terminal)
    x = _settle(payoff_kind, payoff_params, terminal, bracket, asian)
    return HedgeDataset(design, x)


# ---------------------------------------------------------------------------
# Projection
# ---------------------------------------------------------------------------


def _factor(x: np.ndarray, design: HedgeDesign) -> tuple[np.ndarray, np.ndarray]:
    """The n x P matrix z = [1 | dynamic | static | residual | x] and its R factor."""
    z = np.column_stack([np.ones(design.n), design.dynamic, design.static, design.residual, x])
    return z, np.linalg.qr(z, mode="r")


def gkw_project(x: np.ndarray, design: HedgeDesign, basis: HedgeBasis,
                weight: Weight | None = None) -> GKWResult:
    """Four-step quotient projection of the payoff sample.

    (1) ridge-regress X on constant + dynamic gains + statics; (2)
    orthogonalise the residual-window columns against that span; (3) drop
    null and dependent quotient classes (one representative per class) and
    solve the quotient Gram normal equations; (4) measure the final
    remainder.  Non-constant columns are centred, so the constant
    coefficient returned as price is the sample mean of X.
    """
    z, r = _factor(np.asarray(x, dtype=float), design)
    return _project(z, r, list(range(len(design.dyn_words))), design, basis, weight)


def _project(z: np.ndarray, r_full: np.ndarray, dyn_keep: list[int], design: HedgeDesign,
             basis: HedgeBasis, weight: Weight | None) -> GKWResult:
    """gkw_project on the dynamic columns dyn_keep, read from the R factor of z."""
    n = z.shape[0]
    n_dyn, n_stat, n_res = len(design.dyn_words), len(design.static_labels), len(design.res_words)
    p_base = 1 + len(dyn_keep) + n_stat
    undersampled = n < 10 * (p_base + n_res)
    if undersampled:
        warnings.warn(f"only {n} samples for {p_base + n_res} columns; "
                      "coefficients will be noisy", RuntimeWarning, stacklevel=3)
    cols = [0, *(1 + i for i in dyn_keep), *range(1 + n_dyn, z.shape[1])]
    # z[:, cols] = Q r with the constant column first, so r[0, j] = r[0, 0] * mean_j
    # and zeroing it centres column j: every instrument enters at its sample
    # price, and the constant coefficient is the sample E_Q[X].
    r = np.linalg.qr(r_full[:, cols], mode="r")
    means = r[0, 1:p_base] / r[0, 0]
    r[0, 1:p_base] = 0.0
    base = r[:, :p_base]
    lam1 = basis.ridge
    if lam1 is None:  # the trace of the centred base Gram, constant column included
        lam1 = RIDGE_SCALE * float((base * base).sum()) / n / p_base
    # (1)-(2): one ridge solve for X and the residual columns, the constant unpenalised
    a, rhs = base, r[:, p_base:]
    if lam1 != 0.0:
        a = np.vstack([base, math.sqrt(n * lam1) * np.eye(p_base)[1:]])
        rhs = np.vstack([rhs, np.zeros((p_base - 1, rhs.shape[1]))])
    coef = np.linalg.lstsq(a, rhs, rcond=None)[0]
    theta, beta = coef[:, :-1], coef[:, -1]
    fitted = r[:, p_base:] - base @ coef
    quot, eps_hat = fitted[:, :-1], fitted[:, -1]

    # (3) one representative per linear-dependence class: greedy selection
    # keeps a direction only if its component orthogonal to the span and to
    # previously kept directions retains relative mass.
    y_norms = np.sqrt((r[:, p_base:-1] ** 2).sum(axis=0) / n)
    keep, ortho = [], []
    for i in range(n_res):
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
    dropped = tuple(design.res_words[i] for i in range(n_res) if i not in keep)

    c, gram_min = np.zeros(0), math.nan
    if keep:
        r_kept = quot[:, keep]
        gram = r_kept.T @ r_kept / n
        eigs = np.linalg.eigvalsh(gram)
        gram_min = float(eigs[0])
        lam3 = basis.ridge if basis.ridge is not None else RIDGE_SCALE * float(np.trace(gram)) / gram.shape[0]
        if lam3 == 0.0 and gram_min <= 1e-12 * max(float(eigs[-1]), 1e-300):
            # identify offenders through the near-null eigenvector support
            vec = np.linalg.eigh(gram)[1][:, 0]
            raise DegenerateGram([design.res_words[keep[i]] for i in np.argsort(-np.abs(vec))[:3]])
        c = np.linalg.solve(gram + lam3 * np.eye(gram.shape[0]), r_kept.T @ eps_hat / n)
    remainder = eps_hat - quot[:, keep] @ c
    residual_norm = math.sqrt(float(remainder @ remainder) / n)

    # (4) the per-path remainder X - g0 - sum_j (z_j - mean_j) g_j - sum_i c_i res_i
    # is one matvec with z, for the sampling error of residual_norm
    g = beta - theta[:, keep] @ c
    w = np.zeros(z.shape[1])
    w[cols[:p_base]] = -g
    w[0] += means @ g[1:]
    w[[cols[p_base + i] for i in keep]] = -c
    w[-1] = 1.0
    se_rn_sq = float(np.std((z @ w) ** 2, ddof=1)) / math.sqrt(n) if n > 1 else 0.0
    residual_norm_se = se_rn_sq / (2.0 * residual_norm) if residual_norm > 0.0 else 0.0
    payoff_l2 = math.sqrt(float(r_full[:, -1] @ r_full[:, -1]) / n)
    kappa_bound = None
    if weight is not None:
        try:
            kappa_bound = kappa_tail(weight, basis.residual_window[1]) * payoff_l2
        except ValueError:
            kappa_bound = None  # non-summable weight tail

    dyn_coeffs = {design.dyn_words[j]: float(beta[1 + i]) for i, j in enumerate(dyn_keep)}
    static_coeffs = dict(zip(design.static_labels, map(float, beta[p_base - n_stat:])))
    residual_coeffs = {design.res_words[j]: float(c[i]) for i, j in enumerate(keep)}
    return GKWResult(price=float(beta[0]), dynamic_coeffs=dyn_coeffs,
                     static_coeffs=static_coeffs, residual_coeffs=residual_coeffs,
                     residual_norm=residual_norm, residual_norm_se=residual_norm_se,
                     dynamic_residual_norm=math.sqrt(float(eps_hat @ eps_hat) / n),
                     kappa_bound=kappa_bound, gram_min_eigenvalue=gram_min,
                     dropped_words=dropped, payoff_l2=payoff_l2, n_samples=n,
                     undersampled=undersampled)


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
               basis: HedgeBasis | None = None) -> list[DepthScanRow]:
    """Residual norms across integrand depths on one shared path set.

    Repeated depths are dropped and the rest sorted, so each depth gives one
    row.  The design at the largest depth is assembled and factored once and
    every depth is read from that factor, so the spans are exactly nested and
    monotonicity holds up to the ridge.
    """
    depths = sorted({exact_int(depth, "depths") for depth in depths})
    if not depths or depths[0] < 0:
        raise ValueError("depth scan needs at least one depth, each >= 0")
    if basis is None:
        basis = HedgeBasis(depths[-1])
    full_basis = replace(basis, integrand_depth=max(depths[-1], basis.integrand_depth))
    data = simulate_hedge_dataset(params, full_basis, payoff_kind, payoff_params,
                                  n_paths, seed)
    design = data.design
    z, r = _factor(data.payoffs, design)
    rows = []
    for depth in depths:
        keep = [i for i, w in enumerate(design.dyn_words) if len(w) <= depth]
        result = _project(z, r, keep, design, full_basis, None)
        rows.append(DepthScanRow(depth, result.residual_norm, result.residual_norm_se))
    return rows
