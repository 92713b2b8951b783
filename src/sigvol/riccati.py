"""Truncated generator tables, Riccati flows and transform evaluation.

The prolonged-signature coordinates Y_I = <e_I, W_t> form a triangular
Stratonovich system; converting to Ito form gives the sparse drift and
carre-du-champ constants

    A Y_{J.0}   = Y_J                      (time letter appended)
    A Y_{J.j.j} = (1/2) Y_J                (repeated Brownian last letter)
    Gamma(Y_{J'.j}, Y_{K'.j}) = coefficients of e_{J'} shuffle e_{K'},

zero when the last Brownian letters differ or a word ends in the time
letter.  Adjoining the log-price coordinate X = log S adds a drift
-(1/2) <ell shuffle ell, .> for X, Gamma(X, X) = ell shuffle ell and
Gamma(X, Y_{I.j}) = eta_j * (ell shuffle e_I).  These rules are validated
against Monte Carlo drift/covariation regressions in the test suite.

Both parts compile to one sparse form: index arrays for the output and the
inputs of every term plus a coefficient array, in canonical label order.  The
vector field multiplies each coefficient by its inputs and sums the products
per output with np.bincount, the drift first and the quadratic part second.

The flow d(psi)/dtau = R(psi) is integrated with an explicit embedded 4/5
pair with adaptive steps; finite-time blow-up is the object of study, so the
integrator detects explosion (weighted norm above a threshold, or step
underflow) instead of trying to continue through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    EMPTY_WORD,
    GradedTensor,
    Weight,
    Word,
    shuffle_product,
    shuffle_words,
)
from .sde import SigVolParams, stream_paths
from .signature import all_words

X_LABEL = "X"


class ShuffleWindowError(ValueError):
    """Truncation too small for the shuffle degrees involved."""


class RiccatiExplosion(RuntimeError):
    def __init__(self, t_star: float, norm: float, detail: str = ""):
        super().__init__(f"Riccati flow exploded at t*={t_star:.6g} (norm {norm:.3g}) {detail}")
        self.t_star = t_star
        self.norm = norm


def _label_key(label):
    # words first in canonical order, the log-price coordinate last
    if label == X_LABEL:
        return (1, (0,), ())
    return (0, (len(label),), label)


def _sparse_form(terms: dict, index: dict, arity: int) -> tuple[np.ndarray, ...]:
    """(output, inputs..., coefficients) arrays of label-keyed terms, in canonical order."""
    keys = sorted(terms, key=lambda key: tuple(map(_label_key, key)))
    idx = np.array([[index[label] for label in key] for key in keys], dtype=np.intp)
    return (*idx.reshape(len(keys), arity).T, np.array([terms[key] for key in keys], dtype=float))


def _contract(form: tuple[np.ndarray, ...], u: np.ndarray, n: int) -> np.ndarray:
    """sum over terms of c * u[in1] * u[in2] ..., accumulated per output in term order."""
    out, *inputs, weights = form
    for idx in inputs:
        weights = weights * u[idx]
    # bincount returns int64 for an empty form
    return np.bincount(out, weights=weights, minlength=n).astype(float, copy=False)


@dataclass
class GeneratorTable:
    """Sparse drift b^I_J and carre-du-champ Gamma^I_{J,K} at truncation N.

    Keys are (output, input) resp. (output, in1, in2) with in1 <= in2 in
    canonical order; inputs may be the log-price label "X" when extended,
    outputs are always words.  The pure-signature block never depends on
    ell; ell and eta enter only through the extended block.
    """

    trunc: int
    dim: int
    extended: bool
    ell: GradedTensor | None
    eta: np.ndarray | None
    words: list[Word]
    index: dict
    b: dict = field(default_factory=dict)
    gamma: dict = field(default_factory=dict)

    # compiled sparse forms (see _sparse_form), set by _compile
    drift: tuple = None
    quad: tuple = None
    level_slices: list = None

    @property
    def state_dim(self) -> int:
        return len(self.words) + (1 if self.extended else 0)

    @property
    def labels(self) -> list:
        return list(self.words) + ([X_LABEL] if self.extended else [])

    @property
    def x_index(self) -> int:
        if not self.extended:
            raise ValueError("table has no log-price coordinate")
        return len(self.words)

    def _compile(self) -> None:
        self.drift = _sparse_form(self.b, self.index, 2)
        # fold the 1/2 sum over ordered pairs into unordered storage
        self.quad = _sparse_form({key: 0.5 * c if key[1] == key[2] else c
                                  for key, c in self.gamma.items()}, self.index, 3)
        self.level_slices = []
        start = 0
        for lvl in range(self.trunc + 1):
            count = (self.dim + 1) ** lvl
            self.level_slices.append(slice(start, start + count))
            start += count

    # -- state/vector conversions ------------------------------------------

    def vector(self, sig: GradedTensor, u_x: float | None = None) -> np.ndarray:
        if sig.dim != self.dim:
            raise ValueError("dimension mismatch with table")
        if sig.support_degree > self.trunc:
            raise ValueError("state support exceeds table truncation")
        u = np.zeros(self.state_dim)
        for w, c in sig.coeffs.items():
            u[self.index[w]] = c
        if self.extended:
            u[self.x_index] = 0.0 if u_x is None else float(u_x)
        elif u_x not in (None, 0.0):
            raise ValueError("u_x supplied but the table is not price-extended")
        return u

    def tensor(self, u: np.ndarray) -> tuple[GradedTensor, float | None]:
        coeffs = {w: u[i] for i, w in enumerate(self.words) if u[i] != 0.0}
        sig = GradedTensor(self.dim, self.trunc, coeffs)
        return sig, (float(u[self.x_index]) if self.extended else None)

    def weighted_norm(self, u: np.ndarray, weight: Weight | None) -> float:
        total = 0.0
        for lvl, sl in enumerate(self.level_slices):
            ln = math.sqrt(float(np.dot(u[sl], u[sl])))
            total += (weight(lvl) if weight is not None else 1.0) * ln
        if self.extended:
            total += abs(float(u[self.x_index]))
        return total


def build_generator(trunc: int, d: int,
                    extended: tuple[GradedTensor, np.ndarray] | None = None) -> GeneratorTable:
    """Assemble the generator/carre-du-champ table at truncation level trunc.

    extended, when given, is the pair (ell, eta) adjoining the log-price
    coordinate; it requires trunc >= 2*deg(ell) so that ell shuffle ell is
    representable without silently changing the vector field.
    """
    if trunc < 0 or d < 1:
        raise ValueError("need trunc >= 0 and d >= 1")
    words = all_words(d, trunc)
    index: dict = {w: i for i, w in enumerate(words)}
    ell = eta = None
    if extended is not None:
        ell, eta = extended
        eta = np.asarray(eta, dtype=float)
        if ell.dim != d or eta.shape != (d,):
            raise ValueError("extended block needs ell over the same alphabet and eta in R^d")
        if trunc < 2 * ell.support_degree:
            raise ShuffleWindowError(
                f"extended table needs trunc >= 2*deg(ell) = {2 * ell.support_degree}, got {trunc}")
    table = GeneratorTable(trunc, d, extended is not None, ell, eta, words, index)
    if table.extended:
        index[X_LABEL] = len(words)

    # pure-signature drift
    for J in words:
        if not J:
            continue
        if J[-1] == 0:
            table.b[(J[:-1], J)] = table.b.get((J[:-1], J), 0.0) + 1.0
        elif len(J) >= 2 and J[-2] == J[-1]:
            out = J[:-2]
            table.b[(out, J)] = table.b.get((out, J), 0.0) + 0.5

    # pure-signature carre-du-champ
    brownian_tails: dict[int, list[Word]] = {j: [] for j in range(1, d + 1)}
    for J in words:
        if J and J[-1] >= 1:
            brownian_tails[J[-1]].append(J)
    for j, tails in brownian_tails.items():
        for a, J in enumerate(tails):
            for K in tails[a:]:
                if len(J) + len(K) - 2 > trunc:
                    continue
                for w, m in shuffle_words(J[:-1], K[:-1]):
                    key = (w, J, K)
                    table.gamma[key] = table.gamma.get(key, 0.0) + float(m)

    # price-extended block
    if table.extended:
        ell_sq = shuffle_product(ell, ell, trunc)
        for w, c in ell_sq.coeffs.items():
            table.b[(w, X_LABEL)] = -0.5 * c
            table.gamma[(w, X_LABEL, X_LABEL)] = c
        for J in words:
            if not J or J[-1] == 0:
                continue
            scale = eta[J[-1] - 1]
            if scale == 0.0:
                continue
            mixed = shuffle_product(ell, GradedTensor.basis(d, trunc, J[:-1]), trunc)
            for w, c in mixed.coeffs.items():
                table.gamma[(w, J, X_LABEL)] = table.gamma.get((w, J, X_LABEL), 0.0) + scale * c

    table._compile()
    return table


# ---------------------------------------------------------------------------
# States and the vector field
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RiccatiState:
    """Flow state: coefficient tensor over words, optional log-price slot."""

    sig: GradedTensor
    u_x: float | None = None
    tau: float = 0.0

    @property
    def support_degree(self) -> int:
        return self.sig.support_degree


def _rhs_vector(u: np.ndarray, table: GeneratorTable) -> np.ndarray:
    """Linear drift part plus half the quadratic carre-du-champ contraction."""
    out = _contract(table.drift, u, table.state_dim)
    out += _contract(table.quad, u, table.state_dim)
    return out


@dataclass(frozen=True)
class FlowOutcome:
    solved: bool
    state: RiccatiState | None
    steps: int
    t_star: float | None = None
    norm_at_detection: float | None = None
    detail: str = ""
    trace: list | None = None


# Dormand-Prince 5(4) tableau
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)


def integrate_flow(u0: RiccatiState, horizon: float, table: GeneratorTable,
                   tol: float = 1e-8, explosion_threshold: float = 1e6,
                   weight: Weight | None = None, step_floor: float = 1e-12,
                   record: bool = False) -> FlowOutcome:
    """Adaptive embedded 4/5 integration of d(psi)/dtau = R(psi).

    Declares Exploded once the weighted norm of the state passes the
    threshold, or when step halving pushes the step below step_floor.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    u = table.vector(u0.sig, u0.u_x)
    t = 0.0
    h = horizon / 64.0
    steps = 0
    trace = [(0.0, u.copy())] if record else None
    k1 = _rhs_vector(u, table)
    while t < horizon:
        h = min(h, horizon - t)
        ks = [k1]
        for row in _DP_A[1:]:
            stage = u + h * sum(a * k for a, k in zip(row, ks))
            ks.append(_rhs_vector(stage, table))
        u5 = u + h * sum(b * k for b, k in zip(_DP_B5, ks))
        k7 = _rhs_vector(u5, table)
        u4 = u + h * sum(b * k for b, k in zip(_DP_B4, ks + [k7]))
        err_vec = u5 - u4
        finite = np.all(np.isfinite(u5)) and np.all(np.isfinite(err_vec))
        err = float(np.max(np.abs(err_vec))) if finite else math.inf
        if err <= tol:
            t += h
            u = u5
            k1 = k7  # FSAL
            steps += 1
            if record:
                trace.append((t, u.copy()))
            norm = table.weighted_norm(u, weight)
            if norm > explosion_threshold:
                return FlowOutcome(False, None, steps, t_star=t, norm_at_detection=norm,
                                   detail="norm threshold crossed", trace=trace)
            h = h * min(2.0, 0.9 * (tol / err) ** 0.2 if err > 0.0 else 2.0)
        else:
            h *= 0.5
            if h < step_floor:
                norm = table.weighted_norm(u, weight)
                return FlowOutcome(False, None, steps, t_star=t, norm_at_detection=norm,
                                   detail="step underflow below floor", trace=trace)
    sig, u_x = table.tensor(u)
    return FlowOutcome(True, RiccatiState(sig, u_x, horizon), steps, trace=trace)


def transform_value(u0: RiccatiState, horizon: float, table: GeneratorTable,
                    x0: float = 0.0, tol: float = 1e-10,
                    explosion_threshold: float = 1e6) -> float:
    """Lambda_0 = exp(psi_empty(T) + u_x * x0): at t=0 the signature is e_0.

    Raises RiccatiExplosion when the flow blows up before the horizon.
    """
    outcome = integrate_flow(u0, horizon, table, tol=tol,
                             explosion_threshold=explosion_threshold)
    if not outcome.solved:
        raise RiccatiExplosion(outcome.t_star, outcome.norm_at_detection, outcome.detail)
    psi0 = outcome.state.sig[EMPTY_WORD]
    exponent = psi0
    if table.extended:
        exponent += outcome.state.u_x * x0
    return math.exp(exponent)


def scalar_explosion_bound(a: float, y0: float) -> float:
    """Comparison deadline 2/(a y0): 1/y_t <= 1/y0 - (a/2) t forces blow-up."""
    if a <= 0.0 or y0 <= 0.0:
        raise ValueError("a and y0 must be positive")
    return 2.0 / (a * y0)


# ---------------------------------------------------------------------------
# Projection compatibility
# ---------------------------------------------------------------------------


def required_window(u0: RiccatiState, ell: GradedTensor | None) -> int:
    """Shuffle-degree window: 2*deg(u) plus deg(ell) when price-extended."""
    need = 2 * u0.support_degree
    if ell is not None:
        need += ell.support_degree
    return need


def projection_compatibility(u0: RiccatiState, table_n: GeneratorTable,
                             table_m: GeneratorTable) -> bool:
    """Exact check of pi_M R_N(u) == R_M(pi_M u) for u supported in <= M.

    The shuffle window M >= 2*deg(u) (+ deg(ell) when extended) is enforced
    as a precondition; silent truncation would change the vector field.
    """
    n, m = table_n.trunc, table_m.trunc
    if m > n:
        raise ValueError("expected table_m.trunc <= table_n.trunc")
    if table_n.extended != table_m.extended:
        raise ValueError("tables must both be extended or both pure")
    if u0.support_degree > m:
        raise ShuffleWindowError("state must be supported in levels <= M")
    window = required_window(u0, table_m.ell if table_m.extended else None)
    if m < window:
        raise ShuffleWindowError(f"window violated: need M >= {window}, got {m}")
    u_n = table_n.vector(u0.sig, u0.u_x)
    u_m = table_m.vector(u0.sig, u0.u_x)
    r_n = _rhs_vector(u_n, table_n)
    r_m = _rhs_vector(u_m, table_m)
    n_words_m = len(table_m.words)
    proj = r_n[:n_words_m].copy()
    if table_m.extended:
        proj = np.append(proj, r_n[table_n.x_index])
    return bool(np.array_equal(proj, r_m))


# ---------------------------------------------------------------------------
# Monte Carlo cross-check of transform values
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransformMC:
    mean: float
    se: float
    n_paths: int


class _Moments:
    """Mean and M2 of a sample stream, merged over fixed chunks of the stream.

    Chunks are combined with the pairwise rule of Chan, Golub and LeVeque,
    which stays accurate when the mean is large against the spread; fixed
    chunks make the result independent of how the stream is batched.
    """

    chunk = 4096

    def __init__(self):
        self.count, self.mean, self.m2 = 0, 0.0, 0.0
        self._held = np.zeros(0)

    def add(self, samples: np.ndarray) -> None:
        self._held = np.concatenate([self._held, samples])
        self._merge(self._held.size - self._held.size % self.chunk)

    def finish(self) -> None:
        self._merge(self._held.size)

    def _merge(self, cut: int) -> None:
        for start in range(0, cut, self.chunk):
            part = self._held[start : min(start + self.chunk, cut)]
            n, mean = part.size, float(part.mean())
            delta, self.count = mean - self.mean, self.count + n
            self.mean += delta * n / self.count
            self.m2 += float(((part - mean) ** 2).sum()) + delta**2 * (self.count - n) * n / self.count
        self._held = self._held[cut:]


def mc_transform(u0: RiccatiState, table: GeneratorTable, horizon: float, steps: int,
                 n_paths: int, seed: int, s0: float = 1.0,
                 block: int = 16384) -> TransformMC:
    """MC estimate of E exp(<u0, W_T> + u_x log S_T) on simulated paths.

    Uses the same counter-based driver and path stepper as the price engine,
    so transform checks and price checks share path sets for a given seed.
    """
    use_price = u0.u_x not in (None, 0.0)
    if use_price and not table.extended:
        raise ValueError("u_x requires a price-extended table")
    # without the price, a zero ell leaves the stepper only the words of u0
    ell, eta = (table.ell, table.eta) if use_price else (GradedTensor.zero(table.dim, 0), np.eye(table.dim)[0])
    params = SigVolParams(ell, Weight.constant(), s0, eta, horizon, steps)
    moments = _Moments()
    for paths in stream_paths(params, n_paths, seed, u0.sig.coeffs, block):
        for _ in paths.steps():
            pass
        expo = np.zeros(paths.size)
        for w, c in u0.sig.coeffs.items():
            expo += c * paths.sig.coord(w)
        if use_price:
            expo += u0.u_x * (math.log(s0) + paths.log_s)
        moments.add(np.exp(expo))
    moments.finish()
    var = moments.m2 / max(moments.count - 1, 1)
    return TransformMC(moments.mean, math.sqrt(var / moments.count), moments.count)
