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
inputs of every term plus a coefficient array, in canonical label order.
Coordinates are numbered in that order, so the compile sorts the integer
index tuples (np.lexsort) rather than the labels.  The vector field
multiplies each coefficient by its inputs and sums the products per output
with np.bincount, the drift first and the quadratic part second.

The flow d(psi)/dtau = R(psi) is integrated with an explicit embedded 4/5
pair with adaptive steps; finite-time blow-up is the object of study, so the
integrator detects explosion (weighted norm above a threshold, or step
underflow) instead of trying to continue through it.  It steps only the
closure of the initial support under the terms (a drift term reaches its
output from a live input, a Gamma term from two): every other coordinate
stays exactly 0.0, and each dropped term adds +-0 to a sum that starts at
0.0, so the carried flow is bit for bit the full-state flow.  Accepted
states are expanded to the full state for the trace, the weighted norm and
the result.
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


def _sparse_form(terms: dict, index: dict, arity: int) -> tuple[np.ndarray, ...]:
    """(output, inputs..., coefficients) arrays of label-keyed terms, in canonical order.

    index numbers the labels in canonical order (words by length, then
    lexicographically, X last) and keys are unique, so sorting the index
    tuples sorts the labels.
    """
    idx = np.fromiter((index[label] for key in terms for label in key), dtype=np.intp,
                      count=len(terms) * arity).reshape(len(terms), arity)
    order = np.lexsort(idx.T[::-1])
    coeffs = np.fromiter(terms.values(), dtype=float, count=len(terms))
    return (*idx[order].T.copy(), coeffs[order])


def _contract(form: tuple[np.ndarray, ...], u: np.ndarray, n: int) -> np.ndarray:
    """sum over terms of c * u[in1] * u[in2] ..., accumulated per output in term order."""
    out, *inputs, weights = form
    for idx in inputs:
        weights = weights * u[idx]
    # bincount returns int64 for an empty form
    return np.bincount(out, weights=weights, minlength=n).astype(float, copy=False)


@dataclass(frozen=True)
class VectorField:
    """R(psi), the drift plus the quadratic part, on the live coordinates of a table.

    Position i of a carried vector holds coordinate live[i] of the full state.
    The forms keep, in compiled order, the terms whose inputs are all live.
    A dropped term that reads a live coordinate adds +-0 to the full field,
    or NaN once that value is non-finite or overflows the product; such terms
    read and write one trailing slot, which stays 0.0 until such a NaN turns
    up, so a step is rejected exactly when the full-state step is.
    """

    live: np.ndarray
    drift: tuple
    quad: tuple
    size: int

    def __call__(self, v: np.ndarray) -> np.ndarray:
        out = _contract(self.drift, v, self.size)
        out += _contract(self.quad, v, self.size)
        return out

    def carry(self, u: np.ndarray) -> np.ndarray:
        """The carried vector of a full state."""
        v = np.zeros(self.size)
        v[: len(self.live)] = u[self.live]
        return v

    def expand(self, v: np.ndarray, n: int) -> np.ndarray:
        """The full state of a carried vector; unreached coordinates read +0.0."""
        u = np.zeros(n)
        u[self.live] = v[: len(self.live)]
        return u


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
        out, in1, in2, coeffs = _sparse_form(self.gamma, self.index, 3)
        # fold the 1/2 sum over ordered pairs into unordered storage
        self.quad = (out, in1, in2, np.where(in1 == in2, 0.5 * coeffs, coeffs))
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

    def vector_field(self, support: np.ndarray) -> VectorField:
        """The vector field on the closure of a boolean support under the terms.

        A drift term reaches its output when its input is live, a Gamma term
        when both inputs are; outside the closure the flow stays exactly 0.0.
        """
        live = np.asarray(support, dtype=bool)
        forms = (self.drift, self.quad)
        while True:
            reached = live.copy()
            for out, *inputs, _ in forms:
                reached[out[np.logical_and.reduce([live[i] for i in inputs])]] = True
            if np.array_equal(reached, live):
                break
            live = reached
        carried = np.flatnonzero(live)
        slot = len(carried)
        pos = np.full(live.size, slot, dtype=np.intp)
        pos[carried] = np.arange(slot)
        restricted, leaks = [], False
        for out, *inputs, coeffs in forms:
            read = [live[i] for i in inputs]
            kept = np.logical_and.reduce(read)
            leak = ~kept & (np.logical_or.reduce(read) | ~np.isfinite(coeffs))
            leaks |= bool(leak.any())
            take = kept | leak
            restricted.append((np.where(kept, pos[out], slot)[take],
                               *(pos[i][take] for i in inputs), coeffs[take]))
        return VectorField(carried, *restricted, slot + int(leaks))


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
                # tails are in canonical order, so no later K is short enough
                if len(J) + len(K) - 2 > trunc:
                    break
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


@dataclass(frozen=True)
class FlowOutcome:
    """Result and integrator statistics of one flow.

    steps and rejected count accepted and rejected steps, min_step and
    max_step bound the accepted step sizes (None before the first), and
    carried is the number of coordinates the flow integrated.
    """

    solved: bool
    state: RiccatiState | None
    steps: int
    t_star: float | None = None
    norm_at_detection: float | None = None
    detail: str = ""
    trace: list | None = None
    rejected: int = 0
    min_step: float | None = None
    max_step: float | None = None
    carried: int = 0


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
    Only the coordinates reachable from the support of u0 are integrated;
    every accepted state is expanded to the full state for the trace, the
    norm and the result, which are those of the full-state integration.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    full = table.vector(u0.sig, u0.u_x)
    rhs = table.vector_field(full != 0.0)
    u = rhs.carry(full)
    t = 0.0
    h = horizon / 64.0
    accepted, rejected = [], 0  # accepted step sizes, count of rejected steps
    trace = [(0.0, full.copy())] if record else None

    def outcome(state=None, **failure) -> FlowOutcome:
        return FlowOutcome(state is not None, state, len(accepted), trace=trace,
                           rejected=rejected, min_step=min(accepted, default=None),
                           max_step=max(accepted, default=None), carried=len(rhs.live),
                           **failure)

    k1 = rhs(u)
    while t < horizon:
        h = min(h, horizon - t)
        ks = [k1]
        for row in _DP_A[1:]:
            stage = u + h * sum(a * k for a, k in zip(row, ks))
            ks.append(rhs(stage))
        u5 = u + h * sum(b * k for b, k in zip(_DP_B5, ks))
        k7 = rhs(u5)
        u4 = u + h * sum(b * k for b, k in zip(_DP_B4, ks + [k7]))
        err_vec = u5 - u4
        finite = np.isfinite(u5).all() and np.isfinite(err_vec).all()
        err = float(np.abs(err_vec).max(initial=0.0)) if finite else math.inf
        if err <= tol:
            t += h
            u = u5
            k1 = k7  # FSAL
            accepted.append(h)
            full = rhs.expand(u, table.state_dim)
            if record:
                trace.append((t, full))
            norm = table.weighted_norm(full, weight)
            if norm > explosion_threshold:
                return outcome(t_star=t, norm_at_detection=norm, detail="norm threshold crossed")
            h = h * min(2.0, 0.9 * (tol / err) ** 0.2 if err > 0.0 else 2.0)
        else:
            rejected += 1
            h *= 0.5
            if h < step_floor:
                return outcome(t_star=t, norm_at_detection=table.weighted_norm(full, weight),
                               detail="step underflow below floor")
    sig, u_x = table.tensor(full)
    return outcome(RiccatiState(sig, u_x, horizon))


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
    r_n = table_n.vector_field(np.ones(table_n.state_dim, dtype=bool))(u_n)
    r_m = table_m.vector_field(np.ones(table_m.state_dim, dtype=bool))(u_m)
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
