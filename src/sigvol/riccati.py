"""Truncated generator tables, Riccati flows and Monte Carlo transform checks.

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

A word a_1..a_n over {0..d} is coordinate ((d+1)^n - 1)/d + sum_i a_i
(d+1)^(n-i), its canonical position (by length, then lexicographic); X
comes last.  The drift is integer arithmetic on these codes, and both
Gamma blocks are read off one table of shuffle triples (u, v, w,
multiplicity) grown level by level with (u.x shuffle v.y) = (u shuffle
v.y).x + (u.x shuffle v).y (Reutenauer, Free Lie Algebras, 1993), whose
integer multiplicities no generation order can change.  The pure Gamma
takes the triples as they are; the price-extended block takes those whose
u is a word of ell (and, for ell shuffle ell, whose v is one too) and sums
each of its float coefficients over ell's words in ell's order, the order
of shuffle_product's loop, so it is that product's sum bit for bit.  Both
parts compile to a sparse form each (output and input index arrays plus
coefficients, put in canonical order by np.lexsort), which the vector field
contracts with one np.bincount over 2*n bins for n carried coordinates,
the quadratic outputs shifted by n.

The flow d(psi)/dtau = R(psi) is integrated with an explicit embedded 4/5
pair with adaptive steps; finite-time blow-up is the object of study, so the
integrator detects explosion (weighted norm above a threshold, or step
underflow) instead of trying to continue through it.  It steps only the
closure of the initial support under the terms (a drift term reaches its
output from a live input, a Gamma term from two), and only the terms whose
inputs are all in it: every other coordinate stays exactly 0.0.  A dropped
term then adds +-0 to a sum that starts at +0.0, which leaves the sum
unchanged, so the carried flow is bit for bit the full-state flow whenever
every dropped product c*v is finite.  Where one overflows, the full-state
field multiplies inf by an unreached 0.0, turns NaN and rejects the step,
while the carried flow goes on with the exact equation on the closure.  The
table's coefficients are finite: the shuffle multiplicities are, and
build_generator rejects a non-finite eta, or an ell shuffle ell or eta
times ell shuffle e_J coefficient that overflows.  The trace holds the
carried vectors alone; each accepted one is written into one full state,
which gives the result, and whose weighted norm reads only the levels that
hold a carried coordinate, since every other level adds exactly +0.0.

mc_transform checks a transform value on the price engine's paths.  It
reads the model (ell, eta, s0, T, steps) from SigVolParams, the value the
CLI checks once for every command, and nothing from the generator table,
so the check stays independent of the flow it checks.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

# riccati calls neither shuffle function; they are bound here only for perfbench/tracing.py,
# which wraps them where riccati binds them
from .algebra import GradedTensor, Weight, Word, shuffle_product, shuffle_words  # noqa: F401
from .sde import SigVolParams, stream_paths
from .signature import all_words

X_LABEL = "X"


class ShuffleWindowError(ValueError):
    """Truncation too small for the shuffle degrees involved."""


def _offset(length: int, d: int) -> int:
    """Coordinate of the first word of a length: the number of shorter words."""
    return ((d + 1) ** length - 1) // d


def _word_index(word: Word, d: int) -> int:
    """Coordinate of a word: the offset of its length plus its base-(d+1) code."""
    code = 0
    for letter in word:
        code = code * (d + 1) + letter
    return _offset(len(word), d) + code


def _form(blocks: list[tuple], arity: int) -> tuple[np.ndarray, ...]:
    """(output, inputs..., coefficients) of blocks of unique terms, in canonical order.

    Coordinates are numbered in canonical label order, so sorting the index
    tuples sorts the labels.
    """
    empty = (np.zeros(0, dtype=np.intp),) * arity + (np.zeros(0),)
    cols = [np.concatenate(col) for col in zip(empty, *blocks)]
    order = np.lexsort(cols[-2::-1])
    return tuple(col[order] for col in cols)


def _shuffle_triples(d: int, trunc: int):
    """Yield (a, b, (u, v, w, m)) for a <= b and a + b <= trunc.

    The rows list, over word codes u of length a and v of length b, every
    word w of u shuffle v with its multiplicity m.  S[a, b] appends a letter
    to u and w in the rows of S[a-1, b], and to v and w in those of
    S[a, b-1], which is kept as S[b-1, a] with u and v swapped; rows that
    meet twice are merged.  Keys stay below n**(2*trunc) < 2**63 as long as
    the rows fit in memory.
    """
    n = d + 1
    letters = np.arange(n)

    def append(word, other, w, m):
        # each letter appended to word and to w
        return ((word[:, None] * n + letters).ravel(), np.repeat(other, n),
                (w[:, None] * n + letters).ravel(), np.repeat(m, n))

    table = {}
    for b in range(trunc + 1):
        v = np.arange(n**b, dtype=np.intp)
        table[0, b] = (np.zeros_like(v), v, v, np.ones(v.size))
        yield 0, b, table[0, b]
    for total in range(2, trunc + 1):
        for a in range(1, total // 2 + 1):
            b = total - a
            u1, v1, w1, m1 = append(*table[a - 1, b])
            v2, u2, w2, m2 = append(*table[b - 1, a])
            keys = (np.concatenate([u1, u2]) * n**b + np.concatenate([v1, v2])) * n**total
            keys, inverse = np.unique(keys + np.concatenate([w1, w2]), return_inverse=True)
            (u, v), w = np.divmod(keys // n**total, n**b), keys % n**total
            table[a, b] = (u, v, w, np.bincount(inverse, weights=np.concatenate([m1, m2])))
            table[b, a] = (v, u, w, table[a, b][3])
            yield a, b, table[a, b]


@dataclass(frozen=True)
class VectorField:
    """R(psi), the drift plus the quadratic part, on the live coordinates of a table.

    Position i of a carried vector holds coordinate live[i] of the full state.
    The terms are the table's, in compiled order, whose inputs are all live:
    the drift terms first, then the quadratic ones, whose outputs are shifted
    by len(live) and whose second inputs are in2.  Every other term reads a
    coordinate outside the closure, which stays 0.0, so it adds +-0 to the
    full field as long as its product c*v is finite: on the carried
    coordinates this is then the full field bit for bit.  Where such a
    product is inf or NaN the full field turns NaN, and this one stays the
    field of the closure.
    """

    live: np.ndarray
    out: np.ndarray
    in1: np.ndarray
    in2: np.ndarray
    coeffs: np.ndarray

    def __call__(self, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """R(v), written to out when given."""
        n = len(self.live)
        weights = self.coeffs * v[self.in1]
        weights[weights.size - self.in2.size :] *= v[self.in2]
        # each half sums its terms in compiled order; dtype: bincount of no terms is int
        r = np.bincount(self.out, weights, 2 * n)
        return np.add(r[:n], r[n:], out, dtype=float)


@dataclass
class GeneratorTable:
    """Sparse drift b^I_J and carre-du-champ Gamma^I_{J,K} at truncation N.

    drift holds (output, input, b) and quad (output, in1, in2, c) with
    in1 <= in2 and c = Gamma, halved when in1 == in2 (the 1/2 sum over
    ordered pairs folded into unordered storage), both in canonical order of
    the coordinates: words, then the log-price coordinate X when extended.
    Outputs are always words.  The pure-signature block never depends on
    ell; ell and eta enter only through the extended block, and the table
    keeps neither.
    """

    trunc: int
    dim: int
    extended: bool
    words: list[Word]
    drift: tuple
    quad: tuple

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

    @property
    def gamma(self) -> np.ndarray:
        """Gamma^I_{J,K} of every quad term (quad halves it when J = K); perfbench counts its terms."""
        return np.where(self.quad[1] == self.quad[2], 2.0 * self.quad[3], self.quad[3])

    # -- state/vector conversions ------------------------------------------

    def vector(self, sig: GradedTensor, u_x: float | None = None) -> np.ndarray:
        if sig.dim != self.dim:
            raise ValueError("dimension mismatch with table")
        if sig.support_degree > self.trunc:
            raise ValueError("state support exceeds table truncation")
        u = np.zeros(self.state_dim)
        for w, c in sig.coeffs.items():
            u[_word_index(w, self.dim)] = c
        if self.extended:
            u[self.x_index] = 0.0 if u_x is None else float(u_x)
        elif u_x not in (None, 0.0):
            raise ValueError("u_x supplied but the table is not price-extended")
        if not np.isfinite(u).all():
            raise ValueError("direction coefficients and u_x must be finite")
        return u

    def tensor(self, u: np.ndarray) -> tuple[GradedTensor, float | None]:
        coeffs = {w: u[i] for i, w in enumerate(self.words) if u[i] != 0.0}
        sig = GradedTensor(self.dim, self.trunc, coeffs)
        return sig, (float(u[self.x_index]) if self.extended else None)

    def weighted_norm(self, u: np.ndarray, weight: Weight | None) -> float:
        """sum_n w(n) |u_n|_2 over the levels, plus |u_X| when extended."""
        return self.norm_reader(u, weight, range(self.trunc + 1))()

    def norm_reader(self, u: np.ndarray, weight: Weight | None, levels) -> Callable[[], float]:
        """weighted_norm of whatever the buffer u holds when called, read on levels alone.

        Each level's bounds and w(n) are fixed here, once.  Every other level
        of u must hold zeros, which with finite weights would add exactly +0.0.
        """
        parts = [(1.0 if weight is None else weight(n),
                  u[_offset(n, self.dim) : _offset(n + 1, self.dim)]) for n in levels]
        x = u[self.x_index :] if self.extended else None

        def norm() -> float:
            total = 0.0
            for w, level in parts:
                # the dot over the whole level, zeros included: dropping them can move the last bit
                total += w * math.sqrt(float(np.dot(level, level)))
            return total if x is None else total + abs(float(x[0]))

        return norm

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
        pos = np.zeros(live.size, dtype=np.intp)
        pos[carried] = np.arange(len(carried))
        restricted = []
        for out, *inputs, coeffs in forms:
            kept = np.logical_and.reduce([live[i] for i in inputs])
            restricted.append((pos[out[kept]], *(pos[i[kept]] for i in inputs), coeffs[kept]))
        (d_out, d_in, d_c), (q_out, q_in1, q_in2, q_c) = restricted
        return VectorField(carried, np.concatenate([d_out, q_out + len(carried)]),
                           np.concatenate([d_in, q_in1]), q_in2, np.concatenate([d_c, q_c]))


@np.errstate(over="ignore", invalid="ignore")  # a non-finite coefficient raises below instead
def build_generator(trunc: int, d: int,
                    extended: tuple[GradedTensor, np.ndarray] | None = None) -> GeneratorTable:
    """Assemble the generator/carre-du-champ table at truncation level trunc.

    extended, when given, is the pair (ell, eta) adjoining the log-price
    coordinate; it requires trunc >= 2*deg(ell) so that ell shuffle ell is
    representable without silently changing the vector field.
    """
    if trunc < 0 or d < 1:
        raise ValueError("need trunc >= 0 and d >= 1")
    words = all_words(d, trunc)  # first: it rejects a table too large to hold
    n = d + 1
    offset = [_offset(k, d) for k in range(trunc + 2)]
    if extended is not None:
        ell, eta = extended
        eta = np.asarray(eta, dtype=float)
        if ell.dim != d or eta.shape != (d,):
            raise ValueError("extended block needs ell over the same alphabet and eta in R^d")
        deg = ell.support_degree
        if trunc < 2 * deg:
            raise ShuffleWindowError(
                f"extended table needs trunc >= 2*deg(ell) = {2 * deg}, got {trunc}")
        # ell's coefficients, and rank[k][code]: the position in ell of its word of length k
        # and that code, or -1
        c_ell = np.array(list(ell.coeffs.values()))
        rank = [np.full(n**k, -1) for k in range(deg + 1)]
        for r, word in enumerate(ell.coeffs):
            rank[len(word)][_word_index(word, d) - offset[len(word)]] = r
    x = len(words)
    drift, quad = [], []

    # pure-signature drift: J.0 feeds J with 1, J.j.j feeds J with 1/2
    for k in range(trunc):
        prefix = np.arange(n**k, dtype=np.intp)
        drift.append((offset[k] + prefix, offset[k + 1] + prefix * n, np.ones(n**k)))
        for j in range(1, d + 1) if k + 2 <= trunc else ():
            drift.append((offset[k] + prefix, offset[k + 2] + (prefix * n + j) * n + j,
                          np.full(n**k, 0.5)))

    # One pass over the shuffle triples feeds both blocks.  Price-extended: each triple
    # whose left word u is a word of ell contributes (output key, summation rank, term) to
    # ell shuffle e_J', keyed by the output word and J'.0, with term m*c_u, and, when its
    # right word v is a word of ell too, to ell shuffle ell, keyed by the output word and
    # X, with term m*(c_u*c_v).  Pure carre-du-champ: Gamma(J'.j, K'.j) = e_J' shuffle
    # e_K', J' <= K'.
    parts = []
    for a, b, (u, v, w, m) in _shuffle_triples(d, trunc):
        for p, q, left, right in ((a, b, u, v), (b, a, v, u))[: 1 if a == b else 2]:
            if extended is None or p > deg:
                continue  # no word of ell on the left
            rows = np.flatnonzero(rank[p][left] >= 0)
            ru, mr = rank[p][left[rows]], m[rows]
            base = (offset[p + q] + w[rows]) * (x + 1)
            if q < trunc:
                parts.append((base + offset[q + 1] + right[rows] * n, ru * len(c_ell),
                              mr * c_ell[ru]))
            if q <= deg:
                rv = rank[q][right[rows]]
                both = rv >= 0
                ru, rv = ru[both], rv[both]
                parts.append((base[both] + x, ru * len(c_ell) + rv,
                              mr[both] * (c_ell[ru] * c_ell[rv])))
        if b == trunc:
            continue  # e_K' has no letter to append
        keep = u <= v if a == b else slice(None)
        u, v, w, m = u[keep], v[keep], w[keep], m[keep]
        for j in range(1, d + 1):
            quad.append((offset[a + b] + w, offset[a + 1] + u * n + j, offset[b + 1] + v * n + j, m))

    # Each output sums its contributions in ell's order, as shuffle_product's left-to-right
    # loop over ell (and over ell again for ell shuffle ell) does; exact-zero sums are
    # pruned as a GradedTensor prunes them, then eta_j scales ell shuffle e_J' into
    # Gamma(X, Y_J'.j).
    if extended is not None:
        empty = (np.zeros(0, dtype=np.intp),) * 2 + (np.zeros(0),)
        key, order, term = (np.concatenate(col) for col in zip(empty, *parts))
        order = np.argsort(order, kind="stable")
        keys, inverse = np.unique(key[order], return_inverse=True)
        sums = np.bincount(inverse, weights=term[order])
        kept = sums != 0.0
        (out, col), sums = np.divmod(keys[kept], x + 1), sums[kept]
        sq, mixed = col == x, col != x
        at_x = np.full(mixed.sum(), x, dtype=np.intp)
        terms = [(out[sq], col[sq], col[sq], sums[sq])]
        terms += [(out[mixed], col[mixed] + j, at_x, eta[j - 1] * sums[mixed])
                  for j in range(1, d + 1) if eta[j - 1] != 0.0]
        if not all(np.isfinite(c).all() for *_, c in terms):
            raise ValueError(
                "eta must be finite, and so must ell shuffle ell and eta times ell shuffle e_J")
        drift.append((out[sq], col[sq], -0.5 * sums[sq]))
        quad += terms

    out, in1, in2, coeffs = _form(quad, 3)
    return GeneratorTable(trunc, d, extended is not None, words, _form(drift, 2),
                          (out, in1, in2, np.where(in1 == in2, 0.5 * coeffs, coeffs)))


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
    live holds the coordinates the flow integrated, in ascending order.
    trace holds (tau, carried vector) at the start and after each accepted
    step: position i of a carried vector is coordinate live[i], and every
    other coordinate of the state is +0.0.
    """

    solved: bool
    state: RiccatiState | None
    steps: int
    live: np.ndarray
    t_star: float | None = None
    norm_at_detection: float | None = None
    detail: str = ""
    trace: list | None = None
    rejected: int = 0
    min_step: float | None = None
    max_step: float | None = None

    @property
    def carried(self) -> int:
        """The number of coordinates the flow integrated."""
        return len(self.live)


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
# the stage rows, then the weights of the 5th- and 4th-order sums, as columns, to weigh the
# stacked stages k_1..k_i at once
_DP_ROWS = [np.array(row)[:, None] for row in (*_DP_A[1:], _DP_B5, _DP_B4)]
STEP_FLOOR = 1e-12  # a step halved below this is an explosion verdict


def integrate_flow(u0: RiccatiState, horizon: float, table: GeneratorTable,
                   tol: float = 1e-8, explosion_threshold: float = 1e6,
                   weight: Weight | None = None) -> FlowOutcome:
    """Adaptive embedded 4/5 integration of d(psi)/dtau = R(psi).

    Declares Exploded once the weighted norm of the state passes the
    threshold, or when step halving pushes the step below STEP_FLOOR.  The
    horizon and tol must be finite and positive, the threshold positive or inf.
    Only the coordinates reachable from the support of u0 are integrated, and
    the trace holds their vectors; each accepted state is written into one
    full state, whose norm and final tensor are those of the full-state
    integration.  Each stage sums the weighted earlier stages in order with
    np.add.reduce over the stacked rows, as a left-to-right sum does, then
    scales the sum by h and adds the state: u + h * sum, bit for bit.
    """
    if not 0.0 < horizon < math.inf:
        raise ValueError("horizon must be finite and positive")
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be finite and positive")
    if not explosion_threshold > 0.0:
        raise ValueError("explosion threshold must be > 0 (inf disables it)")
    start = table.vector(u0.sig, u0.u_x)
    rhs = table.vector_field(start != 0.0)
    live, n = rhs.live, len(rhs.live)
    u = start[live]
    # the full state: unreached coordinates +0.0, the live ones written after each accepted step
    full = np.zeros(table.state_dim)
    full[live] = u
    levels = sorted({len(table.words[i]) for i in live.tolist() if i < len(table.words)})
    norm = table.norm_reader(full, weight, levels)
    t = 0.0
    h = horizon / 64.0
    accepted, rejected = [], 0  # accepted step sizes, count of rejected steps
    trace = [(0.0, u)]

    def outcome(state=None, **failure) -> FlowOutcome:
        return FlowOutcome(state is not None, state, len(accepted), trace=trace,
                           rejected=rejected, min_step=min(accepted, default=None),
                           max_step=max(accepted, default=None), live=live, **failure)

    ks = np.empty((7, n))  # the stages; row 0 is the FSAL slope
    products, stage = np.empty((7, n)), np.empty(n)
    # per sum: its tableau row spread to (i, n), so no product broadcasts, and the views it reads
    sums = [(np.repeat(row, n, axis=1), ks[: len(row)], products[: len(row)]) for row in _DP_ROWS]
    multiply, add, reduce = np.multiply, np.add, np.add.reduce

    def advance(k: int, out: np.ndarray) -> np.ndarray:
        """u + h * (sum k of the stages) into out."""
        row, stages, terms = sums[k]
        reduce(multiply(row, stages, terms), 0, None, out)
        multiply(out, h, out)
        return add(out, u, out)

    rhs(u, ks[0])
    while t < horizon:
        h = min(h, horizon - t)
        for i in range(1, 6):
            rhs(advance(i - 1, stage), ks[i])
        u5 = advance(5, np.empty(n))
        rhs(u5, ks[6])
        u4 = advance(6, stage)
        # a non-finite u5 makes the difference inf or NaN, and either fails the test
        err = float(np.abs(u4 - u5).max(initial=0.0))
        if err <= tol:
            t += h
            u = u5
            ks[0] = ks[6]  # FSAL
            accepted.append(h)
            trace.append((t, u))
            full[live] = u
            size = norm()
            if size > explosion_threshold:
                return outcome(t_star=t, norm_at_detection=size, detail="norm threshold crossed")
            h = h * min(2.0, 0.9 * (tol / err) ** 0.2 if err > 0.0 else 2.0)
        else:
            rejected += 1
            h *= 0.5
            if h < STEP_FLOOR:
                return outcome(t_star=t, norm_at_detection=norm(),
                               detail="step underflow below floor")
    sig, u_x = table.tensor(full)
    return outcome(RiccatiState(sig, u_x, horizon))


# ---------------------------------------------------------------------------
# Shuffle window
# ---------------------------------------------------------------------------


def required_window(u0: RiccatiState, ell: GradedTensor | None) -> int:
    """Shuffle-degree window of a flow from u0: 2*deg(u0), and when
    price-extended the larger of 2*deg(u0) + deg(ell) and 2*deg(ell), the
    degree of ell shuffle ell."""
    need = 2 * u0.support_degree
    if ell is not None:
        need = max(need + ell.support_degree, 2 * ell.support_degree)
    return need


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


def mc_transform(u0: RiccatiState, params: SigVolParams, n_paths: int, seed: int) -> TransformMC:
    """MC estimate of E exp(<u0, W_T> + u_x log S_T) under the model of params.

    Steps the driver's paths with the price engine's PathBlock, so transform
    checks and price checks share path sets for a given seed, and reads
    nothing of the generator table whose flow it checks.  Without u_x the
    price is not read, and a zero ell leaves the stepper only the words of u0.
    """
    use_price = u0.u_x not in (None, 0.0)
    if not use_price:
        params = replace(params, ell=GradedTensor.zero(params.dim, 0))
    moments = _Moments()
    for paths in stream_paths(params, n_paths, seed, u0.sig.coeffs):
        for _ in paths.steps():
            pass
        expo = np.zeros(paths.size)
        for w, c in u0.sig.coeffs.items():
            expo += c * paths.sig.coord(w)
        if use_price:
            expo += u0.u_x * (math.log(params.s0) + paths.log_s)
        moments.add(np.exp(expo))
    moments.finish()
    var = moments.m2 / max(moments.count - 1, 1)
    return TransformMC(moments.mean, math.sqrt(var / moments.count), moments.count)
