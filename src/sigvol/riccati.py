"""Riccati flows on the closure of their start, and Monte Carlo transform checks.

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
comes last.  A flow moves only the closure of its start's support: a drift
term reaches its output from a live input, a Gamma term from two.
build_generator grows the closure and its terms together, in rounds over
the words that have just become live, each pair of live words taken once.
Gamma comes from one table per round of the prefix pairs it needs, grown
with (u.x shuffle v.y) = (u shuffle v.y).x + (u.x shuffle v).y
(Reutenauer, Free Lie Algebras, 1993); ell shuffle ell from
shuffle_product; and eta_j * (ell shuffle e_J') from sums over ell's words
in ell's order, shuffle_product's order, dropped when exactly 0.0.  The
terms compile to one sparse form in canonical order, which the vector field
contracts with one np.bincount over 2*n bins for n carried coordinates.  A
non-finite eta, or an overflowing ell shuffle ell or eta times ell shuffle
e_J coefficient, is rejected among the terms of the closure, the only ones
built.

The flow d(psi)/dtau = R(psi) is integrated with an explicit embedded 4/5
pair with adaptive steps; finite-time blow-up is the object of study, so the
integrator detects explosion (weighted norm above a threshold, or step
underflow) instead of trying to continue through it.

mc_transform checks a transform value on the price engine's paths.  It
reads the model (ell, eta, s0, T, steps) from SigVolParams, the value the
CLI checks once for every command, and nothing from the generator table,
so the check stays independent of the flow it checks.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

# riccati does not call shuffle_words; it is bound here only for perfbench/tracing.py, which
# wraps it where riccati binds it
from .algebra import GradedTensor, Weight, Word, shuffle_product, shuffle_words  # noqa: F401
from .sde import SigVolParams, stream_paths
from .signature import check_word_count

X_LABEL = "X"
_NON_FINITE = "eta must be finite, and so must ell shuffle ell and eta times ell shuffle e_J"


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


def _distinct(a: np.ndarray) -> np.ndarray:
    """The distinct values of an int array, ascending."""
    a = np.sort(a)
    return a[np.diff(a, prepend=a[:1] - 1) != 0]


def _key(cols: list[np.ndarray], size: int) -> np.ndarray:
    """One int64 per row of columns with values in range(size), in the rows' lexicographic order."""
    if size ** len(cols) > 2**63:
        raise ValueError(f"{len(cols)} columns of {size} values are too many to order as one key")
    return functools.reduce(lambda key, col: key * size + col, cols)


def _ranges(starts: np.ndarray, stops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(owner, index): every index of the ranges [starts[i], stops[i]), and the i of its range."""
    lens = stops - starts
    owner = np.repeat(np.arange(lens.size), lens)
    return owner, np.arange(owner.size) + np.repeat(starts - np.cumsum(lens) + lens, lens)


def _shuffles(u, a, v, b, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows (t, w, m), one per word w of u[t] shuffle v[t], m its multiplicity.

    u[t] and v[t] code words of lengths a[t] and b[t] over n letters, w one of
    length a[t] + b[t].  Cell (p, q) holds the shuffles of the pairs' distinct
    length-(p, q) prefixes, keyed u * n**q + v and sorted by key and word: the
    (p-1, q) shuffle with u's next letter appended and the (p, q-1) one with
    v's, the rows that meet summed."""
    found, above = [], {}
    # the prefixes of v of each length q, for the pairs that have one
    prefixes = [(b >= q, v // n ** np.maximum(b - q, 0)) for q in range(int(b.max(initial=0)) + 1)]
    for p in range(int(a.max(initial=0)) + 1):
        cells, up = {}, u // n ** np.maximum(a - p, 0)
        for q, (has_q, vq) in enumerate(prefixes):
            need = (a >= p) & has_q
            if not need.any():
                break
            keys = _distinct(up[need] * n**q + vq[need])
            if p == 0 or q == 0:  # one word is empty, and the key is the code of the other
                starts, w, m = np.arange(keys.size + 1), keys, np.ones(keys.size, dtype=np.intp)
            else:
                ku, kv = np.divmod(keys, n**q)
                parts = []
                for (pkeys, pstarts, pw, pm), pkey, letter in (
                        (above[q], ku // n * n**q + kv, ku % n),
                        (cells[q - 1], ku * n ** (q - 1) + kv // n, kv % n)):
                    i = np.searchsorted(pkeys, pkey)
                    owner, idx = _ranges(pstarts[i], pstarts[i + 1])
                    parts.append((owner, pw[idx] * n + letter[owner], pm[idx]))
                owner, w, m = (np.concatenate(col) for col in zip(*parts))
                # keys and words both lie in range(n**(p + q))
                row = _key([owner, w], n ** (p + q))
                order = np.argsort(row)
                row, m = row[order], m[order]
                at = np.flatnonzero(np.diff(row, prepend=row[:1] - 1))  # the first row of each
                (owner, w), m = np.divmod(row[at], n ** (p + q)), np.add.reduceat(m, at)
                starts = np.searchsorted(owner, np.arange(keys.size + 1))
            cells[q] = keys, starts, w, m
            ends = np.flatnonzero(need & (a == p) & (b == q))  # the pairs themselves
            owner, idx = _ranges(*(starts[np.searchsorted(keys, u[ends] * n**q + v[ends]) + s]
                                   for s in (0, 1)))
            found.append((ends[owner], w[idx], m[idx]))
        above = cells
    empty = np.zeros(0, dtype=np.intp)
    return tuple(np.concatenate(col) for col in zip((empty,) * 3, *found))


def weighted_norm(parts: list[tuple[float, np.ndarray]], x: float | None) -> float:
    """sum_n w(n) |u_n|_2 over the (w(n), level u_n) parts in order, plus |x| when given."""
    total = 0.0
    for w, level in parts:
        # the dot over the whole level, zeros included: dropping them can move the last bit
        total += w * math.sqrt(float(np.dot(level, level)))
    return total if x is None else total + abs(x)


@dataclass(frozen=True)
class VectorField:
    """R(psi), the drift plus the quadratic part, on the coordinates of a closure.

    Position i of a carried vector holds coordinate live[i] of the state.
    The drift terms come first, then the quadratic ones, whose outputs are
    shifted by len(live) and whose second inputs are in2, each part in
    canonical order.
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


@dataclass(frozen=True)
class GeneratorTable:
    """The drift b^I_J and carre-du-champ Gamma^I_{J,K} on the closure of a flow's start.

    words are the closure's words in canonical order, and field.live numbers
    them, and X last when it is live, as coordinates of the truncation-N
    state.  The quadratic coefficients are Gamma, halved when in1 == in2 (the
    1/2 sum over ordered pairs folded into unordered storage).
    """

    trunc: int
    dim: int
    extended: bool
    words: list[Word]
    field: VectorField

    @property
    def state_dim(self) -> int:  # the number of coordinates the closure carries
        return len(self.field.live)

    @property
    def labels(self) -> list:
        return self.words + [X_LABEL] * (self.state_dim - len(self.words))

    @property
    def gamma(self) -> np.ndarray:
        """Gamma^I_{J,K} of every quadratic term; perfbench counts its terms."""
        f = self.field
        in1, c = f.in1[f.in1.size - f.in2.size :], f.coeffs[f.coeffs.size - f.in2.size :]
        return np.where(in1 == f.in2, 2.0 * c, c)

    def vector(self, sig: GradedTensor, u_x: float | None = None) -> np.ndarray:
        """The carried vector of a direction whose support lies in the closure."""
        at, terms = {label: i for i, label in enumerate(self.labels)}, dict(sig.coeffs)
        if u_x not in (None, 0.0):
            terms[X_LABEL] = u_x
        if sig.dim != self.dim or not terms.keys() <= at.keys():
            raise ValueError("direction outside the table's closure")
        u = np.zeros(self.state_dim)
        u[[at[label] for label in terms]] = list(terms.values())
        if not np.isfinite(u).all():
            raise ValueError("direction coefficients and u_x must be finite")
        return u

    def tensor(self, u: np.ndarray) -> tuple[GradedTensor, float | None]:
        coeffs = {w: u[i] for i, w in enumerate(self.words) if u[i] != 0.0}
        # X outside the closure stays 0.0
        u_x = float(u[-1]) if self.state_dim > len(self.words) else 0.0
        return GradedTensor(self.dim, self.trunc, coeffs), (u_x if self.extended else None)

    def norm_reader(self, weight: Weight | None) -> Callable[[np.ndarray], float]:
        """weighted_norm of a carried vector, sum_n w(n) |u_n|_2 plus |u_X|.

        Each level that holds a carried word is one zero-padded copy of the
        whole level, into which the reader writes the carried entries; the
        layout and each w(n) are fixed here, once."""
        n, m = self.dim + 1, len(self.words)
        levels = sorted({len(w) for w in self.words})
        first = dict(zip(levels, np.cumsum([0] + [n**k for k in levels]).tolist()))
        padded = np.zeros(sum(n**k for k in levels))
        spots = np.array([first[len(w)] + i - _offset(len(w), self.dim)
                          for w, i in zip(self.words, self.field.live.tolist())], dtype=np.intp)
        parts = [(1.0 if weight is None else weight(k), padded[first[k] : first[k] + n**k])
                 for k in levels]
        has_x = self.state_dim > m

        def norm(u: np.ndarray) -> float:
            padded[spots] = u[:m]
            return weighted_norm(parts, float(u[m]) if has_x else None)

        return norm


@np.errstate(over="ignore", invalid="ignore")  # a non-finite coefficient raises below instead
def build_generator(trunc: int, d: int, start: RiccatiState,
                    extended: tuple[GradedTensor, np.ndarray] | None = None) -> GeneratorTable:
    """The generator/carre-du-champ table at truncation level trunc on the closure of start.

    extended, when given, is the pair (ell, eta) adjoining the log-price coordinate X, live
    when start.u_x is non-zero; it requires trunc >= 2*deg(ell) so that ell shuffle ell is
    representable without silently changing the vector field."""
    if trunc < 0 or d < 1:
        raise ValueError("need trunc >= 0 and d >= 1")
    check_word_count(d, trunc)  # first: the coordinates number every word up to trunc
    n = d + 1
    offset = np.array([_offset(k, d) for k in range(trunc + 2)], dtype=np.intp)
    x = int(offset[-1])  # X's coordinate, the number of words
    if extended is not None:
        ell, eta = extended
        eta = np.asarray(eta, dtype=float)
        if ell.dim != d or eta.shape != (d,):
            raise ValueError("extended block needs ell over the same alphabet and eta in R^d")
        if trunc < 2 * ell.support_degree:
            raise ShuffleWindowError(
                f"extended table needs trunc >= 2*deg(ell) = {2 * ell.support_degree}, got {trunc}")
        ell_codes = [(len(w), _word_index(w, d) - _offset(len(w), d)) for w in ell.coeffs]
        c_ell = np.array(list(ell.coeffs.values()))
    if start.sig.dim != d:
        raise ValueError("dimension mismatch with table")
    if start.support_degree > trunc:
        raise ValueError("state support exceeds table truncation")
    x_live = start.u_x not in (None, 0.0)
    if x_live and extended is None:
        raise ValueError("u_x supplied but the table is not price-extended")
    if start.u_x is not None and not math.isfinite(start.u_x):
        raise ValueError("direction coefficients and u_x must be finite")

    def split(coords):  # (length, code) of word coordinates
        k = np.searchsorted(offset, coords, side="right") - 1
        return k, coords - offset[k]

    # blocks of (output, input, b) and (output, in1, in2, c) coordinates
    empty = np.zeros(0, dtype=np.intp)
    drift, quad = [(empty, empty, np.zeros(0))], [(empty, empty, empty, np.zeros(0))]
    new = np.array(sorted({_word_index(w, d) for w in start.sig.coeffs}), dtype=np.intp)
    if x_live:
        try:
            square = shuffle_product(ell, ell, trunc)
        except ValueError:  # a sum overflowed
            raise ValueError(_NON_FINITE) from None
        out = np.array([_word_index(w, d) for w in square.coeffs], dtype=np.intp)
        at_x, c = np.full(out.size, x), np.array(list(square.coeffs.values()))
        drift.append((out, at_x, -0.5 * c))
        quad.append((out, at_x, at_x, 0.5 * c))
        new = _distinct(np.concatenate([new, out]))
    live = empty
    while new.size:
        live = np.sort(np.concatenate([live, new]))
        k, code = split(new)
        last, stem = code % n, code // n
        reached = []

        # drift: J.0 feeds J with 1, J.j.j feeds J with 1/2
        for keep, cut, b in (((k >= 1) & (last == 0), 1, 1.0),
                             ((k >= 2) & (last >= 1) & (stem % n == last), 2, 0.5)):
            drift.append((offset[k[keep] - cut] + code[keep] // n**cut, new[keep],
                          np.full(keep.sum(), b)))
            reached.append(drift[-1][0])

        # Gamma(J'.j, K'.j) = e_J' shuffle e_K' for each new J'.j and live K'.j, |J'| + |K'| <=
        # trunc: sorted by last letter, then coordinate, those K'.j are one run of the live words
        ys = np.sort(split(live)[1] % n * (x + 1) + live)
        j = last[last >= 1] * (x + 1)
        owner, idx = _ranges(np.searchsorted(ys, j), np.searchsorted(
            ys, j + offset[np.minimum(trunc + 3 - k[last >= 1], trunc + 1)]))
        first, second = new[last >= 1][owner], ys[idx] % (x + 1)
        # a pair of two new words is taken in one order
        once = (first <= second) | (new[np.minimum(np.searchsorted(new, second), new.size - 1)] != second)
        in1, in2 = np.minimum(first, second)[once], np.maximum(first, second)[once]
        (a, u), (b, v) = split(in1), split(in2)
        t, w, m = _shuffles(u // n, a - 1, v // n, b - 1, n)
        # Gamma, halved where in1 == in2
        quad.append((offset[a + b - 2][t] + w, in1[t], in2[t], m * np.where(in1 == in2, 0.5, 1.0)[t]))
        reached.append(quad[-1][0])

        # X with each new J'.j: one pair per word of ell, whose rank orders the sum
        if x_live:
            takes = (last >= 1) & (eta[last - 1] != 0.0)
            mixed = [np.flatnonzero(takes & (k - 1 + p <= trunc)) for p, _ in ell_codes]
            rank = np.repeat(np.arange(len(ell_codes)), [s.size for s in mixed])
            sel = np.concatenate([empty, *mixed])
            (p, cu), q = np.array(ell_codes, dtype=np.intp).reshape(-1, 2)[rank].T, k[sel] - 1
            t, w, m = _shuffles(cu, p, stem[sel], q, n)
            order = np.argsort(rank[t], kind="stable")  # ell's order
            keys, inverse = np.unique(_key([new[sel][t], offset[p + q][t] + w], x)[order],
                                      return_inverse=True)
            # each (J'.j, output) sums its terms in ell's order, from 0.0
            sums = np.bincount(inverse, weights=(m * c_ell[rank[t]])[order])
            kept = sums != 0.0
            word, out = np.divmod(keys[kept], x)
            c = eta[split(word)[1] % n - 1] * sums[kept]
            if not np.isfinite(c).all():
                raise ValueError(_NON_FINITE)
            quad.append((out, word, np.full(out.size, x), c))
            reached.append(out)
        new = _distinct(np.concatenate(reached))
        new = new[live[np.minimum(np.searchsorted(live, new), live.size - 1)] != new]

    k, code = split(live)
    words = []
    for length in range(trunc + 1):
        digits = code[k == length, None] // n ** np.arange(length - 1, -1, -1) % n
        words += map(tuple, digits.tolist())
    # each coordinate's position: a slot per word up to the last live one, then X's
    top = int(live[-1]) + 1 if live.size else 0
    slot = np.zeros(top + 1, dtype=np.intp)
    if x_live:
        live = np.append(live, x)
    slot[np.minimum(live, top)] = np.arange(live.size)
    forms = []
    for blocks, arity in ((drift, 2), (quad, 3)):
        cols = [np.concatenate(col) for col in zip(*blocks)]
        at = [slot[np.minimum(col, top)] for col in cols[:-1]]
        order = np.argsort(_key(at, live.size))  # by output, then inputs: the canonical order
        forms.append([col[order] for col in at + cols[-1:]])
    (d_out, d_in, d_c), (q_out, q_in1, q_in2, q_c) = forms
    field = VectorField(live, np.concatenate([d_out, q_out + live.size]),
                        np.concatenate([d_in, q_in1]), q_in2, np.concatenate([d_c, q_c]))
    return GeneratorTable(trunc, d, extended is not None, words, field)


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
    table is build_generator's table of a start whose closure holds u0's
    support, normally u0 itself; the flow integrates its coordinates, and the
    trace holds their vectors.  Each stage sums the weighted earlier stages
    in order with np.add.reduce over the stacked rows, as a left-to-right
    sum does, then scales the sum by h and adds the state: u + h * sum, bit
    for bit.
    """
    if not 0.0 < horizon < math.inf:
        raise ValueError("horizon must be finite and positive")
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be finite and positive")
    if not explosion_threshold > 0.0:
        raise ValueError("explosion threshold must be > 0 (inf disables it)")
    u = table.vector(u0.sig, u0.u_x)
    rhs, norm = table.field, table.norm_reader(weight)
    live, n = rhs.live, len(rhs.live)
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
            size = norm(u)
            if size > explosion_threshold:
                return outcome(t_star=t, norm_at_detection=size, detail="norm threshold crossed")
            h = h * min(2.0, 0.9 * (tol / err) ** 0.2 if err > 0.0 else 2.0)
        else:
            rejected += 1
            h *= 0.5
            if h < STEP_FLOOR:
                return outcome(t_star=t, norm_at_detection=norm(u),
                               detail="step underflow below floor")
    sig, u_x = table.tensor(u)
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
