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
(Reutenauer, Free Lie Algebras, 1993).  ell shuffle ell and each new
J'.j's eta_j * (ell shuffle e_J') come from shuffle_product.  The
terms compile to one sparse form in canonical order, which the vector field
contracts with one np.bincount over 2*n bins for n carried coordinates.  An
overflowing ell shuffle ell or eta times ell shuffle e_J coefficient is
rejected among the terms of the closure, the only ones built.

A flow is given its model once, as SigVolParams (ell, eta, s0, T and the
weight), and its start once, to build_generator, which owns the shuffle
window and the default truncation and records both in the table.
integrate_flow takes only the table and its tolerances.  The flow
d(psi)/dtau = R(psi) is integrated with an explicit embedded 4/5 pair with
steps sized by a relative error norm; finite-time blow-up is the object of
study, so the integrator detects explosion (weighted norm above a threshold,
or step underflow) instead of trying to continue through it.  A solved flow carries
the transform value lambda0.

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

# riccati does not call shuffle_words; it is bound here only for perfbench/tracing.py, which
# wraps it where riccati binds it
from .algebra import GradedTensor, Word, shuffle_product, shuffle_words  # noqa: F401
from .sde import PathBlock, SigVolParams, stream_paths

X_LABEL = "X"
_NON_FINITE = "ell is too large: ell shuffle ell or eta_j * (ell shuffle e_J) overflows a float"


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
    """The distinct values of an int array, ascending.

    np.unique gives the same, but numpy 2.4 hashes there, 4-17 times slower on 1e4 to 3e6
    ints on a 2-core host, and its first call imports numpy.ma (12-18 ms a process)."""
    a = np.sort(a)
    return a[np.diff(a, prepend=a[:1] - 1) != 0]


def _key(cols: list[np.ndarray], sizes: list[int]) -> np.ndarray:
    """One int64 per row of columns, column i in range(sizes[i]), in the rows' lexicographic order."""
    if math.prod(sizes) > 2**63:
        raise ValueError(f"columns of {' x '.join(map(str, sizes))} values are too many to "
                         "order as one key")
    key = 0
    for col, size in zip(cols, sizes):
        key = key * size + col
    return key


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
                # words lie in range(n**(p + q))
                row = _key([owner, w], [keys.size, n ** (p + q)])
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
    """sum_n w(n) |u_n|_2 over the (w(n), level u_n) parts in order, plus |x| when given.

    Each |u_n|^2 is the correctly rounded sum of the squares (math.fsum), so a level's zeros,
    and which of its words are held at all, cannot move a bit; inf where that overflows."""
    total = 0.0
    try:
        for w, level in parts:
            total += w * math.sqrt(math.fsum([c * c for c in level.tolist()]))
    except OverflowError:  # finite squares whose sum overflows
        return math.inf
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
    """The drift b^I_J and carre-du-champ Gamma^I_{J,K} of a model on the closure of a start.

    words are the closure's words in canonical order, and field.live numbers
    them, and X last when it is live, as coordinates of the truncation-N
    state.  The quadratic coefficients are Gamma, halved when in1 == in2 (the
    1/2 sum over ordered pairs folded into unordered storage).  u0 is the
    start's carried vector, and params the model whose flow the table drives.
    """

    trunc: int
    params: SigVolParams
    words: list[Word]
    field: VectorField
    u0: np.ndarray

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

    def norm_reader(self) -> Callable[[np.ndarray], float]:
        """weighted_norm of a carried vector, sum_n w(n) |u_n|_2 plus |u_X|, w the model's weight.

        Canonical order keeps each level's carried words contiguous, so a level is one slice
        of the carried vector; the slices and each w(n) are fixed here, once."""
        weight, m = self.params.weight, len(self.words)
        lengths = [len(w) for w in self.words]
        levels = sorted(set(lengths))
        bounds = [lengths.index(k) for k in levels] + [m]
        cuts = [(weight(k), slice(a, b)) for k, a, b in zip(levels, bounds, bounds[1:])]
        has_x = self.state_dim > m

        def norm(u: np.ndarray) -> float:
            return weighted_norm([(w, u[at]) for w, at in cuts], float(u[m]) if has_x else None)

        return norm


def build_generator(start: RiccatiState, params: SigVolParams,
                    trunc: int | None = None) -> GeneratorTable:
    """The generator/carre-du-champ table of the model params on the closure of start.

    The log-price coordinate X is live when start.u_x is non-zero, and only
    then are ell and eta read.  The shuffle window is 2*deg(start), and with
    X live the larger of that plus deg(ell) and 2*deg(ell), the degree of
    ell shuffle ell.  trunc defaults to the window, and at least 2; below
    the window the field would silently change, and ShuffleWindowError is
    raised instead."""
    d, x_live = params.dim, start.x_live
    window = 2 * start.sig.support_degree
    if x_live:
        ell, eta = params.ell, params.eta
        window = max(window + ell.support_degree, 2 * ell.support_degree)
    if trunc is None:
        trunc = max(window, 2)
    if trunc < window:
        raise ShuffleWindowError(f"truncation {trunc} below the shuffle window {window}")
    # X's coordinate x numbers every word up to trunc, and the Gamma lookup keys a coordinate
    # by its last letter as last * (x + 1) + coordinate: every key must fit an int64
    if trunc * math.log2(d + 1) >= 63 or (d + 1) * (_offset(trunc + 1, d) + 1) > 2**63:
        raise ValueError(f"truncation {trunc} is too deep: the coordinates of the words up to "
                         f"that length over {d + 1} letters overflow int64")
    if start.sig.dim != d:
        raise ValueError("dimension mismatch with the model")
    if x_live and not math.isfinite(start.u_x):
        raise ValueError("direction coefficients and u_x must be finite")
    n = d + 1
    offset = np.array([_offset(k, d) for k in range(trunc + 2)], dtype=np.intp)
    x = int(offset[-1])  # X's coordinate, the number of words

    def split(coords):  # (length, code) of word coordinates
        k = np.searchsorted(offset, coords, side="right") - 1
        return k, coords - offset[k]

    def words_of(coords) -> list[Word]:  # the words of ascending coordinates
        k, code = split(coords)
        words = []
        for length in range(trunc + 1):
            digits = code[k == length, None] // n ** np.arange(length - 1, -1, -1) % n
            words += map(tuple, digits.tolist())
        return words

    def shuffled(a: GradedTensor, b: GradedTensor) -> tuple[np.ndarray, np.ndarray]:
        """(coordinates, coefficients) of a shuffle b up to trunc."""
        try:
            coeffs = shuffle_product(a, b, trunc).coeffs
        except ValueError:  # a sum overflowed
            raise ValueError(_NON_FINITE) from None
        return (np.array([_word_index(w, d) for w in coeffs], dtype=np.intp),
                np.array(list(coeffs.values())))

    # blocks of (output, input, b) and (output, in1, in2, c) coordinates
    empty = np.zeros(0, dtype=np.intp)
    drift, quad = [(empty, empty, np.zeros(0))], [(empty, empty, empty, np.zeros(0))]
    support = np.array([_word_index(w, d) for w in start.sig.coeffs], dtype=np.intp)
    new = np.sort(support)
    if x_live:
        out, c = shuffled(ell, ell)
        at_x = np.full(out.size, x)
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

        # X with each new J'.j: eta_j * (ell shuffle e_J'), finite, as |eta_j| <= 1 + 1e-12 and a
        # finite ell shuffle ell, which sums every c_u^2, bounds each |c_u| by 1.4e154
        if x_live:
            takes = np.flatnonzero((last >= 1) & (eta[last - 1] != 0.0))
            stems = words_of(offset[k[takes] - 1] + stem[takes])
            for word, j, stem_word in zip(new[takes].tolist(), last[takes].tolist(), stems):
                out, c = shuffled(ell, GradedTensor.basis(d, stem_word))
                quad.append((out, np.full(out.size, word), np.full(out.size, x), eta[j - 1] * c))
                reached.append(out)
        new = _distinct(np.concatenate(reached))
        new = new[live[np.minimum(np.searchsorted(live, new), live.size - 1)] != new]

    words = words_of(live)
    u0 = np.zeros(live.size + x_live)
    u0[np.searchsorted(live, support)] = list(start.sig.coeffs.values())
    if x_live:  # X's coordinate is the largest, so live stays sorted
        live = np.append(live, x)
        u0[-1] = start.u_x
    forms = []
    for blocks in (drift, quad):
        cols = [np.concatenate(col) for col in zip(*blocks)]
        at = [np.searchsorted(live, col) for col in cols[:-1]]  # each position, its index in live
        # by output, then inputs: the canonical order
        order = np.argsort(_key(at, [live.size] * len(at)))
        forms.append([col[order] for col in at + cols[-1:]])
    (d_out, d_in, d_c), (q_out, q_in1, q_in2, q_c) = forms
    field = VectorField(live, np.concatenate([d_out, q_out + live.size]),
                        np.concatenate([d_in, q_in1]), q_in2, np.concatenate([d_c, q_c]))
    return GeneratorTable(trunc, params, words, field, u0)


# ---------------------------------------------------------------------------
# States and the vector field
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RiccatiState:
    """Flow state: coefficient tensor over words, optional log-price slot."""

    sig: GradedTensor
    u_x: float | None = None

    @property
    def x_live(self) -> bool:
        """Whether the log-price coordinate X moves: u_x is given and non-zero."""
        return self.u_x not in (None, 0.0)


@dataclass(frozen=True)
class FlowOutcome:
    """Result and integrator statistics of one flow.

    steps and rejected count accepted and rejected steps, min_step and
    max_step bound the accepted step sizes (None before the first), and
    live holds the coordinates the flow integrated, in ascending order.
    trace holds (tau, carried vector) at the start and after each accepted
    step: position i of a carried vector is coordinate live[i], and every
    other coordinate of the state is +0.0; a solved flow's last entry is its
    state at the horizon.  A solved flow's lambda0 is the
    transform value E exp(<u, W_T> + u_X log S_T) = exp(psi_empty(T) +
    u_X log s0), inf where that overflows a float.
    """

    solved: bool
    steps: int
    live: np.ndarray
    t_star: float | None = None
    norm_at_detection: float | None = None
    detail: str = ""
    trace: list | None = None
    rejected: int = 0
    min_step: float | None = None
    max_step: float | None = None
    lambda0: float | None = None

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
STEP_FLOOR = 1e-12  # a proposed step below this is an explosion verdict


def integrate_flow(table: GeneratorTable, tol: float = 1e-10,
                   explosion_threshold: float = 1e6) -> FlowOutcome:
    """Adaptive embedded 4/5 integration of d(psi)/dtau = R(psi) from the table's start.

    Integrates the coordinates of build_generator's table, from its start
    u0 to the model's horizon, and the trace holds their vectors.  A step h
    from u is accepted when err = max_i |u4_i - u5_i| / (tol + tol *
    max(|u_i|, |u5_i|)) <= 1, the scaled error norm of Hairer, Norsett and
    Wanner (Solving ODEs I, II.4), and the next step is h * min(2, 0.9 *
    err^(-1/5)); a rejected one is retried at h * max(0.2, 0.9 * err^(-1/5)),
    or at h / 2 when err is not finite.  The first step is horizon / 64, and
    a step only shortened to end on the horizon proposes nothing.  Declares
    Exploded once the norm of the state, weighted by the model's weight,
    passes the threshold, or when a proposed step, accepted or rejected, is
    below STEP_FLOOR (or below the first step, on a horizon shorter than 64
    floors).  tol must be finite and positive, the threshold positive or
    inf.  Each stage sums the weighted earlier stages in order with
    np.add.reduce over the stacked rows, as a left-to-right sum does, then
    scales the sum by the step and adds the state: u + step * sum, bit for
    bit.  A stage or an error ratio that overflows on the way to a blow-up
    is rejected, silently.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be finite and positive")
    if not explosion_threshold > 0.0:
        raise ValueError("explosion threshold must be > 0 (inf disables it)")
    u, horizon = table.u0, table.params.horizon
    rhs, norm = table.field, table.norm_reader()
    live, n = rhs.live, len(rhs.live)
    t = 0.0
    h = horizon / 64.0  # the proposed step
    floor = min(STEP_FLOOR, h)
    accepted, rejected = [], 0  # accepted step sizes, count of rejected steps
    trace = [(0.0, u)]

    def outcome(solved=False, **fields) -> FlowOutcome:
        return FlowOutcome(solved, len(accepted), live, trace=trace, rejected=rejected,
                           min_step=min(accepted, default=None),
                           max_step=max(accepted, default=None), **fields)

    ks = np.empty((7, n))  # the stages; row 0 is the FSAL slope
    products, stage = np.empty((7, n)), np.empty(n)
    # per sum: its tableau row spread to (i, n), so no product broadcasts, and the views it reads
    sums = [(np.repeat(row, n, axis=1), ks[: len(row)], products[: len(row)]) for row in _DP_ROWS]
    multiply, add, reduce = np.multiply, np.add, np.add.reduce

    def advance(k: int, out: np.ndarray) -> np.ndarray:
        """u + step * (sum k of the stages) into out."""
        row, stages, terms = sums[k]
        reduce(multiply(row, stages, terms), 0, None, out)
        multiply(out, step, out)
        return add(out, u, out)

    rhs(u, ks[0])
    while t < horizon:
        if h < floor:
            return outcome(t_star=t, norm_at_detection=norm(u), detail="step underflow below floor")
        step = min(h, horizon - t)
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(1, 6):
                rhs(advance(i - 1, stage), ks[i])
            u5 = advance(5, np.empty(n))
            rhs(u5, ks[6])
            u4 = advance(6, stage)
            # a non-finite u5 makes a ratio inf or NaN, and either fails the test
            scale = tol + tol * np.maximum(np.abs(u), np.abs(u5))
            err = float((np.abs(u4 - u5) / scale).max(initial=0.0))
        if err <= 1.0:
            t += step
            u = u5
            ks[0] = ks[6]  # FSAL
            accepted.append(step)
            trace.append((t, u))
            size = norm(u)
            if size > explosion_threshold:
                return outcome(t_star=t, norm_at_detection=size, detail="norm threshold crossed")
            h = step * (min(2.0, 0.9 * err**-0.2) if err > 0.0 else 2.0)
        else:
            rejected += 1
            h = step * (max(0.2, 0.9 * err**-0.2) if err < math.inf else 0.5)
    # at tau = 0 the signature is the unit e_empty and X is log s0: the empty word is position
    # 0 when it is carried, X the last position
    psi = float(u[0]) if n and live[0] == 0 else 0.0
    u_x = float(u[-1]) if n > len(table.words) else 0.0
    try:
        lambda0 = math.exp(psi + u_x * math.log(table.params.s0))
    except OverflowError:
        lambda0 = math.inf
    return outcome(True, lambda0=lambda0)


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
    if not u0.x_live:
        params = replace(params, ell=GradedTensor.zero(params.dim))

    def walk(paths: PathBlock) -> np.ndarray:
        for _ in paths.steps():
            pass
        expo = paths.sig.pair(u0.sig)
        if u0.x_live:
            expo += u0.u_x * (math.log(params.s0) + paths.log_s)
        return np.exp(expo)

    ranges = stream_paths(params, n_paths, seed, walk, u0.sig.coeffs)
    if n_paths < 2:  # the standard error needs two
        raise ValueError("need at least 2 paths")
    moments = _Moments()
    for samples in ranges:  # in path order, which the moments' fixed chunks follow
        moments.add(samples)
    moments.finish()
    var = moments.m2 / (moments.count - 1)
    return TransformMC(moments.mean, math.sqrt(var / moments.count), moments.count)
