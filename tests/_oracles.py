"""Independent Monte Carlo oracles shared by the test modules.

The generator oracle regresses one-step drifts and quadratic covariations of
simulated signature coordinates on the coordinate vector.  The piecewise
linear scheme has conditional step moments that are polynomial of low degree
in dt for words of length <= 2, so a three-grid Richardson extrapolation
(independent seeds per resolution) removes the dt and dt^2 terms and leaves
estimates of the continuous-time constants with only O(dt^3) dust.  Group
replication supplies the standard errors.  None of this reuses the
generator-table code paths.

sparse_signatures is the reference signature: one path's sparse tensors at
every grid time, each linear segment's exponential chained on with
concat_product.  build_design is the per-path reference route for the
streamed hedging design, and volatility_path the one for xi = <ell, W_t>:
both read such sparse signatures, not the batch engine.  gkw_project_tall
is the reference route for the one-factor GKW projection: tall ridge solves
(ridge_lstsq, default_ridge) on the centred n-row design base_matrix, per
depth of restrict_depth.  riccati_rhs
evaluates a closure table's vector field on a RiccatiState.
build_generator_by_label builds the whole generator table word by word into
label-keyed dicts, compile_by_label sorts such terms by their labels, and
full_table compiles them into a FullTable, whose closure() fixpoint is the
reference for build_generator's closure table: the two routes, label table
then fixpoint, and closure grown with its terms, must agree bit for bit.
with_terms puts hand-built label-keyed terms into a FullTable, whose
closure() is how they reach integrate_flow; integrate_flow_full steps every
coordinate of a FullTable's state, the reference for the closure flow.
transform_value, RiccatiExplosion and scalar_explosion_bound read a flow as
a transform value and bound a scalar blow-up.  brownian_values is the path-major Brownian driver (one Philox draw
per block, Box-Muller on all of it, a cumulative sum over steps), and
path_major_steps steps the batch engine on its increments and takes the Ito
sums with np.cumsum: the reference routes for the chunked, step-major driver
and the stepper's feed and sums.
reference_chen_step is the batch engine's Chen step as a fresh array per
gather, product and level, the reference for its in-place, buffered step;
levels and to_tensor copy out an engine's carried coordinates.
project_leq cuts a tensor to its levels <= a given length, and
projection_compatibility checks exactly that build_generator's truncation-N
vector field projects onto the truncation-M one on states inside the
shuffle window.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import norm

from sigvol.algebra import (
    EMPTY_WORD,
    GradedTensor,
    concat_product,
    dual_pairing,
    shuffle_product,
    shuffle_words,
)
from sigvol import hedging
from sigvol.hedging import (
    RIDGE_SCALE,
    DegenerateGram,
    GKWResult,
    HedgeBasis,
    HedgeDesign,
    _static_block,
    _window_words,
    default_strikes,
    kappa_tail,
)
from sigvol.riccati import (
    _DP_A,
    _DP_B4,
    _DP_B5,
    STEP_FLOOR,
    X_LABEL,
    FlowOutcome,
    GeneratorTable,
    RiccatiState,
    ShuffleWindowError,
    VectorField,
    _offset,
    _word_index,
    build_generator,
    integrate_flow,
    required_window,
    weighted_norm,
)
from sigvol.signature import BatchSignature, all_words


def _accumulate_group(d, steps, n_paths, seed, horizon, design_words, target_words,
                      cov_pairs, extended=None):
    """One group's normal equations for drift and covariation targets.

    Returns (beta_drift, beta_cov) with one coefficient column per design
    word; targets are d(Y_I)/dt for every target word and d<Y_J, Y_K>/dt for
    every pair, plus the log-price targets when extended=(ell, eta, s0).
    The conditional step means of targets up to one level above the design
    depth lie in the design span, so the regression is exactly unbiased.
    """
    inc = np.diff(brownian_values(d, horizon, steps, n_paths, seed), axis=1)
    dt = horizon / steps
    n_words = len(design_words)
    trunc = max(len(w) for w in target_words)
    sig = BatchSignature(n_paths, d, trunc)
    n_drift = len(target_words) + (1 if extended else 0)
    n_cov = len(cov_pairs)
    xtx = np.zeros((n_words, n_words))
    xty_drift = np.zeros((n_words, n_drift))
    xty_cov = np.zeros((n_words, n_cov))
    coords = sig.coords(design_words)
    targets = sig.coords(target_words)
    if extended:
        ell, eta, _ = extended
        xi = sig.pair(ell)
    for k in range(steps):
        sig.chen_step(inc[:, k, :])
        new_coords = sig.coords(design_words)
        new_targets = sig.coords(target_words)
        dy = new_targets - targets
        if extended:
            db = inc[:, k, 1:] @ eta
            dx_log = xi * db - 0.5 * xi**2 * dt
        targets_d = dy / dt
        if extended:
            targets_d = np.column_stack([targets_d, dx_log / dt])
        cols = []
        for a, b in cov_pairs:
            va = dx_log if a == "X" else dy[:, target_words.index(a)]
            vb = dx_log if b == "X" else dy[:, target_words.index(b)]
            cols.append(va * vb / dt)
        targets_c = np.column_stack(cols) if cols else np.zeros((n_paths, 0))
        xtx += coords.T @ coords
        xty_drift += coords.T @ targets_d
        xty_cov += coords.T @ targets_c
        coords = new_coords
        targets = new_targets
        if extended:
            xi = sig.pair(ell)
    beta_drift = np.linalg.solve(xtx, xty_drift)
    beta_cov = np.linalg.solve(xtx, xty_cov) if n_cov else np.zeros((n_words, 0))
    return beta_drift, beta_cov


def generator_regression(d, design_depth, steps, n_paths_per_group, n_groups, seed,
                         horizon=1.0, extended=None, cov_pairs=None,
                         target_depth=None):
    """Richardson-extrapolated regression estimates of b and Gamma.

    Returns (design_words, target_words, cov_pairs, drift_mean, drift_se,
    cov_mean, cov_se) where drift arrays have shape (n_design, n_targets).
    """
    design_words = all_words(d, design_depth)
    target_words = all_words(d, target_depth if target_depth is not None else design_depth)
    labels = [w for w in design_words if w] + (["X"] if extended else [])
    if cov_pairs is None:
        cov_pairs = [(labels[i], labels[j]) for i in range(len(labels))
                     for j in range(i, len(labels))]
    # quadratic extrapolation in dt over grids (h, h/2, h/4):
    # a = f(h)/3 - 2 f(h/2) + (8/3) f(h/4)
    weights = ((1.0 / 3.0, steps, 0), (-2.0, 2 * steps, 7919), (8.0 / 3.0, 4 * steps, 15101))
    drift_list, cov_list = [], []
    for g in range(n_groups):
        acc_d = acc_c = 0.0
        for coeff, n_steps, seed_shift in weights:
            bd, cc = _accumulate_group(d, n_steps, n_paths_per_group,
                                       seed + seed_shift + g, horizon,
                                       design_words, target_words, cov_pairs, extended)
            acc_d = acc_d + coeff * bd
            acc_c = acc_c + coeff * cc
        drift_list.append(acc_d)
        cov_list.append(acc_c)
    drift_groups = np.stack(drift_list)
    cov_groups = np.stack(cov_list)
    drift_mean = drift_groups.mean(axis=0)
    drift_se = drift_groups.std(axis=0, ddof=1) / math.sqrt(n_groups)
    cov_mean = cov_groups.mean(axis=0)
    cov_se = cov_groups.std(axis=0, ddof=1) / math.sqrt(n_groups)
    return design_words, target_words, cov_pairs, drift_mean, drift_se, cov_mean, cov_se


def true_drift_matrix(table, design_words, target_words=None, extended=False):
    """b^I_J read from a label table into regression layout."""
    n = len(design_words)
    targets = list(target_words if target_words is not None else design_words)
    targets += ["X"] if extended else []
    out = np.zeros((n, len(targets)))
    for (out_w, src), c in table.b.items():
        if src in targets and out_w in design_words:
            out[design_words.index(out_w), targets.index(src)] += c
    return out, targets


def true_cov_matrix(table, design_words, cov_pairs):
    """Gamma^I_{J,K} read from a label table into regression layout."""
    lookup: dict = {}
    for (out_w, j, k), c in table.gamma.items():
        lookup[(j, k)] = lookup.get((j, k), {})
        lookup[(j, k)][out_w] = c
        lookup[(k, j)] = lookup[(j, k)]
    out = np.zeros((len(design_words), len(cov_pairs)))
    for idx, pair in enumerate(cov_pairs):
        for out_w, c in lookup.get(pair, {}).items():
            if out_w in design_words:
                out[design_words.index(out_w), idx] = c
    return out


def bs_call_price(s0, strike, sigma, horizon):
    """Black-Scholes call with zero rate (independent closed form)."""
    if strike <= 0:
        return s0
    d1 = (math.log(s0 / strike) + 0.5 * sigma**2 * horizon) / (sigma * math.sqrt(horizon))
    d2 = d1 - sigma * math.sqrt(horizon)
    return s0 * norm.cdf(d1) - strike * norm.cdf(d2)


def lognormal_mgf(u, s0, sigma, horizon):
    """E[S_T^u] for geometric Brownian motion (martingale drift)."""
    mean = math.log(s0) - 0.5 * sigma**2 * horizon
    return math.exp(u * mean + 0.5 * u**2 * sigma**2 * horizon)


def brute_force_interlacings(u, v):
    """All interlacings of u and v by explicit position-subset enumeration."""
    from itertools import combinations

    out = {}
    total = len(u) + len(v)
    for positions in combinations(range(total), len(u)):
        word = [None] * total
        ui = iter(u)
        for p in positions:
            word[p] = next(ui)
        vi = iter(v)
        for p in range(total):
            if word[p] is None:
                word[p] = next(vi)
        t = tuple(word)
        out[t] = out.get(t, 0) + 1
    return out


def sparse_signatures(values: np.ndarray, trunc: int) -> list[GradedTensor]:
    """Signatures of a time-augmented path (m+1, d+1) at its grid times, as sparse tensors.

    Segment k contributes exp(dx_k), whose level n is dx_k^{(x)n} / n!, and
    Chen's identity chains the segments on the right.
    """
    dim = values.shape[1] - 1
    out = [GradedTensor.unit(dim, trunc)]
    for dx in np.diff(values, axis=0):
        letters = [j for j in range(dim + 1) if dx[j] != 0.0]
        level = seg = {EMPTY_WORD: 1.0}
        for n in range(1, trunc + 1):
            level = {w + (j,): c * dx[j] / n for w, c in level.items() for j in letters}
            seg = {**seg, **level}
        out.append(concat_product(out[-1], GradedTensor(dim, trunc, seg), trunc))
    return out


def build_design(dataset, basis: HedgeBasis) -> HedgeDesign:
    """Per-path reference route for the hedging design, from (price row, sparse_signatures) pairs.

    Dynamic gain columns are left-point sums G_K = sum_k <e_K, W_{t_k}> dS_k,
    added in time order from 0.0; residual columns are terminal coordinates
    in the residual window.
    """
    dataset = list(dataset)
    if not dataset:
        raise ValueError("empty dataset")
    n_low, m = basis.residual_window
    first = dataset[0][1][0]
    d = first.dim
    if first.trunc < m:
        raise ValueError(f"signature truncation {first.trunc} < residual window top {m}")
    dyn_words = all_words(d, basis.integrand_depth)
    res_words = _window_words(d, n_low, m)
    n = len(dataset)
    dynamic = np.zeros((n, len(dyn_words)))
    residual = np.zeros((n, len(res_words)))
    terminal = np.zeros(n)
    for i, (price, sigs) in enumerate(dataset):
        ds = np.diff(price)
        for c, word in enumerate(dyn_words):
            for t, step in zip(sigs[:-1], ds):
                dynamic[i, c] += t[word] * step
        for c, word in enumerate(res_words):
            residual[i, c] = sigs[-1][word]
        terminal[i] = price[-1]
    strikes = basis.static_strikes if basis.static_strikes is not None else default_strikes(terminal)
    static, labels = _static_block(terminal, strikes)
    return HedgeDesign(dyn_words, labels, res_words, dynamic, static, residual, terminal)


def base_matrix(design: HedgeDesign) -> np.ndarray:
    """[1 | dynamic | static], the regressors of the payoff's first projection step."""
    return np.hstack([np.ones((design.n, 1)), design.dynamic, design.static])


def restrict_depth(design: HedgeDesign, depth: int) -> HedgeDesign:
    """The design with the dynamic columns of words longer than depth removed."""
    keep = [i for i, w in enumerate(design.dyn_words) if len(w) <= depth]
    return HedgeDesign([design.dyn_words[i] for i in keep], design.static_labels,
                       design.res_words, design.dynamic[:, keep], design.static,
                       design.residual, design.terminal_price)


def ridge_lstsq(a: np.ndarray, y: np.ndarray, lam: float) -> np.ndarray:
    """Minimise (1/n)|y - a b|^2 + lam |b[1:]|^2 with one tall lstsq (the constant unpenalised)."""
    n, p = a.shape
    if lam == 0.0:
        return np.linalg.lstsq(a, y, rcond=None)[0]
    pen = np.sqrt(n * lam) * np.eye(p)[1:]
    a_aug = np.vstack([a, pen])
    y_aug = np.concatenate([y, np.zeros((pen.shape[0],) + y.shape[1:])])
    return np.linalg.lstsq(a_aug, y_aug, rcond=None)[0]


def default_ridge(mat: np.ndarray) -> float:
    """RIDGE_SCALE times the mean diagonal of the sample Gram of mat, constant column included."""
    n, p = mat.shape
    return RIDGE_SCALE * float((mat * mat).sum()) / n / p


def gkw_project_tall(x, design: HedgeDesign, basis: HedgeBasis, weight=None) -> GKWResult:
    """Reference route for gkw_project: tall ridge solves on the centred n-row design.

    Regresses X and the residual columns on the centred [1 | dynamic | static]
    with one n-row lstsq each, runs the greedy drop on n-long quotient columns
    and forms every number from per-path vectors.
    """
    x = np.asarray(x, dtype=float)
    base = base_matrix(design)
    n, p_base = base.shape
    total_cols = p_base + design.residual.shape[1]
    base[:, 1:] -= base[:, 1:].mean(axis=0, keepdims=True)
    lam1 = basis.ridge if basis.ridge is not None else default_ridge(base)
    beta = ridge_lstsq(base, x, lam1)
    eps_hat = x - base @ beta
    res = design.residual
    quot = res - base @ ridge_lstsq(base, res, lam1)
    y_norms = np.sqrt((res * res).mean(axis=0))
    keep, ortho = [], []
    for i in range(res.shape[1]):
        if y_norms[i] <= 0.0:
            continue
        v = quot[:, i].copy()
        for q in ortho:
            qq = q @ q
            if qq > 0.0:
                v -= (v @ q) / qq * q
        if math.sqrt(float(v @ v) / n) >= hedging.DROP_TOL * y_norms[i]:
            keep.append(i)
            ortho.append(v)
    coeffs, gram_min, remainder = {}, math.nan, eps_hat
    if keep:
        r_kept = quot[:, keep]
        gram = r_kept.T @ r_kept / n
        eigs = np.linalg.eigvalsh(gram)
        gram_min = float(eigs[0])
        lam3 = basis.ridge
        if lam3 is None:
            lam3 = RIDGE_SCALE * float(np.trace(gram)) / len(keep)
        if lam3 == 0.0 and gram_min <= 1e-12 * max(float(eigs[-1]), 1e-300):
            vec = np.linalg.eigh(gram)[1][:, 0]
            raise DegenerateGram([design.res_words[keep[i]] for i in np.argsort(-np.abs(vec))[:3]])
        c = np.linalg.solve(gram + lam3 * np.eye(len(keep)), r_kept.T @ eps_hat / n)
        coeffs = {design.res_words[k]: float(c[i]) for i, k in enumerate(keep)}
        remainder = eps_hat - r_kept @ c
    residual_norm = math.sqrt(float(remainder @ remainder) / n)
    se_rn_sq = float(np.std(remainder**2, ddof=1)) / math.sqrt(n) if n > 1 else 0.0
    payoff_l2 = math.sqrt(float(x @ x) / n)
    kappa_bound = None
    if weight is not None:
        with contextlib.suppress(ValueError):
            kappa_bound = kappa_tail(weight, basis.residual_window[1]) * payoff_l2
    n_dyn = len(design.dyn_words)
    return GKWResult(
        price=float(beta[0]),
        dynamic_coeffs={w: float(beta[1 + i]) for i, w in enumerate(design.dyn_words)},
        static_coeffs={lbl: float(beta[1 + n_dyn + i])
                       for i, lbl in enumerate(design.static_labels)},
        residual_coeffs=coeffs, residual_norm=residual_norm,
        residual_norm_se=se_rn_sq / (2.0 * residual_norm) if residual_norm > 0.0 else 0.0,
        dynamic_residual_norm=math.sqrt(float(eps_hat @ eps_hat) / n), kappa_bound=kappa_bound,
        gram_min_eigenvalue=gram_min,
        dropped_words=tuple(w for i, w in enumerate(design.res_words) if i not in keep),
        payoff_l2=payoff_l2, n_samples=n, undersampled=n < 10 * total_cols)


class TruncationTooLow(ValueError):
    """Signature truncation below the support degree of ell."""


def volatility_path(params, sigs: list[GradedTensor]) -> np.ndarray:
    """xi_t = <ell, W_t> along a path's sparse signatures."""
    if sigs[0].trunc < params.ell.support_degree:
        raise TruncationTooLow(
            f"signature truncation {sigs[0].trunc} < ell support "
            f"{params.ell.support_degree}")
    return np.array([dual_pairing(params.ell, s) for s in sigs])


def riccati_rhs(state: RiccatiState, table: GeneratorTable) -> RiccatiState:
    """Linear drift part plus half the quadratic carre-du-champ contraction, on a closure table."""
    sig, u_x = table.tensor(table.field(table.vector(state.sig, state.u_x)))
    return RiccatiState(sig, u_x, state.tau)


def _label_key(label):
    # words first in canonical order, the log-price coordinate last
    if label == X_LABEL:
        return (1, (0,), ())
    return (0, (len(label),), label)


def _form_by_label(terms: dict, index: dict, arity: int) -> tuple[np.ndarray, ...]:
    keys = sorted(terms, key=lambda key: tuple(map(_label_key, key)))
    idx = np.array([[index[label] for label in key] for key in keys], dtype=np.intp)
    return (*idx.reshape(len(keys), arity).T, np.array([terms[key] for key in keys], dtype=float))


@dataclass
class LabelTable:
    """A generator table as label-keyed dicts: b[(output, input)] and
    gamma[(output, in1, in2)] with in1 <= in2 in canonical order."""

    words: list
    index: dict
    b: dict = field(default_factory=dict)
    gamma: dict = field(default_factory=dict)


def build_generator_by_label(trunc, d, extended=None) -> LabelTable:
    """The generator table built word by word, Gamma from shuffle_words."""
    words = all_words(d, trunc)
    table = LabelTable(words, {w: i for i, w in enumerate(words)})
    if extended is not None:
        ell, eta = extended
        table.index[X_LABEL] = len(words)

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
    brownian_tails: dict = {j: [] for j in range(1, d + 1)}
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
    if extended is not None:
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
    return table


def compile_by_label(table: LabelTable) -> tuple[tuple, tuple]:
    """(drift, quad) forms of a label table with its terms sorted by their labels."""
    quad = {key: 0.5 * c if key[1] == key[2] else c for key, c in table.gamma.items()}
    return _form_by_label(table.b, table.index, 2), _form_by_label(quad, table.index, 3)


@dataclass
class FullTable:
    """Every term of the generator at truncation N, compiled: the reference for build_generator.

    drift holds (output, input, b) and quad (output, in1, in2, c) with
    in1 <= in2 and c = Gamma, halved when in1 == in2, both in canonical order
    of the coordinates: every word up to N, then the log-price coordinate X
    when extended.  closure(start) cuts the table down to the closure of
    start's support by a fixpoint: a drift term reaches its output when its
    input is live, a Gamma term when both inputs are.  Every term it drops
    reads a coordinate that stays 0.0, so it adds +-0 to a sum that starts at
    +0.0, which leaves the sum unchanged: on the closure the full field is
    the closure's field bit for bit whenever every dropped product c*v is
    finite.  Where one overflows, the full field multiplies inf by an
    unreached 0.0 and turns NaN, while the closure's field stays the exact
    equation on the closure.
    """

    trunc: int
    dim: int
    extended: bool
    words: list
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

    def vector(self, sig: GradedTensor, u_x=None) -> np.ndarray:
        if sig.dim != self.dim or sig.support_degree > self.trunc:
            raise ValueError("direction outside the table")
        u = np.zeros(self.state_dim)
        for w, c in sig.coeffs.items():
            u[_word_index(w, self.dim)] = c
        if self.extended:
            u[self.x_index] = 0.0 if u_x is None else float(u_x)
        elif u_x not in (None, 0.0):
            raise ValueError("u_x supplied but the table is not price-extended")
        return u

    def tensor(self, u: np.ndarray):
        coeffs = {w: u[i] for i, w in enumerate(self.words) if u[i] != 0.0}
        sig = GradedTensor(self.dim, self.trunc, coeffs)
        return sig, (float(u[self.x_index]) if self.extended else None)

    def weighted_norm(self, u: np.ndarray, weight) -> float:
        """sum_n w(n) |u_n|_2 over every level, plus |u_X| when extended."""
        n = self.dim + 1
        parts = [(1.0 if weight is None else weight(k),
                  u[_offset(k, self.dim) : _offset(k, self.dim) + n**k]) for k in range(self.trunc + 1)]
        return weighted_norm(parts, float(u[self.x_index]) if self.extended else None)

    def closure(self, start: RiccatiState) -> GeneratorTable:
        """The closure table of start's support: its fixpoint, and the terms whose inputs lie in it."""
        live = self.vector(start.sig, start.u_x) != 0.0
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
        field = VectorField(carried, np.concatenate([d_out, q_out + len(carried)]),
                            np.concatenate([d_in, q_in1]), q_in2, np.concatenate([d_c, q_c]))
        words = [self.words[i] for i in carried.tolist() if i < len(self.words)]
        return GeneratorTable(self.trunc, self.dim, self.extended, words, field)


def full_table(trunc, d, extended=None) -> FullTable:
    """The label oracle's table, compiled: every term at truncation trunc."""
    table = build_generator_by_label(trunc, d, extended)
    return FullTable(trunc, d, extended is not None, table.words, *compile_by_label(table))


def with_terms(table: FullTable, b: dict, gamma: dict) -> FullTable:
    """table with its compiled forms replaced by the label-keyed terms b and gamma."""
    index = {label: i for i, label in enumerate(table.labels)}
    table.drift, table.quad = compile_by_label(LabelTable(table.words, index, b, gamma))
    return table


class RiccatiExplosion(RuntimeError):
    def __init__(self, t_star: float, norm: float, detail: str = ""):
        super().__init__(f"Riccati flow exploded at t*={t_star:.6g} (norm {norm:.3g}) {detail}")
        self.t_star = t_star
        self.norm = norm


def transform_value(u0: RiccatiState, horizon: float, table,
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


def _full_rhs(u, table):
    """Drift contraction plus quadratic contraction, over every term of the table."""
    parts = []
    for dest, *inputs, weights in (table.drift, table.quad):
        for idx in inputs:
            weights = weights * u[idx]
        parts.append(np.bincount(dest, weights=weights, minlength=table.state_dim))
    return parts[0] + parts[1].astype(float)


def integrate_flow_full(u0: RiccatiState, horizon: float, table, tol: float = 1e-8,
                        explosion_threshold: float = 1e6, weight=None) -> FlowOutcome:
    """The embedded 4/5 flow stepping every coordinate of the state, trace recorded."""
    u = table.vector(u0.sig, u0.u_x)
    t = 0.0
    h = horizon / 64.0
    accepted, rejected = [], 0
    trace = [(0.0, u.copy())]

    def outcome(state=None, **failure):
        return FlowOutcome(state is not None, state, len(accepted), trace=trace,
                           rejected=rejected, min_step=min(accepted, default=None),
                           max_step=max(accepted, default=None),
                           live=np.arange(table.state_dim), **failure)

    k1 = _full_rhs(u, table)
    while t < horizon:
        h = min(h, horizon - t)
        ks = [k1]
        for row in _DP_A[1:]:
            stage = u + h * sum(a * k for a, k in zip(row, ks))
            ks.append(_full_rhs(stage, table))
        u5 = u + h * sum(b * k for b, k in zip(_DP_B5, ks))
        k7 = _full_rhs(u5, table)
        u4 = u + h * sum(b * k for b, k in zip(_DP_B4, ks + [k7]))
        err_vec = u5 - u4
        finite = np.all(np.isfinite(u5)) and np.all(np.isfinite(err_vec))
        err = float(np.max(np.abs(err_vec))) if finite else math.inf
        if err <= tol:
            t += h
            u = u5
            k1 = k7
            accepted.append(h)
            trace.append((t, u.copy()))
            norm = table.weighted_norm(u, weight)
            if norm > explosion_threshold:
                return outcome(t_star=t, norm_at_detection=norm, detail="norm threshold crossed")
            h = h * min(2.0, 0.9 * (tol / err) ** 0.2 if err > 0.0 else 2.0)
        else:
            rejected += 1
            h *= 0.5
            if h < STEP_FLOOR:
                return outcome(t_star=t, norm_at_detection=table.weighted_norm(u, weight),
                               detail="step underflow below floor")
    sig, u_x = table.tensor(u)
    return outcome(RiccatiState(sig, u_x, horizon))


def brownian_values(d, horizon, steps, n_paths, seed, path_offset=0) -> np.ndarray:
    """The driver's paths as (n_paths, steps+1, d+1), coordinate 0 is time."""
    per_path = 2 * steps * d
    per_path += (-per_path) % 4
    bitgen = np.random.Philox(key=np.uint64(seed))
    bitgen.advance((path_offset * per_path) // 4)
    raw = bitgen.random_raw(n_paths * per_path).reshape(n_paths, per_path)
    u = (raw >> np.uint64(11)).astype(np.float64) * 2.0**-53 + 2.0**-54
    u1 = u[:, 0 : 2 * steps * d : 2]
    u2 = u[:, 1 : 2 * steps * d : 2]
    normals = (np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)).reshape(n_paths, steps, d)
    times = np.linspace(0.0, horizon, steps + 1)
    values = np.empty((n_paths, steps + 1, d + 1))
    values[:, :, 0] = times[None, :]
    values[:, 0, 1:] = 0.0
    np.cumsum(normals * math.sqrt(horizon / steps), axis=1, out=values[:, 1:, 1:])
    return values


def path_major_steps(params, values: np.ndarray, words=()):
    """The stepper fed (paths, steps, d+1) increments: B, M, <M> and log_s after
    every step, B, M and <M> as np.cumsum takes them, and the carried
    coordinates of words at every grid time."""
    words = [tuple(w) for w in words]
    carried = list(params.ell.coeffs) + words
    inc = np.diff(values, axis=1)
    dt = np.diff(values[0, :, 0])
    sig = BatchSignature(len(values), params.dim, max(map(len, carried), default=0), carried)
    xi = sig.pair(params.ell)
    log_s = np.zeros(len(values))
    dbs, xis, log_ss, coords = [], [], [], [sig.coords(words)]
    for k in range(inc.shape[1]):
        db = inc[:, k, 1:] @ params.eta
        log_s += xi * db - 0.5 * xi**2 * dt[k]
        dbs.append(db)
        xis.append(xi)
        sig.chen_step(inc[:, k, :])
        xi = sig.pair(params.ell)
        log_ss.append(log_s.copy())
        coords.append(sig.coords(words))
    db, xi = np.array(dbs), np.array(xis)
    sums = [np.cumsum(a, axis=0) for a in (db, xi * db, xi**2 * dt[:, None])]
    return (*sums, np.array(log_ss), np.array(coords))


def reference_chen_step(sig: BatchSignature, dx: np.ndarray) -> None:
    """sig.chen_step(dx) from its carried words alone, every factor a fresh row gather.

    The segment coordinate of a word u is dx[u] for one letter and
    seg(u[:-1]) * dx[u[-1]] / |u| beyond; word w of level m becomes
    old(w) + seg(w) + old(w[:k]) * seg(w[k:]) for k = 1 .. m-1, in that order.
    Only the carried words (sig._pos) are read from the engine, not its splits.
    """
    dxt = np.ascontiguousarray(dx.T)
    pos = sig._pos
    carried = [sorted((w for w in pos if len(w) == m), key=pos.get) for m in range(len(sig._lv))]
    suffixes = {w[k:j] for lvl in carried for w in lvl for k in range(len(w)) for j in range(k + 1, len(w) + 1)}
    seg_rows, seg = {}, [None]
    for j in range(1, len(carried)):
        words = sorted(u for u in suffixes if len(u) == j)
        seg_rows.update((u, i) for i, u in enumerate(words))
        last = dxt[[u[-1] for u in words]]
        seg.append(last if j == 1 else seg[-1][[seg_rows[u[:-1]] for u in words]] * last / j)
    for m in range(len(carried) - 1, 0, -1):
        acc = sig._lv[m] + seg[m][[seg_rows[w] for w in carried[m]]]
        for k in range(1, m):
            acc += (sig._lv[k][[pos[w[:k]] for w in carried[m]]]
                    * seg[m - k][[seg_rows[w[k:]] for w in carried[m]]])
        sig._lv[m] = acc


def levels(sig: BatchSignature) -> list[np.ndarray]:
    """Copies of the carried levels, level n as (n_paths, carried words of length n)."""
    return [a.T.copy() for a in sig._lv]


def to_tensor(sig: BatchSignature, path: int) -> GradedTensor:
    """One path's carried coordinates as a sparse tensor (zeros pruned)."""
    coeffs = {w: float(sig._lv[len(w)][i, path]) for w, i in sig._pos.items()}
    return GradedTensor(sig.d, sig.trunc, {w: c for w, c in coeffs.items() if c != 0.0})


def project_leq(a: GradedTensor, level: int) -> GradedTensor:
    """Canonical projection onto tensor levels of length <= level."""
    keep = {w: c for w, c in a.coeffs.items() if len(w) <= level}
    return GradedTensor(a.dim, min(a.trunc, level), keep)


def projection_compatibility(u0: RiccatiState, n: int, m: int, d: int, extended=None) -> bool:
    """Exact check of pi_M R_N(u) == R_M(pi_M u) for u supported in <= M.

    R_N and R_M are the fields of build_generator's closure tables of u0 at
    truncations N and M, with extended = (ell, eta) or None for both; outside
    its closure each full field is exactly 0.0.  The shuffle window
    M >= required_window(u, ell) is enforced as a precondition; silent
    truncation would change the vector field.
    """
    if m > n:
        raise ValueError("expected M <= N")
    if u0.support_degree > m:
        raise ShuffleWindowError("state must be supported in levels <= M")
    window = required_window(u0, None if extended is None else extended[0])
    if m < window:
        raise ShuffleWindowError(f"window violated: need M >= {window}, got {m}")
    r_n, r_m = ({label: v for label, v in zip(table.labels, table.field(table.vector(u0.sig, u0.u_x)))}
                for table in (build_generator(trunc, d, u0, extended) for trunc in (n, m)))
    proj = {label: v for label, v in r_n.items() if label == X_LABEL or len(label) <= m}
    return all(proj.get(label, 0.0) == r_m.get(label, 0.0) for label in proj.keys() | r_m.keys())
