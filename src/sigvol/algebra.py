"""Exact arithmetic in the truncated weighted free tensor algebra.

Words are tuples of small integer letters over the alphabet {0, 1, ..., d},
with 0 reserved for the time coordinate of the prolonged path.  A tensor is
its words and coefficients, stored sparsely as a word -> coefficient map;
products take the truncation they apply and truncate eagerly.  All values
are immutable after construction and all operations are pure functions.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable, Mapping

import numpy as np

Word = tuple[int, ...]

EMPTY_WORD: Word = ()


class DimensionMismatch(ValueError):
    """Two tensor operands live over different alphabets."""


def word_sort_key(word: Word) -> tuple[int, Word]:
    """Canonical ordering: by length, then lexicographic."""
    return (len(word), word)


def format_word(word: Word) -> str:
    return "∅" if not word else ".".join(str(i) for i in word)


def parse_word(text: str) -> Word:
    text = text.strip()
    if text in ("∅", ""):
        return EMPTY_WORD
    return tuple(int(part) for part in text.split("."))


def exact_int(value, name: str) -> int:
    """value as an int, exactly: an integer that is not a bool, or an integral finite float."""
    if isinstance(value, float) and math.isfinite(value) and value.is_integer():
        return int(value)
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


# ---------------------------------------------------------------------------
# Weights
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Weight:
    """Grading weight w(n) with admissibility metadata.

    kind is one of "geometric" (w(n) = r**n), "polynomial" (w(n) = (n+1)**alpha)
    or "constant" (w(n) = 1).  c_w is the submultiplicativity constant of
    w(m+n) <= c_w w(m) w(n).
    """

    kind: str
    param: float = 1.0

    def __post_init__(self):
        if self.kind not in ("geometric", "polynomial", "constant"):
            raise ValueError(f"unknown weight kind {self.kind!r}")
        if not math.isfinite(self.param):
            raise ValueError("weight parameter must be finite")
        if self.kind == "geometric" and self.param < 1.0:
            raise ValueError("geometric weight needs r >= 1 to be non-decreasing")
        if self.kind == "polynomial" and self.param < 0.0:
            raise ValueError("polynomial weight needs alpha >= 0")

    @classmethod
    def geometric(cls, r: float) -> "Weight":
        return cls("geometric", float(r))

    @classmethod
    def polynomial(cls, alpha: float) -> "Weight":
        return cls("polynomial", float(alpha))

    @classmethod
    def constant(cls) -> "Weight":
        return cls("constant")

    def __call__(self, n: int) -> float:
        try:
            if self.kind == "geometric":
                return self.param**n
            if self.kind == "polynomial":
                return float(n + 1) ** self.param
        except OverflowError:
            raise ValueError(f"weight w({n}) overflows a float") from None
        return 1.0

    def log_value(self, n: int) -> float:
        """log w(n); overflow-safe for long tail sums."""
        if self.kind == "geometric":
            return n * math.log(self.param)
        if self.kind == "polynomial":
            return self.param * math.log(n + 1)
        return 0.0

    @property
    def c_w(self) -> float:
        # geometric: exact equality; polynomial: (m+n+1) <= (m+1)(n+1)
        return 1.0


@dataclass(frozen=True)
class WeightCheckReport:
    monotone: bool
    c_w_estimate: float
    growth_r: float
    w0_is_one: bool


def weight_check(w: Weight | Callable[[int], float], n_max: int) -> WeightCheckReport:
    """Grid check of the weight hypotheses: w(0)=1, monotonicity and the
    submultiplicativity constant sup w(m+n)/(w(m) w(n)) over m+n <= n_max.

    Violations are reported in the flags, never raised.
    """
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    values = [float(w(n)) for n in range(n_max + 1)]
    w0_is_one = abs(values[0] - 1.0) <= 1e-15
    monotone = all(values[i + 1] >= values[i] - 1e-15 for i in range(n_max))
    c_est = 0.0
    for m in range(n_max + 1):
        for n in range(n_max + 1 - m):
            c_est = max(c_est, values[m + n] / (values[m] * values[n]))
    growth = max(values[n] ** (1.0 / n) for n in range(1, n_max + 1))
    return WeightCheckReport(monotone=monotone, c_w_estimate=c_est,
                             growth_r=growth, w0_is_one=w0_is_one)


# ---------------------------------------------------------------------------
# Graded tensors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GradedTensor:
    """Finitely supported element of the weighted tensor algebra.

    A tensor is its words and coefficients: a sparse map from words over
    {0, ..., dim} to real coefficients.  Products take the truncation they
    apply.  Exact zeros are pruned on construction, which is observationally
    irrelevant.  Also used for finitely supported dual elements (the
    volatility symbol ell lives here).
    """

    dim: int
    coeffs: Mapping[Word, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")
        clean: dict[Word, float] = {}
        for word, c in self.coeffs.items():
            word = tuple(int(i) for i in word)
            if any(i < 0 or i > self.dim for i in word):
                raise ValueError(f"word {word} has letters outside [0, {self.dim}]")
            c = float(c)
            if not math.isfinite(c):
                raise ValueError(f"non-finite coefficient on word {word}")
            if c != 0.0:
                clean[word] = c
        object.__setattr__(self, "coeffs", clean)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "GradedTensor":
        return cls(dim, {})

    @classmethod
    def unit(cls, dim: int) -> "GradedTensor":
        return cls(dim, {EMPTY_WORD: 1.0})

    @classmethod
    def basis(cls, dim: int, word: Iterable[int], coeff: float = 1.0) -> "GradedTensor":
        return cls(dim, {tuple(word): coeff})

    # -- basic queries -----------------------------------------------------

    def __getitem__(self, word: Iterable[int]) -> float:
        return self.coeffs.get(tuple(word), 0.0)

    def items(self):
        """Coefficients in canonical word order (length, then lexicographic)."""
        return sorted(self.coeffs.items(), key=lambda kv: word_sort_key(kv[0]))

    @property
    def support_degree(self) -> int:
        return max((len(w) for w in self.coeffs), default=0)

    def level_norms(self) -> np.ndarray:
        """Euclidean norm |a_n| of each level's coefficient vector, n <= support_degree."""
        out = np.zeros(self.support_degree + 1)
        for word, c in self.coeffs.items():
            out[len(word)] += c * c
        return np.sqrt(out)

    # -- arithmetic sugar (exact, no truncation) ------------------------------

    def __add__(self, other: "GradedTensor") -> "GradedTensor":
        if self.dim != other.dim:
            raise DimensionMismatch("tensor dimensions differ")
        merged = dict(self.coeffs)
        for w, c in other.coeffs.items():
            merged[w] = merged.get(w, 0.0) + c
        return GradedTensor(self.dim, merged)

    def __sub__(self, other: "GradedTensor") -> "GradedTensor":
        return self + (-1.0) * other

    def __mul__(self, scalar: float) -> "GradedTensor":
        return GradedTensor(self.dim, {w: c * scalar for w, c in self.coeffs.items()})

    __rmul__ = __mul__

    def allclose(self, other: "GradedTensor", tol: float = 0.0) -> bool:
        words = set(self.coeffs) | set(other.coeffs)
        return all(abs(self[w] - other[w]) <= tol for w in words)

    def __repr__(self):
        terms = ", ".join(f"{format_word(w)}: {c:g}" for w, c in self.items())
        return f"GradedTensor(d={self.dim}, {{{terms}}})"


# ---------------------------------------------------------------------------
# Word-level products (memoised)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def shuffle_words(u: Word, v: Word) -> tuple[tuple[Word, int], ...]:
    """All order-preserving interlacings of u and v with multiplicities."""
    if not u:
        return ((v, 1),)
    if not v:
        return ((u, 1),)
    acc: dict[Word, int] = {}
    for w, m in shuffle_words(u[:-1], v):
        acc[w + (u[-1],)] = acc.get(w + (u[-1],), 0) + m
    for w, m in shuffle_words(u, v[:-1]):
        acc[w + (v[-1],)] = acc.get(w + (v[-1],), 0) + m
    return tuple(sorted(acc.items()))  # one length |u| + |v|: canonical order


# ---------------------------------------------------------------------------
# Algebra operations
# ---------------------------------------------------------------------------


def _check_dims(a: GradedTensor, b: GradedTensor) -> None:
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimension mismatch: {a.dim} vs {b.dim}")


def _bilinear(a: GradedTensor, b: GradedTensor, trunc: int,
              product: Callable[[Word, Word], Iterable[tuple[Word, int]]]) -> GradedTensor:
    """sum c_u c_v product(u, v) over the word pairs of a and b, truncated to length <= trunc.

    product gives the words of u times v, all of length |u| + |v|, with
    their multiplicities.  Each left word walks only the right words short
    enough to keep; the right words of one length, the only ones that reach
    a given output word from it, stay in b's order, so every sum is taken in
    the order of the untruncated double loop.
    """
    _check_dims(a, b)
    terms = sorted(b.coeffs.items(), key=lambda kv: len(kv[0]))
    lengths = [len(v) for v, _ in terms]
    out: dict[Word, float] = {}
    for u, cu in a.coeffs.items():
        for v, cv in terms[: bisect_right(lengths, trunc - len(u))]:
            cuv = cu * cv
            for w, m in product(u, v):
                out[w] = out.get(w, 0.0) + m * cuv
    return GradedTensor(a.dim, out)


def shuffle_product(a: GradedTensor, b: GradedTensor, trunc: int) -> GradedTensor:
    """Commutative shuffle product, truncated to words of length <= trunc."""
    return _bilinear(a, b, trunc, shuffle_words)


def concat_product(a: GradedTensor, b: GradedTensor, trunc: int) -> GradedTensor:
    """Concatenation (tensor) product, truncated to length <= trunc.

    Each term is 1 * (c_u c_v), which is exact, so the sums are the double loop's."""
    return _bilinear(a, b, trunc, lambda u, v: ((u + v, 1),))


def antipode(a: GradedTensor) -> GradedTensor:
    """Word reversal with sign (-1)**|I|; an involution."""
    out = {tuple(reversed(w)): (c if len(w) % 2 == 0 else -c)
           for w, c in a.coeffs.items()}
    return GradedTensor(a.dim, out)


def weighted_norms(a: GradedTensor, w: Weight) -> tuple[float, float, float]:
    """Return (||a||_w, ||a||_{2,w}, ||a||_{2,w^-1}).

    ||a||_w = sum_n w(n) |a_n| with |a_n| the Euclidean level norm;
    ||a||_{2,w}^2 = sum_n w(n) |a_n|^2 and ||a||_{2,w^-1}^2 uses 1/w(n).
    """
    levels = a.level_norms()
    norm_w = 0.0
    norm_2w_sq = 0.0
    norm_2winv_sq = 0.0
    for n, ln in enumerate(levels):
        if ln == 0.0:
            continue
        wn = w(n)
        norm_w += wn * ln
        norm_2w_sq += wn * ln * ln
        norm_2winv_sq += ln * ln / wn
    return float(norm_w), math.sqrt(norm_2w_sq), math.sqrt(norm_2winv_sq)


def dual_pairing(ell: GradedTensor, a: GradedTensor) -> float:
    """<ell, a> = sum over the common support of coefficient products."""
    _check_dims(ell, a)
    small, big = (ell.coeffs, a.coeffs) if len(ell.coeffs) <= len(a.coeffs) else (a.coeffs, ell.coeffs)
    return sum(c * big.get(w, 0.0) for w, c in small.items())


# ---------------------------------------------------------------------------
# Textual serialization (CLI interchange format for ell)
# ---------------------------------------------------------------------------


def format_tensor(a: GradedTensor) -> str:
    """One line per word: `word=i1.i2.....ik coeff=<decimal>`, empty word ∅."""
    lines = [f"word={format_word(w)} coeff={c:.17g}" for w, c in a.items()]
    return "\n".join(lines) + ("\n" if lines else "")

def parse_tensor(text: str, dim: int) -> GradedTensor:
    """The tensor of format_tensor's lines; a repeated word sums its coefficients."""
    if not isinstance(text, str):
        raise TypeError(f"tensor text must be a string, got {text!r}")
    coeffs: dict[Word, float] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2 or not parts[0].startswith("word=") or not parts[1].startswith("coeff="):
            raise ValueError(f"bad tensor line: {raw!r}")
        word = parse_word(parts[0][len("word="):])
        coeff = float(parts[1][len("coeff="):])
        coeffs[word] = coeffs.get(word, 0.0) + coeff
    return GradedTensor(dim, coeffs)
