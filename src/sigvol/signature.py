"""Brownian path generation and signatures of time-augmented paths.

Signatures of piecewise-linear paths are chained segment-by-segment with the
Chen identity by one engine, BatchSignature: one coefficient array per tensor
level across many paths, carrying only the prefix closure of the words its
caller reads.  A split whose rows are every carried prefix times every
segment suffix is one outer product of the two levels, as on full word
levels; any other split gathers the rows of its two factors.  The levels are
updated in place, and each step's segment levels and split products go to
work buffers the engine owns, so a Chen step allocates no array.

Brownian increments come from a counter-based generator: Philox keyed by the
run seed, with the increment for (path, step, coordinate) read at a fixed
counter offset, so path sets are order-independent and reproducible from
(seed, path_index) alone regardless of batching.  The driver works through a
block in cache-sized chunks of paths and stores only the Brownian coordinates,
step-major, (steps+1, d, n_paths); time stays the shared `times` vector.  The
chunks of a block are drawn on every CPU in the process's affinity mask, each
thread from its own generator advanced to its first path's counter, so the
grid does not depend on that number.  One grid time of every path is a
contiguous row, which the stepper differences into the batch engine's
increments.
"""

from __future__ import annotations

import math
import os
import struct
import sys
import threading
from dataclasses import dataclass
from typing import Callable, TypeVar

import numpy as np

from .algebra import EMPTY_WORD, GradedTensor, Word

T, R = TypeVar("T"), TypeVar("R")


# ---------------------------------------------------------------------------
# Batch engine
# ---------------------------------------------------------------------------


def all_words(d: int, max_len: int) -> list[Word]:
    """Every word over {0..d} with length <= max_len, in canonical order, or a ValueError when
    their list cannot fit in this host's physical memory: each word but the empty one is a tuple
    of its own, of at least one letter, held by one list slot."""
    if max_len * math.log2(d + 1) < 256:
        count = ((d + 1) ** (max_len + 1) - 1) // d
        least = (count - 1) * (sys.getsizeof((0,)) + struct.calcsize("P"))
        fits = least <= os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    else:  # no host holds 2**256 words, and their exact count is slow to compute
        count, fits = f"about 10^{(max_len + 1) * math.log10(d + 1) - math.log10(d):.0f}", False
    if not fits:
        raise ValueError(f"every word up to length {max_len} over {d + 1} letters is {count} "
                         "words, more than this host's memory can hold")
    words: list[Word] = [EMPTY_WORD]
    level: list[Word] = [EMPTY_WORD]
    for _ in range(max_len):
        level = [w + (j,) for w in level for j in range(d + 1)]
        words.extend(level)
    return words


def _by_level(words) -> list[list[Word]]:
    """Prefix closure of words, in canonical order per level; level 0 is the empty word."""
    closed = sorted({tuple(w[:k]) for w in words for k in range(len(w) + 1)} | {EMPTY_WORD})
    return [[w for w in closed if len(w) == n] for n in range(max(map(len, closed)) + 1)]


def _closures(words) -> tuple[list[list[Word]], list[list[Word]]]:
    """The words an engine over words carries, and the segment words its Chen step builds,
    each by level: the prefix closure of words, and that of their carried words' suffixes."""
    carried = _by_level(words)
    return carried, _by_level([w[k:] for lvl in carried for w in lvl for k in range(len(w))])


def engine_rows(words) -> int:
    """Coefficient rows per path of a BatchSignature over words: its carried words, and its
    segment words but the empty one, whose row the engine never stores."""
    carried, seg_words = _closures(words)
    return sum(map(len, carried)) + sum(map(len, seg_words[1:]))


def _gather(index: list[int], rows: int) -> np.ndarray | None:
    """Row index array for a gather, or None when it selects every row in order."""
    idx = np.asarray(index, dtype=np.intp)
    return None if idx.size == rows and np.array_equal(idx, np.arange(rows)) else idx


def _take(a: np.ndarray, idx: np.ndarray | None, out: np.ndarray) -> np.ndarray:
    """The rows idx of a, written to the leading rows of out; a itself when idx is None."""
    # mode='raise' gathers through a temporary; the indices are in range by construction
    return a if idx is None else np.take(a, idx, axis=0, mode="clip", out=out[: idx.size])


def _split(words: list[Word], k: int, prefixes: dict, suffixes: dict) -> tuple:
    """How the rows w[:k] * w[k:] over words are formed from the prefix and suffix rows.

    prefixes and suffixes map each row's word to its position.  When words are
    every prefix followed by every suffix, in row-major order, the split is
    (rows of prefixes, rows of suffixes), None, None: one outer product.
    Otherwise it is None and the row gather of each factor.
    """
    if len(words) == len(prefixes) * len(suffixes) and words == [p + u for p in prefixes for u in suffixes]:
        return (len(prefixes), len(suffixes)), None, None
    return (None, _gather([prefixes[w[:k]] for w in words], len(prefixes)),
            _gather([suffixes[w[k:]] for w in words], len(suffixes)))


def _product(a: np.ndarray, b: np.ndarray, split: tuple, out: np.ndarray,
             other: np.ndarray) -> np.ndarray:
    """a's prefix rows times b's suffix rows, as _split formed them, written to out.

    A gathered split copies a's rows to out and b's rows to other first; out
    is contiguous, so the outer product writes to it through a reshaped view.
    """
    shape, pre, suf = split
    if shape is None:
        return np.multiply(_take(a, pre, out), _take(b, suf, other), out=out)
    np.multiply(a[:, None], b[None], out=out.reshape(shape + b.shape[1:]))
    return out


class BatchSignature:
    """Truncated signatures of a batch of paths over a prefix-closed word set.

    By Chen's identity a word's coordinate needs only its prefixes' coordinates
    and the segment exponential on its suffixes, so the engine carries the
    prefix closure of `words`, which alone parametrise it: `trunc` is the
    longest carried word.  Level n is stored as (carried words of length n,
    n_paths), words in canonical, i.e. row-major, order.  The split of level
    m at 0 < k < m multiplies prefix level k by segment level m - k, and
    segment level j is segment level j - 1 times the letters of dx.  Where
    the rows are every prefix row times every suffix row, as on every word
    up to a depth, the split is one outer product of the two levels;
    elsewhere, as on a chain of single words, the two factors' rows are
    gathered with precomputed indices.  Each split is summed in a fixed
    order and each element is the same product either way, so a coordinate
    is bit-identical whichever other words are carried.  The levels are
    updated in place: coord() is a read-only view that is valid until the
    next chen_step, while coords() and pair() copy.
    """

    def __init__(self, n_paths: int, d: int, words):
        self.d, self.n_letters, self.n_paths = d, d + 1, n_paths
        words = [tuple(w) for w in words]
        if any(not 0 <= a <= d for w in words for a in w):
            raise ValueError(f"words must be over {{0..{d}}}")
        carried, seg_words = _closures(words)
        self.trunc = len(carried) - 1
        self._pos = {w: i for lvl in carried for i, w in enumerate(lvl)}
        pos = [{w: i for i, w in enumerate(lvl)} for lvl in carried]
        seg_pos = [{w: i for i, w in enumerate(lvl)} for lvl in seg_words]
        letters = {(a,): a for a in range(self.n_letters)}
        # segment level 1 is the rows of dx; level j > 1: seg_j[u] = seg_{j-1}[u[:-1]] * dx[u[-1]] / j
        self._letters = _gather([u[0] for u in seg_words[1]], self.n_letters) if len(seg_words) > 1 else None
        self._seg = [_split(seg_words[j], j - 1, seg_pos[j - 1], letters) for j in range(2, len(seg_words))]
        # level m adds segment level m's rows (split k = 0), then for 0 < k < m the
        # prefixes w[:k] from level k times the suffixes w[k:] from segment level m - k
        self._whole = [None] + [_gather([seg_pos[m][w] for w in carried[m]], len(seg_words[m]))
                                for m in range(1, len(carried))]
        self._split = [[_split(carried[m], k, pos[k], seg_pos[m - k]) for k in range(1, m)]
                       for m in range(len(carried))]
        self._lv = [np.ones((1, n_paths))] + [np.zeros((len(lvl), n_paths)) for lvl in carried[1:]]
        # work buffers of this engine: the segment levels, and a split's product and gathers
        self._seg_lv = [None] + [np.empty((len(lvl), n_paths)) for lvl in seg_words[1:]]
        self._work = np.empty((2, max(map(len, carried + seg_words)), n_paths))

    def chen_step(self, dx: np.ndarray) -> None:
        """Concatenate the segment exponential of dx (n_paths, d+1) on the right."""
        dxt = np.ascontiguousarray(dx.T)
        if dxt.shape != (self.n_letters, self.n_paths):
            raise ValueError(f"dx must be (n_paths, d+1) = ({self.n_paths}, {self.n_letters})")
        scratch, other = self._work
        seg = [None]
        if len(self._seg_lv) > 1:  # level 1 is dx itself, exactly as 1.0 * dx / 1
            seg.append(_take(dxt, self._letters, self._seg_lv[1]))
        for j, split in enumerate(self._seg, start=2):
            seg.append(_product(seg[-1], dxt, split, self._seg_lv[j], scratch))
            seg[-1] /= j
        # levels descend so that every split reads the prefixes before this step
        for m in range(len(self._lv) - 1, 0, -1):
            level = self._lv[m]
            level += _take(seg[m], self._whole[m], scratch)
            for k, split in enumerate(self._split[m], start=1):
                level += _product(self._lv[k], seg[m - k], split, scratch[: len(level)], other)

    def coord(self, word: Word) -> np.ndarray:
        """One carried coordinate per path: a read-only view, valid until the next chen_step."""
        pos = self._pos.get(tuple(word))
        if pos is None:
            raise ValueError(f"word {word} is not carried (truncation {self.trunc})")
        view = self._lv[len(word)][pos]
        view.flags.writeable = False
        return view

    def coords(self, words: list[Word]) -> np.ndarray:
        return np.column_stack([self.coord(w) for w in words]) if words else np.zeros((self.n_paths, 0))

    def pair(self, ell: GradedTensor) -> np.ndarray:
        """<ell, W_t> per path."""
        out = np.zeros(self.n_paths)
        for w, c in ell.coeffs.items():
            out += c * self.coord(w)
        return out


# ---------------------------------------------------------------------------
# Counter-based Brownian driver
# ---------------------------------------------------------------------------

_INV_2_53 = 2.0**-53
# Philox outputs per chunk of paths (128 KiB of uint64): the chunk's
# temporaries stay in cache and are reused; larger chunks measured more page
# faults and no gain in speed.
_CHUNK_OUTPUTS = 2**14
# threads that draw a block's chunks and step its path ranges (sde.stream_paths), and
# processes that format a block's price CSV rows (sde.write_price_csv): one per CPU in the
# affinity mask
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def fan_out(work: Callable[[T], R], parts: list[T]) -> list[R]:
    """[work(part) for part in parts], each part on a thread of its own; parts is not empty.

    The calling thread works the first part and one thread per further part
    works the rest; every thread is joined before fan_out returns or raises.
    An error of the calling thread's part propagates; otherwise the error of
    the first part whose thread raised is re-raised.  Parts overlap only in
    code that releases the GIL, as numpy's ufuncs and Philox do.
    """
    results: list = [None] * len(parts)
    errors: list = [None] * len(parts)

    def worker(i: int) -> None:
        try:
            results[i] = work(parts[i])
        except BaseException as exc:  # re-raised by the calling thread after the join
            errors[i] = exc

    started = []
    try:
        for i in range(1, len(parts)):
            thread = threading.Thread(target=worker, args=(i,))
            thread.start()
            started.append(thread)
        results[0] = work(parts[0])
    finally:
        for thread in started:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return results


@dataclass(frozen=True)
class BrownianBatch:
    """A set of Brownian paths on a shared uniform grid.

    grid holds the d Brownian coordinates step-major, (steps+1, d, n_paths),
    so one grid time of every path is a contiguous row; time is `times`.
    """

    times: np.ndarray
    grid: np.ndarray
    path_offset: int = 0

    def __len__(self) -> int:
        return self.grid.shape[2]

    @property
    def dim(self) -> int:
        return self.grid.shape[1]

    @property
    def steps(self) -> int:
        return self.grid.shape[0] - 1


def check_driver_args(d: int, horizon: float, steps: int, n_paths: int, seed: int) -> None:
    """Raise ValueError on arguments simulate_brownian_grid would reject."""
    if not 0.0 < horizon < math.inf:
        raise ValueError("horizon must be finite and positive")
    if d < 1 or steps < 1 or n_paths < 1:
        raise ValueError("d, steps and n_paths must be >= 1")
    if not 0 <= seed < 2**64:
        raise ValueError("seed must be an integer in [0, 2**64)")


def simulate_brownian_grid(d: int, horizon: float, steps: int, n_paths: int,
                           seed: int, path_offset: int = 0, *,
                           _into: np.ndarray | None = None) -> BrownianBatch:
    """Independent N(0, dt) increments per coordinate on a uniform grid.

    The normal for (path, step, coordinate) is Box-Muller's cos output on a
    fixed pair of Philox uniforms.  Each path's draws are padded to whole
    Philox counter blocks (4 outputs), so path p starts at counter
    p * per_path / 4 and the stream does not depend on how paths are batched.
    Paths are generated in chunks whose draws fit in cache and written
    step-major; the grid is then summed over steps one row at a time.  The
    chunks are split into contiguous runs, one per CPU this process may run
    on (os.sched_getaffinity), drawn by the calling thread and one thread per
    further run; a chunk's values do not depend on which thread draws it, so
    the grid is the same bits whatever the number of CPUs.  The grid is a
    fresh array unless `_into`, a grid of the same shape that no one reads
    any more, is passed to be overwritten (sde.stream_paths does).
    """
    check_driver_args(d, horizon, steps, n_paths, seed)
    times = np.linspace(0.0, horizon, steps + 1)
    shape = (steps + 1, d, n_paths)
    grid = _into if _into is not None and _into.shape == shape else np.empty(shape)
    grid[0] = 0.0
    used = 2 * steps * d
    per_path = used + (-used) % 4
    chunk = max(1, _CHUNK_OUTPUTS // per_path)
    scale = math.sqrt(horizon / steps)
    starts = range(0, n_paths, chunk)
    runs = min(_WORKERS, len(starts))
    bounds = [starts[len(starts) * i // runs] for i in range(runs)] + [n_paths]

    def draw(run: tuple[int, int]) -> None:
        first, end = run
        # a chunk is whole paths, i.e. whole counter blocks, so reading the stream
        # on starts each chunk at its first path's counter
        bitgen = np.random.Philox(key=np.uint64(seed))
        bitgen.advance(((path_offset + first) * per_path) // 4)
        for lo in range(first, end, chunk):
            n = min(chunk, end - lo)
            raw = bitgen.random_raw(n * per_path).reshape(n, per_path)
            raw >>= np.uint64(11)
            u = raw.astype(np.float64)
            u *= _INV_2_53
            u += 2.0**-54
            w = np.log(u[:, 0:used:2])
            w *= -2.0
            np.sqrt(w, out=w)
            angle = np.multiply(2.0 * np.pi, u[:, 1:used:2])
            w *= np.cos(angle, out=angle)
            np.multiply(w.reshape(n, steps, d).transpose(1, 2, 0), scale, out=grid[1:, :, lo : lo + n])

    # numpy's ufuncs and Philox release the GIL, so the runs are drawn in parallel
    fan_out(draw, list(zip(bounds, bounds[1:])))
    # the cumulative sum over steps, in its order, on contiguous rows
    for k in range(2, steps + 1):
        grid[k] += grid[k - 1]
    return BrownianBatch(times, grid, path_offset)
