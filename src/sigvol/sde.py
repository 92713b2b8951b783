"""Simulation of the signature SDE as a stochastic exponential.

The price is S = s0 * exp(M - <M>/2) with M the left-point Riemann sum of
xi dB, xi_t = <ell, W_t> and B = eta . W.  Exponentiating the Doleans-Dade
form once per step keeps every path strictly positive and reproduces the
Black-Scholes closed form exactly on shared grids.

Every Monte Carlo consumer, the price paths of `simulate` included, hands
stream_paths a function walk(PathBlock) that steps one path range to the
end, and reads the results in path order; a run holds one block grid.
PathBlock is the one place the Ito sums are taken: per step it adds dB,
xi dB and xi^2 dt to the running B, M and <M>, and their difference to the
log-price, so every consumer reads the same sums.  simulate_price records
them at every grid time, and with write_price_csv it prices and writes one
range at a time, so memory is bounded by one block whatever the number of
paths.  write_price_csv formats a block's rows on every CPU in the
affinity mask, in chunks of CSV_CHUNK_PATHS paths written in path order:
the bytes are the same whatever that number, and at most one chunk per CPU
is held beside the block.

A block whose engine rows (carried plus segment words) times paths reach
SPLIT_ROW_PATHS is stepped on every CPU in the affinity mask: in one
contiguous path range per CPU, each with an engine of its own, on a thread
of its own.  Any other block is one range, stepped in the calling thread.
The constant is the crossover measured on a 2-core host
(benchmarks/bench_stepper.py): a block drawn and stepped in two ranges took
1.34 times as long as in one at 18 rows x 16384 paths (294912) and 1.12
times at 29 x 8192, but 0.55 times at 29 x 12288 (356352) and 0.52 to 0.75
times on every larger shape measured.  A small step is interpreter-bound,
and its threads contend for the GIL.  So the depth-report scan's blocks
are split (61 rows x 16384 paths at depth 4), and the transform check's
(3 x 8192) and the deep price paths' (18 x 1024) are not.  A path's
arithmetic is the same in any range, so every output is the same bits
either way.

A block holds the paths whose increments number at most BLOCK_NORMALS
(2**20 normals, 8 MiB), kept between BLOCK_PATHS // 4 and BLOCK_PATHS
paths, so at d = 1 a run holds a grid of 8192 paths (8.5 MB) at 128 steps
and of 4096 paths (67 MB) at 2048 steps.  A bound flat in the number of
steps needs a step-major stream (a stream version of its own): each path's
normals are contiguous in today's Philox stream, so a block draws all of its
paths' steps at once.

H3 (exponential integrability of the integrated variance) is reported via
Monte Carlo, never asserted: finiteness of an exponential moment is not
decidable from samples, so the report carries a heavy-tail flag instead.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
from dataclasses import dataclass, field
from typing import BinaryIO, Callable, Iterator, TypeVar

import numpy as np

from .algebra import GradedTensor, Weight
from . import signature
from .signature import BatchSignature, BrownianBatch

# A driver block holds the paths whose increments number at most BLOCK_NORMALS, and between
# BLOCK_PATHS // 4 and BLOCK_PATHS paths: narrower blocks pay the stepper's per-call cost on
# every step (512-path blocks took twice as long at 2048 steps)
BLOCK_PATHS = 16384
BLOCK_NORMALS = 2**20  # 8 MiB of float64 increments
# engine rows x paths from which a block is stepped in one path range per CPU: the measured
# crossover of the module docstring
SPLIT_ROW_PATHS = 20 * 2**14
# paths per chunk of price CSV rows that one process formats; 64 raised peak RSS by 2 MB
CSV_CHUNK_PATHS = 16
_FRAME = struct.Struct("<q")  # a chunk's byte length on a row writer's pipe; < 0: error text
PLATEAU_TOL = 1e-9  # relative mass in check_H1's last quarter of terms that is divergent
T = TypeVar("T")


@dataclass(frozen=True)
class SigVolParams:
    """Model parameters of the signature SDE dS = S <ell, W> dB."""

    ell: GradedTensor
    weight: Weight
    s0: float
    eta: np.ndarray
    horizon: float
    steps: int

    def __post_init__(self):
        eta = np.asarray(self.eta, dtype=float)
        if eta.ndim != 1 or eta.shape[0] != self.ell.dim:
            raise ValueError("eta must be a vector in R^d")
        with np.errstate(over="ignore"):  # an overflowing norm is inf, which fails the check
            size = np.linalg.norm(eta)
        if not abs(size - 1.0) <= 1e-12:  # NaN fails <=
            raise ValueError("eta must be a unit vector (within 1e-12)")
        if not 0.0 < self.s0 < math.inf:
            raise ValueError("s0 must be finite and positive")
        if not 0.0 < self.horizon < math.inf or self.steps < 1:
            raise ValueError("a finite horizon > 0 and steps >= 1 required")
        object.__setattr__(self, "eta", eta)

    @property
    def dim(self) -> int:
        return self.ell.dim


@dataclass(frozen=True)
class PriceBatch:
    """Price paths of one driver block on the shared grid, rows offset.. of the run."""

    times: np.ndarray
    xi: np.ndarray
    driver: np.ndarray
    martingale: np.ndarray
    bracket: np.ndarray
    price: np.ndarray
    s0: float
    offset: int

    def __len__(self) -> int:
        return self.price.shape[0]

    @property
    def terminal_price(self) -> np.ndarray:
        return self.price[:, -1]


class PathBlock:
    """One driver block of paths, advanced by the model one grid step at a time.

    Carries the words ell reads plus `words`, xi = <ell, W_t> and the
    left-point Ito sums of every path: the driver B = eta . W, the
    martingale M = sum xi dB, its bracket <M> = sum xi^2 dt and the
    log-price log(S_t / s0) = sum (xi dB - xi^2 dt / 2).  steps() yields k
    with sig and xi still at t_k and the sums already at t_{k+1}.  The block
    reads its driver grid in place: each step's increments are differenced
    into one reused (d+1, n_paths) buffer.  The grid is the run's
    (stream_paths), overwritten by the next block once the walk returns.
    """

    def __init__(self, params: SigVolParams, paths: BrownianBatch, words=()):
        if paths.dim != params.dim:
            raise ValueError("path dimension does not match ell")
        words = list(params.ell.coeffs) + [tuple(w) for w in words]
        self.params = params
        self.offset = paths.path_offset
        self.size = len(paths)
        self.times = paths.times
        self.dt = np.diff(paths.times)
        self._grid = paths.grid  # (steps+1, d, n_paths)
        self.sig = BatchSignature(self.size, params.dim, words)
        self.xi = self.sig.pair(params.ell)
        # -0.0 + x is x bit for bit, -0.0 included: each sum is its increments' cumulative sum
        self.driver, self.mart, self.qv = (np.full(self.size, -0.0) for _ in range(3))
        self.log_s = np.zeros(self.size)

    def steps(self) -> Iterator[int]:
        grid, self._grid = self._grid, None  # the block steps once
        eta = self.params.eta
        inc = np.empty((self.params.dim + 1, self.size))
        for k, dt in enumerate(self.dt):
            # bit for bit the row k of the time-augmented increments, as np.diff takes them
            inc[0] = dt
            np.subtract(grid[k + 1], grid[k], out=inc[1:])
            if len(eta) == 1:
                # the one product, which BLAS adds to +0.0: the same bits unless an increment
                # is exactly 0.0 (a step rounded away) and eta = -1
                db = inc[1] * eta[0]
            else:
                # a C-ordered (paths, d) operand keeps the product's summation order
                db = np.ascontiguousarray(inc[1:].T) @ eta
            dm, dq = self.xi * db, self.xi**2 * dt
            self.driver += db
            self.mart += dm
            self.qv += dq
            # halving is exact, so this is xi dB - (xi^2 / 2) dt as well
            self.log_s += dm - 0.5 * dq
            yield k
            self.sig.chen_step(inc.T)
            self.xi = self.sig.pair(self.params.ell)


def stream_paths(params: SigVolParams, n_paths: int, seed: int,
                 walk: Callable[[PathBlock], T], words=()) -> Iterator[T]:
    """walk(range) for each path range of the driver's path set for (seed, n_paths), in path order.

    A block holds the paths whose increments number at most BLOCK_NORMALS,
    between BLOCK_PATHS // 4 and BLOCK_PATHS of them: at d = 1, 16384 paths
    up to 64 steps, 8192 at 128 steps and 4096 from 256 steps on.  A run
    draws every block into one grid of (steps+1) * d * min(n_paths, block)
    floats, a short last block into its leading columns, so walk must keep
    neither its PathBlock nor a view of its grid once it returns.  The stream
    is counter-based, so the paths are the same bits whatever the block size.
    A block whose engine rows (signature.engine_rows of ell's words plus
    `words`) times its paths reach SPLIT_ROW_PATHS is cut into contiguous
    ranges, one per CPU in the affinity mask (signature._WORKERS), each a
    PathBlock over its columns of the block grid with an engine of its own,
    and walked on a thread of its own (signature.fan_out); any other block is
    one range, walked in the calling thread.  A path's arithmetic is the same
    in any range, so walk sees the same bits either way, and work that
    depends on the order of paths belongs to the caller, on the results.  The
    driver's arguments are checked on the call, before any block is drawn, so
    a caller can reject a run before it opens its outputs.  A run needs at
    least two paths, as every consumer reads a standard error off them.
    """
    signature.check_driver_args(params.dim, params.horizon, params.steps, n_paths, seed)
    if n_paths < 2:
        raise ValueError("need at least 2 paths")
    return _ranges(params, n_paths, seed, walk, words)


def _ranges(params: SigVolParams, n_paths: int, seed: int, walk: Callable[[PathBlock], T],
            words) -> Iterator[T]:
    size = min(BLOCK_PATHS, max(BLOCK_PATHS // 4, BLOCK_NORMALS // (params.steps * params.dim)))
    grid = np.empty((params.steps + 1, params.dim, min(size, n_paths)))  # the run's one grid
    rows = signature.engine_rows([*params.ell.coeffs, *words])
    for start in range(0, n_paths, size):
        n = min(size, n_paths - start)
        block = signature.simulate_brownian_grid(params.dim, params.horizon, params.steps, n,
                                                 seed, start, _into=grid[:, :, :n])
        runs = min(signature._WORKERS, n) if rows * n >= SPLIT_ROW_PATHS else 1
        bounds = [n * i // runs for i in range(runs + 1)]
        ranges = [PathBlock(params, BrownianBatch(block.times, block.grid[:, :, lo:hi], start + lo),
                            words) for lo, hi in zip(bounds, bounds[1:])]
        results = signature.fan_out(walk, ranges)
        del ranges  # the ranges' engines go before the next block's are built
        while results:  # held by the caller alone once handed over
            yield results.pop(0)


def simulate_price(block: PathBlock) -> PriceBatch:
    """Exact Doleans-Dade exponential of one block on the grid, with left-point sums.

    Steps the block to the end, recording xi and its Ito sums at every grid time.
    """
    xi, driver, mart, bracket = (np.zeros((block.size, len(block.dt) + 1)) for _ in range(4))
    for k in block.steps():
        xi[:, k] = block.xi
        driver[:, k + 1] = block.driver
        mart[:, k + 1] = block.mart
        bracket[:, k + 1] = block.qv
    xi[:, -1] = block.xi
    s0 = block.params.s0
    price = s0 * np.exp(mart - 0.5 * bracket)
    return PriceBatch(block.times, xi, driver, mart, bracket, price, s0, block.offset)


# ---------------------------------------------------------------------------
# Hypothesis diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class H1Report:
    value: float
    divergent: bool
    partial_sums: np.ndarray


def check_H1(ell: GradedTensor | Callable[[int], float], weight: Weight,
             tail_terms: int = 2000) -> H1Report:
    """Evaluate sum_n w(n) |ell_n|^2.

    For a finitely supported GradedTensor the sum is exact and finite.  For
    an analytic coefficient rule (a callable n -> |ell_n|) the partial sums
    over tail_terms are scanned for a Cauchy plateau; divergent means the
    last quarter of terms still adds more than PLATEAU_TOL relative mass.
    """
    if isinstance(ell, GradedTensor):
        levels = ell.level_norms()
        terms = np.array([weight(n) * levels[n] ** 2 for n in range(len(levels))])
        return H1Report(float(terms.sum()), False, np.cumsum(terms))

    def term(n: int) -> float:
        x = float(ell(n))
        if x == 0.0:
            return 0.0
        # log-space product: geometric weights overflow long before the
        # combined term does
        log_t = weight.log_value(n) + 2.0 * math.log(abs(x))
        return math.exp(log_t) if log_t < 700.0 else math.inf

    terms = np.array([term(n) for n in range(tail_terms)])
    sums = np.cumsum(terms)
    window = terms[3 * tail_terms // 4 :].sum()
    divergent = window > PLATEAU_TOL * (1.0 + abs(sums[-1]))
    return H1Report(float(sums[-1]), bool(divergent), sums)


@dataclass(frozen=True)
class H3Report:
    mean: float
    ci_halfwidth: float
    suspicious_heavy_tail: bool
    lam: float
    n_paths: int
    # s0 exp(M_T - <M>_T / 2) per path, from the block's sums as in simulate_price
    terminal_price: np.ndarray = field(repr=False, compare=False)
    note: str = ("Monte Carlo cannot certify finiteness of an exponential "
                 "moment; this is a diagnostic, not a proof.")


def estimate_H3(params: SigVolParams, lam: float, n_paths: int, seed: int) -> H3Report:
    """MC estimate of E exp(lam * int_0^T xi^2 ds) with a 95% normal CI.

    The heavy-tail flag trips when the largest 0.1% of the samples carry
    more than half of the estimate.  The same pass gives the terminal prices
    of the paths, equal to those of simulate_price on the same path set.
    The driver's arguments are checked first, then the two paths an SE needs.
    """
    if not 0.0 < lam < math.inf:
        raise ValueError("lambda must be finite and positive")

    def walk(paths: PathBlock) -> None:
        for _ in paths.steps():
            pass
        rows = slice(paths.offset, paths.offset + paths.size)
        with np.errstate(over="ignore"):  # inf, silently; set on the walk's own thread
            samples[rows] = np.exp(lam * paths.qv)
        terminal[rows] = params.s0 * np.exp(paths.mart - 0.5 * paths.qv)

    ranges = stream_paths(params, n_paths, seed, walk)
    samples = np.empty(n_paths)  # each range writes its own rows
    terminal = np.empty(n_paths)
    for _ in ranges:
        pass
    with np.errstate(invalid="ignore"):  # an inf sample makes the SE NaN
        mean = float(samples.mean())
        se = float(samples.std(ddof=1) / math.sqrt(n_paths))
    k = max(1, int(math.ceil(0.001 * n_paths)))
    top = np.sort(samples)[-k:].sum()
    # an overflowing top sample makes both sides inf, and the moment it estimates is infinite
    heavy = bool(not math.isfinite(top) or top > 0.5 * samples.sum())
    return H3Report(mean, 1.96 * se, heavy, lam, n_paths, terminal)


@dataclass(frozen=True)
class MartingaleReport:
    mean_terminal: float
    se: float
    z_score: float
    n_paths: int


def martingale_check(terminal: np.ndarray, s0: float) -> MartingaleReport:
    """z-score of the mean terminal price against S_0 (true-martingale check)."""
    if terminal.size < 2:
        raise ValueError("need at least 2 paths")
    mean = float(terminal.mean())
    # the spread of the prices scaled by 2^-e, e the exponent of the largest, scaled back:
    # unscaled, squared deviations below about 1e-154 underflow to 0 and above 1e154 overflow.
    # A power of two scales a normal float exactly, so every other SE keeps its bits
    e = math.frexp(float(np.abs(terminal).max()))[1]
    se = math.ldexp(float(np.ldexp(terminal, -e).std(ddof=1)), e) / math.sqrt(terminal.size)
    z = (mean - s0) / se if se > 0.0 else 0.0
    if se == 0.0 and mean != s0:  # a zero SE puts a mean off S_0 infinitely many SEs away
        z = math.copysign(math.inf, mean - s0)
    return MartingaleReport(mean, se, z, terminal.size)


def write_price_csv(prices: PriceBatch, fh) -> None:
    """One block's CSV rows, one per (path, time): path_id,t,xi,B,M,qv,S.

    Path ids count from the block's offset, and the block at offset 0 writes
    the header first, so a run's blocks written in order make one file.  The
    rows are formatted on every CPU in the affinity mask (signature._WORKERS):
    the block's paths are cut into chunks of CSV_CHUNK_PATHS, dealt round-robin
    to this process and to one forked row writer per further CPU, and written
    to fh in path order, so the bytes are the same whatever that number.  A
    row writer formats its next chunk only once the last one has been read,
    so beyond the block itself at most one chunk per CPU is held.  Without
    os.fork, or on one CPU, this process formats every chunk.
    """
    if prices.offset == 0:
        fh.write("path_id,t,xi,B,M,qv,S\n")
    times = ["%.17g" % t for t in prices.times.tolist()]
    starts = range(0, len(prices), CSV_CHUNK_PATHS)
    workers = min(signature._WORKERS, len(starts)) if hasattr(os, "fork") else 1
    writers: list[tuple[int, BinaryIO]] = []
    try:
        for w in range(1, workers):
            writers.append(_fork_row_writer(prices, times, starts[w::workers], writers))
        for c, lo in enumerate(starts):
            w = c % workers
            fh.write(_format_rows(prices, times, lo) if w == 0 else _receive(writers[w - 1][1]))
    finally:
        # closed read ends first: a row writer blocked on its pipe then fails and exits
        for _, reader in writers:
            reader.close()
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid, _ in writers]
    failed = [code for code in codes if code]
    if failed:
        raise OSError(f"a price CSV row writer exited with status {failed[0]}")


def _format_rows(prices: PriceBatch, times: list[str], lo: int) -> str:
    """The CSV rows of the chunk of paths lo.. of a block, t already formatted."""
    hi = min(lo + CSV_CHUNK_PATHS, len(prices))
    columns = [values[lo:hi].tolist() for values in (
        prices.xi, prices.driver, prices.martingale, prices.bracket, prices.price)]
    rows = []
    for path_id, *path in zip(range(prices.offset + lo, prices.offset + hi), *columns):
        row = f"{path_id},%s,%.17g,%.17g,%.17g,%.17g,%.17g\n"
        rows.append("".join([row % values for values in zip(times, *path)]))
    return "".join(rows)


def _fork_row_writer(prices: PriceBatch, times: list[str], starts: range,
                     writers: list[tuple[int, BinaryIO]]) -> tuple[int, BinaryIO]:
    """Fork a process that sends the rows of the chunks at starts down a pipe, in order.

    Returns its pid and the read end.  Each chunk goes as one frame: its
    length, then its UTF-8 bytes; a chunk that fails to format goes as the
    negated length of the error's text, then the text.  The row writer ends
    with os._exit, so it never returns into its caller and never flushes a
    buffer it inherited (fh, stdout).  Forking with other threads running is
    safe here because it only formats Python floats and writes to its pipe.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            for _, reader in writers:  # the earlier row writers' read ends are the caller's
                reader.close()
            for lo in starts:
                _send(write_fd, _format_rows(prices, times, lo).encode())
            status = 0
        except Exception as exc:  # reported in place of the chunk; a closed pipe reports nothing
            with contextlib.suppress(OSError):
                _send(write_fd, f"{type(exc).__name__}: {exc}".encode(), error=True)
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, os.fdopen(read_fd, "rb")


def _send(fd: int, data: bytes, error: bool = False) -> None:
    frame = memoryview(_FRAME.pack(-len(data) if error else len(data)) + data)
    while frame:
        frame = frame[os.write(fd, frame):]


def _receive(reader: BinaryIO) -> str:
    """The next chunk's rows from a row writer's pipe."""
    head = reader.read(_FRAME.size)
    size = _FRAME.unpack(head)[0] if len(head) == _FRAME.size else 0
    body = reader.read(abs(size))
    if not size or len(body) != abs(size):
        raise OSError("a price CSV row writer ended before sending its rows")
    if size < 0:
        raise OSError(f"a price CSV row writer failed: {body.decode()}")
    return body.decode()
