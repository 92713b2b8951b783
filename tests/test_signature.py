import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigvol.algebra import GradedTensor, Weight, concat_product, dual_pairing, shuffle_product
from sigvol import signature
from sigvol.sde import SigVolParams, stream_paths
from sigvol.signature import (
    _CHUNK_OUTPUTS,
    BatchSignature,
    all_words,
    simulate_brownian_grid,
)

from _oracles import brownian_values, levels, reference_chen_step, sparse_signatures, to_tensor


def random_path(rng, d=2, steps=6, horizon=1.0, scale=0.5):
    """A time-augmented (steps+1, d+1) path on a random grid."""
    times = np.sort(rng.uniform(0.0, horizon, size=steps - 1))
    times = np.concatenate([[0.0], times, [horizon]])
    w = np.vstack([np.zeros(d), np.cumsum(rng.normal(size=(steps, d)) * scale, axis=0)])
    return np.column_stack([times, w])


def engine_signatures(values: np.ndarray, trunc: int) -> list[GradedTensor]:
    """The batch engine's signatures of one path (m+1, d+1) at its grid times."""
    d = values.shape[1] - 1
    sig = BatchSignature(1, d, all_words(d, trunc))
    out = [to_tensor(sig, 0)]
    for dx in np.diff(values, axis=0):
        sig.chen_step(dx[None, :])
        out.append(to_tensor(sig, 0))
    return out


def segment(dx: np.ndarray, trunc: int) -> GradedTensor:
    """The reference signature of the single segment dx."""
    return sparse_signatures(np.array([np.zeros_like(dx), dx]), trunc)[-1]


class TestSegmentExponential:
    def test_time_only_segment(self):
        seg = segment(np.array([0.5, 0.0, 0.0]), 4)
        for n in range(5):
            assert seg[(0,) * n] == pytest.approx(0.5**n / math.factorial(n))

    def test_zero_increment(self):
        seg = segment(np.zeros(3), 3)
        assert seg.coeffs == {(): 1.0}

    def test_level2_simplex_integral(self):
        dx = np.array([0.3, 0.7, -0.2])
        seg = segment(dx, 2)
        assert seg[(1, 2)] == pytest.approx(dx[1] * dx[2] / 2.0)


class TestPiecewiseLinearSignature:
    def test_single_segment_equals_exponential(self):
        # one Chen step from the unit: every word w has coefficient prod dx[w] / |w|!
        dx = np.array([1.0, 0.4, -0.1])
        sig = engine_signatures(np.array([np.zeros(3), dx]), 3)[-1]
        for w in all_words(2, 3):
            expected = math.prod(dx[j] for j in w) / math.factorial(len(w))
            assert sig[w] == pytest.approx(expected, rel=1e-15, abs=1e-300)

    @settings(max_examples=6)
    @given(st.lists(st.floats(0.05, 0.3), min_size=7, max_size=7),
           st.lists(st.lists(st.floats(-1.5, 1.5), min_size=2, max_size=2), min_size=7, max_size=7))
    def test_chen_identity_exact_at_every_split(self, dts, dws):
        times = np.concatenate([[0.0], np.cumsum(dts)])
        path = np.column_stack([times, np.vstack([np.zeros(2), np.cumsum(dws, axis=0)])])
        stream = engine_signatures(path, 4)
        for mid in range(1, len(path) - 1):
            right = engine_signatures(path[mid:], 4)[-1]
            recombined = concat_product(stream[mid], right, 4)
            assert recombined.allclose(stream[-1], 1e-12)

    def test_linear_path_level_two_closed_form(self):
        # x_t = t * v: <e_ij, X_T> = v_i v_j T^2 / 2
        v = np.array([0.7, -0.4])
        horizon = 1.3
        times = np.linspace(0.0, horizon, 9)
        sig = engine_signatures(np.column_stack([times, np.outer(times, v)]), 2)[-1]
        for i in (1, 2):
            for j in (1, 2):
                expected = v[i - 1] * v[j - 1] * horizon**2 / 2.0
                assert sig[(i, j)] == pytest.approx(expected, abs=1e-12)

    def test_empty_word_is_one_along_stream(self):
        rng = np.random.default_rng(12)
        stream = sparse_signatures(random_path(rng), 3)
        assert all(t[()] == 1.0 for t in stream)

    def test_shuffle_identity_on_deterministic_paths(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            d = int(rng.integers(1, 4))
            path = random_path(rng, d=d, steps=5)
            sig = engine_signatures(path, 6)[-1]
            words = [w for w in all_words(d, 3) if len(w) >= 1]
            for iw in words:
                for jw in words:
                    if len(iw) + len(jw) > 6:
                        continue
                    lhs = sig[iw] * sig[jw]
                    sh = shuffle_product(GradedTensor.basis(d, iw),
                                         GradedTensor.basis(d, jw), 6)
                    assert abs(lhs - dual_pairing(sh, sig)) < 1e-10

    def test_grid_violation(self):
        # the driver's grid linspace(0, T, steps+1) is strictly increasing only for a finite T > 0
        for horizon in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                simulate_brownian_grid(1, horizon, 4, 4, seed=0)


class TestBatchEngine:
    def test_matches_sparse_reference(self):
        rng = np.random.default_rng(14)
        path = random_path(rng, d=2, steps=5, horizon=1.0)
        ref = sparse_signatures(path, 4)[-1]
        got = engine_signatures(path, 4)[-1]
        words = set(ref.coeffs) | set(got.coeffs)
        assert all(abs(ref[w] - got[w]) < 1e-13 for w in words)

    def test_levels_are_row_major(self):
        # with every word carried, column i of level n is the word of row-major index i
        sig = BatchSignature(4, 2, all_words(2, 3))
        sig.chen_step(np.random.default_rng(3).normal(size=(4, 3)))
        for w in all_words(2, 3):
            index = sum(a * 3 ** (len(w) - 1 - j) for j, a in enumerate(w))
            assert np.array_equal(levels(sig)[len(w)][:, index], sig.coord(w))

    def test_coords_column_order(self):
        batch = BatchSignature(2, 1, all_words(1, 2))
        batch.chen_step(np.array([[0.1, 0.2], [0.3, -0.1]]))
        out = batch.coords([(1,), (0,)])
        assert out[:, 0] == pytest.approx(batch.coord((1,)))
        assert out[:, 1] == pytest.approx(batch.coord((0,)))


@st.composite
def word_sets(draw):
    d = draw(st.integers(1, 3))
    trunc = draw(st.integers(0, 5))
    word = st.lists(st.integers(0, d), max_size=trunc).map(tuple)
    return d, trunc, draw(st.lists(word, max_size=6))


class TestCarriedWords:
    @settings(max_examples=60, deadline=None)
    @given(word_sets(), st.integers(0, 2**32 - 1))
    def test_bit_identical_to_all_words(self, case, seed):
        d, trunc, words = case
        rng = np.random.default_rng(seed)
        full = BatchSignature(5, d, all_words(d, trunc))
        part = BatchSignature(5, d, words)
        for _ in range(4):
            dx = rng.normal(size=(5, d + 1)) * rng.uniform(0.1, 2.0)
            full.chen_step(dx)
            part.chen_step(dx)
        for w in words:
            for k in range(len(w) + 1):
                assert np.array_equal(part.coord(w[:k]), full.coord(w[:k]))

    @settings(max_examples=30, deadline=None)
    @given(word_sets())
    def test_engine_rows_are_the_rows_it_stores(self, case):
        # the split rule of sde.stream_paths reads engine_rows before any engine is built
        d, _, words = case
        sig = BatchSignature(2, d, words)
        rows = sum(lv.shape[0] for lvs in (sig._lv, sig._seg_lv) for lv in lvs if lv is not None)
        assert signature.engine_rows(words) == rows
        assert signature.engine_rows(all_words(1, 4)) == 61

    def test_only_prefix_closure_carried(self):
        sig = BatchSignature(3, 1, [(1, 0, 0)])
        assert [lv.shape for lv in levels(sig)] == [(3, 1), (3, 1), (3, 1), (3, 1)]
        with pytest.raises(ValueError):
            sig.coord((0,))
        with pytest.raises(ValueError):
            BatchSignature(3, 1, [(2,)])


def _increments(draw, d: int) -> np.ndarray:
    """>= 4 steps of increments (steps, n_paths, d+1) with exact +-0.0 entries."""
    n_paths = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dx = rng.normal(size=(draw(st.integers(4, 6)), n_paths, d + 1))
    zeros = rng.random(dx.shape) < 0.3
    dx[zeros] = np.copysign(0.0, rng.normal(size=dx.shape))[zeros]
    return dx


@st.composite
def chained_steps(draw):
    """An engine's (d, words) and >= 4 steps of increments with exact +-0.0 entries."""
    d = draw(st.integers(1, 3))
    trunc = draw(st.integers(0, 5))
    word = st.lists(st.integers(0, d), max_size=trunc).map(tuple)
    words = draw(st.one_of(st.just(all_words(d, trunc)), st.lists(word, max_size=6)))
    return d, words, _increments(draw, d)


@st.composite
def mixed_steps(draw):
    """Word sets whose engines mix outer-product and gathered splits, with increments.

    Either every word up to a depth plus up to 4 longer random words, or a
    chain of single words (j, a, ..., a) as rough_bergomi_approx's ell reads
    (j = 1, a = 0).
    """
    d = draw(st.integers(1, 3))
    depth = draw(st.integers(0, 4 - d))
    if draw(st.booleans()):
        longer = st.lists(st.integers(0, d), min_size=depth + 1, max_size=depth + 3).map(tuple)
        words = all_words(d, depth) + draw(st.lists(longer, max_size=4))
    else:
        j, a, degree = draw(st.integers(1, d)), draw(st.integers(0, d)), draw(st.integers(0, 6))
        words = [(j,) + (a,) * i for i in range(degree + 1)]
    return d, words, _increments(draw, d)


def _array_attrs(sig: BatchSignature) -> list[np.ndarray]:
    found = []
    for value in vars(sig).values():
        for item in value if isinstance(value, list) else [value]:
            if isinstance(item, np.ndarray):
                found.append(item)
    return found


class TestBufferedChenStep:
    """The in-place, buffered Chen step against the allocate-per-step reference."""

    @settings(max_examples=80, deadline=None)
    @given(chained_steps())
    def test_bit_identical_to_reference(self, case):
        d, words, dx = case
        got = BatchSignature(dx.shape[1], d, words)
        ref = BatchSignature(dx.shape[1], d, words)
        for step in dx:
            got.chen_step(step)
            reference_chen_step(ref, step)
        for a, b in zip(levels(got), levels(ref)):
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))

    def test_coords_survive_a_step_and_coord_is_read_only(self):
        rng = np.random.default_rng(5)
        words = [(1,), (2, 1), (1, 0, 2)]
        sig = BatchSignature(4, 2, words)
        sig.chen_step(rng.normal(size=(4, 3)))
        before = sig.coords(words)
        kept = before.copy()
        sig.chen_step(rng.normal(size=(4, 3)))
        assert np.array_equal(before, kept)
        assert not np.array_equal(sig.coords(words), kept)
        with pytest.raises(ValueError):
            sig.coord((2, 1))[0] = 1.0

    def test_engines_share_no_buffer(self):
        rng = np.random.default_rng(6)
        dx_a, dx_b = rng.normal(size=(2, 4, 3, 3))
        a, b = BatchSignature(3, 2, all_words(2, 4)), BatchSignature(3, 2, all_words(2, 4))
        for step_a, step_b in zip(dx_a, dx_b):
            a.chen_step(step_a)
            b.chen_step(step_b)
        for mine, theirs in ((a, dx_a), (b, dx_b)):
            alone = BatchSignature(3, 2, all_words(2, 4))
            for step in theirs:
                alone.chen_step(step)
            assert all(np.array_equal(x, y) for x, y in zip(levels(mine), levels(alone)))
        assert not any(np.shares_memory(x, y) for x in _array_attrs(a) for y in _array_attrs(b))


def _splits(sig: BatchSignature) -> list[tuple]:
    """Every product split of the engine: segment levels 2.. and the Chen splits 0 < k < m."""
    return sig._seg + [split for level in sig._split for split in level]


class TestProductSplits:
    """Splits formed as outer products of carried levels, beside gathered splits."""

    @settings(max_examples=80, deadline=None)
    @given(mixed_steps())
    def test_bit_identical_to_reference(self, case):
        d, words, dx = case
        got = BatchSignature(dx.shape[1], d, words)
        ref = BatchSignature(dx.shape[1], d, words)
        for step in dx:
            got.chen_step(step)
            reference_chen_step(ref, step)
        for a, b in zip(levels(got), levels(ref)):
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))

    def test_one_engine_mixes_both_forms(self):
        rng = np.random.default_rng(8)
        words = all_words(2, 2) + [(1, 0, 2), (2, 2, 1, 0)]
        got, ref = BatchSignature(6, 2, words), BatchSignature(6, 2, words)
        products = [shape is not None for shape, _, _ in _splits(got)]
        assert any(products) and not all(products)
        for _ in range(5):
            dx = rng.normal(size=(6, 3))
            dx[rng.random(dx.shape) < 0.3] = -0.0
            got.chen_step(dx)
            reference_chen_step(ref, dx)
        for a, b in zip(levels(got), levels(ref)):
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))

    @pytest.mark.parametrize("d, depth", [(1, 4), (2, 3)])
    def test_full_engines_gather_no_row(self, d, depth):
        sig = BatchSignature(3, d, all_words(d, depth))
        assert sig._letters is None and all(idx is None for idx in sig._whole)
        assert all(shape is not None and pre is None and suf is None for shape, pre, suf in _splits(sig))


class TestBrownianDriver:
    def test_bit_identical_reruns(self):
        a = simulate_brownian_grid(2, 1.0, 32, 16, seed=99)
        b = simulate_brownian_grid(2, 1.0, 32, 16, seed=99)
        assert np.array_equal(a.grid, b.grid)

    def test_path_set_order_independent(self):
        small = simulate_brownian_grid(2, 1.0, 16, 5, seed=123)
        large = simulate_brownian_grid(2, 1.0, 16, 50, seed=123)
        assert np.array_equal(small.grid, large.grid[:, :, :5])
        shifted = simulate_brownian_grid(2, 1.0, 16, 10, seed=123, path_offset=7)
        assert np.array_equal(shifted.grid, large.grid[:, :, 7:17])

    def test_terminal_moments(self):
        batch = simulate_brownian_grid(1, 2.0, 8, 100_000, seed=55)
        w_t = batch.grid[-1, 0]
        se = w_t.std(ddof=1) / math.sqrt(len(w_t))
        assert abs(w_t.mean()) < 3 * se
        var = w_t.var(ddof=1)
        se_var = np.std(w_t**2, ddof=1) / math.sqrt(len(w_t))
        assert abs(var - 2.0) < 3 * se_var

    def test_validation(self):
        for seed in (-1, 2**64):
            with pytest.raises(ValueError):
                simulate_brownian_grid(1, 1.0, 4, 4, seed=seed)
        with pytest.raises(ValueError):
            simulate_brownian_grid(1, -1.0, 4, 4, seed=0)
        with pytest.raises(ValueError):
            simulate_brownian_grid(1, 1.0, 0, 4, seed=0)
        with pytest.raises(ValueError):
            simulate_brownian_grid(0, 1.0, 4, 4, seed=0)
        # an empty path set is rejected before any block is drawn
        params = SigVolParams(GradedTensor(1, {(): 0.2}), Weight.constant(), 1.0,
                              np.array([1.0]), 1.0, 4)
        with pytest.raises(ValueError):
            stream_paths(params, 0, 0, lambda paths: None)

    def test_drawn_into_as_given(self):
        # a view of a wider buffer is drawn into, the same bits as a fresh grid; any other shape
        # is rejected, never replaced
        buffer = np.full((9, 2, 20), np.nan)
        batch = simulate_brownian_grid(2, 1.0, 8, 13, seed=5, path_offset=7,
                                       _into=buffer[:, :, :13])
        assert np.shares_memory(batch.grid, buffer)
        fresh = simulate_brownian_grid(2, 1.0, 8, 13, seed=5, path_offset=7)
        assert np.array_equal(_bits(buffer[:, :, :13]), _bits(fresh.grid))
        assert np.isnan(buffer[:, :, 13:]).all()
        for into in (buffer, buffer[:, :1, :13], buffer[1:, :, :13]):
            with pytest.raises(ValueError, match="shape"):
                simulate_brownian_grid(2, 1.0, 8, 13, seed=5, _into=into)

    def test_level1_ito_isometry(self):
        batch = simulate_brownian_grid(1, 0.7, 16, 60_000, seed=77)
        w_t = batch.grid[-1, 0]
        sq = w_t**2
        se = sq.std(ddof=1) / math.sqrt(len(sq))
        assert abs(sq.mean() - 0.7) < 3 * se

    def test_level2_stratonovich_fourth_moment(self):
        # <e_11> = W^2/2 so E[<e_11>^2] = 3 (t-s)^2 / 4
        batch = simulate_brownian_grid(1, 0.5, 16, 60_000, seed=78)
        w_t = batch.grid[-1, 0]
        stat = (w_t**2 / 2.0) ** 2
        se = stat.std(ddof=1) / math.sqrt(len(stat))
        assert abs(stat.mean() - 3.0 * 0.5**2 / 4.0) < 3 * se


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


class TestDriverMatchesPathMajor:
    """The chunked, step-major driver reproduces the path-major driver bit for bit."""

    # steps * d odd for (1, 7) and (3, 5): each path's draws are padded to the counter block
    @pytest.mark.parametrize("d, steps", [(1, 7), (2, 16), (3, 5)])
    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_values_and_increments(self, d, steps, seed):
        per_path = 2 * steps * d + (-2 * steps * d) % 4
        chunk = _CHUNK_OUTPUTS // per_path
        # fewer paths than a chunk, exactly one, and a ragged last chunk, at path offsets
        for n_paths, offset in ((chunk - 3, 0), (chunk, 5), (2 * chunk + 7, 0), (2 * chunk + 7, 3)):
            batch = simulate_brownian_grid(d, 0.8, steps, n_paths, seed, path_offset=offset)
            values = brownian_values(d, 0.8, steps, n_paths, seed, path_offset=offset)
            assert np.array_equal(_bits(batch.times), _bits(values[0, :, 0]))
            grid = values[:, :, 1:].transpose(1, 2, 0)
            assert batch.grid.shape == grid.shape
            assert np.array_equal(_bits(batch.grid), _bits(grid))


class TestDriverWorkers:
    """The grid is the same bits whatever the number of threads that draw its chunks."""

    @pytest.mark.parametrize("workers", [1, 2, 3, 64])
    @pytest.mark.parametrize("d, steps", [(1, 7), (2, 16), (3, 5)])
    def test_grid_independent_of_worker_count(self, monkeypatch, workers, d, steps):
        monkeypatch.setattr(signature, "_WORKERS", workers)
        chunk = _CHUNK_OUTPUTS // (2 * steps * d + (-2 * steps * d) % 4)
        # a ragged last chunk, at path offset 0 and 5; with 2 or 3 workers the five
        # chunks split into uneven runs whose boundaries fall inside the block, and
        # 64 workers are more than there are chunks
        for n_paths, offset in ((4 * chunk + 7, 0), (4 * chunk + 7, 5), (chunk - 3, 2)):
            batch = simulate_brownian_grid(d, 0.8, steps, n_paths, seed=41, path_offset=offset)
            values = brownian_values(d, 0.8, steps, n_paths, 41, path_offset=offset)
            assert np.array_equal(_bits(batch.grid), _bits(values[:, :, 1:].transpose(1, 2, 0)))

    def test_error_in_a_worker_thread_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(signature, "_WORKERS", 2)
        drawn_here = threading.get_ident()
        real_philox = np.random.Philox

        def philox(*args, **kwargs):
            if threading.get_ident() != drawn_here:
                raise MemoryError("no room for the run's chunks")
            return real_philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", philox)
        with pytest.raises(MemoryError, match="no room"):
            simulate_brownian_grid(1, 1.0, 8, 4 * _CHUNK_OUTPUTS, seed=1)
