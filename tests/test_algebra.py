import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigvol.algebra import (
    DimensionMismatch,
    GradedTensor,
    Weight,
    antipode,
    concat_product,
    dual_pairing,
    format_tensor,
    format_word,
    parse_tensor,
    parse_word,
    shuffle_product,
    shuffle_words,
    weight_check,
    weighted_norms,
)

from _oracles import brute_force_interlacings, project_leq


def random_tensor(rng, d=2, max_len=3, n_terms=6):
    coeffs = {}
    for _ in range(n_terms):
        length = int(rng.integers(0, max_len + 1))
        word = tuple(int(v) for v in rng.integers(0, d + 1, size=length))
        coeffs[word] = float(rng.normal())
    return GradedTensor(d, coeffs)


def tensors(d=2, max_len=3, n_terms=6):
    """Up to n_terms words over {0..d} of length <= max_len, coefficients in [-3, 3]."""
    words = st.lists(st.integers(0, d), max_size=max_len).map(tuple)
    coeffs = st.dictionaries(words, st.floats(-3.0, 3.0), max_size=n_terms)
    return coeffs.map(lambda c: GradedTensor(d, c))


class TestShuffle:
    def test_e1_shuffle_e1_is_2_e11(self):
        e1 = GradedTensor.basis(2, (1,))
        assert shuffle_product(e1, e1, 2).coeffs == {(1, 1): 2.0}

    def test_unit_is_neutral(self):
        rng = np.random.default_rng(0)
        a = random_tensor(rng)
        unit = GradedTensor.unit(2)
        assert shuffle_product(unit, a, 3).allclose(a)

    def test_e1_shuffle_e2_matches_enumeration(self):
        e1 = GradedTensor.basis(2, (1,))
        e2 = GradedTensor.basis(2, (2,))
        got = shuffle_product(e1, e2, 2).coeffs
        assert got == {(1, 2): 1.0, (2, 1): 1.0}

    @pytest.mark.parametrize("u,v", [((1,), (2, 1)), ((1, 2), (2, 1)), ((0, 1, 2), (1, 1))])
    def test_word_shuffle_against_brute_force(self, u, v):
        expected = brute_force_interlacings(u, v)
        got = dict(shuffle_words(u, v))
        assert got == expected

    @settings(max_examples=25)
    @given(tensors(max_len=2), tensors(max_len=2), tensors(max_len=2))
    def test_commutative_and_associative(self, a, b, c):
        ab = shuffle_product(a, b, 4)
        assert ab.allclose(shuffle_product(b, a, 4), 1e-12)
        lhs = shuffle_product(ab, c, 4)
        rhs = shuffle_product(a, shuffle_product(b, c, 4), 4)
        assert lhs.allclose(rhs, 1e-12)

    def test_interlacing_count_is_binomial(self):
        # Hopf smoke test: |shuffle| of level-m and level-n words counted
        # with multiplicity equals binomial(m+n, m).
        for u, v in [((1, 2), (0, 1, 2)), ((1, 1), (1, 1)), ((2,), (0, 0, 1, 1))]:
            total = sum(m for _, m in shuffle_words(u, v))
            assert total == math.comb(len(u) + len(v), len(u))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            shuffle_product(GradedTensor.basis(1, (1,)), GradedTensor.basis(3, (3,)), 2)


class TestConcat:
    def test_basis_concatenation(self):
        e1 = GradedTensor.basis(2, (1,))
        e2 = GradedTensor.basis(2, (2,))
        assert concat_product(e1, e2, 2).coeffs == {(1, 2): 1.0}

    def test_unit_laws(self):
        rng = np.random.default_rng(2)
        a = random_tensor(rng)
        unit = GradedTensor.unit(2)
        assert concat_product(unit, a, 3).allclose(a)
        assert concat_product(a, unit, 3).allclose(a)

    def test_bilinearity_by_hand(self):
        e1 = GradedTensor.basis(2, (1,))
        e2 = GradedTensor.basis(2, (2,))
        got = concat_product(e1 + e2, e1, 2)
        assert got.coeffs == {(1, 1): 1.0, (2, 1): 1.0}

    @settings(max_examples=25)
    @given(tensors(max_len=2), tensors(max_len=2), tensors(max_len=2))
    def test_associative_exact(self, a, b, c):
        lhs = concat_product(concat_product(a, b, 4), c, 4)
        rhs = concat_product(a, concat_product(b, c, 4), 4)
        assert lhs.allclose(rhs, 1e-12)

    def test_level_convolution_structure(self):
        # level n of a (x) b is sum_k a_k (x) b_{n-k}
        a = GradedTensor(1, {(): 2.0, (1,): 3.0})
        b = GradedTensor(1, {(): 5.0, (1,): 7.0, (1, 1): 1.0})
        got = concat_product(a, b, 2)
        assert got[(1, 1)] == pytest.approx(2.0 * 1.0 + 3.0 * 7.0)


class TestAntipode:
    def test_examples(self):
        assert antipode(GradedTensor.basis(2, (1, 2))).coeffs == {(2, 1): 1.0}
        assert antipode(GradedTensor.basis(2, (1,))).coeffs == {(1,): -1.0}

    @settings(max_examples=20)
    @given(tensors())
    def test_involution(self, a):
        assert antipode(antipode(a)).allclose(a)


class TestNormsAndPairing:
    def test_norm_arithmetic(self):
        a = GradedTensor(1, {(): 1.0, (1,): 1.0})
        norm_w, norm_2w, norm_2winv = weighted_norms(a, Weight.geometric(2.0))
        assert norm_w == pytest.approx(3.0)
        assert norm_2w == pytest.approx(math.sqrt(1.0 + 2.0))
        assert norm_2winv == pytest.approx(math.sqrt(1.0 + 0.5))

    def test_zero_tensor(self):
        z = GradedTensor.zero(2)
        assert weighted_norms(z, Weight.geometric(2.0)) == (0.0, 0.0, 0.0)

    @settings(max_examples=100)
    @given(tensors(), tensors())
    def test_banach_algebra_inequality(self, a, b):
        w = Weight.geometric(2.0)
        prod_norm = weighted_norms(concat_product(a, b, 6), w)[0]
        assert prod_norm <= w.c_w * weighted_norms(a, w)[0] * weighted_norms(b, w)[0] + 1e-9

    def test_pairing_examples(self):
        a = GradedTensor(2, {(): 1.0, (1, 2): 4.0})
        ell = GradedTensor(2, {(): 0.3})
        assert dual_pairing(ell, a) == pytest.approx(0.3)
        orth = GradedTensor(2, {(2,): 9.0})
        assert dual_pairing(orth, a) == 0.0

    @settings(max_examples=20)
    @given(tensors(), tensors())
    def test_pairing_is_dense_dot_product(self, ell, a):
        dense = sum(ell[w] * a[w] for w in set(ell.coeffs) | set(a.coeffs))
        assert dual_pairing(ell, a) == pytest.approx(dense, abs=1e-12)

    @settings(max_examples=100)
    @given(tensors(), tensors())
    def test_cauchy_schwarz(self, ell, a):
        w = Weight.geometric(1.5)
        bound = weighted_norms(ell, w)[1] * weighted_norms(a, w)[2]
        assert abs(dual_pairing(ell, a)) <= bound + 1e-9


class TestProjection:
    def test_truncate_to_unit(self):
        a = GradedTensor(1, {(): 1.0, (1,): 1.0})
        assert project_leq(a, 0).coeffs == {(): 1.0}

    def test_idempotent(self):
        rng = np.random.default_rng(8)
        a = random_tensor(rng)
        assert project_leq(a, a.support_degree).allclose(a)
        assert project_leq(project_leq(a, 2), 3).allclose(project_leq(a, 2))

    def test_tail_norm_decreasing(self):
        rng = np.random.default_rng(9)
        w = Weight.geometric(2.0)
        a = random_tensor(rng, max_len=4, n_terms=12)
        tails = [weighted_norms(a - project_leq(a, n), w)[0] for n in range(5)]
        assert all(tails[i + 1] <= tails[i] + 1e-12 for i in range(4))


class TestWeights:
    def test_geometric_exact(self):
        rep = weight_check(Weight.geometric(2.0), 10)
        assert rep.monotone and rep.w0_is_one
        assert rep.c_w_estimate == pytest.approx(1.0)
        assert rep.growth_r == pytest.approx(2.0)

    def test_sharpness_weight_n_plus_one(self):
        rep = weight_check(Weight.polynomial(1.0), 12)
        assert rep.monotone and rep.c_w_estimate <= 1.0 + 1e-12

    def test_constant(self):
        rep = weight_check(Weight.constant(), 5)
        assert rep.monotone and rep.c_w_estimate == pytest.approx(1.0)

    def test_violation_reported_not_raised(self):
        rep = weight_check(lambda n: 2.0 + n, 5)
        assert not rep.w0_is_one


class TestSerialization:
    def test_word_format(self):
        assert format_word(()) == "∅"
        assert format_word((1, 0, 2)) == "1.0.2"
        assert parse_word("1.0.2") == (1, 0, 2)
        assert parse_word("∅") == ()

    def test_roundtrip(self):
        rng = np.random.default_rng(10)
        a = random_tensor(rng)
        back = parse_tensor(format_tensor(a), a.dim)
        assert back.allclose(a)

    def test_bad_line_rejected(self):
        with pytest.raises(ValueError):
            parse_tensor("nonsense", 2)


class TestInvariants:
    def test_letters_in_range(self):
        with pytest.raises(ValueError):
            GradedTensor(2, {(3,): 1.0})

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            GradedTensor(2, {(1,): math.inf})

    def test_zero_pruning_invisible(self):
        a = GradedTensor(2, {(1,): 0.0, (2,): 1.0})
        assert (1,) not in a.coeffs
        assert a[(1,)] == 0.0
