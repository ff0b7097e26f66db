"""Dual-route checks of the exact linear algebra kernels."""

import math
import random
from fractions import Fraction

import pytest

from glci.algebra import global_dimension, structure_constants
from glci.coxeter import (
    MERSENNE_EXPONENTS,
    IntPolynomial,
    char_poly,
    coxeter_polynomial,
    omega_action_blocks,
    omega_action_matrix,
)
from glci.grading import (
    GroupElement,
    WeightSystem,
    add,
    coset_keys,
    gen_x,
    interval,
    omega,
    smith_normal_form,
    smul,
    zero,
)
from test_linalg import naive_det

T = IntPolynomial([0, 1])


def naive_char_poly(matrix):
    """Cofactor expansion of det(t*I - M) over integer polynomials."""
    n = len(matrix)
    entries = [
        [
            (T if i == j else IntPolynomial()) - IntPolynomial([matrix[i][j]])
            for j in range(n)
        ]
        for i in range(n)
    ]

    def det(rows, cols):
        if not rows:
            return IntPolynomial([1])
        acc = IntPolynomial()
        r = rows[0]
        for k, c in enumerate(cols):
            minor = det(rows[1:], cols[:k] + cols[k + 1 :])
            term = entries[r][c] * minor
            acc = acc + (term if k % 2 == 0 else -term)
        return acc

    return det(tuple(range(n)), tuple(range(n)))


def fraction_char_poly(matrix):
    """det(t*I - M) by Hessenberg reduction and recurrence over Q."""
    n = len(matrix)
    h = [[Fraction(v) for v in row] for row in matrix]
    for j in range(n - 2):
        piv = next((r for r in range(j + 1, n) if h[r][j] != 0), None)
        if piv is None:
            continue
        if piv != j + 1:
            h[piv], h[j + 1] = h[j + 1], h[piv]
            for row in h:
                row[piv], row[j + 1] = row[j + 1], row[piv]
        inv = 1 / h[j + 1][j]
        for i in range(j + 2, n):
            if h[i][j]:
                f = h[i][j] * inv
                hi, hj1 = h[i], h[j + 1]
                for col in range(j, n):
                    hi[col] -= f * hj1[col]
                for row in h:
                    row[j + 1] += f * row[i]
    polys = [[Fraction(1)]]
    for m in range(1, n + 1):
        prev = polys[m - 1]
        cur = [Fraction(0)] * (m + 1)
        for i, c in enumerate(prev):
            cur[i + 1] += c
            cur[i] -= h[m - 1][m - 1] * c
        subprod = Fraction(1)
        for i in range(m - 1, 0, -1):
            subprod *= h[i][i - 1]
            coef = h[i - 1][m - 1] * subprod
            for k, c in enumerate(polys[i - 1]):
                cur[k] -= coef * c
        polys.append(cur)
    assert all(c.denominator == 1 for c in polys[n])
    return IntPolynomial([int(c) for c in polys[n]])


def _hadamard_bits(matrix):
    return math.prod(2 + math.isqrt(sum(v * v for v in row)) for row in matrix).bit_length()


def test_char_poly_against_cofactor_expansion():
    rng = random.Random(20240815)
    for n in (1, 2, 3, 4, 5):
        for _ in range(4):
            m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            assert char_poly(m) == naive_char_poly(m), m


def test_char_poly_with_huge_entries_against_both_oracles():
    # entries up to 10^40 push the coefficient bound past 2^127 and 2^521
    rng = random.Random(314159)
    bits = []
    for n in (1, 2, 3, 4, 5, 6):
        for scale in (10**3, 10**20, 10**40):
            m = [[rng.randint(-scale, scale) for _ in range(n)] for _ in range(n)]
            expected = fraction_char_poly(m)
            assert char_poly(m) == expected, m
            if n <= 5:
                assert naive_char_poly(m) == expected, m
            bits.append(_hadamard_bits(m))
    assert max(bits) > 521


def test_char_poly_property_against_both_oracles():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    entry = st.one_of(st.integers(-3, 3), st.integers(-(10**40), 10**40))

    @hypothesis.settings(derandomize=True, max_examples=100, deadline=None)
    @hypothesis.given(
        st.integers(0, 5).flatmap(
            lambda n: st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
        )
    )
    def check(m):
        expected = naive_char_poly(m)
        assert fraction_char_poly(m) == expected
        assert char_poly(m) == expected

    check()


def test_char_poly_against_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2718)
    for n in (3, 6, 9):
        for scale in (2, 10**40):
            m = [[rng.randint(-scale, scale) for _ in range(n)] for _ in range(n)]
            coeffs = sympy.Matrix(m).charpoly().all_coeffs()
            assert char_poly(m) == IntPolynomial([int(c) for c in reversed(coeffs)]), m


def test_char_poly_refuses_a_bound_past_the_prime_table():
    assert char_poly([[2 ** (MERSENNE_EXPONENTS[-1] - 2)]]).coeffs[0] < 0
    with pytest.raises(ValueError):
        char_poly([[2 ** MERSENNE_EXPONENTS[-1]]])


def _permuted_direct_sum(blocks, perm):
    """The direct sum of the square `blocks` with index i renamed perm[i]:
    the block-diagonal matrix conjugated by a permutation matrix."""
    n = len(perm)
    m = [[0] * n for _ in range(n)]
    offset = 0
    for block in blocks:
        for i, row in enumerate(block):
            for j, v in enumerate(row):
                m[perm[offset + i]][perm[offset + j]] = v
        offset += len(block)
    return m


def test_char_poly_of_permuted_block_diagonal_matrices():
    """`char_poly` reduces the whole permuted matrix, whose nonzero pattern
    hides its blocks, and must equal both oracles on it and the product of
    the blocks' oracle polynomials, repeated blocks counted once per copy."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    entry = st.one_of(st.integers(-3, 3), st.integers(-(10**40), 10**40))
    square = st.integers(1, 5).flatmap(
        lambda b: st.lists(st.lists(entry, min_size=b, max_size=b), min_size=b, max_size=b)
    )

    @st.composite
    def cases(draw):
        blocks = []
        for _ in range(draw(st.integers(1, 4))):
            if blocks and draw(st.booleans()):
                blocks.append(draw(st.sampled_from(blocks)))
            else:
                blocks.append(draw(square))
        perm = draw(st.permutations(range(sum(map(len, blocks)))))
        return blocks, _permuted_direct_sum(blocks, perm)

    seen = {"repeated": 0, "whole naive": 0}

    @hypothesis.settings(derandomize=True, max_examples=150, deadline=None)
    @hypothesis.given(cases())
    def check(case):
        blocks, m = case
        expected = fraction_char_poly(m)
        assert char_poly(m) == expected
        product = IntPolynomial([1])
        for block in blocks:
            product = product * naive_char_poly(block)
        assert product == expected
        if len(m) <= 6:
            assert naive_char_poly(m) == expected
            seen["whole naive"] += 1
        seen["repeated"] += len(set(map(repr, blocks))) < len(blocks)

    check()
    assert seen["repeated"] > 30 and seen["whole naive"] > 30, seen


def test_char_poly_of_the_omega_matrix_is_the_product_over_its_blocks():
    ws = WeightSystem(2, (7, 11, 13))
    full = char_poly(omega_action_matrix(ws))
    chi = coxeter_polynomial(ws)
    assert full in (chi, -chi) and full.degree == 311
    product = IntPolynomial([1])
    for _, levels, block in omega_action_blocks(ws):
        product = product * char_poly(block) ** levels
    assert full == product


def test_smith_normal_form_against_determinants():
    rng = random.Random(99)
    for n in (1, 2, 3):
        for _ in range(8):
            m = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
            factors = smith_normal_form(m)
            assert math.prod(factors) == abs(naive_det(m))
            for a, b in zip(factors, factors[1:]):
                if a:
                    assert b % a == 0
                else:
                    assert b == 0


def test_smith_normal_form_rectangular():
    assert smith_normal_form([[2, 4, 6]]) == [2]
    assert smith_normal_form([[2], [4], [6]]) == [2]
    assert smith_normal_form([[1, 0, 0], [0, 0, 0]]) == [1, 0]


def test_resolution_euler_characteristic_matches_simples():
    # alternating sums of projective dimension vectors over the minimal
    # resolution must reproduce the dimension vector of each simple
    from glci.algebra import (
        canonical_interval,
        cartan_matrix,
        minimal_resolution_profile,
    )

    for d, weights in ((1, (2, 2, 2)), (1, (2, 3, 3)), (2, (2, 3))):
        ws = WeightSystem(d, weights)
        box = canonical_interval(ws)
        alg = structure_constants(ws, box)
        cartan = cartan_matrix(ws, box)
        nv = len(box)
        for v in range(nv):
            profile = minimal_resolution_profile(alg, v)
            euler = [0] * nv
            for k, gens in enumerate(profile):
                sign = (-1) ** k
                for y in gens:
                    for x in range(nv):
                        euler[x] += sign * cartan[x][y]
            expected = [1 if x == v else 0 for x in range(nv)]
            assert euler == expected, (d, weights, v)


def test_global_dimension_of_chain_algebra():
    # the interval {0, x3, 2x3} inside (2,3,5) carries the path algebra of a
    # 3-chain, which is hereditary
    ws = WeightSystem(1, (2, 3, 5))
    x3 = gen_x(ws, 3)
    chain = interval(ws, zero(ws), smul(ws, 2, x3))
    assert len(chain) == 3
    alg = structure_constants(ws, chain)
    assert alg.dim == 6
    assert global_dimension(alg) == 1


def test_coset_key_anti_fano_direction():
    ws = WeightSystem(1, (2, 3, 7))  # delta(omega) = 1/42 > 0
    w = omega(ws)
    x = GroupElement((1, 2, 3), 2)
    for k in (-4, -1, 0, 1, 5):
        assert coset_keys(ws, [add(ws, x, smul(ws, k, w))])[0] == coset_keys(ws, [x])[0]
    # the whole group is one coset here
    assert coset_keys(ws, [gen_x(ws, 1)])[0] == coset_keys(ws, [zero(ws)])[0]


def test_interval_is_convex_closed():
    ws = WeightSystem(2, (2, 3))
    from glci.algebra import check_convex
    from glci.grading import gen_c

    box = interval(ws, zero(ws), smul(ws, 2, gen_c(ws)))
    assert check_convex(ws, box)
