"""Dual-route checks of the exact linear algebra kernels."""

import math
import random

from glci.algebra import global_dimension, structure_constants
from glci.coxeter import IntPolynomial, char_poly
from glci.grading import (
    GroupElement,
    WeightSystem,
    add,
    coset_key,
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


def test_char_poly_against_cofactor_expansion():
    rng = random.Random(20240815)
    for n in (1, 2, 3, 4, 5):
        for _ in range(4):
            m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            assert char_poly(m) == naive_char_poly(m), m


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
        assert coset_key(ws, add(ws, x, smul(ws, k, w))) == coset_key(ws, x)
    # the whole group is one coset here
    assert coset_key(ws, gen_x(ws, 1)) == coset_key(ws, zero(ws))


def test_interval_is_convex_closed():
    ws = WeightSystem(2, (2, 3))
    from glci.algebra import check_convex
    from glci.grading import gen_c

    box = interval(ws, zero(ws), smul(ws, 2, gen_c(ws)))
    assert check_convex(ws, box)
