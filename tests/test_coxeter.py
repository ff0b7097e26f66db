import itertools
import math

import pytest

from glci.coxeter import (
    IntPolynomial,
    char_poly,
    coxeter_factors,
    coxeter_polynomial,
    format_poly,
    k0_rank,
    omega_action_block,
    omega_action_blocks,
    omega_action_matrix,
    phi,
)
from glci.grading import WeightSystem
from glci.suite import default_grid


ONE_MINUS_T = IntPolynomial([1, -1])


def geometric(a):
    return IntPolynomial([1] * a)


def test_int_polynomial_basics():
    p = IntPolynomial([1, 0, -2, 0])
    assert p.coeffs == (1, 0, -2)
    assert p.degree == 2
    assert IntPolynomial([]).is_zero()
    assert (p * IntPolynomial([0])).is_zero()
    q = IntPolynomial([0, 1])
    assert (q**3).coeffs == (0, 0, 0, 1)
    assert format_poly(IntPolynomial([1, -1, 1])) == "1-t+t^2"
    assert format_poly(IntPolynomial([-2, 0, 3])) == "-2+3t^2"
    assert p.evaluate(2) == 1 - 8


def test_phi_base_cases():
    assert phi(()) == ONE_MINUS_T
    for a in range(1, 8):
        assert phi((a,)) == geometric(a)
    assert phi((2, 3)) == IntPolynomial([1, -1, 1])


def test_phi_degree_and_symmetry():
    for args in ((2, 2), (3, 4), (2, 3, 4), (5, 2)):
        p = phi(args)
        assert p.degree == math.prod(a - 1 for a in args)
        assert phi(tuple(reversed(args))) == p


def test_phi_telescoping_small():
    # prod over index subsets of phi equals (1 - t^lcm)^(prod/lcm)
    for args in ((2,), (2, 3), (2, 2), (3, 3, 3), (2, 4, 6)):
        L = math.lcm(*args)
        expected = IntPolynomial([1])
        x_power = [0] * (L + 1)
        x_power[0], x_power[L] = 1, -1
        base = IntPolynomial(x_power)
        expected = base ** (math.prod(args) // L)
        prod = IntPolynomial([1])
        import itertools

        for k in range(len(args) + 1):
            for idx in itertools.combinations(range(len(args)), k):
                prod = prod * phi(tuple(args[i] for i in idx))
        assert prod == expected


def _g(values):
    """g_I = (1 - t^lcm I)^(prod I / lcm I), expanded by binomials."""
    L = math.lcm(*values)
    e = math.prod(values) // L
    out = [0] * (L * e + 1)
    for j in range(e + 1):
        out[j * L] = (-1) ** j * math.comb(e, j)
    return IntPolynomial(out)


PHI_KEYS = [
    key
    for size in range(5)
    for key in itertools.combinations_with_replacement(range(1, 7), size)
] + [(12, 12, 12, 12), (2, 3, 7, 43), (30, 30)]


def test_phi_times_odd_side_is_even_side():
    # phi_S times the product of g_I over |S - I| odd is the product of g_I
    # over |S - I| even, factor by factor, with no exponents summed per lcm
    assert len(PHI_KEYS) >= 200
    for key in PHI_KEYS:
        sides = [IntPolynomial([1]), IntPolynomial([1])]
        for size in range(len(key) + 1):
            for idx in itertools.combinations(range(len(key)), size):
                odd = (len(key) - size) % 2
                sides[odd] = _g([key[i] for i in idx]) * sides[odd]
        even, odd = sides
        assert odd * phi(key) == even, key


def test_coxeter_polynomial_printed_fixture():
    # (1-t)^3 (1+t)^2 (1+t+t^2)^2 (1-t+t^2), degree 11
    expected = (
        ONE_MINUS_T**3
        * IntPolynomial([1, 1]) ** 2
        * IntPolynomial([1, 1, 1]) ** 2
        * IntPolynomial([1, -1, 1])
    )
    chi = coxeter_polynomial(WeightSystem(2, (2, 3)))
    assert chi == expected
    assert chi.degree == 11


def test_coxeter_polynomial_small_cases():
    assert coxeter_polynomial(WeightSystem(1, ())) == ONE_MINUS_T**2
    chi = coxeter_polynomial(WeightSystem(1, (2, 3, 5)))
    assert chi.degree == 9
    # weight-1 entries are invisible
    assert coxeter_polynomial(WeightSystem(2, (1, 2, 3))) == coxeter_polynomial(
        WeightSystem(2, (2, 3))
    )


def coxeter_polynomial_by_phi(ws):
    """The product formula multiplied out phi by phi, as `coxeter_polynomial`
    did before it summed the exponents of all factors per lcm; the oracle."""
    result = IntPolynomial([1])
    for size in range(min(ws.d, ws.n) + 1):
        for subset in itertools.combinations(ws.weights, size):
            result = result * phi(subset) ** (ws.d + 1 - size)
    return result


INFO_LADDER = tuple(
    WeightSystem(d, weights)
    for d, weights in (
        (1, (2, 3, 5)),
        (1, (2, 3, 7, 43)),
        (2, (7, 11, 13)),
        (3, (2, 2, 2, 2, 2)),
        (2, (5, 5, 5, 5)),
        (3, (4, 4, 4, 4, 4)),
        (2, (8, 8, 8, 8)),
        (2, (6, 6, 6, 6, 6)),
        (2, (10, 10, 10, 10)),
        (2, (12, 12, 12, 12)),
        (2, (15, 15, 15, 15)),
    )
)


def test_coxeter_polynomial_matches_the_phi_by_phi_oracle_on_the_grid_and_ladder():
    systems = default_grid() + list(INFO_LADDER)
    assert len(systems) == 392
    for ws in systems:
        chi = coxeter_polynomial(ws)
        assert chi == coxeter_polynomial_by_phi(ws), ws
        assert chi.degree == k0_rank(ws)


def test_coxeter_polynomial_matches_the_phi_by_phi_oracle_on_random_systems():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(derandomize=True, max_examples=100, deadline=None)
    @hypothesis.given(st.integers(1, 3), st.lists(st.integers(1, 7), max_size=4))
    # weights of 1 only, repeated weights past d, and n = 0
    @hypothesis.example(2, [1, 1, 1])
    @hypothesis.example(1, [7, 7, 7, 7])
    @hypothesis.example(3, [])
    def run(d, weights):
        ws = WeightSystem(d, tuple(weights))
        assert coxeter_polynomial(ws) == coxeter_polynomial_by_phi(ws)

    run()


def test_coxeter_factors_match_product():
    ws = WeightSystem(2, (2, 3))
    prod = IntPolynomial([1])
    for factor, exp in coxeter_factors(ws):
        prod = prod * factor**exp
    assert prod == coxeter_polynomial(ws)


def test_k0_rank_examples():
    assert k0_rank(WeightSystem(2, (2, 3))) == 11
    assert k0_rank(WeightSystem(1, ())) == 2
    assert k0_rank(WeightSystem(2, (2, 2, 3, 4))) == 34
    assert k0_rank(WeightSystem(1, (2, 3, 5))) == 9


def test_omega_action_blocks_structure():
    ws = WeightSystem(1, ())
    blocks = list(omega_action_blocks(ws))
    assert [(s, e) for s, e, _ in blocks] == [((), 2)]
    assert all(b == [[1]] for _, _, b in blocks)

    # single weight 2: the only nontrivial block is 1x1 with entry -1
    assert omega_action_block((2,)) == [[-1]]
    assert omega_action_block((3,)) == [[0, 1], [-1, -1]]


def test_omega_action_blocks_group_subsets_by_ordered_weights():
    """Subsets with the same ordered weight tuple share one block, their
    levels summed; (3, 2) and (2, 3) stay apart, since sorting is the phi
    side's symmetry argument."""
    ws = WeightSystem(2, (3, 2, 3))
    blocks = list(omega_action_blocks(ws))
    assert [(w, n) for w, n, _ in blocks] == [
        ((), 3), ((3,), 4), ((2,), 2), ((3, 2), 1), ((3, 3), 1), ((2, 3), 1)
    ]
    assert all(block == omega_action_block(w) for w, _, block in blocks)
    assert sum(n * len(b) for _, n, b in blocks) == k0_rank(ws)


def test_omega_matrix_size_is_rank():
    for ws in (WeightSystem(1, (2, 3, 5)), WeightSystem(2, (2, 3)), WeightSystem(3, (2, 2))):
        assert len(omega_action_matrix(ws)) == k0_rank(ws)


def test_char_poly_basics():
    assert char_poly([[1, 0], [0, 1]]) == IntPolynomial([1, -2, 1])
    assert char_poly([[0, 1], [1, 0]]) == IntPolynomial([-1, 0, 1])
    assert char_poly([]) == IntPolynomial([1])
    assert char_poly([[5]]) == IntPolynomial([-5, 1])
    with pytest.raises(ValueError):
        char_poly([[1, 2]])
    # a dense non-symmetric integer matrix: det(t*I - M) at t = 0 is -det(M)
    m = [[2, -1, 0], [1, 3, -2], [0, 4, 1]]
    p = char_poly(m)
    assert p.leading_coefficient() == 1
    assert p.evaluate(0) == -_det3(m)


def _det3(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def test_cross_route_equality_samples():
    for ws in (
        WeightSystem(1, (2, 3, 5)),
        WeightSystem(2, (2, 3)),
        WeightSystem(2, (2, 2, 2, 2)),
        WeightSystem(3, (2, 2)),
    ):
        chi = coxeter_polynomial(ws)
        cp = char_poly(omega_action_matrix(ws))
        assert cp == chi or cp == -chi
        assert abs(cp.constant_term()) == 1


def test_per_block_char_poly_is_phi():
    ws = WeightSystem(2, (2, 3))
    for weights, _, block in omega_action_blocks(ws):
        assert char_poly(block) == phi(weights).monic_normalized()
