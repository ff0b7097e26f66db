import itertools
import math
from fractions import Fraction

import pytest

from glci.algebra import canonical_interval_size
from glci.coxeter import coxeter_polynomial, k0_rank
from glci.grading import (
    GroupElement,
    Trichotomy,
    WeightSystem,
    add,
    coset_data_mod_omega,
    coset_keys,
    delta_l,
    delta_omega_l,
    elements_with_free_in,
    gen_c,
    gen_x,
    hom_ext_dim,
    interval,
    is_nonneg,
    leq,
    negate,
    normal_form,
    omega,
    piece_dim,
    presentation,
    smith_normal_form,
    smul,
    sub,
    trichotomy,
    zero,
)
from glci.suite import default_grid

W235 = WeightSystem(1, (2, 3, 5))


def test_normal_form_carries_torsion_into_free():
    assert normal_form(W235, (3, 0, 0), 0) == GroupElement((1, 0, 0), 1)
    assert normal_form(W235, (0, 0, 0), 0) == zero(W235)
    # c - x1 - x2 - x3, reduced coordinate by coordinate
    assert normal_form(W235, (-1, -1, -1), 1) == GroupElement((1, 2, 4), -2)


def test_normal_form_length_mismatch():
    with pytest.raises(ValueError):
        normal_form(W235, (1, 2), 0)


def test_group_law_examples():
    x1 = gen_x(W235, 1)
    assert add(W235, x1, x1) == gen_c(W235)
    assert negate(W235, x1) == GroupElement((1, 0, 0), -1)
    w = omega(W235)
    assert add(W235, w, w) == GroupElement((0, 1, 3), -1)


def test_order_examples():
    dc = smul(W235, W235.d, gen_c(W235))
    assert leq(W235, zero(W235), dc)
    x12 = add(W235, gen_x(W235, 1), gen_x(W235, 2))
    assert not leq(W235, x12, gen_c(W235))
    assert leq(W235, gen_x(W235, 1), gen_c(W235))


def test_delta_examples():
    # delta scaled by L = lcm(p_i): L = 30 on (1;2,3,5) and 12 on (2;2,2,3,4)
    assert delta_l(W235, gen_c(W235)) == 30
    assert delta_l(W235, omega(W235)) == delta_omega_l(W235) == -1
    w2234 = WeightSystem(2, (2, 2, 3, 4))
    assert delta_l(w2234, omega(w2234)) == delta_omega_l(w2234) == -7


def test_omega_examples():
    assert omega(W235) == GroupElement((1, 2, 4), -2)
    assert omega(WeightSystem(1, ())) == GroupElement((), -2)
    w = WeightSystem(2, (2,) * 6)
    # 3c - sum(x_i) normalizes to all torsion 1, free -3; its degree is 0
    assert omega(w) == GroupElement((1,) * 6, -3)
    assert delta_l(w, omega(w)) == 0


def test_trichotomy_examples():
    assert trichotomy(W235) == Trichotomy.FANO
    assert trichotomy(WeightSystem(1, (2, 3, 6))) == Trichotomy.CALABI_YAU
    assert trichotomy(WeightSystem(2, (2, 3, 7, 43))) == Trichotomy.ANTI_FANO


def test_interval_examples():
    assert len(interval(W235, zero(W235), gen_c(W235))) == 9
    assert interval(W235, zero(W235), zero(W235)) == [zero(W235)]
    w23 = WeightSystem(2, (2, 3))
    box = interval(w23, zero(w23), smul(w23, 2, gen_c(w23)))
    assert len(box) == 11
    assert interval(W235, gen_c(W235), zero(W235)) == []


def test_interval_deterministic_order():
    w23 = WeightSystem(2, (2, 3))
    box = interval(w23, zero(w23), smul(w23, 2, gen_c(w23)))
    keys = [(x.torsion, x.free) for x in box]
    assert keys == sorted(keys)


def test_smith_normal_form_basics():
    assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]
    assert smith_normal_form([[2, 0], [0, 4]]) == [2, 4]
    assert smith_normal_form([[0, 0], [0, 0]]) == [0, 0]
    assert smith_normal_form([[6]]) == [6]
    # invariant factors divide in order
    factors = smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
    for a, b in zip(factors, factors[1:]):
        if a and b:
            assert b % a == 0


def test_coset_data_examples():
    assert coset_data_mod_omega(W235).count == 1
    assert coset_data_mod_omega(WeightSystem(2, (2, 2, 3, 4))).count == 28
    infinite = coset_data_mod_omega(WeightSystem(1, (2, 3, 6)))
    assert infinite.count is None and 0 in infinite.invariant_factors
    # n = 0: quotient is Z/(d+1)
    assert coset_data_mod_omega(WeightSystem(3, ())).count == 4


def test_coset_key():
    w = omega(W235)
    for k in (-3, -1, 0, 2, 5):
        x = GroupElement((1, 2, 3), 1)
        shifted = add(W235, x, smul(W235, k, w))
        assert coset_keys(W235, [shifted])[0] == coset_keys(W235, [x])[0]
    # (2;2,2,3,4) has 28 omega-cosets, and x_1 is not a multiple of omega
    ws = WeightSystem(2, (2, 2, 3, 4))
    assert coset_keys(ws, [gen_x(ws, 1)])[0] != coset_keys(ws, [zero(ws)])[0]


def test_piece_dim_examples():
    assert piece_dim(W235, zero(W235)) == 1
    assert piece_dim(W235, gen_c(W235)) == 2
    w2 = WeightSystem(2, (2, 3))
    assert piece_dim(w2, gen_c(w2)) == 3
    assert piece_dim(W235, GroupElement((1, 0, 0), -1)) == 0


def test_hom_ext_dim_examples():
    o = zero(W235)
    assert hom_ext_dim(W235, o, o, 0) == 1
    w = omega(W235)
    assert hom_ext_dim(W235, o, w, 1) == 1  # Ext^d(O, O(omega)) = dim R_0
    for i in range(1, W235.d):
        assert hom_ext_dim(W235, o, gen_x(W235, 1), i) == 0
    with pytest.raises(ValueError):
        hom_ext_dim(W235, o, o, -1)


def test_hom_ext_duality_symmetry():
    w = omega(W235)
    for x in elements_with_free_in(W235, -1, 1):
        for y in (zero(W235), gen_x(W235, 2)):
            lhs = hom_ext_dim(W235, x, y, W235.d)
            rhs = hom_ext_dim(W235, y, add(W235, x, w), 0)
            assert lhs == rhs


def test_weight_one_hyperplanes_are_dropped_when_built():
    # X_i = l_i(T) eliminates X_i, so the system with 1s inserted is the same
    # system; the raw-tuple sums below count each weight 1 as contributing 0
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def cases(draw):
        d = draw(st.integers(1, 3))
        kept = draw(st.lists(st.integers(2, 7), max_size=4))
        raw = list(kept)
        for _ in range(draw(st.integers(1, 3))):
            raw.insert(draw(st.integers(0, len(raw))), 1)
        return d, tuple(kept), tuple(raw)

    @hypothesis.settings(derandomize=True, max_examples=100, deadline=None)
    @hypothesis.given(cases())
    @hypothesis.example((1, (), (1, 1)))
    def check(case):
        d, kept, raw = case
        ws, plain = WeightSystem(d, raw), WeightSystem(d, kept)
        assert ws == plain and hash(ws) == hash(plain)
        assert ws.weights == kept and 1 not in ws.weights
        assert k0_rank(ws) == k0_rank(plain) == sum(
            (d + 1 - size) * math.prod(p - 1 for p in subset)
            for size in range(min(d, len(raw)) + 1)
            for subset in itertools.combinations(raw, size)
        )
        assert coxeter_polynomial(ws) == coxeter_polynomial(plain)
        assert coset_data_mod_omega(ws) == coset_data_mod_omega(plain)
        assert trichotomy(ws) == trichotomy(plain)
        assert Fraction(delta_omega_l(ws), math.lcm(*kept)) == len(raw) - d - 1 - sum(
            Fraction(1, p) for p in raw
        )
        assert canonical_interval_size(ws) == canonical_interval_size(plain)

    check()
    with pytest.raises(ValueError):
        WeightSystem(1, (1, 0))


def test_presentation_pads_to_d_plus_1():
    ws = WeightSystem(2, (2, 3))
    gens, weights = presentation(ws)
    assert len(gens) == 3 and weights == (2, 3, 1)
    assert gens[0] == gen_x(ws, 1)
    assert gens[2] == gen_c(ws)
    gens2, weights2 = presentation(WeightSystem(1, (2, 3, 5)))
    assert len(gens2) == 3 and weights2 == (2, 3, 5)
    assert presentation(WeightSystem(2, (1, 2, 1)))[1] == (2, 1, 1)


def test_order_omega_three_way_equivalence():
    for ws in (W235, WeightSystem(2, (2, 2, 3)), WeightSystem(3, (2, 4)), WeightSystem(1, ())):
        dc = smul(ws, ws.d, gen_c(ws))
        w = omega(ws)
        for x in elements_with_free_in(ws, -2 * ws.d, 2 * ws.d):
            in_box = is_nonneg(x) and leq(ws, x, dc)
            by_count = x.free >= 0 and x.free + sum(1 for a in x.torsion if a) <= ws.d
            by_omega = is_nonneg(x) and not is_nonneg(add(ws, x, w))
            assert in_box == by_count == by_omega


def test_weight_system_validation():
    with pytest.raises(ValueError):
        WeightSystem(0, (2,))
    with pytest.raises(ValueError):
        WeightSystem(1, (0,))
    # a float or a string is refused, not truncated
    with pytest.raises(ValueError, match="2.5"):
        WeightSystem(1, (2.5, 3))
    with pytest.raises(ValueError, match="1.9"):
        WeightSystem(1.9, (2, 3))
    with pytest.raises(ValueError, match="'3'"):
        WeightSystem(1, (2, "3"))
    with pytest.raises(ValueError, match="'1'"):
        WeightSystem("1", (2, 3))


def test_add_sub_match_the_normal_form_route():
    # add/sub on normal-form operands carry or borrow one c per coordinate;
    # the reference reduces the raw coordinate sums with normal_form
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def cases(draw):
        ws = WeightSystem(1, tuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=5))))

        def element():
            tors = tuple(draw(st.integers(0, p - 1)) for p in ws.weights)
            return GroupElement(tors, draw(st.integers(-3, 3)))

        return ws, element(), element()

    @hypothesis.settings(derandomize=True, max_examples=100, deadline=None)
    @hypothesis.given(cases())
    def check(case):
        ws, x, y = case
        raw_sum = [a + b for a, b in zip(x.torsion, y.torsion)]
        raw_diff = [a - b for a, b in zip(x.torsion, y.torsion)]
        assert add(ws, x, y) == normal_form(ws, raw_sum, x.free + y.free)
        assert sub(ws, x, y) == normal_form(ws, raw_diff, x.free - y.free)

    check()
    # coordinates name the kept weights only: (1;1,2,3) takes two
    ws = WeightSystem(1, (1, 2, 3))
    with pytest.raises(ValueError):
        add(ws, zero(ws), GroupElement((0, 0, 0), 0))


def _group_property(check):
    """Runs `check(ws, x, y, z)` on bounded weight systems, weights of 1 and
    the empty tuple included, and three elements of each in normal form."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def cases(draw):
        ws = WeightSystem(1, tuple(draw(st.lists(st.integers(1, 7), max_size=5))))

        def element():
            tors = tuple(draw(st.integers(0, p - 1)) for p in ws.weights)
            return GroupElement(tors, draw(st.integers(-4, 4)))

        return ws, element(), element(), element()

    @hypothesis.settings(derandomize=True, max_examples=150, deadline=None)
    @hypothesis.given(cases())
    @hypothesis.example((WeightSystem(1, (2, 3)), *(GroupElement((1, 2), k) for k in (0, -1, 1))))
    def run(case):
        check(*case)

    run()


def test_add_is_commutative_with_zero_as_identity():
    def check(ws, x, y, z):
        assert add(ws, x, y) == add(ws, y, x)
        assert add(ws, x, zero(ws)) == x == add(ws, zero(ws), x)

    _group_property(check)


def test_add_is_associative():
    def check(ws, x, y, z):
        assert add(ws, add(ws, x, y), z) == add(ws, x, add(ws, y, z))

    _group_property(check)


def test_negate_is_the_additive_inverse():
    def check(ws, x, y, z):
        assert add(ws, x, negate(ws, x)) == zero(ws)
        assert negate(ws, negate(ws, x)) == x
        assert sub(ws, y, x) == add(ws, y, negate(ws, x))
        assert negate(ws, add(ws, x, y)) == add(ws, negate(ws, x), negate(ws, y))

    _group_property(check)


# Fraction routes, the bodies `delta`, `delta_omega`, `trichotomy` and the
# coset key had before degrees became lcm-scaled integers; kept as oracles.


def delta_by_fractions(ws, x):
    return sum((Fraction(a, p) for a, p in zip(x.torsion, ws.weights)), Fraction(x.free))


def delta_omega_by_fractions(ws):
    return Fraction(ws.n - ws.d - 1) - sum((Fraction(1, p) for p in ws.weights), Fraction(0))


def trichotomy_by_fractions(ws):
    dw = delta_omega_by_fractions(ws)
    if dw < 0:
        return Trichotomy.FANO
    if dw == 0:
        return Trichotomy.CALABI_YAU
    return Trichotomy.ANTI_FANO


def coset_key_by_fractions(ws, x):
    dw = delta_omega_by_fractions(ws)
    k = math.floor(delta_by_fractions(ws, x) / abs(dw))
    step = 1 if dw < 0 else -1
    return add(ws, x, smul(ws, step * k, omega(ws)))


def _degree_property(check):
    """Runs `check(ws, x)` on bounded weight systems, weights of 1 and the
    empty tuple included, and an element x of each in normal form."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def cases(draw):
        ws = WeightSystem(
            draw(st.integers(1, 4)), tuple(draw(st.lists(st.integers(1, 9), max_size=6)))
        )
        tors = tuple(draw(st.integers(0, p - 1)) for p in ws.weights)
        return ws, GroupElement(tors, draw(st.integers(-5, 5)))

    @hypothesis.settings(derandomize=True, max_examples=150, deadline=None)
    @hypothesis.given(cases())
    # Calabi-Yau, empty, all weights 1, and anti-Fano systems, always tried
    @hypothesis.example((WeightSystem(1, (2, 3, 6)), GroupElement((1, 2, 5), -1)))
    @hypothesis.example((WeightSystem(2, (2,) * 6), GroupElement((1,) * 6, -3)))
    @hypothesis.example((WeightSystem(3, ()), GroupElement((), -5)))
    @hypothesis.example((WeightSystem(2, (1, 1)), GroupElement((), 4)))
    @hypothesis.example((WeightSystem(1, (2, 3, 7, 43)), GroupElement((1, 0, 6, 42), -4)))
    def run(case):
        check(*case)

    run()


def test_integer_degrees_match_the_fraction_oracle():
    def check(ws, x):
        scale = math.lcm(*ws.weights)
        assert delta_l(ws, x) == scale * delta_by_fractions(ws, x)
        assert delta_omega_l(ws) == scale * delta_omega_by_fractions(ws)
        assert delta_l(ws, omega(ws)) == delta_omega_l(ws)

    _degree_property(check)


def test_trichotomy_matches_the_fraction_oracle():
    def check(ws, x):
        assert trichotomy(ws) == trichotomy_by_fractions(ws)

    _degree_property(check)


def test_coset_key_matches_the_fraction_oracle_and_lands_in_the_window():
    # the key's scaled degree lies in [0, |delta_l(omega)|), and the key is
    # the same for x - omega, x and x + omega
    def check(ws, x):
        dw = delta_omega_l(ws)
        if dw == 0:
            with pytest.raises(ValueError):
                coset_keys(ws, [x])
            with pytest.raises(ValueError):
                coset_keys(ws, [])
            return
        key = coset_keys(ws, [x])[0]
        assert key == coset_key_by_fractions(ws, x)
        assert 0 <= delta_l(ws, key) < abs(dw)
        w = omega(ws)
        assert coset_keys(ws, [add(ws, x, w)])[0] == key == coset_keys(ws, [sub(ws, x, w)])[0]
        assert coset_keys(ws, [sub(ws, x, w), x, add(ws, x, w), zero(ws)]) == [
            key,
            key,
            key,
            coset_key_by_fractions(ws, zero(ws)),
        ]

    _degree_property(check)


def test_normal_form_refuses_a_non_integer():
    # on (1;2,3) truncation would give (1,1; 3); the first non-integer is named
    ws = WeightSystem(1, (2, 3))
    with pytest.raises(ValueError, match="1.7"):
        normal_form(ws, [1.7, "4"], "2")
    with pytest.raises(ValueError, match="'4'"):
        normal_form(ws, [1, "4"], 2)
    with pytest.raises(ValueError, match="'2'"):
        normal_form(ws, [1, 4], "2")
    assert normal_form(ws, [True, 4], 2) == GroupElement((1, 1), 3)


def test_smul_refuses_a_non_integer():
    # truncating 1.5 to 1 would give x_1
    ws = WeightSystem(1, (2, 3))
    with pytest.raises(ValueError, match="1.5"):
        smul(ws, 1.5, gen_x(ws, 1))
    with pytest.raises(ValueError, match="'2'"):
        smul(ws, "2", gen_x(ws, 1))
    assert smul(ws, 3, gen_x(ws, 1)) == GroupElement((1, 0), 1)


def test_delta_l_refuses_an_element_of_another_length():
    # zip without strict would drop the third coordinate and return 5
    ws = WeightSystem(1, (2, 3))
    with pytest.raises(ValueError):
        delta_l(ws, GroupElement((1, 1, 1), 0))
    assert delta_l(ws, GroupElement((1, 1), 0)) == 5


def test_group_element_is_a_tuple_with_the_old_hash_repr_and_str():
    x = GroupElement((1, 2), 3)
    assert hash(x) == hash(((1, 2), 3))
    assert x == ((1, 2), 3) and x.torsion == (1, 2) and x.free == 3
    assert GroupElement(torsion=(1, 2), free=3) == x
    assert repr(x) == "GroupElement(torsion=(1, 2), free=3)"
    assert str(x) == "(1,2; 3)"
    assert str(GroupElement((), -2)) == "(; -2)"
    for field in ("torsion", "free"):
        with pytest.raises(AttributeError):
            setattr(x, field, 0)


# The routes `negate`, `leq` and `omega` took before their closed forms;
# kept as oracles.


def negate_by_normal_form(ws, x):
    return normal_form(ws, [-a for a in x.torsion], -x.free)


def leq_by_sub(ws, x, y):
    return is_nonneg(sub(ws, y, x))


def omega_by_normal_form(ws):
    return normal_form(ws, [-1] * ws.n, ws.n - ws.d - 1)


def test_closed_forms_match_the_normal_form_routes_on_small_systems():
    # every default-grid system with prod(p) <= 8, on all elements with free
    # part in [-2, 2]: zero torsion entries included
    systems = [ws for ws in default_grid() if math.prod(ws.weights) <= 8]
    assert WeightSystem(1, ()) in systems and WeightSystem(3, (2, 2, 2)) in systems
    for ws in systems:
        assert omega(ws) == omega_by_normal_form(ws)
        xs = list(elements_with_free_in(ws, -2, 2))
        for x in xs:
            assert negate(ws, x) == negate_by_normal_form(ws, x)
            for y in xs:
                assert leq(ws, x, y) == leq_by_sub(ws, x, y)


def test_closed_forms_match_the_normal_form_routes():
    def check(ws, x, y, z):
        assert negate(ws, x) == negate_by_normal_form(ws, x)
        assert leq(ws, x, y) == leq_by_sub(ws, x, y)
        assert leq(ws, y, z) == leq_by_sub(ws, y, z)
        assert omega(ws) == omega_by_normal_form(ws)

    _group_property(check)
    ws = WeightSystem(1, (2, 3))
    for bad in (GroupElement((1,), 0), GroupElement((1, 1, 1), 0)):
        with pytest.raises(ValueError):
            negate(ws, bad)
        with pytest.raises(ValueError):
            leq(ws, bad, zero(ws))
        with pytest.raises(ValueError):
            leq(ws, zero(ws), bad)


def test_closed_forms_call_neither_normal_form_nor_sub(monkeypatch):
    from glci import grading

    def refuse(*args):
        raise AssertionError("closed form took the normal_form/sub route")

    ws = WeightSystem(2, (2, 3, 4))
    x, y = GroupElement((1, 0, 3), -1), GroupElement((0, 2, 3), 1)
    monkeypatch.setattr(grading, "normal_form", refuse)
    monkeypatch.setattr(grading, "sub", refuse)
    assert negate(ws, x) == GroupElement((1, 0, 1), -1)
    assert leq(ws, x, y) and not leq(ws, y, x)
    assert omega(ws) == GroupElement((1, 2, 3), -3)


def test_generators_match_the_normal_form_route_on_small_systems():
    # every default-grid system with prod(p) <= 8, n = 0 included
    systems = [ws for ws in default_grid() if math.prod(ws.weights) <= 8]
    assert WeightSystem(1, ()) in systems
    for ws in systems:
        assert zero(ws) == normal_form(ws, [0] * ws.n, 0)
        assert gen_c(ws) == normal_form(ws, [0] * ws.n, 1)
        for i in range(1, ws.n + 1):
            raw = [0] * ws.n
            raw[i - 1] = 1
            assert gen_x(ws, i) == normal_form(ws, raw, 0)
        for i in (0, ws.n + 1):
            with pytest.raises(ValueError, match="out of range"):
                gen_x(ws, i)
        for x in (zero(ws), gen_c(ws), *(gen_x(ws, i) for i in range(1, ws.n + 1))):
            assert type(x) is GroupElement and type(x.torsion) is tuple


def test_generators_call_no_normal_form(monkeypatch):
    from glci import grading

    def refuse(*args):
        raise AssertionError("generator took the normal_form route")

    ws = WeightSystem(2, (2, 3, 4))
    monkeypatch.setattr(grading, "normal_form", refuse)
    assert zero(ws) == GroupElement((0, 0, 0), 0)
    assert gen_c(ws) == GroupElement((0, 0, 0), 1)
    assert [gen_x(ws, i) for i in (1, 2, 3)] == [
        GroupElement((1, 0, 0), 0),
        GroupElement((0, 1, 0), 0),
        GroupElement((0, 0, 1), 0),
    ]
