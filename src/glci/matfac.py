"""Explicit graded matrix factorizations of the weighted Fermat hypersurface.

For n = d + 2 the pair (M, N) below factors f = sum(lambda_i * X_i^{p_i}):
M * N = N * M = f * Id, with rows and columns indexed by odd and even subsets
of {1..n} and entries that are single signed monomials.  The lambda_i are kept
as formal variables so the identity is verified for every coefficient choice
at once.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from . import linalg
from .grading import (
    GroupElement,
    WeightSystem,
    normal_form,
    sub,
)


class MultiPoly:
    """Sparse integer polynomial in X_1..X_n and lambda_1..lambda_n.

    Terms map exponent tuples of length 2n (X exponents then lambda
    exponents) to nonzero integer coefficients.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Optional[dict[tuple[int, ...], int]] = None):
        self.nvars = nvars
        self.terms = {e: c for e, c in (terms or {}).items() if c}

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls(nvars)

    @classmethod
    def monomial(cls, nvars: int, coeff: int, exps: dict[int, int]) -> "MultiPoly":
        e = [0] * (2 * nvars)
        for var, k in exps.items():
            e[var] = k
        return cls(nvars, {tuple(e): coeff})

    @classmethod
    def x_power(cls, nvars: int, i: int, k: int, coeff: int = 1) -> "MultiPoly":
        """coeff * X_i^k with 1-based i."""
        return cls.monomial(nvars, coeff, {i - 1: k})

    @classmethod
    def lam_x_power(cls, nvars: int, i: int, k: int, coeff: int = 1) -> "MultiPoly":
        """coeff * lambda_i * X_i^k with 1-based i."""
        return cls.monomial(nvars, coeff, {i - 1: k, nvars + i - 1: 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, MultiPoly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return MultiPoly(self.nvars, out)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, 0) + c1 * c2
        return MultiPoly(self.nvars, out)

    def evaluate(self, point: Sequence[int]) -> int:
        total = 0
        for e, c in self.terms.items():
            term = c
            for v, k in zip(point, e):
                if k:
                    term *= v**k
            total += term
        return total

    def is_single_monomial(self) -> bool:
        return len(self.terms) == 1

    def x_degree(self) -> dict[int, int]:
        """Exponents of the X variables when the polynomial is one monomial."""
        if not self.is_single_monomial():
            raise ValueError("not a monomial")
        e = next(iter(self.terms))
        return {i: e[i] for i in range(self.nvars) if e[i]}

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for e in sorted(self.terms):
            c = self.terms[e]
            factors = []
            for i in range(self.nvars):
                if e[i]:
                    factors.append(f"X{i+1}" + (f"^{e[i]}" if e[i] > 1 else ""))
            for i in range(self.nvars):
                if e[self.nvars + i]:
                    k = e[self.nvars + i]
                    factors.append(f"l{i+1}" + (f"^{k}" if k > 1 else ""))
            body = "*".join(factors) if factors else "1"
            if c == 1 and factors:
                parts.append(body)
            elif c == -1 and factors:
                parts.append("-" + body)
            else:
                parts.append(f"{c}*{body}" if factors else str(c))
        return " + ".join(parts).replace("+ -", "- ")


def subsets_by_parity(n: int, parity: int) -> list[tuple[int, ...]]:
    """Subsets of {1..n} with |S| congruent to parity mod 2, by (size, lex)."""
    out = []
    for size in range(parity % 2, n + 1, 2):
        out.extend(itertools.combinations(range(1, n + 1), size))
    return out


@dataclass(frozen=True)
class MFIndex:
    """Exponent tuple with 1 <= ell_i <= p_i - 1 selecting one factorization."""

    ell: tuple[int, ...]


@dataclass(frozen=True)
class GradedMatrixPair:
    ws: WeightSystem
    index: MFIndex
    odd_subsets: tuple[tuple[int, ...], ...]
    even_subsets: tuple[tuple[int, ...], ...]
    m_rows: tuple[tuple[MultiPoly, ...], ...]  # odd rows x even columns
    n_rows: tuple[tuple[MultiPoly, ...], ...]  # even rows x odd columns
    shifts: dict[int, tuple[GroupElement, ...]]  # homological position -> labels

    @property
    def size(self) -> int:
        return len(self.odd_subsets)


def _position_sign(i: int, subset: tuple[int, ...]) -> int:
    return (-1) ** sum(1 for j in subset if j <= i)


@functools.cache
def _incidence(n: int):
    """The Koszul incidence of the pair in n variables: the odd and even
    subsets, M and N as tables of slots, and the rows and columns of N that
    form the corner minor, those whose subsets avoid n.

    Row r is nonzero only at the columns r minus {i}, holding the sign of i
    in r times X_i^{ell_i} (slot 4(i - 1), or 4(i - 1) + 1 when negative),
    and r plus {j}, holding the sign of j in that column times
    lambda_j X_j^{p_j - ell_j} (slot 4(j - 1) + 2, or 4(j - 1) + 3).  Every
    other entry is slot 4n, the zero.
    """
    odd = tuple(subsets_by_parity(n, 1))
    even = tuple(subsets_by_parity(n, 0))

    def table(sources, targets):
        col = {s: k for k, s in enumerate(targets)}
        out = []
        for r in sources:
            row = [4 * n] * len(targets)
            for i in range(1, n + 1):
                if i in r:
                    c = tuple(v for v in r if v != i)
                    row[col[c]] = 4 * (i - 1) + (_position_sign(i, r) < 0)
                else:
                    c = tuple(sorted(r + (i,)))
                    row[col[c]] = 4 * (i - 1) + 2 + (_position_sign(i, c) < 0)
            out.append(tuple(row))
        return tuple(out)

    corner = (
        tuple(k for k, s in enumerate(even) if n not in s),
        tuple(k for k, s in enumerate(odd) if n not in s),
    )
    return odd, even, table(odd, even), table(even, odd), corner


def _check_index(ws: WeightSystem, ell: tuple[int, ...]) -> None:
    if len(ell) != ws.n or any(not 1 <= l <= p - 1 for l, p in zip(ell, ws.weights)):
        raise ValueError(f"exponent index {ell} out of range for {ws.weights}")


def _labels(
    weights: tuple[int, ...], ell: tuple[int, ...], odd, even
) -> dict[int, tuple[GroupElement, ...]]:
    """The shift labels at homological positions -1, 0 and 1, in closed form:
    with 1 <= ell_i <= p_i - 1, -ell_i x_i = (p_i - ell_i) x_i - c, so the
    normal form of ((|I| + a)/2) c - sum of ell_i x_i over I has torsion
    p_i - ell_i on I, 0 elsewhere, and free part (a - |I|)/2.  The +1 labels
    are the -1 labels plus c."""
    top = [p - l for p, l in zip(weights, ell)]
    new = tuple.__new__

    def label(subset, position):
        torsion = [0] * len(weights)
        for i in subset:
            torsion[i - 1] = top[i - 1]
        return new(GroupElement, (tuple(torsion), (position - len(subset)) // 2))

    below = tuple(label(s, -1) for s in odd)
    return {
        -1: below,
        0: tuple(label(s, 0) for s in even),
        1: tuple(new(GroupElement, (x.torsion, x.free + 1)) for x in below),
    }


def mf_enumerate(ws: WeightSystem) -> list[MFIndex]:
    if ws.n != ws.d + 2:
        raise ValueError("matrix factorizations require n = d + 2")
    return [
        MFIndex(t)
        for t in itertools.product(*(range(1, p) for p in ws.weights))
    ]


def mf_build(
    ws: WeightSystem,
    index: MFIndex,
    slots: Optional[dict[tuple[int, int], tuple[MultiPoly, ...]]] = None,
) -> GradedMatrixPair:
    """The pair of `index`.  `slots`, kept by the caller for one system,
    memoizes the slot quadruple X_i^l, -X_i^l, lambda_i X_i^{p_i - l},
    -lambda_i X_i^{p_i - l} on (i, l) and the zero on (0, 0), so the pairs
    of the system share their entry objects."""
    if ws.n != ws.d + 2:
        raise ValueError("matrix factorizations require n = d + 2")
    ell = tuple(index.ell)
    _check_index(ws, ell)
    n = ws.n
    odd, even, m_table, n_table, _ = _incidence(n)
    if slots is None:
        slots = {}
    if not slots:
        slots[0, 0] = (MultiPoly.zero(n),)
    flat: list[MultiPoly] = []
    for i, (l, p) in enumerate(zip(ell, ws.weights), start=1):
        quadruple = slots.get((i, l))
        if quadruple is None:
            x, z = MultiPoly.x_power(n, i, l), MultiPoly.lam_x_power(n, i, p - l)
            quadruple = slots[i, l] = (x, -x, z, -z)
        flat += quadruple
    flat += slots[0, 0]  # slot 4n, shared by every zero entry
    m_rows, n_rows = (
        tuple(tuple(map(flat.__getitem__, row)) for row in table) for table in (m_table, n_table)
    )
    shifts = _labels(ws.weights, ell, odd, even)
    return GradedMatrixPair(ws, MFIndex(ell), odd, even, m_rows, n_rows, shifts)


def hypersurface_poly(ws: WeightSystem) -> MultiPoly:
    total = MultiPoly.zero(ws.n)
    for i, p in enumerate(ws.weights, start=1):
        total = total + MultiPoly.lam_x_power(ws.n, i, p)
    return total


class _SystemConstants(NamedTuple):
    """What `mf_verify` needs of the system alone, the same for every pair:
    f, the homogeneity constants L, the L // p_i, the radix powers R^i, the
    scale 2R^n and the 2^n sums of some p_i R^i (see `mf_verify`), and the
    memos of `_degree_key` by value, a shift label's on the label and a
    monomial's on its exponent tuple, filled by `mf_verify` as it meets
    them.  The memos live as long as the constants, in `mf_pairs` no longer
    than its loop."""

    weights: tuple[int, ...]
    f: MultiPoly
    big: int
    steps: tuple[int, ...]
    powers: tuple[int, ...]
    scale: int
    allowed: frozenset[int]
    label_keys: dict[GroupElement, int]
    monomial_keys: dict[tuple[int, ...], int]


def _system_constants(ws: WeightSystem) -> _SystemConstants:
    weights = ws.weights
    radix = 3 * max(weights)
    powers = tuple(radix**i for i in range(len(weights)))
    big = math.lcm(*weights)
    return _SystemConstants(
        weights,
        hypersurface_poly(ws),
        big,
        tuple(big // p for p in weights),
        powers,
        2 * radix ** len(weights),
        frozenset(map(sum, itertools.product(*((0, p * r) for p, r in zip(weights, powers))))),
        {},
        {},
    )


def _degree_key(constants: _SystemConstants, torsion: Sequence[int], free: int) -> int:
    """The homogeneity key of the degree (torsion; free): delta_l * 2R^n
    plus the torsion reduced mod p_i as digits in radix R.  A monomial's is
    that of its exponent tuple with free part 0: `map` stops at the n
    entries of `steps` and `weights`, so only X exponents count."""
    mul = operator.mul
    delta = free * constants.big + sum(map(mul, torsion, constants.steps))
    digits = map(operator.mod, torsion, constants.weights)
    return delta * constants.scale + sum(map(mul, digits, constants.powers))


def _monomial_degree(ws: WeightSystem, poly: MultiPoly) -> GroupElement:
    exps = poly.x_degree()
    raw = [0] * ws.n
    for i, k in exps.items():
        raw[i] = k
    return normal_form(ws, raw, 0)


@dataclass(frozen=True)
class MFReport:
    identity_ok: bool
    homogeneity_ok: bool
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.identity_ok and self.homogeneity_ok


def _nonzero(rows) -> list[list[tuple[int, MultiPoly]]]:
    return [[(j, e) for j, e in enumerate(row) if e.terms] for row in rows]


def mf_verify(pair: GradedMatrixPair, constants: Optional[_SystemConstants] = None) -> MFReport:
    """Check M*N = N*M = f*Id symbolically and per-entry degree homogeneity.

    An exponent tuple packs into one int in base B = 2 * (largest exponent
    in M, N or f) + 1, so adding packed exponents multiplies monomials
    without carrying between digits, and the packing is exact for any pair
    (a negative exponent widens B by twice its distance below zero).  Each
    row of a product minus f * Id is accumulated into one dict keyed by
    j * W + packed exponent for column j.  With W > 4 * (largest |packed
    exponent|) a product of two monomials packs to less than W/2 in
    absolute value, so distinct (column, exponent) pairs never share a key.
    Each distinct entry object of the pair is packed once.  N*M is computed
    only when M*N fails: square M, N over the domain Z[X^{+-1}, lambda]
    with M*N = f*Id != 0 have N = f*M^{-1}.
    `constants`, from `_system_constants` of a system with the pair's
    weights, is computed here when absent or of other weights; its memos
    give the degree key of each distinct label and monomial once for all
    the pairs that share it.  B and W are always the pair's own.
    """
    ws = pair.ws
    weights = ws.weights
    if constants is None or constants.weights != weights:
        constants = _system_constants(ws)
    f = constants.f
    m_nonzero, n_nonzero = _nonzero(pair.m_rows), _nonzero(pair.n_rows)
    entries = {id(e): e for rows in (m_nonzero, n_nonzero) for row in rows for _, e in row}
    monomials = set(f.terms).union(*(e.terms for e in entries.values()))
    digits = {k for e in monomials for k in e}
    base = 2 * (max(digits) - min(0, *digits)) + 1
    places = [base**k for k in reversed(range(2 * ws.n))]
    packed = {e: sum(map(operator.mul, e, places)) for e in monomials}
    width = 4 * max(map(abs, packed.values())) + 1
    terms = {k: [(packed[e], c) for e, c in entry.terms.items()] for k, entry in entries.items()}
    f_packed = [(packed[e], c) for e, c in f.terms.items()]
    failures = []
    identity_ok = True
    square = {len(pair.m_rows)} == {len(pair.n_rows)} | {len(r) for r in pair.m_rows + pair.n_rows}
    for name, left, right in (("M*N", m_nonzero, n_nonzero), ("N*M", n_nonzero, m_nonzero)):
        keyed = [[(j * width + s, c) for j, e in row for s, c in terms[id(e)]] for row in right]
        for i, row in enumerate(left):
            acc = {i * width + s: -c for s, c in f_packed}
            get = acc.get
            for k, s, c in [(k, s, c) for k, e in row for s, c in terms[id(e)]]:
                for key, c2 in keyed[k]:
                    key += s
                    acc[key] = get(key, 0) + c * c2
            if any(acc.values()):
                identity_ok = False
                bad = {(key + width // 2) // width for key, c in acc.items() if c}
                failures.extend(f"{name} entry ({i},{j}) != expected" for j in sorted(bad))
        if identity_ok and square:
            break
    homogeneity_ok = True
    # L embeds in Z x prod Z/p_i by x -> (delta_l(x), torsion mod p), and each
    # degree folds into one int, its `_degree_key`.  For an entry s -> t of
    # degree m the digits s_i + m_i - t_i of key(s) + key(m) - key(t) lie in
    # (-p_i, 2p_i), so that sum is one of the 2^n sums of some p_i * R^i
    # exactly when s + m = t.  Each key is computed once per value.
    label_keys, monomial_keys = constants.label_keys, constants.monomial_keys
    for x in set(itertools.chain(*pair.shifts.values())).difference(label_keys):
        label_keys[x] = _degree_key(constants, *x)
    labels = {pos: list(map(label_keys.__getitem__, xs)) for pos, xs in pair.shifts.items()}
    single = {k: next(iter(e.terms)) for k, e in entries.items() if len(e.terms) == 1}
    for e in set(single.values()).difference(monomial_keys):
        monomial_keys[e] = _degree_key(constants, e, 0)
    degrees = {k: monomial_keys[e] for k, e in single.items()}
    for name, rows, src_pos, tgt_pos in (("M", m_nonzero, -1, 0), ("N", n_nonzero, 0, 1)):
        sources, targets = labels[src_pos], labels[tgt_pos]
        for i, row in enumerate(rows):
            source = sources[i]
            for j, entry in row:
                degree = degrees.get(id(entry))
                if degree is None:
                    homogeneity_ok = False
                    failures.append(f"{name} entry ({i},{j}) is not a monomial")
                elif source + degree - targets[j] not in constants.allowed:
                    homogeneity_ok = False
                    # a label may be written outside normal form, which `sub` assumes
                    tgt, src = pair.shifts[tgt_pos][j], pair.shifts[src_pos][i]
                    want = sub(ws, normal_form(ws, *tgt), normal_form(ws, *src))
                    failures.append(
                        f"{name} entry ({i},{j}) has degree {_monomial_degree(ws, entry)} != {want}"
                    )
    return MFReport(identity_ok, homogeneity_ok, tuple(failures))


def _corner_minor(pair: GradedMatrixPair) -> list[list[MultiPoly]]:
    rows, cols = _incidence(pair.ws.n)[4]
    return [[pair.n_rows[r][c] for c in cols] for r in rows]


@functools.cache
def _evaluation_points(n: int) -> tuple[tuple[int, ...], ...]:
    """The 5 deterministic pseudo-random positive integer points, one value
    per variable, at which a corner in n variables is evaluated."""
    out = []
    for attempt in range(1, 6):
        rng = random.Random(10_007 * attempt + 17)
        out.append(tuple(rng.randint(1, 10**6) for _ in range(2 * n)))
    return tuple(out)


def mf_minor_nonsingular(
    pair: GradedMatrixPair, verdicts: Optional[dict[tuple[tuple[int, ...], ...], bool]] = None
) -> bool:
    """Nonvanishing of det of the N-submatrix on subsets avoiding the last index.

    The entries are evaluated exactly at up to 5 deterministic pseudo-random
    positive integer points, each distinct entry object once per point, and
    `linalg.nonsingular` tests each evaluation.  One nonsingular evaluation
    proves the polynomial determinant nonzero; five singular ones report a
    singular minor without proof.  For a pair from `mf_build` the determinant
    is +-f'^(2^(d-1)) with f' the sum of the first n - 1 terms of f, which is
    positive at these points.  `verdicts` memoizes `linalg.nonsingular` on
    the evaluated integer matrix itself, so equal evaluations are eliminated
    once and every pair is still judged on its own entries.
    """
    minor = _corner_minor(pair)
    ids = [list(map(id, row)) for row in minor]
    entries = {id(entry): entry for row in minor for entry in row}
    if verdicts is None:
        verdicts = {}
    for point in _evaluation_points(pair.ws.n):
        value = {k: entry.evaluate(point) for k, entry in entries.items()}
        matrix = tuple(tuple(map(value.__getitem__, row)) for row in ids)
        verdict = verdicts.get(matrix)
        if verdict is None:
            verdict = verdicts[matrix] = linalg.nonsingular(matrix)
        if verdict:
            return True
    return False


def mf_pairs(
    ws: WeightSystem, indices: Iterable[MFIndex], verify: bool
) -> Iterator[tuple[MFIndex, GradedMatrixPair, Optional[MFReport], Optional[bool]]]:
    """The one build -> verify -> minor loop: for each index, the index, its
    pair from `mf_build` and, with `verify`, the pair's `mf_verify` report
    and `mf_minor_nonsingular` verdict (else None, None).

    Every pair gets its own checks.  What is fixed by a key is computed once
    per loop and memoized on the key itself: f and the homogeneity
    constants once; each slot quadruple once per (i, ell_i), so the pairs
    share their entry objects; each degree key once per distinct label or
    monomial value; and each corner verdict once per evaluated matrix: the
    corner holds only ell_1..ell_{n-1}, so at most prod_{i<n}(p_i - 1)
    eliminations serve the system.  No memo outlives the loop.
    """
    constants, slots, verdicts = None, {}, {}
    for index in indices:
        pair = mf_build(ws, index, slots)
        if not verify:
            yield index, pair, None, None
            continue
        constants = constants or _system_constants(ws)
        yield index, pair, mf_verify(pair, constants), mf_minor_nonsingular(pair, verdicts)


def expected_index_count(ws: WeightSystem) -> int:
    return math.prod(p - 1 for p in ws.weights)
