"""Field tower tests.

The oracles here avoid the table machinery on purpose: polynomial
arithmetic is redone with coefficient lists, orders are checked by
repeated multiplication, and preimages by exhaustive scan.  The element
methods and vector kernels are compared with them on fields on both sides
of the addition-table size: table fields add by lookup, larger ones through
Zech logarithms, and inner products in every field are summed in packed
digits.  The slopes line_slopes names are compared with the element
methods, written out pair by pair, from GF(4) to GF(361), the largest
field with an addition table; GF(529) has none, so line_slopes builds no
table there and a k = 3 code over it, whose one deepest node counts
words, is checked against the column floor.
"""

from __future__ import annotations

import random
from itertools import chain

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qmds import errors, gf
from qmds.gf import _TABLE_CAP, Field, field_for_q, field_new, field_with_modulus
from qmds.grs import LinearCode
from qmds.linalg import Matrix, transpose
from qmds.verify import min_distance_at_least
from test_linalg_properties import GRAM_FIELDS, naive_hermitian_gram
from test_verify_properties import distance_and_path

# ---------------------------------------------------------------------------
# oracle helpers: schoolbook polynomial arithmetic mod (modulus, p)


def poly_of_index(idx: int, p: int, deg: int) -> list[int]:
    out = []
    for _ in range(deg):
        out.append(idx % p)
        idx //= p
    return out


def index_of_poly(coeffs, p: int) -> int:
    idx = 0
    for c in reversed(coeffs):
        idx = idx * p + c
    return idx


def poly_mulmod(a, b, modulus, p):
    deg = len(modulus) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    for i in range(len(prod) - 1, deg - 1, -1):
        top = prod[i]
        if top:
            prod[i] = 0
            for j in range(deg + 1):
                prod[i - deg + j] = (prod[i - deg + j] - top * modulus[j]) % p
    return [c % p for c in prod[:deg]]


def oracle_mul(f: Field, a: int, b: int) -> int:
    pa = poly_of_index(a, f.p, 2 * f.t)
    pb = poly_of_index(b, f.p, 2 * f.t)
    return index_of_poly(poly_mulmod(pa, pb, f.modulus, f.p), f.p)


def oracle_pow(f: Field, a: int, e: int) -> int:
    acc = 1
    for _ in range(e):
        acc = oracle_mul(f, acc, a)
    return acc


def oracle_add(f: Field, a: int, b: int) -> int:
    """Digit-wise sum of the base-p packings."""
    pa = poly_of_index(a, f.p, 2 * f.t)
    pb = poly_of_index(b, f.p, 2 * f.t)
    return index_of_poly([(x + y) % f.p for x, y in zip(pa, pb)], f.p)


def oracle_neg(f: Field, a: int) -> int:
    return index_of_poly([-x % f.p for x in poly_of_index(a, f.p, 2 * f.t)], f.p)


def oracle_power(f: Field, a: int, e: int) -> int:
    """a^e by square-and-multiply on the polynomial oracle, for large e."""
    acc = 1
    while e:
        if e & 1:
            acc = oracle_mul(f, acc, a)
        a = oracle_mul(f, a, a)
        e >>= 1
    return acc


def frobenius(f: Field, a: int) -> int:
    """a^q, through the vector kernel Field.conjugate."""
    (b,) = f.conjugate([a])
    return b


def x_order_in_quotient(modulus, p) -> int | None:
    """Multiplicative order of x mod modulus, or None if a power hits 0/repeats."""
    deg = len(modulus) - 1
    x = [0] * deg
    if deg >= 2:
        x[1] = 1
    acc = [1] + [0] * (deg - 1)
    seen = set()
    for e in range(1, p ** (2 * deg)):
        acc = poly_mulmod(acc, x, modulus, p)
        idx = index_of_poly(acc, p)
        if idx == 0 or idx in seen:
            return None
        if idx == 1:
            return e
        seen.add(idx)
    return None


# ---------------------------------------------------------------------------


def test_sizes_small():
    f3 = field_new(3)
    assert (f3.q, f3.q2) == (3, 9)
    assert len([a for a in f3.elements() if a != 0]) == 8
    f5 = field_new(5)
    assert (f5.q, f5.q2) == (5, 25)


def test_canonical_modulus_f9_is_first_primitive():
    """Every packed candidate below the canonical one must be non-primitive."""
    f = field_new(3)
    assert f.modulus == [2, 1, 1]
    chosen = 2 + 3 * 1
    for packed in range(chosen):
        digits = poly_of_index(packed, 3, 2)
        modulus = digits + [1]
        assert x_order_in_quotient(modulus, 3) != 8
    assert x_order_in_quotient(f.modulus, 3) == 8


def test_mul_agrees_with_polynomial_oracle():
    for q in (3, 5, 9):
        f = field_for_q(q)
        for a in f.elements():
            for b in f.elements():
                assert f.mul(a, b) == oracle_mul(f, a, b)


def test_omega_order_f81():
    f = field_new(3, 2)
    assert f.q2 == 81
    # repeated multiplication, no pow shortcut
    acc = 1
    orders_hit = set()
    for e in range(1, 81):
        acc = oracle_mul(f, acc, f.omega)
        if acc == 1:
            orders_hit.add(e)
    assert orders_hit == {80}
    for m in (1, 2, 4, 5, 8, 10, 16, 20, 40):
        assert f.pow(f.omega, m) != 1
    assert f.pow(f.omega, 80) == 1


@pytest.mark.parametrize("p,t", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_field_axioms_exhaustive(p, t):
    f = field_new(p, t)
    els = list(f.elements())
    for a in els:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
        if a != 0:
            assert f.mul(a, f.inv(a)) == 1
    for a in els:
        for b in els:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
    rng = random.Random(7)
    triples = (
        [(a, b, c) for a in els for b in els for c in els]
        if f.q2 <= 25
        else [(rng.randrange(f.q2), rng.randrange(f.q2), rng.randrange(f.q2)) for _ in range(20000)]
    )
    for a, b, c in triples:
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
        assert f.add(a, f.add(b, c)) == f.add(f.add(a, b), c)


def test_pow_conventions():
    f = field_new(3)
    assert f.pow(0, 0) == 1
    assert f.pow(0, 5) == 0
    with pytest.raises(errors.ZeroToNegativePower):
        f.pow(0, -1)
    for a in f.elements():
        if a:
            assert f.pow(a, f.q2 - 1) == 1
            assert f.pow(a, -1) == f.inv(a)
    with pytest.raises(errors.DivisionByZero):
        f.inv(0)


def test_frobenius_fixes_exactly_subfield():
    for q in (3, 5, 9):
        f = field_for_q(q)
        fixed = [a for a in f.elements() if frobenius(f, a) == a]
        assert len(fixed) == f.q
        assert sorted(fixed) == sorted(f.subfield_elements())
        for a in f.elements():
            assert frobenius(f, frobenius(f, a)) == a


def test_frobenius_is_a_field_automorphism():
    f = field_new(3)
    for a in f.elements():
        for b in f.elements():
            assert frobenius(f, f.add(a, b)) == f.add(frobenius(f, a), frobenius(f, b))
            assert frobenius(f, f.mul(a, b)) == f.mul(frobenius(f, a), frobenius(f, b))
    big = field_new(5, 2)
    rng = random.Random(11)
    for _ in range(10000):
        a = rng.randrange(big.q2)
        b = rng.randrange(big.q2)
        assert frobenius(big, big.add(a, b)) == big.add(frobenius(big, a), frobenius(big, b))
        assert frobenius(big, big.mul(a, b)) == big.mul(frobenius(big, a), frobenius(big, b))


def test_frobenius_of_omega_is_cube_for_q3():
    f = field_new(3)
    assert frobenius(f, f.omega) == oracle_pow(f, f.omega, 3)


def test_norm_maps_onto_subfield_with_equal_fibers():
    for q in (3, 5, 9):
        f = field_for_q(q)
        assert f.norm(0) == 0
        assert f.norm(1) == 1
        fiber: dict[int, int] = {}
        for a in f.elements():
            na = f.norm(a)
            assert f.in_subfield(na)
            assert na == oracle_pow(f, a, f.q + 1)
            if a:
                fiber[na] = fiber.get(na, 0) + 1
        assert 0 not in fiber
        assert set(fiber.values()) == {f.q + 1}
        assert len(fiber) == f.q - 1
        for a in f.elements():
            for b in f.elements():
                if a and b:
                    assert f.norm(f.mul(a, b)) == f.mul(f.norm(a), f.norm(b))


def test_norm_of_omega_q3():
    f = field_new(3)
    # omega^4 is the unique element of multiplicative order 2, i.e. -1
    w4 = f.norm(f.omega)
    assert w4 == f.neg(1)
    assert f.mul(w4, w4) == 1


def test_norm_preimage_identity_and_exhaustive():
    for q in (3, 5, 9):
        f = field_for_q(q)
        assert f.norm_preimage(1) == 1
        for u in f.subfield_elements():
            if u == 0:
                continue
            v = f.norm_preimage(u)
            assert f.norm(v) == u


def test_norm_preimage_smallest_log_q5():
    f = field_new(5)
    four = 4 % f.p
    # oracle: scan exponents in order, first e with norm(omega^e) = 4 wins
    expected = None
    for e in range(f.q2 - 1):
        if f.norm(f.exp(e)) == four:
            expected = f.exp(e)
            break
    got = f.norm_preimage(four)
    assert got == expected
    assert (f.q + 1) * f.log(got) % (f.q2 - 1) == f.log(four)


def test_norm_preimage_rejects_bad_inputs():
    f = field_new(3)
    with pytest.raises(errors.ZeroInput):
        f.norm_preimage(0)
    outside = next(a for a in f.elements() if a and not f.in_subfield(a))
    with pytest.raises(errors.NotInSubfield):
        f.norm_preimage(outside)


def test_field_construction_errors():
    with pytest.raises(errors.NonPrimeCharacteristic):
        field_new(4)
    with pytest.raises(errors.NonPrimeCharacteristic):
        field_new(1)
    with pytest.raises(errors.FieldTooLarge):
        field_new(3, 9)
    with pytest.raises(errors.NonPrimeCharacteristic):
        field_for_q(12)
    # the size cap comes before trial division and before any power of an
    # untrusted exponent, so each of these is refused at once
    huge_prime = 1000000000000000009
    with pytest.raises(errors.FieldTooLarge):
        field_new(huge_prime)
    with pytest.raises(errors.FieldTooLarge):
        Field(huge_prime, 1, [1, 0, 1])
    with pytest.raises(errors.FieldTooLarge):
        field_new(3, 10**18)
    with pytest.raises(errors.FieldTooLarge):
        field_for_q(huge_prime)


def test_explicit_modulus_roundtrip_and_rejects_nonprimitive():
    f = field_new(3)
    g = Field(3, 1, f.modulus)
    assert g.modulus == f.modulus
    assert g.mul(g.omega, g.omega) == f.mul(f.omega, f.omega)
    with pytest.raises(errors.ZeroInput):
        Field(3, 1, [1, 0, 1])  # x^2 + 1 has x of order 4


def test_field_new_hands_back_one_instance_however_it_is_called():
    assert field_new(3) is field_new(3, 1) is field_new(3, t=1) is field_for_q(3)
    assert field_new(3, 2) is field_for_q(9)


def test_field_with_modulus_shares_only_the_canonical_instance(monkeypatch):
    monkeypatch.setattr(gf, "_CANONICAL", {})
    canonical = [2, 1, 1]
    # GF(9) not yet built: a new field each time, and none is recorded
    first = field_with_modulus(3, 1, canonical)
    assert field_with_modulus(3, 1, tuple(canonical)) is not first
    assert gf._CANONICAL == {}
    f = field_new(3)
    assert f is not first and f.modulus == canonical
    assert field_with_modulus(3, 1, canonical) is f
    assert field_with_modulus(3, 1, tuple(canonical)) is f
    # another primitive modulus gets a field of its own, never recorded
    other = field_with_modulus(3, 1, [2, 2, 1])
    assert other.modulus == [2, 2, 1] and other is not f
    assert field_with_modulus(3, 1, [2, 2, 1]) is not other
    assert gf._CANONICAL == {(3, 1): f}
    with pytest.raises(errors.ZeroInput):
        field_with_modulus(3, 1, [1, 0, 1])
    assert field_new(3, 1) is f


def test_zech_logs_are_built_only_past_the_addition_table():
    # add, vadd and clear_column read Zech logs only where there is no table
    for q in (3, 5, 19, 23, 25):
        f = field_for_q(q)
        assert hasattr(f, "_zech") == (f._add is None) == (f.q2 > _TABLE_CAP), q


def test_digit_fallback_field_matches_oracle():
    # q^2 = 841 is above the dense-table threshold, so addition runs on Zech
    # logarithms; the oracle adds digit by digit
    f = field_new(29)
    assert f._add is None
    rng = random.Random(3)
    for _ in range(2000):
        a = rng.randrange(f.q2)
        b = rng.randrange(f.q2)
        assert f.mul(a, b) == oracle_mul(f, a, b)
        pa = poly_of_index(a, f.p, 2)
        pb = poly_of_index(b, f.p, 2)
        s = [(x + y) % f.p for x, y in zip(pa, pb)]
        assert f.add(a, b) == index_of_poly(s, f.p)


# ---------------------------------------------------------------------------
# the addition table, on every tower under _TABLE_CAP

TABLE_TOWERS = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2)] + [(p, 1) for p in (5, 7, 11, 13, 17, 19)]


def test_table_towers_are_every_tower_under_the_cap():
    primes = [p for p in range(2, _TABLE_CAP) if all(p % d for d in range(2, p))]
    towers = [(p, t) for p in primes for t in range(1, 10) if p ** (2 * t) <= _TABLE_CAP]
    assert sorted(towers) == TABLE_TOWERS


@pytest.mark.parametrize("p,t", TABLE_TOWERS)
def test_addition_table_matches_digit_oracle_exhaustively(p, t):
    f = field_new(p, t)
    assert len(f._add) == f.q2
    for a, row in enumerate(f._add):
        assert row == [oracle_add(f, a, b) for b in range(f.q2)]


@pytest.mark.parametrize("p,t", TABLE_TOWERS)
def test_addition_table_rows_are_permutations(p, t):
    f = field_new(p, t)
    elements = list(range(f.q2))
    assert all(sorted(row) == elements for row in f._add)


@pytest.mark.parametrize("p,t", TABLE_TOWERS)
def test_addition_table_shares_one_int_per_element(p, t):
    # a fresh int per cell would cost about 7 MB over q = 13, 17 and 19
    f = field_new(p, t)
    assert len({id(x) for row in f._add for x in row}) <= f.q2


@pytest.mark.parametrize("p,t", [(3, 2), (19, 1)])
def test_addition_table_does_not_depend_on_the_modulus(p, t):
    f = field_new(p, t)
    deg = 2 * t
    # the first primitive modulus after the canonical one in packing order
    for packed in range(index_of_poly(f.modulus[:deg], p) + 1, p**deg):
        try:
            g = Field(p, t, poly_of_index(packed, p, deg) + [1])
        except errors.ZeroInput:
            continue
        break
    assert g.modulus != f.modulus and g._log != f._log
    assert g._add == f._add

# ---------------------------------------------------------------------------
# element methods and vector kernels against the oracles, on fields on both
# sides of _TABLE_CAP, including p = 2 and t > 1

TABLE_FIELDS = [field_new(2), field_new(3), field_new(2, 2), field_new(3, 2), field_new(2, 4)]
ZECH_FIELDS = [field_new(23), field_new(5, 2), field_new(2, 5)]

# fixed example sequence, so every run of the suite checks the same inputs
PROPERTY = settings(deadline=None, derandomize=True, max_examples=150)


def test_property_fields_straddle_the_table_cap():
    assert all(f._add is not None and f.q2 <= _TABLE_CAP for f in TABLE_FIELDS)
    assert all(f._add is None and f.q2 > _TABLE_CAP for f in ZECH_FIELDS)


@st.composite
def field_and_vectors(draw, count):
    """A field and count vectors of one length, zero entries common."""
    f = draw(st.sampled_from(TABLE_FIELDS + ZECH_FIELDS))
    n = draw(st.integers(1, 6))
    entry = st.one_of(st.just(0), st.just(1), st.integers(0, f.q2 - 1))
    vecs = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(count)]
    return f, vecs


@PROPERTY
@given(field_and_vectors(2))
def test_element_methods_match_digit_oracle(fv):
    f, (u, v) = fv
    for a, b in zip(u, v):
        assert f.add(a, b) == oracle_add(f, a, b)
        assert f.neg(a) == oracle_neg(f, a)
        assert f.sub(a, b) == oracle_add(f, a, oracle_neg(f, b))
        assert f.mul(a, b) == oracle_mul(f, a, b)
    assert f.conjugate(u) == [oracle_power(f, a, f.q) for a in u]


@PROPERTY
@given(field_and_vectors(2), st.integers(0, 1 << 16))
def test_vector_kernels_match_oracle(fv, c):
    f, (u, v) = fv
    c %= f.q2
    assert f.scale(c, u) == [oracle_mul(f, c, x) for x in u]
    # scaling by one copies, so a caller may extend what it gets back
    assert f.scale(1, u) == u
    assert f.scale(1, u) is not u
    assert f.vadd(u, v) == [oracle_add(f, x, y) for x, y in zip(u, v)]
    units = [y or 1 for y in v]
    assert f.vdiv(u, units) == [oracle_mul(f, x, oracle_power(f, y, f.q2 - 2)) for x, y in zip(u, units)]
    assert f.conjugate(u) == [oracle_power(f, x, f.q) for x in u]
    assert f.vmul(u, v) == [oracle_mul(f, x, y) for x, y in zip(u, v)]
    acc = 0
    for x, y in zip(u, v):
        acc = oracle_add(f, acc, oracle_mul(f, x, oracle_power(f, y, f.q)))
    assert f.hermitian_products([u], [v]) == [[acc]]


@PROPERTY
@given(field_and_vectors(1))
def test_multiples_are_every_nonzero_multiple_in_log_order(fv):
    # against the element methods, which the oracle checks above; the
    # oracle itself would take seconds on the fields of 1024 elements
    f, (u,) = fv
    assert f.multiples(u) == [tuple(f.mul(f.exp(j), x) for x in u) for j in range(f.q2 - 1)]


@PROPERTY
@given(field_and_vectors(5), st.data())
def test_line_points_name_each_reduced_pair_up_to_scale(fv, data):
    # u - (u_p / v_p) v at x and y is the pair (a, b), whose point is b / a,
    # q^2 at a = 0 and None at (0, 0)
    f, vectors = fv
    assume(len(vectors[0]) >= 3)
    p, x, y = data.draw(st.permutations(range(len(vectors[0]))))[:3]
    v = list(vectors[0])
    v[p] = v[p] or 1
    inv_pivot = oracle_power(f, v[p], f.q2 - 2)
    pairs = []
    for u in vectors:
        c = oracle_neg(f, oracle_mul(f, u[p], inv_pivot))
        pairs.append((oracle_add(f, u[x], oracle_mul(f, c, v[x])), oracle_add(f, u[y], oracle_mul(f, c, v[y]))))
    expected = [oracle_mul(f, b, oracle_power(f, a, f.q2 - 2)) if a else f.q2 if b else None for a, b in pairs]
    assert f.line_points(vectors, v, p, x, y) == expected


def written_out_slopes(f: Field, r, u, m: int) -> list[list[int]]:
    """The keys line_slopes names, one element method at a time: the tail's
    slopes from the origin, then each point's to every later one."""

    def slope(r1, u1, r2, u2):
        if r1 == r2:
            return f.q2 + 1 if u1 == u2 else f.q2
        return f.mul(f.sub(u2, u1), f.inv(f.sub(r2, r1)))

    tail = [slope(0, 0, r[j], u[j]) for j in range(m, len(r))]
    return [tail] + [[slope(r[j], u[j], r[i], u[i]) for i in range(j + 1, m)] for j in range(m - 1)]


@pytest.mark.parametrize("q", [2, 3, 7, 19], ids=["GF4", "GF9", "GF49", "GF361"])
def test_line_slopes_name_the_line_through_each_pair(q):
    # every element stands on each side once, so every row of the
    # difference logs is read, and vectors drawn from a few values make the
    # vertical and same-point keys common
    f = field_for_q(q)
    rng = random.Random(q)
    elements = list(f.elements())
    r = rng.sample(elements, f.q2)
    vectors = [(r, rng.sample(elements, f.q2), f.q2)]
    keys = set()
    for _ in range(6):
        few = rng.sample(elements, min(f.q2, 3)) + [0]
        n = rng.randint(1, 24)
        r = [rng.choice(few) for _ in range(n)]
        vectors += [(r, [rng.choice(few) for _ in range(n)], rng.randint(0, n))]
    for r, u, m in vectors:
        slopes = f.line_slopes(r, m)
        expected = written_out_slopes(f, r, u, m)
        assert list(map(list, slopes(u))) == expected
        # a second word against the same r
        v = [rng.choice(elements) for _ in u]
        assert list(map(list, slopes(v))) == written_out_slopes(f, r, v, m)
        keys.update(chain.from_iterable(expected))
    assert {f.q2, f.q2 + 1} <= keys


@pytest.mark.parametrize("q", [23, 64], ids=["GF529", "GF4096"])
def test_line_slopes_build_no_table_past_the_addition_table(q):
    f = field_for_q(q)
    assert f.q2 > _TABLE_CAP
    assert f.line_slopes([1, 2, 3], 3) is None
    assert f._lines is None


@pytest.mark.parametrize("repeat", [False, True], ids=["mds", "repeated-column"])
def test_k3_code_over_gf529_counts_words_to_the_floors_distance(repeat):
    # [14, 3] GRS columns (1, a, a^2), a = 0 among them, so the last row has
    # a tail; a repeated column makes the code non-MDS.  m < q^2, but with no
    # addition table the one deepest node counts words
    f = field_for_q(23)
    cols = [[1, a, f.mul(a, a)] for a in range(0, 14 * 37, 37)]
    if repeat:
        cols[5] = f.scale(f.omega, cols[9])
    code = LinearCode(field=f, generator=transpose(Matrix(f, cols, cols=3)))
    d, counted_lines = distance_and_path(code)
    assert d == (11 if repeat else 12)
    assert not counted_lines
    for w in range(1, code.n + 2):
        assert min_distance_at_least(code, w) == (d >= w), w


@pytest.mark.parametrize("q", [3, 5, 23], ids=["GF9", "GF25", "GF529"])
def test_sums_match_elementwise_add(q):
    # u runs over every element, so with the constant vectors among vs every
    # pair of elements is summed, zero included; GF(529) adds by Zech logs
    f = field_for_q(q)
    rng = random.Random(q)
    u = list(f.elements())
    rng.shuffle(u)
    vs = [[c] * f.q2 for c in f.elements()] + [[rng.choice((0, rng.randrange(f.q2))) for _ in u]]
    assert [list(s) for s in f.sums(u, vs)] == [[f.add(x, y) for x, y in zip(u, v)] for v in vs]
    assert list(f.sums(u, [])) == []


@PROPERTY
@given(field_and_vectors(4), st.data())
def test_clear_column_matches_oracle(fv, data):
    f, rows = fv
    n = len(rows[0])
    c = data.draw(st.integers(0, n - 1))
    prow = [0] * c + [data.draw(st.integers(1, f.q2 - 1))] + rows[0][c + 1 :]
    rows = [prow] + rows[1:]
    inv_pivot = oracle_power(f, prow[c], f.q2 - 2)
    expected = [prow]
    for row in rows[1:]:
        # row - (row[c] / prow[c]) prow
        factor = oracle_neg(f, oracle_mul(f, row[c], inv_pivot))
        expected.append([oracle_add(f, x, oracle_mul(f, factor, y)) for x, y in zip(row, prow)])
    f.clear_column(rows, prow, c)
    assert rows == expected
    assert all(row[c] == 0 for row in rows[1:])


# ---------------------------------------------------------------------------
# the Hermitian dot product, hermitian_products of one row against one
# other, and vmul on vectors as long as a field, where a packed-digit slot
# holds up to length * 2t (p - 1)^2; GF(3^6) has t = 3, GF(31^2) a large p

LONG_FIELDS = TABLE_FIELDS + ZECH_FIELDS + [field_new(3, 3), field_new(31)]


def oracle_dot(f: Field, u, v) -> int:
    """Digit sums of the oracle's products, reduced mod p once at the end."""
    sums = [0] * (2 * f.t)
    for x, y in zip(u, v):
        for i, d in enumerate(poly_of_index(oracle_mul(f, x, y), f.p, 2 * f.t)):
            sums[i] += d
    return index_of_poly([d % f.p for d in sums], f.p)


@settings(deadline=None, derandomize=True, max_examples=60)
@given(st.sampled_from(LONG_FIELDS), st.integers(0, 1 << 32), st.sampled_from([0.0, 0.2, 0.9]))
def test_long_dot_and_vmul_match_digit_oracle(f, seed, zeros):
    # the length comes from the seeded generator, since shrinking would
    # keep the drawn lengths short
    rng = random.Random(seed)
    n = rng.randint(0, f.q2 + 1)
    u, v = ([0 if rng.random() < zeros else rng.randrange(1, f.q2) for _ in range(n)] for _ in "uv")
    assert f.hermitian_products([u], [v]) == [[oracle_dot(f, u, [oracle_power(f, y, f.q) for y in v])]]
    assert f.vmul(u, v) == [oracle_mul(f, x, y) for x, y in zip(u, v)]


@pytest.mark.parametrize("f", LONG_FIELDS, ids=repr)
def test_dot_of_constant_vectors_is_the_length_mod_p(f):
    # 1 and -1 lie in GF(p), which conjugation fixes: every term of
    # ones . ones adds 1 to the constant digit, and every term of
    # (-1) . ones adds p - 1
    minus_one = f.neg(1)
    for n in range(f.p - 1, f.q2 + 2):
        assert f.hermitian_products([[1] * n], [[1] * n]) == [[n % f.p]]
        assert f.hermitian_products([[minus_one] * n], [[1] * n]) == [[-n % f.p]]
    assert f.hermitian_products([[]], [[]]) == [[0]]
    for n in (1, f.q2 + 1):
        assert f.hermitian_products([[0] * n], [[0] * n]) == [[0]]
        assert f.hermitian_products([[0] * n], [[1] * n]) == [[0]]
        assert f.vmul([0] * n, [1] * n) == [0] * n


@pytest.mark.parametrize("f", LONG_FIELDS + [Field(3, 1, [2, 2, 1])], ids=repr)
def test_hermitian_products_widen_their_slots_for_longer_rows(f):
    # q^2 - 1 has every digit p - 1, so each product of it with itself puts
    # 2t (p - 1)^2 in the middle slot: 2(2(q^2 + 1) + 1) such terms fill the
    # slot width sized for length 2(q^2 + 1); a fresh instance starts narrow
    fresh = Field(f.p, f.t, f.modulus)
    top = f.q2 - 1
    conj_top = oracle_power(f, top, f.q)

    def times(n, z):
        return index_of_poly([n * d % f.p for d in poly_of_index(z, f.p, 2 * f.t)], f.p)

    for n in (1, 2 * (f.q2 + 1), 4 * f.q2 + 6, 3):
        rows = [[top] * n, [conj_top] * n]
        diagonal = times(n, oracle_mul(f, top, conj_top))
        assert fresh.hermitian_products(rows) == [[diagonal, times(n, oracle_mul(f, top, top))], [diagonal]]
    assert fresh.hermitian_products([]) == []


@pytest.mark.parametrize("f", GRAM_FIELDS, ids=repr)
def test_packed_entries_never_carry_into_each_other(f):
    # hermitian_products stacks the rows it sums against one entry apart in
    # one int per column.  Every digit of q^2 - 1 is p - 1, so rows of it
    # against conjugate rows of it fill every coefficient of each product
    # polynomial, the middle one as far as the slot width allows at length
    # 2(q^2 + 1): an entry slot shorter than the whole polynomial would
    # carry one entry's top coefficients into the next.  A fresh instance
    # starts at the sized width; the longer rows widen it, and are of odd
    # length, since for p = 2 a coefficient summed over an even length is
    # even, and a carried one would vanish mod 2
    fresh = Field(f.p, f.t, f.modulus)
    top = f.q2 - 1
    conj_top = oracle_power(f, top, f.q)
    for n in (2 * (f.q2 + 1), 4 * f.q2 + 7):
        rows = [[top] * n, [conj_top] * n, [top] * n, [conj_top] * n]
        gram = naive_hermitian_gram(fresh, rows)
        assert fresh.hermitian_products(rows) == [entries[i:] for i, entries in enumerate(gram)]
        assert fresh.hermitian_products(rows[:3], rows[1:]) == naive_hermitian_gram(fresh, rows[:3], rows[1:])
