"""GRS construction tests.

Expected values follow the oracle-first rule: distances come from the
exhaustive enumeration in tests/test_verify.py and orthogonality from a
test-local double loop over generator rows, independent of the library's
power-sum shortcut.
"""

import random

import pytest

from qmds.errors import (
    BadDimension,
    CongruenceViolated,
    DimensionMismatch,
    DimensionOutOfRange,
    DistanceOutOfRange,
    DuplicatePoints,
    EvenCharacteristic,
    QmdsError,
    SolverFailure,
    ZeroMultiplier,
)
from qmds.gf import field_for_q
from qmds.grs import (
    GRS_FAMILIES,
    ConstructionParams,
    GrsSpec,
    LinearCode,
    construct_extended,
    construct_family_A,
    construct_family_B,
    construct_family_C,
    construct_full_field,
    euclidean_dual,
    extended_self_orthogonal,
    family_params,
    full_field_spec,
    grs_generator,
    hermitian_dual,
    hermitian_gram,
    power_sum,
    valid_parameter_sets,
    _check_dual_cells,
    _extension_candidates,
    _subfield_kernel,
)
from qmds.linalg import Matrix, rank, row_space_contains, stack
from test_linalg import identity
from test_linalg_properties import naive_nullspace
from test_verify import naive_min_distance
from test_verify_properties import distance_and_path


def gram_oracle(field, spec):
    """Hermitian Gram of a GrsSpec's generator, rebuilt from scratch.

    Deliberately avoids power_sum and hermitian_gram: rows are evaluated
    straight from points and multipliers and paired with an explicit
    x * y^q double loop.
    """
    rows = [
        [field.mul(v, field.pow(a, j)) for a, v in zip(spec.points, spec.multipliers)]
        for j in range(spec.k)
    ]
    entries = []
    for x in rows:
        for y in rows:
            acc = 0
            for s, t in zip(x, y):
                acc = field.add(acc, field.mul(s, field.pow(t, field.q)))
            entries.append(acc)
    return entries


def all_family_params(q):
    """Every valid (family, a, m, d) tuple at a given q."""
    out = []
    half = (q - 1) // 2
    for a in range(1, half + 1):
        if half % a == 0:
            m = half // a
            for d in range(2, (a + 1) * m + 2):
                out.append(("A", ConstructionParams(q=q, a=a, m=m, d=d)))
    half = (q + 1) // 2
    for a in range(1, half + 1):
        if half % a == 0:
            m = half // a
            if m < 2:
                continue
            for d in range(2, (a + 1) * m - 1):
                out.append(("B", ConstructionParams(q=q, a=a, m=m, d=d)))
    for w in range(1, q + 2, 2):
        if (q + 1) % w == 0:
            a, m = (w - 1) // 2, (q + 1) // w
            if m < 2:
                continue
            for d in range(2, (a + 1) * m):
                out.append(("C", ConstructionParams(q=q, a=a, m=m, d=d)))
    return out


CONSTRUCTORS = {"A": construct_family_A, "B": construct_family_B, "C": construct_family_C}


def test_family_a_q3_frozen_values():
    spec = construct_family_A(ConstructionParams(q=3, a=1, m=1, d=3))
    f = spec.field
    assert spec.n == 8 and spec.k == 2
    assert spec.points == tuple(f.exp(i) for i in range(1, 9))
    w1, w2 = f.exp(1), f.exp(2)
    assert spec.multipliers == (w2, w2, w1, w1, w2, w2, w1, w1)
    assert all(v == 0 for v in gram_oracle(f, spec))


def test_family_a_q3_distance_seven():
    spec = construct_family_A(ConstructionParams(q=3, a=1, m=1, d=3))
    code = grs_generator(spec)
    assert grs_generator(spec) is code
    assert code.claimed_distance_lb == 7
    assert naive_min_distance(spec.field, code.generator) == 7


def test_family_a_generator_shape_and_rank():
    spec = construct_family_A(ConstructionParams(q=5, a=2, m=1, d=4))
    code = grs_generator(spec)
    assert code.n == 12 and code.k == 3
    assert code.generator.rows == 3 and code.generator.cols == 12
    assert rank(code.generator) == 3


def test_family_sweep_gram_oracle_small_q():
    for q in (3, 5, 9):
        for fam, params in all_family_params(q):
            spec = CONSTRUCTORS[fam](params)
            assert all(v == 0 for v in gram_oracle(spec.field, spec)), (fam, params)


def test_family_b_q5_worked_instance():
    spec = construct_family_B(ConstructionParams(q=5, a=1, m=3, d=4))
    f = spec.field
    assert spec.n == 8 and spec.k == 3
    # kernel matrix is the single row [1, 1], kernel vector (1, -1); the
    # -1 = omega^12 contributes base exponent 2, and the m-3 = 0 shift
    # keeps every block equal
    assert spec.points == tuple(f.exp(2 * j) for j in (1, 2, 4, 5, 7, 8, 10, 11))
    assert spec.multipliers == (1, f.exp(2)) * 4
    assert all(v == 0 for v in gram_oracle(f, spec))


def test_family_b_q9_sweep():
    for d in range(2, 8):
        spec = construct_family_B(ConstructionParams(q=9, a=1, m=5, d=d))
        assert spec.n == 32 and spec.k == d - 1
        assert all(v == 0 for v in gram_oracle(spec.field, spec))


def test_family_c_examples():
    spec = construct_family_C(ConstructionParams(q=3, a=0, m=4, d=3))
    assert (spec.n, spec.k) == (6, 2)
    spec = construct_family_C(ConstructionParams(q=5, a=0, m=6, d=5))
    assert (spec.n, spec.k) == (20, 4)
    spec = construct_family_C(ConstructionParams(q=5, a=1, m=2, d=2))
    assert (spec.n, spec.k) == (4, 1)
    assert all(v == 0 for v in gram_oracle(spec.field, spec))


def written_out_kernel(field, family, a, m):
    """The kernel line of the family's (m - 2) x (m - 1) system, each entry
    written out as a power of omega, by naive elimination, scaled so that
    its first coordinate is 1."""
    q = field.q
    if family == "grs-b":
        def exponent(i, j):
            return 2 * a * j * ((i - 1) * (q - 1) + m - 3)
    else:
        def exponent(i, j):
            return (2 * a + 1) * (i * (q - 1) - 1) * j
    system = Matrix(field, [[field.exp(exponent(i, j)) for j in range(1, m)] for i in range(1, m - 1)], cols=m - 1)
    [v] = naive_nullspace(system)
    return [field.mul(field.inv(v[0]), x) for x in v]


@pytest.mark.parametrize("family", ["grs-b", "grs-c"])
def test_closed_form_kernel_matches_the_written_out_system(family):
    # every (a, m) the family accepts at odd q <= 27; the first m - 1
    # multipliers have the kernel coordinates as their norms
    ctor = GRS_FAMILIES[family][0]
    checked = 0
    for q in (3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27):
        f = field_for_q(q)
        firsts = {(p.a, p.m): p for p in reversed(valid_parameter_sets(family, q))}
        for (a, m), params in firsts.items():
            spec = ctor(params)
            assert [f.norm(v) for v in spec.multipliers[: m - 1]] == written_out_kernel(f, family, a, m)
            checked += 1
    assert checked == {"grs-b": 23, "grs-c": 21}[family]


def test_family_b_kernel_worked_instance_q5():
    # family B at q = 5, a = 1, m = 3 has step 2a = 2 and s = m - 3 = 0, so
    # its system is the single row [1, 1]
    f = field_for_q(5)
    c = _subfield_kernel(f, 3, 2, 0)
    assert c == [1, 4 % f.p]
    # oracle: 1*c1 + 1*c2 = 0 over GF(5) forces c2 = -c1; normalized c1 = 1
    assert f.add(c[0], c[1]) == 0
    # the second coordinate is omega^12, the unique square root of 1 besides 1
    assert c[1] == f.exp(12)
    assert f.mul(c[1], c[1]) == 1 and c[1] != 1


def test_a_kernel_line_off_the_subfield_is_refused():
    # the single row [omega^2, omega^4] has the kernel line of
    # (1, -omega^-2) = (1, omega^10), and omega^10 is not in GF(5)
    f = field_for_q(5)
    with pytest.raises(SolverFailure, match="no GF\\(q\\) representative"):
        _subfield_kernel(f, 3, 2, 1)


def test_power_sum_full_subgroup():
    f = field_for_q(3)
    n = 8
    spec = GrsSpec(field=f, points=tuple(f.exp(i) for i in range(1, n + 1)), multipliers=(1,) * n, k=2)
    for e in (1, 2, 3, 5, 7, 9):
        expected = 0 if e % n else n % f.p
        assert power_sum(spec, e) == expected
    # q=3 family-A support at e=1, summed by hand
    fam = construct_family_A(ConstructionParams(q=3, a=1, m=1, d=3))
    acc = 0
    for a, v in zip(fam.points, fam.multipliers):
        acc = f.add(acc, f.mul(f.pow(v, 4), a))
    assert acc == 0
    assert power_sum(fam, 1) == 0


def test_gram_identity_generator_not_self_orthogonal():
    f = field_for_q(3)
    code = LinearCode(field=f, generator=identity(f, 2))
    gram = hermitian_gram(code)
    assert gram == identity(f, 2)


def test_gram_hermitian_symmetry():
    rng = random.Random(7)
    f = field_for_q(5)
    for _ in range(10):
        pts = tuple(rng.sample(range(f.q2), 6))
        mults = tuple(rng.randrange(1, f.q2) for _ in range(6))
        code = grs_generator(GrsSpec(field=f, points=pts, multipliers=mults, k=3))
        gram = hermitian_gram(code)
        for i in range(3):
            for j in range(3):
                assert [gram.data[i][j]] == f.conjugate([gram.data[j][i]])


def test_gram_power_sum_equivalence_smoke():
    rng = random.Random(11)
    f = field_for_q(3)
    agree = 0
    for _ in range(40):
        n = rng.randrange(2, 9)
        k = rng.randrange(1, min(n, 4) + 1)
        pts = tuple(rng.sample(range(f.q2), n))
        mults = tuple(rng.randrange(1, f.q2) for _ in range(n))
        spec = GrsSpec(field=f, points=pts, multipliers=mults, k=k)
        gram_zero = hermitian_gram(grs_generator(spec)).is_zero()
        sums_zero = all(
            power_sum(spec, f.q * j + l) == 0 for j in range(k) for l in range(k)
        )
        assert gram_zero == sums_zero
        agree += 1
    assert agree == 40


@pytest.mark.parametrize("q", [3, 9, 23, 25])
def test_generator_rows_equal_the_naive_powers(q):
    """grs_generator builds each row as the one before times the points;
    the rows must be the v * a^j of the definition, 0^0 = 1 included."""
    f = field_for_q(q)
    specs = [
        GRS_FAMILIES[family][0](max(valid_parameter_sets(family, q), key=lambda params: params.d))
        for family in GRS_FAMILIES
    ]
    specs.append(full_field_spec(f, q - 1))  # point 0 first, k >= 2 rows
    assert specs[-1].points[0] == 0
    for spec in specs:
        naive = [
            [f.mul(v, f.pow(a, j)) for a, v in zip(spec.points, spec.multipliers)]
            for j in range(spec.k)
        ]
        assert grs_generator(spec).generator.data == naive


def test_full_field_gram_all_k():
    for q in (3, 5, 7):
        f = field_for_q(q)
        for k in range(1, q):
            spec = full_field_spec(f, k)
            assert all(v == 0 for v in gram_oracle(f, spec))


def test_full_field_duals():
    f = field_for_q(3)
    dual = construct_full_field(f, 2)
    assert (dual.n, dual.k) == (9, 7)
    assert dual.claimed_distance_lb == 3
    assert row_space_contains(dual.generator, hermitian_dual(dual).generator)
    dual = construct_full_field(f, 1)
    assert (dual.n, dual.k) == (9, 8)
    assert dual.claimed_distance_lb == 2


def test_dual_cell_cap_admits_q64_and_refuses_q67():
    # n = q^2 for full-field and q^2 + 1 for extended; the dual's (n - k) n
    # cells fall as k grows, so k = 1 is the largest at q = 64 and k = q the
    # smallest at q = 67
    for n in (64**2, 64**2 + 1):
        _check_dual_cells(n, 1)
    for n in (67**2, 67**2 + 1):
        with pytest.raises(DimensionOutOfRange):
            _check_dual_cells(n, 67)


def test_full_field_primal_distance_eight():
    f = field_for_q(3)
    code = grs_generator(full_field_spec(f, 2))
    assert naive_min_distance(f, code.generator) == 8


def test_extended_q3_all_ones_identity():
    # sum of alpha^(q^2-1) over the whole field is -1, so a unit extension
    # coordinate cancels the one surviving power sum at k = q
    f = field_for_q(3)
    acc = 0
    for alpha in f.elements():
        acc = f.add(acc, f.pow(alpha, 8))
    assert acc == f.neg(1)
    eta = f.norm_preimage(f.neg(acc))
    assert f.add(acc, f.norm(eta)) == 0


def test_extended_gram_zero_small_q():
    for q in (3, 5):
        f = field_for_q(q)
        for k in range(1, q + 1):
            primal = extended_self_orthogonal(f, k)
            assert (primal.n, primal.k) == (q * q + 1, k)
            assert hermitian_gram(primal).is_zero()


@pytest.mark.parametrize("q, k", [(3, 2), (5, 3), (7, 7)])
def test_extension_candidates_kill_every_lower_power_sum(q, k):
    # one q per branch: k = q - 1 (trace perturbations), k <= q - 2 (a
    # rootless polynomial in the norm), k = q (all ones)
    f = field_for_q(q)
    points = list(f.elements())
    candidates = list(_extension_candidates(f, k, points))
    assert candidates
    for u in candidates:
        assert all(f.in_subfield(x) for x in u)
        for j in range(k):
            for l in range(k):
                if (j, l) == (k - 1, k - 1):
                    continue
                acc = 0
                for x, alpha in zip(u, points):
                    term = x
                    for _ in range(q * j + l):
                        term = f.mul(term, alpha)
                    acc = f.add(acc, term)
                assert acc == 0, (u, j, l)


def test_extended_solver_reaches_k_q_minus_1_at_q27():
    # the first candidate with no zero entry and a zero Gram matrix is b = 129
    f = field_for_q(27)
    primal = extended_self_orthogonal(f, 26)
    assert (primal.n, primal.k, primal.claimed_distance_lb) == (730, 26, 705)
    assert hermitian_gram(primal).is_zero()


def test_extended_dual_parameters():
    f = field_for_q(3)
    dual = construct_extended(f, 2)
    assert (dual.n, dual.k) == (10, 8)
    assert dual.claimed_distance_lb == 3
    assert row_space_contains(dual.generator, hermitian_dual(dual).generator)


def test_extended_primal_distance_is_mds():
    f = field_for_q(3)
    primal = extended_self_orthogonal(f, 2)
    assert primal.claimed_distance_lb == 9
    assert naive_min_distance(f, primal.generator) == 9


@pytest.mark.parametrize("q, k", [(3, 3), (5, 3), (5, 4), (5, 5), (7, 3), (7, 4)])
def test_extended_primal_enumerates_to_its_mds_distance(q, k):
    # the last row has m = q^2 ones and a one-column tail, so the deepest
    # node scores its q^2 words one by one instead of counting lines
    primal = extended_self_orthogonal(field_for_q(q), k)
    assert primal.claimed_distance_lb == q * q + 2 - k
    assert distance_and_path(primal) == (primal.claimed_distance_lb, False)


def test_repetition_code():
    f = field_for_q(3)
    spec = GrsSpec(field=f, points=tuple(range(5)), multipliers=(1,) * 5, k=1)
    code = grs_generator(spec)
    assert code.generator.data == [[1] * 5]
    assert naive_min_distance(f, code.generator) == 5


def test_hermitian_dual_properties():
    f = field_for_q(3)
    full = LinearCode(field=f, generator=identity(f, 4))
    zero = hermitian_dual(full)
    assert zero.k == 0 and zero.n == 4
    rng = random.Random(3)
    for _ in range(10):
        n = rng.randrange(2, 8)
        k = rng.randrange(1, n + 1)
        pts = tuple(rng.sample(range(f.q2), n))
        mults = tuple(rng.randrange(1, f.q2) for _ in range(n))
        code = grs_generator(GrsSpec(field=f, points=pts, multipliers=mults, k=k))
        dual = hermitian_dual(code)
        assert code.k + dual.k == n
        again = hermitian_dual(dual)
        assert rank(stack(again.generator, code.generator)) == code.k == again.k
    # a self-orthogonal code sits inside its dual
    fam = grs_generator(construct_family_A(ConstructionParams(q=3, a=1, m=1, d=3)))
    dual = hermitian_dual(fam)
    assert row_space_contains(dual.generator, fam.generator)


@pytest.mark.parametrize("a, m", [(-1, 1), (1, 0)])
def test_constructors_refuse_a_negative_a_or_an_m_below_one(a, m):
    with pytest.raises(CongruenceViolated, match="family A needs q = 2am \\+ 1"):
        construct_family_A(ConstructionParams(q=3, a=a, m=m, d=2))


def test_a_generator_over_another_field_is_refused():
    f, other = field_for_q(3), field_for_q(5)
    with pytest.raises(DimensionMismatch):
        LinearCode(field=f, generator=identity(other, 2))


def test_spec_validation_errors():
    f = field_for_q(3)
    with pytest.raises(DuplicatePoints):
        GrsSpec(field=f, points=(1, 1, 2), multipliers=(1, 1, 1), k=1)
    with pytest.raises(ZeroMultiplier):
        GrsSpec(field=f, points=(1, 2), multipliers=(1, 0), k=1)
    with pytest.raises(BadDimension):
        GrsSpec(field=f, points=(1, 2), multipliers=(1, 1), k=3)
    with pytest.raises(BadDimension):
        GrsSpec(field=f, points=(1, 2), multipliers=(1, 1, 1), k=1)
    # k = 2.0 passes the range check and would claim d >= 3.0
    with pytest.raises(BadDimension, match=r"^dimension 2\.0 outside 1\.\.4$"):
        GrsSpec(field=f, points=(0, 1, 2, 3), multipliers=(1, 1, 1, 1), k=2.0)


def test_spec_entries_outside_the_field_are_refused():
    # -1 would alias element 8 of GF(9) through the log table, and 100 would
    # index past it; 1.0 and True pass the range check, but a float indexes
    # no table; all are refused where the spec is made
    f = field_for_q(3)
    for points, multipliers in (
        ((-1, 8, 1, 2), (1, 1, 1, 1)),
        ((100, 1, 2, 3), (1, 1, 1, 1)),
        ((0, 1, 2, 3), (1, 9, 1, 1)),
        ((0, 1, 2, 3), (1, -1, 1, 1)),
        ((0, 1.0, 2, 3), (1, 1, 1, 1)),
        ((0, 1, 1.0, 3), (1, 1, 1, 1)),  # refused as a non-int, not as a duplicate
        ((0, 1.5, 2, 3), (1, 1, 1, 1)),
        ((0, 2, 3, 4), (1, True, 1, 1)),
    ):
        with pytest.raises(DimensionMismatch, match="outside field of size 9"):
            GrsSpec(field=f, points=points, multipliers=multipliers, k=2)
    # the field's last element, 8, is one
    spec = GrsSpec(field=f, points=(0, 8, 1, 2), multipliers=(8, 1, 1, 1), k=2)
    assert naive_min_distance(f, grs_generator(spec).generator) == 3


def test_construction_errors():
    with pytest.raises(EvenCharacteristic):
        construct_family_A(ConstructionParams(q=4, a=1, m=1, d=2))
    with pytest.raises(DistanceOutOfRange):
        construct_family_A(ConstructionParams(q=3, a=1, m=1, d=1))
    with pytest.raises(CongruenceViolated):
        construct_family_A(ConstructionParams(q=3, a=1, m=2, d=3))
    with pytest.raises(DistanceOutOfRange):
        construct_family_A(ConstructionParams(q=3, a=1, m=1, d=4))
    with pytest.raises(BadDimension):
        construct_family_B(ConstructionParams(q=5, a=3, m=1, d=2))
    with pytest.raises(DistanceOutOfRange):
        construct_family_B(ConstructionParams(q=5, a=1, m=3, d=5))
    with pytest.raises(CongruenceViolated):
        construct_family_C(ConstructionParams(q=5, a=1, m=3, d=2))
    f = field_for_q(3)
    with pytest.raises(DimensionOutOfRange):
        construct_full_field(f, 3)
    with pytest.raises(DimensionOutOfRange):
        construct_full_field(f, 0)
    with pytest.raises(DimensionOutOfRange):
        construct_extended(f, 4)


def paper_parameter_sets(family, q):
    """(a, m, d) straight from the paper's congruences and distance windows,
    by trying every small (a, m)."""
    out = []
    for a in range(q + 1):
        for m in range(1, q + 2):
            if family == "grs-a" and a >= 1 and q == 2 * a * m + 1:
                d_max = (a + 1) * m + 1
            elif family == "grs-b" and a >= 1 and m >= 2 and q == 2 * a * m - 1:
                d_max = (a + 1) * m - 2
            elif family == "grs-c" and m >= 2 and q == (2 * a + 1) * m - 1:
                d_max = (a + 1) * m - 1
            else:
                continue
            out.extend((a, m, d) for d in range(2, d_max + 1))
    return out


def test_valid_parameter_sets_match_the_paper():
    for q in (3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31, 37, 41, 43, 47, 49):
        for family in ("grs-a", "grs-b", "grs-c"):
            got = [(p.a, p.m, p.d) for p in valid_parameter_sets(family, q)]
            assert got == paper_parameter_sets(family, q), (family, q)


def test_valid_parameter_sets_refuses_unknown_families_and_even_q():
    with pytest.raises(BadDimension):
        valid_parameter_sets("grs-d", 5)
    with pytest.raises(EvenCharacteristic):
        valid_parameter_sets("grs-a", 4)


@pytest.mark.parametrize("family", sorted(GRS_FAMILIES))
@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_family_params_then_the_constructor_accept_exactly_the_valid_sets(q, family):
    # family_params owns the congruence and the constructor the window, so
    # every a and d around them lands on valid_parameter_sets and no more
    valid = {(p.a, p.m, p.d) for p in valid_parameter_sets(family, q)}
    built = set()
    for a in range(q + 2):
        for d in range(1, max(d for _, _, d in valid) + 2):
            try:
                params = family_params(family, q, a, d)
                GRS_FAMILIES[family][0](params)
            except QmdsError:
                continue
            built.add((params.a, params.m, params.d))
    assert built == valid


def test_constructed_codes_carry_no_provenance():
    f = field_for_q(3)
    primal = grs_generator(full_field_spec(f, 2))
    codes = [primal, hermitian_dual(primal), euclidean_dual(primal)]
    codes += [construct_full_field(f, 2), construct_extended(f, 2)]
    assert all(code.provenance == {} for code in codes)
