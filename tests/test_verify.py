"""Certification oracles, cross-checked against a test-local enumerator."""

from __future__ import annotations

import gc
import itertools
import random

import pytest

from qmds.errors import BadDimension, EnumerationTooLarge, WorkBudgetExceeded
from qmds.gf import field_for_q, field_new
from qmds.grs import (
    ConstructionParams,
    LinearCode,
    _family_a_spec,
    construct_extended,
    construct_family_A,
    construct_family_B,
    construct_family_C,
    construct_full_field,
    full_field_spec,
    grs_generator,
    hermitian_dual,
    is_self_orthogonal,
)
from qmds.linalg import Matrix, nullspace, rank, transpose
from qmds.verify import (
    CHECKS,
    DEFAULT_ENUM_CAP,
    _subsets_independent,
    dual_containing_check,
    enumeration_classes,
    min_distance_at_least,
    min_distance_exact,
    report,
    run_checks,
)

from test_linalg import identity


def naive_min_distance(field, gen: Matrix) -> int:
    """Every message, no shortcuts."""
    best = gen.cols
    for msg in itertools.product(field.elements(), repeat=gen.rows):
        if not any(msg):
            continue
        word = [0] * gen.cols
        for c, row in zip(msg, gen.data):
            if c:
                word = [field.add(x, field.mul(c, y)) for x, y in zip(word, row)]
        w = sum(1 for x in word if x)
        best = min(best, w)
    return best


def mds_check(code: LinearCode, cap: int = DEFAULT_ENUM_CAP) -> dict:
    """The mds check of run_checks on a code that claims d >= n - k + 1."""
    assert code.claimed_distance_lb == code.n - code.k + 1
    (check,) = run_checks(code, ("mds",), {"claimed_distance_lb": code.claimed_distance_lb}, cap)["checks"]
    return check


def random_code(f, rng, n, k):
    while True:
        data = [[rng.randrange(f.q2) for _ in range(n)] for _ in range(k)]
        if rank(Matrix(f, data)) == k:
            return LinearCode(field=f, generator=Matrix(f, data))


def test_exact_distance_frozen_values():
    f = field_for_q(3)
    code = grs_generator(construct_family_A(ConstructionParams(3, 1, 1, 3)))
    assert min_distance_exact(code) == 7  # [8,2] is MDS
    primal = grs_generator(full_field_spec(f, 2))
    assert min_distance_exact(primal) == 8  # [9,2]
    assert min_distance_exact(grs_generator(full_field_spec(f, 3))) == 7  # [9,3] is MDS


def test_exact_distance_repetition_code():
    f = field_for_q(3)
    for n in (1, 4, 9):
        code = LinearCode(field=f, generator=Matrix(f, [[1] * n]))
        assert min_distance_exact(code) == n


def test_exact_distance_matches_naive_enumeration():
    f = field_for_q(3)
    rng = random.Random(101)
    for _ in range(20):
        n = rng.randrange(2, 8)
        k = rng.randrange(1, min(n, 3) + 1)
        code = random_code(f, rng, n, k)
        assert min_distance_exact(code) == naive_min_distance(f, code.generator)


def test_exact_distance_refuses_a_worker_count():
    # the enumeration runs in one process; no other worker count is accepted
    code = grs_generator(full_field_spec(field_for_q(3), 3))
    for workers in (0, 2):
        with pytest.raises(BadDimension):
            min_distance_exact(code, workers=workers)


def test_exact_distance_cap():
    f = field_for_q(3)
    big = LinearCode(field=f, generator=identity(f, 12))
    with pytest.raises(EnumerationTooLarge):
        min_distance_exact(big)  # 9^12 messages
    small = LinearCode(field=f, generator=identity(f, 2))
    with pytest.raises(EnumerationTooLarge):
        min_distance_exact(small, cap=10)
    with pytest.raises(BadDimension):
        min_distance_exact(LinearCode(field=f, generator=Matrix(f, [], cols=3)))


def test_enumeration_classes():
    code = grs_generator(construct_family_A(ConstructionParams(3, 1, 1, 3)))
    assert enumeration_classes(code) == (81 - 1) // 8


def test_distance_floor_brackets_the_true_distance():
    code = grs_generator(construct_family_A(ConstructionParams(3, 1, 1, 3)))
    for w in range(1, 8):
        assert min_distance_at_least(code, w), w
    assert not min_distance_at_least(code, 8)


def test_distance_floor_trivial_and_edge_cases():
    f = field_for_q(3)
    code = random_code(f, random.Random(5), 4, 2)
    assert min_distance_at_least(code, 1)
    assert min_distance_at_least(code, 0)
    with pytest.raises(BadDimension):
        min_distance_at_least(code, 6)  # w-1 exceeds the length
    # the full space has distance 1, caught before any subset search
    full = LinearCode(field=f, generator=identity(f, 4))
    assert not min_distance_at_least(full, 2)


def test_distance_floor_walks_99_columns_deep():
    # the [100, 1] all-ones code over GF(121) has d = 100, so every 99 of
    # its parity-check columns are independent.  min_distance_at_least
    # settles that MDS claim on the generator's 1-subsets, so the parity
    # side's walk is called directly: it recurses once per chosen column,
    # and the estimate C(100, 99) 99^3 = 9.7e7 fits the default budget,
    # which keeps any walk about this shallow: r < n, so
    # C(n, w-1) (w-1)^3 > (w-1)^4
    f = field_for_q(11)
    code = LinearCode(field=f, generator=Matrix(f, [[1] * 100]))
    assert min_distance_at_least(code, 100)
    assert not min_distance_at_least(code, 101)  # w - 1 past r = 99
    assert _subsets_independent(f, transpose(nullspace(code.generator)).data, 99)


def test_distance_floor_budget(monkeypatch):
    code = grs_generator(construct_family_A(ConstructionParams(3, 1, 1, 3)))
    monkeypatch.setattr("qmds.verify.DEFAULT_WORK_BUDGET", 1)
    with pytest.raises(WorkBudgetExceeded):
        min_distance_at_least(code, 4)

    # a refusal, and a w past the dual's dimension, come before the parity
    # check matrix is computed
    def no_nullspace(m):
        raise AssertionError("nullspace computed")

    monkeypatch.setattr("qmds.verify.nullspace", no_nullspace)
    with pytest.raises(WorkBudgetExceeded):
        min_distance_at_least(code, 4)
    assert not min_distance_at_least(code, 8)


def count_nullspace_calls(monkeypatch) -> list:
    calls = []

    def counting(m):
        calls.append((m.rows, m.cols))
        return nullspace(m)

    monkeypatch.setattr("qmds.verify.nullspace", counting)
    return calls


@pytest.mark.parametrize(
    "code",
    [
        grs_generator(construct_family_A(ConstructionParams(3, 1, 1, 3))),  # [8, 2]
        grs_generator(construct_family_B(ConstructionParams(7, 1, 4, 6))),  # [18, 5]
    ],
)
def test_mds_claim_with_k_below_n_minus_k_walks_the_generator(monkeypatch, code):
    # both are MDS, and k < n - k: every k generator columns are tested,
    # and no parity-check matrix is computed
    calls = count_nullspace_calls(monkeypatch)
    assert min_distance_at_least(code, code.n - code.k + 1)
    assert mds_check(code, cap=10)["verdict"] == "pass"
    # grs_generator records the MDS claim itself
    assert code.claimed_distance_lb == code.n - code.k + 1
    claims = {"claimed_distance_lb": code.claimed_distance_lb}
    checks = run_checks(code, ("min-distance", "mds"), claims, cap=10)["checks"]
    assert [c["verdict"] for c in checks] == ["pass", "pass"]
    assert calls == []


def test_mds_claim_with_k_past_n_minus_k_walks_the_parity_checks(monkeypatch):
    # the [26, 22] extended code over GF(25): its 4-dimensional parity-check
    # columns are the small side
    code = construct_extended(field_for_q(5), 4)
    calls = count_nullspace_calls(monkeypatch)
    check = mds_check(code)
    assert (check["verdict"], check["method"]) == ("pass", "column-independence floor")
    assert calls == [(22, 26)]


def test_zero_code_floor_keeps_the_parity_side(monkeypatch):
    # the [8, 0] generator has no columns to test, so a claim at w = n + 1
    # is walked on the identity parity-check columns and holds
    f = field_for_q(3)
    zero = LinearCode(field=f, generator=Matrix(f, [], cols=8))
    calls = count_nullspace_calls(monkeypatch)
    assert min_distance_at_least(zero, 9)
    assert calls == [(0, 8)]


def test_huge_counts_are_written_as_formulas(monkeypatch):
    # up to 30 digits a count is printed in decimal, as it always was
    f = field_for_q(3)
    with pytest.raises(EnumerationTooLarge, match=r"q\^2k = 282429536481 messages exceed"):
        min_distance_exact(LinearCode(field=f, generator=identity(f, 12)))
    code = grs_generator(construct_family_A(ConstructionParams(3, 1, 1, 3)))
    with monkeypatch.context() as patched:
        patched.setattr("qmds.verify.DEFAULT_WORK_BUDGET", 1)
        with pytest.raises(WorkBudgetExceeded, match=r"estimated work 1512 exceeds the budget 1$"):
            min_distance_at_least(code, 4)
    # a longer one as the power or product it comes from; the [16000, 1]
    # estimate has about 4800 digits, past what Python prints
    wide = LinearCode(field=f, generator=Matrix(f, [[1] * 16000]))
    with pytest.raises(WorkBudgetExceeded) as over:
        min_distance_at_least(wide, 8000)
    assert str(over.value) == "estimated work C(16000, 7999)*7999^3 exceeds the budget 100000000"


def test_min_distance_past_printable_counts_is_skipped():
    # [I | I] over GF(251^2) with k = 900 has 63001^900 messages, a
    # 4321-digit count, and its MDS claim is over the floor budget
    f = field_new(251)
    k = 900
    rows = [[0] * (2 * k) for _ in range(k)]
    for i, row in enumerate(rows):
        row[i] = row[k + i] = 1
    code = LinearCode(field=f, generator=Matrix(f, rows, cols=2 * k), claimed_distance_lb=k + 1)
    (check,) = run_checks(code, ("min-distance",), {"claimed_distance_lb": k + 1})["checks"]
    assert (check["verdict"], check["work_count"]) == ("skipped", 0)
    assert check["detail"] == (
        "q^2k = 63001^900 messages exceed the cap of 4194304; "
        "estimated work C(1800, 900)*900^3 exceeds the budget 100000000"
    )


def test_is_mds():
    f = field_for_q(3)
    code = grs_generator(construct_family_A(ConstructionParams(3, 1, 1, 3)))
    assert mds_check(code)["verdict"] == "pass"
    not_mds = LinearCode(field=f, generator=Matrix(f, [[1, 0, 0], [0, 1, 0]]), claimed_distance_lb=2)
    assert mds_check(not_mds)["verdict"] == "fail"  # d = 1 < 2
    # too big to enumerate, settled by the column floor instead
    full = LinearCode(field=f, generator=identity(f, 16), claimed_distance_lb=1)
    check = mds_check(full)  # [n, n, 1]
    assert (check["verdict"], check["method"]) == ("pass", "column-independence floor")


def test_mds_check_past_the_cap_and_the_floor_budget_is_skipped():
    # [81, 76] over GF(81): too many messages to enumerate, and about 3.2e9
    # column-subset steps for the floor
    code = construct_full_field(field_for_q(9), 5)
    check = mds_check(code)
    assert (check["verdict"], check["work_count"]) == ("skipped", 0)
    with pytest.raises(WorkBudgetExceeded) as over:
        min_distance_at_least(code, code.n - code.k + 1)
    assert check["detail"] == str(over.value)


def test_is_mds_on_duals():
    # duals of MDS codes are MDS; [9,7] is past the enumeration comfort zone
    # for naive tooling but fine here
    f = field_for_q(3)
    dual = construct_full_field(f, 2)
    check = mds_check(dual, cap=10**7)
    assert (check["verdict"], check["method"]) == ("pass", "exhaustive message enumeration")


def test_hermitian_checks():
    f = field_for_q(3)
    so = grs_generator(construct_family_A(ConstructionParams(3, 1, 1, 3)))
    assert is_self_orthogonal(so)
    assert not dual_containing_check(so)  # k=2 < n/2
    dc = construct_full_field(f, 2)
    assert dual_containing_check(dc)
    assert not is_self_orthogonal(dc)


def test_duality_consistency():
    # C self-orthogonal exactly when its Hermitian dual is dual-containing
    cases = [
        grs_generator(construct_family_A(ConstructionParams(3, 1, 1, 3))),
        grs_generator(construct_family_C(ConstructionParams(3, 0, 4, 3))),
        construct_full_field(field_for_q(3), 2),
    ]
    for code in cases:
        assert is_self_orthogonal(code) == dual_containing_check(hermitian_dual(code))


@pytest.mark.parametrize("q", [3, 5, 7])
def test_gram_gate_equals_the_ladder_ingredient_verdict(q):
    # mp6_ladder builds its full-field and family-a ingredients as bare
    # Hermitian duals and certifies them by dual containment alone; that
    # stands in for the constructors' Gram gates because C has a zero Gram
    # matrix exactly when its dual contains its own Hermitian dual.  k runs
    # past the window (k <= q - 1), so both verdicts occur
    f = field_for_q(q)
    for spec_of in (full_field_spec, lambda f, k: _family_a_spec(f, 1, k)):
        verdicts = set()
        for k in range(1, 2 * q + 1):
            code = grs_generator(spec_of(f, k))
            gram = is_self_orthogonal(code)
            assert gram == dual_containing_check(hermitian_dual(code)), (q, k)
            verdicts.add(gram)
        assert verdicts == {True, False}


def test_report_overall():
    assert report("demo", []) == {"target": "demo", "overall": "pass", "checks": []}
    checks = [{"name": "a", "verdict": "pass"}, {"name": "b", "verdict": "skipped"}]
    assert report("demo", checks)["overall"] == "pass"
    checks.append({"name": "c", "verdict": "fail"})
    d = report("demo", checks)
    assert d["overall"] == "fail"
    assert [c["name"] for c in d["checks"]] == ["a", "b", "c"]


def test_a_lower_bound_above_the_exact_claim_is_refused_before_any_check():
    # the [8, 2] grs-a q=3 code has d = 7: checking d = 7 alone would pass
    # the claims, and no code has d = 7 and d >= 9
    code = grs_generator(construct_family_A(ConstructionParams(q=3, a=1, m=1, d=3)))
    assert min_distance_exact(code) == 7
    with pytest.raises(BadDimension):
        run_checks(code, CHECKS, {"known_distance": 7, "claimed_distance_lb": 9})
    with pytest.raises(BadDimension):
        run_checks(code, (), {"known_distance": 7, "claimed_distance_lb": 8})
    for lb in (None, 6, 7):
        claims = {"known_distance": 7, "claimed_distance_lb": lb}
        assert run_checks(code, CHECKS, claims)["overall"] == "pass"


def test_past_cap_refusals_leave_no_reference_cycle():
    # refusals are kept as messages: an exception kept with its traceback
    # would pin run_checks' frame, the code and the report in a cycle only
    # the cyclic collector frees
    code = grs_generator(construct_family_A(ConstructionParams(q=7, a=1, m=3, d=5)))
    gc.collect()
    gc.disable()
    try:
        claims = {"orthogonality": "self-orthogonal", "claimed_distance_lb": code.claimed_distance_lb}
        result = run_checks(code, CHECKS, claims)
        mds = result["checks"][-1]
        del result
        assert gc.collect() == 0
    finally:
        gc.enable()
    # the mds check past the cap and the floor budget reports the floor's
    # refusal as its detail
    assert (mds["name"], mds["verdict"]) == ("mds", "skipped")
    with pytest.raises(WorkBudgetExceeded) as over:
        min_distance_at_least(code, code.n - code.k + 1)
    assert mds["detail"] == str(over.value)
