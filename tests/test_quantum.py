"""Quantum parameter derivations, closed forms, and the headline table."""

from __future__ import annotations

from dataclasses import replace

import pytest

from qmds import grs, linalg
from qmds.errors import (
    DimensionOutOfRange,
    NotDualContaining,
    NotMds,
    NotSelfOrthogonal,
    VerificationFailure,
)
from qmds.gf import Field, field_for_q
from qmds.grs import (
    GRS_FAMILIES,
    ConstructionParams,
    GrsSpec,
    LinearCode,
    construct_family_A,
    construct_family_B,
    construct_family_C,
    construct_full_field,
    grs_generator,
    hermitian_dual,
    valid_parameter_sets,
)
from qmds.linalg import Matrix
from qmds.quantum import (
    QuantumParams,
    TABLE1_LAYOUT,
    hermitian_construction,
    mp7_in_range,
    mp7_shape,
    quantum_mds_from_self_orthogonal,
    singleton_check,
    table1,
    theorem_mp7,
)


@pytest.fixture(scope="module")
def table_rows():
    return table1()


def test_singleton_classification():
    assert singleton_check(QuantumParams(3, 6, 2, 3, True, True)) == "saturated"
    assert singleton_check(QuantumParams(3, 20, 14, 3, False, False)) == "strict"
    assert singleton_check(QuantumParams(3, 5, 5, 2, False, False)) == "violated"


def test_headline_saturating_codes():
    cases = [
        (construct_family_A, (3, 1, 1, 3), (3, 8, 4, 3)),
        (construct_family_A, (5, 2, 1, 4), (5, 12, 6, 4)),
        (construct_family_B, (5, 1, 3, 4), (5, 8, 2, 4)),
        (construct_family_C, (3, 0, 4, 3), (3, 6, 2, 3)),
        (construct_family_C, (5, 0, 6, 5), (5, 20, 12, 5)),
    ]
    for ctor, args, want in cases:
        code = grs_generator(ctor(ConstructionParams(*args)))
        qp = quantum_mds_from_self_orthogonal(code)
        assert (qp.q, qp.n, qp.k, qp.d) == want
        assert qp.d_is_exact and qp.mds
        assert singleton_check(qp) == "saturated"


def test_mds_route_rejects_non_self_orthogonal():
    f = field_for_q(3)
    hand_built = LinearCode(field=f, generator=Matrix(f, [[1, 0, 0]], cols=3), claimed_distance_lb=3)
    for code in (construct_full_field(f, 2), hand_built):
        with pytest.raises(NotSelfOrthogonal):
            quantum_mds_from_self_orthogonal(code)


@pytest.mark.parametrize("family", sorted(GRS_FAMILIES))
def test_mds_route_reuses_the_constructors_gram_and_elimination(family, monkeypatch):
    ctor = GRS_FAMILIES[family][0]
    params = valid_parameter_sets(family, 7)[-1]
    grams, eliminated = [], []
    gram, eliminate = grs.hermitian_gram, linalg._eliminate

    def counting_gram(code):
        grams.append(code)
        return gram(code)

    def counting_eliminate(m):
        if m._echelon is None:
            eliminated.append([list(row) for row in m.data])
        return eliminate(m)

    monkeypatch.setattr(grs, "hermitian_gram", counting_gram)
    monkeypatch.setattr(linalg, "_eliminate", counting_eliminate)
    code = grs_generator(ctor(params))
    record = quantum_mds_from_self_orthogonal(code)
    assert (record.n, record.k, record.d) == (code.n, code.n - 2 * code.k, code.k + 1)
    assert len(grams) == 1
    # full row rank is proved on the leading minor, so the generator is
    # never eliminated on this path
    assert eliminated.count(code.generator.data) == 0
    # the constructor's code and this one are distinct objects on one generator
    (first,) = grams
    assert first is not code and first.generator is code.generator
    code.claimed_distance_lb = 1
    code.provenance["note"] = "rewritten"
    assert first.claimed_distance_lb == code.n - code.k + 1
    assert "note" not in first.provenance


def counting_clear_column(monkeypatch) -> list[list[int]]:
    """Patch Field.clear_column to record, per call, the width of every row
    it is handed, the pivot row last."""
    calls, clear_column = [], Field.clear_column

    def counting(self, rows, prow, c):
        calls.append([len(r) for r in rows] + [len(prow)])
        return clear_column(self, rows, prow, c)

    monkeypatch.setattr(Field, "clear_column", counting)
    return calls


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13])
def test_family_a_rank_check_clears_at_most_k_columns_of_width_k(q, monkeypatch):
    # family A solves no kernel system, so every clear_column call from the
    # constructor's code to the caller's record is the generator's rank check
    params = valid_parameter_sets("grs-a", q)[-1]
    calls = counting_clear_column(monkeypatch)
    spec = construct_family_A(params)
    code = grs_generator(spec)
    quantum_mds_from_self_orthogonal(code)
    assert 0 < len(calls) <= spec.k
    assert {w for widths in calls for w in widths} == {spec.k}


@pytest.mark.parametrize("family", sorted(GRS_FAMILIES))
def test_a_shared_generator_is_rank_checked_once(family, monkeypatch):
    # replace drops the kept code, so the first grs_generator call below
    # builds the generator again, outside the kernel solve of families B and C
    spec = replace(GRS_FAMILIES[family][0](valid_parameter_sets(family, 7)[-1]))
    calls = counting_clear_column(monkeypatch)
    first = grs_generator(spec)
    count = len(calls)
    later = grs_generator(spec)
    quantum_mds_from_self_orthogonal(later)
    assert later.generator is first.generator
    assert 0 < count <= spec.k and len(calls) == count
    assert {w for widths in calls for w in widths} == {spec.k}


def test_a_replaced_or_equal_spec_carries_no_verdict():
    spec = construct_family_A(ConstructionParams(3, 1, 1, 3))
    assert grs_generator(spec)._self_orthogonal is True
    for other in (replace(spec), GrsSpec(spec.field, spec.points, spec.multipliers, spec.k)):
        assert other == spec and hash(other) == hash(spec) and repr(other) == repr(spec)
        assert grs_generator(other)._self_orthogonal is None


def test_mds_route_requires_distance_certificate():
    source = grs_generator(construct_family_A(ConstructionParams(3, 1, 1, 3)))
    stripped = LinearCode(field=source.field, generator=source.generator)
    with pytest.raises(NotMds):
        quantum_mds_from_self_orthogonal(stripped)


def test_hermitian_construction_basics():
    f = field_for_q(3)
    code = construct_full_field(f, 2)  # [9,7] lb 3, dual-containing
    qp = hermitian_construction(code)
    assert (qp.q, qp.n, qp.k, qp.d) == (3, 9, 5, 3)
    assert not qp.d_is_exact
    # 2(k+1) = n - (n - 2k) + 2, so the bound saturates if it is attained
    assert singleton_check(qp) == "saturated"


def test_hermitian_construction_rejects_non_containing():
    so = grs_generator(construct_family_A(ConstructionParams(3, 1, 1, 3)))
    with pytest.raises(NotDualContaining):
        hermitian_construction(so)


def test_hermitian_construction_rejects_inflated_claim():
    code = construct_full_field(field_for_q(3), 2)  # certificate says 3
    with pytest.raises(VerificationFailure):
        hermitian_construction(code, distance_lb=5)


def test_hermitian_construction_full_space():
    f = field_for_q(3)
    full = LinearCode(field=f, generator=Matrix.identity(f, 6), known_distance=1)
    qp = hermitian_construction(full)
    assert (qp.n, qp.k, qp.d) == (6, 6, 1)
    assert singleton_check(qp) == "saturated"


def test_two_derivation_routes_agree():
    # self-orthogonal [8,2] -> [[8,4,3]] directly, or via its [8,6] dual
    so = grs_generator(construct_family_A(ConstructionParams(3, 1, 1, 3)))
    direct = quantum_mds_from_self_orthogonal(so)
    via_dual = hermitian_construction(hermitian_dual(so), distance_lb=3)
    assert (direct.n, direct.k, direct.d) == (via_dual.n, via_dual.k, via_dual.d)
    assert direct.d_is_exact and not via_dual.d_is_exact


def test_ladder_quantum_constructed_sweep():
    # every in-window (variant, d) for the two cheapest q, built end to end
    for q in (3, 5):
        for variant in range(1, 7):
            dmax = q + 1 if variant in (1, 2) else q
            start = 2 if variant in (1, 3, 5) else 3
            for d in range(start, dmax + 1, 2):
                qp = theorem_mp7(q, d, variant)
                assert (qp.n, qp.k) == mp7_shape(q, d, variant), (q, d, variant)
                assert qp.d == d and not qp.d_is_exact
                assert qp.ancestor["certification"] == "FULL"
                assert singleton_check(qp) != "violated"


def test_ladder_closed_forms_symbolically():
    offsets = {1: 6, 2: 5, 3: 4, 4: 3, 5: 2, 6: 1}
    lengths = {1: 2, 2: 2, 3: 0, 4: 0, 5: -2, 6: -2}
    for q in (7, 9, 11, 13):
        for variant in range(1, 7):
            dmax = q + 1 if variant in (1, 2) else q
            start = 2 if variant in (1, 3, 5) else 3
            for d in range(start, dmax + 1, 2):
                assert mp7_in_range(q, d, variant)
                n, k = mp7_shape(q, d, variant)
                assert n == 2 * q * q + lengths[variant]
                assert k + 3 * d == 2 * q * q + offsets[variant]
    assert not mp7_in_range(5, 8, 5)
    assert not mp7_in_range(5, 3, 1)  # wrong parity
    assert not mp7_in_range(5, 1, 2)


def test_ladder_forced_is_formula_only():
    qp = theorem_mp7(5, 8, 5, force=True)
    assert (qp.n, qp.k, qp.d) == (48, 28, 8)
    assert qp.ancestor["certification"] == "FORMULA-ONLY"
    checks = qp.ancestor["construction_checks"]
    assert checks["output_dual_containing"] is False


@pytest.mark.parametrize("q, d, variant", [(3, 8, 5), (5, 18, 5), (3, 8, 3)])
def test_forced_ladder_with_a_negative_quantum_dimension_is_refused(q, d, variant):
    # the closed forms give [[16, -4, 8]], [[48, -2, 18]] and [[18, -2, 8]]
    assert mp7_shape(q, d, variant)[1] < 0
    with pytest.raises(DimensionOutOfRange):
        theorem_mp7(q, d, variant, force=True)


def test_table_shape_and_order(table_rows):
    assert [(r.ancestor["q"], r.ancestor["d"], r.ancestor["variant"]) for r in table_rows] == [
        (q, d, v) for q, d, v, _ in TABLE1_LAYOUT
    ]
    got = [(r.n, r.k, r.d, r.q) for r in table_rows]
    assert got == [
        (20, 14, 3, 3),
        (48, 28, 8, 5),
        (52, 44, 4, 5),
        (52, 40, 5, 5),
        (96, 64, 12, 7),
        (100, 92, 4, 7),
        (164, 152, 5, 9),
        (164, 156, 4, 9),
    ]


def test_table_certification_split(table_rows):
    certs = [r.ancestor["certification"] for r in table_rows]
    assert certs.count("FULL") == 6
    assert certs.count("FORMULA-ONLY") == 2
    for row in table_rows:
        if row.ancestor["certification"] == "FORMULA-ONLY":
            assert "range_conflict" in row.ancestor
            assert "classical" not in row.ancestor  # nothing was constructed
        else:
            assert row.ancestor["classical"][0] == row.n


def test_table_rows_beat_prior_parameters(table_rows):
    for row in table_rows:
        prior = row.ancestor["compare"]
        assert (row.n, row.d) >= (prior["n"], prior["d"])
        better_k = row.k > prior["k"]
        better_d = row.k == prior["k"] and row.d > prior["d"]
        assert better_k or better_d, (row.n, row.k, row.d)


def test_no_violated_records_anywhere(table_rows):
    for row in table_rows:
        assert singleton_check(row) != "violated"
