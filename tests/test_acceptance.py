"""Acceptance gate: nine end-to-end criteria, one test and one printed
verdict line each.

Each test prints "ACCEPTANCE n: PASS/FAIL - detail" straight to the real
stdout so the lines survive pytest's capture, then asserts.  Run the file
alone with `pytest tests/test_acceptance.py` to see the scoreboard.
"""

from __future__ import annotations

import random
import sys
import time

from qmds.gf import field_for_q
from qmds.grs import (
    ConstructionParams,
    GrsSpec,
    LinearCode,
    construct_family_A,
    construct_family_B,
    construct_family_C,
    extended_self_orthogonal,
    full_field_spec,
    grs_generator,
    hermitian_gram,
    power_sum,
    valid_parameter_sets,
)
from qmds.linalg import Matrix, nullspace, rank, row_equivalent
from qmds.mpc import MpcSpec, matrix_product, mixer_prefix_distances, mpc_dual, pair_construction, pair_mixer
from qmds.quantum import mp7_shape, quantum_mds_from_self_orthogonal, singleton_check, table1
from qmds.verify import dual_containing_check, min_distance_exact

SWEEP_Q = (3, 5, 7, 9, 11, 13)
FAMILIES = (
    ("grs-a", construct_family_A),
    ("grs-b", construct_family_B),
    ("grs-c", construct_family_C),
)


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}", file=sys.__stdout__)
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_gram_zero_sweep():
    start = time.perf_counter()
    tuples = 0
    clean = True
    for q in SWEEP_Q:
        for family, ctor in FAMILIES:
            for params in valid_parameter_sets(family, q):
                code = grs_generator(ctor(params))
                tuples += 1
                if not hermitian_gram(code).is_zero():
                    clean = False
    elapsed = time.perf_counter() - start
    ok = clean and elapsed < 30
    _verdict(
        1,
        ok,
        f"{tuples} (family, a, m, d) tuples across q in {SWEEP_Q}, "
        f"all Gram matrices zero, {elapsed:.1f} s (budget 30 s)",
    )


def test_criterion_2_mds_certification():
    cap = 2**20
    start = time.perf_counter()
    checked = 0
    failures = []
    spot = {}
    for q in SWEEP_Q:
        field = field_for_q(q)
        specs = [
            ctor(params)
            for family, ctor in FAMILIES
            for params in valid_parameter_sets(family, q)
        ]
        specs.extend(full_field_spec(field, k) for k in range(1, q))
        for spec in specs:
            if field.q2**spec.k > cap:
                continue
            code = grs_generator(spec)
            d = min_distance_exact(code, cap=cap)
            checked += 1
            if d != code.n - code.k + 1:
                failures.append((q, code.n, code.k, d))
            spot[(q, code.n, code.k)] = d
    elapsed = time.perf_counter() - start
    named = spot.get((3, 8, 2)) == 7 and spot.get((3, 9, 2)) == 8
    ok = not failures and named and checked > 0
    _verdict(
        2,
        ok,
        f"{checked} GRS codes with q^2k <= 2^20 all meet d = n - k + 1 "
        f"([8,2] -> 7, [9,2] -> 8 included), {elapsed:.1f} s",
    )


def test_criterion_3_quantum_mds_reproduction():
    cases = [
        (construct_family_A, (3, 1, 1, 3), (3, 8, 4, 3)),
        (construct_family_A, (5, 2, 1, 4), (5, 12, 6, 4)),
        (construct_family_B, (5, 1, 3, 4), (5, 8, 2, 4)),
        (construct_family_C, (3, 0, 4, 3), (3, 6, 2, 3)),
        (construct_family_C, (5, 0, 6, 5), (5, 20, 12, 5)),
    ]
    got = []
    ok = True
    for ctor, args, want in cases:
        record = quantum_mds_from_self_orthogonal(grs_generator(ctor(ConstructionParams(*args))))
        got.append(f"[[{record.n},{record.k},{record.d}]]_{record.q}")
        if (record.q, record.n, record.k, record.d) != want:
            ok = False
        if singleton_check(record) != "saturated":
            ok = False
    _verdict(3, ok, f"{', '.join(got)} all emitted and Singleton-saturated")


def test_criterion_4_duality_identity():
    f = field_for_q(3)
    rng = random.Random(0xD0A1)
    trials, good = 60, 0
    for _ in range(trials):
        m = rng.randrange(2, 7)
        codes = []
        for _ in range(2):
            while True:
                k = rng.randrange(1, m + 1)
                gen = Matrix(f, [[rng.randrange(f.q2) for _ in range(m)] for _ in range(k)])
                if rank(gen) == k:
                    codes.append(LinearCode(field=f, generator=gen))
                    break
        while True:
            mixer = Matrix(f, [[rng.randrange(f.q2) for _ in range(2)] for _ in range(2)])
            if rank(mixer) == 2:
                break
        spec = MpcSpec(codes=tuple(codes), mixer=mixer)
        claimed = mpc_dual(spec)
        oracle = nullspace(matrix_product(spec).generator)
        if claimed.k == oracle.rows and (not oracle.rows or row_equivalent(claimed.generator, oracle)):
            good += 1
    ok = good == trials
    _verdict(4, ok, f"dual-of-product identity held in {good}/{trials} random F_9 instances (m <= 6, s = 2)")


def test_criterion_5_product_bound_and_dimension():
    f = field_for_q(3)
    rng = random.Random(0xB0)
    trials, good = 60, 0
    for _ in range(trials):
        m = rng.randrange(2, 5)
        codes = []
        for _ in range(2):
            while True:
                k = rng.randrange(1, min(m, 2) + 1)
                gen = Matrix(f, [[rng.randrange(f.q2) for _ in range(m)] for _ in range(k)])
                if rank(gen) == k:
                    code = LinearCode(field=f, generator=gen)
                    code.claimed_distance_lb = min_distance_exact(code)
                    codes.append(code)
                    break
        while True:
            mixer = Matrix(f, [[rng.randrange(f.q2) for _ in range(2)] for _ in range(2)])
            if rank(mixer) == 2:
                break
        spec = MpcSpec(codes=tuple(codes), mixer=mixer)
        prod = matrix_product(spec)
        deltas = mixer_prefix_distances(mixer)
        bound = min(c.claimed_distance_lb * delta for c, delta in zip(codes, deltas))
        exact = min_distance_exact(prod)
        if prod.k == sum(c.k for c in codes) and prod.claimed_distance_lb == bound and exact >= bound:
            good += 1
    ok = good == trials
    _verdict(5, ok, f"bound min(d_i * delta_i) <= exact d and dim = k1 + k2 in {good}/{trials} instances")


def test_criterion_6_table_reproduction():
    start = time.perf_counter()
    rows = table1()
    elapsed = time.perf_counter() - start
    want = [
        (3, 20, 14, 3, "FULL"),
        (5, 48, 28, 8, "FORMULA-ONLY"),
        (5, 52, 44, 4, "FULL"),
        (5, 52, 40, 5, "FULL"),
        (7, 96, 64, 12, "FORMULA-ONLY"),
        (7, 100, 92, 4, "FULL"),
        (9, 164, 152, 5, "FULL"),
        (9, 164, 156, 4, "FULL"),
    ]
    got = [(r.q, r.n, r.k, r.d, r.ancestor["certification"]) for r in rows]
    ok = got == want and elapsed < 120
    for row in rows:
        shape = mp7_shape(row.ancestor["q"], row.ancestor["d"], row.ancestor["variant"])
        if (row.n, row.k) != shape:
            ok = False
        if row.ancestor["certification"] == "FULL" and "classical" not in row.ancestor:
            ok = False  # FULL must mean a constructed, verified ancestor
        if row.ancestor["certification"] == "FORMULA-ONLY" and "range_conflict" not in row.ancestor:
            ok = False
    full = sum(1 for r in rows if r.ancestor["certification"] == "FULL")
    _verdict(
        6,
        ok,
        f"8 rows regenerated ({full} FULL, {8 - full} FORMULA-ONLY with documented conflicts), "
        f"{elapsed:.1f} s (budget 120 s)",
    )


def test_criterion_7_pair_self_invariance():
    from qmds.grs import construct_full_field
    from qmds.linalg import entrywise_frobenius, inverse, transpose

    ok = True
    for p in (3, 5, 7):
        field = field_for_q(p)
        mixer = pair_mixer(field)
        got = transpose(inverse(entrywise_frobenius(mixer)))
        half = (p + 1) // 2
        want = Matrix(field, [[half % p, half % p], [half % p, (half - 1) % p]])
        if got != want:
            ok = False
        paired = pair_construction(construct_full_field(field, 1), construct_full_field(field, 2))
        if not dual_containing_check(paired):
            ok = False
    _verdict(7, ok, "conjugated inverse-transpose matches the closed form entrywise for p in {3,5,7}; pair outputs dual-containing")


def test_criterion_8_gram_power_sum_equivalence():
    rng = random.Random(0x6E4)
    trials = 0
    agree = 0
    gram_zero_seen = 0

    def check(spec):
        nonlocal trials, agree, gram_zero_seen
        q = spec.field.q
        gram_zero = hermitian_gram(grs_generator(spec)).is_zero()
        sums_zero = all(
            power_sum(spec, q * j + l) == 0 for j in range(spec.k) for l in range(spec.k)
        )
        trials += 1
        if gram_zero:
            gram_zero_seen += 1
        if gram_zero == sums_zero:
            agree += 1

    for q in (3, 5):
        field = field_for_q(q)
        n_max = min(12, field.q2 - 1)
        for _ in range(100):
            n = rng.randrange(2, n_max + 1)
            k = rng.randrange(1, min(n, 4) + 1)
            points = rng.sample(range(field.q2), n)
            mults = [rng.randrange(1, field.q2) for _ in range(n)]
            check(GrsSpec(field=field, points=points, multipliers=mults, k=k))
        # seed the true branch with known self-orthogonal specs
        for family, ctor in FAMILIES:
            for params in valid_parameter_sets(family, q):
                if params.d - 1 <= 4:
                    check(ctor(params))
    ok = trials >= 200 and agree == trials and gram_zero_seen > 0
    _verdict(
        8,
        ok,
        f"gram = 0 iff all power sums vanish in {agree}/{trials} specs "
        f"({gram_zero_seen} hit the self-orthogonal branch)",
    )


def test_criterion_9_extended_realization():
    built = []
    ok = True
    for q in (3, 5, 7):
        field = field_for_q(q)
        for k in range(1, q + 1):
            code = extended_self_orthogonal(field, k)  # SolverFailure here fails the test
            if code.n != q * q + 1 or code.k != k:
                ok = False
            if not hermitian_gram(code).is_zero():
                ok = False
        built.append(f"q={q}: k=1..{q}")
    _verdict(9, ok, f"extended solver succeeded with Gram-zero certificates for {'; '.join(built)}")
