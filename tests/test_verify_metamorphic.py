"""Metamorphic verdict tests: a report belongs to the code and its claims,
not to the layout of its generator.

A column permutation, column scalars of norm one (lambda^(q+1) = 1) and
the entrywise Frobenius x -> x^q keep every weight, and keep a Hermitian
inner product zero exactly when it was zero; an invertible k x k row mix
changes the generator but not the code.  So run_checks on the image of a
generator under a composite of these must return the report it returns on
the generator itself: the same verdicts, methods, work counts and details.
The codes are every grs-a, grs-b and grs-c code, every full-field and
extended code and every certified mp6/mp7 ladder code at q = 3 and q = 5.
Both sides are fresh LinearCode objects with no carried Hermitian dual,
checked against the claims construct writes for the code.  The
constructed code object itself, which may carry its dual and a Gram
verdict, must get the same report: run_checks reads neither.

One column scaled by an element whose norm is not one is no such map, and
the orthogonality verdict must then be that of a naive Gram sum: over the
generator for a self-orthogonality claim, and over a naive basis of the
Hermitian dual for a dual-containment claim, since a code contains its
Hermitian dual exactly when that dual is self-orthogonal.
"""

from __future__ import annotations

import random
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmds.gf import field_for_q
from qmds.grs import GRS_FAMILIES, LinearCode, construct_extended, construct_full_field, grs_generator, valid_parameter_sets
from qmds.linalg import Matrix, rank
from qmds.mpc import LADDER_VARIANTS, ladder_in_window, mp6_ladder
from qmds.verify import CHECKS, run_checks

from test_linalg_properties import naive_hermitian_gram, naive_nullspace

# fixed example sequences, so every run of the suite checks the same
# images; each code gets its own few examples
IMAGES = settings(deadline=None, derandomize=True, max_examples=3)
SCALINGS = settings(IMAGES, max_examples=2)


def constructed_codes() -> dict[str, tuple[LinearCode, str]]:
    """name -> (code, orthogonality claim) for every code construct builds
    at q = 3 and q = 5; the mp7 files hold the mp6 ladder codes."""
    codes = {}
    for q in (3, 5):
        f = field_for_q(q)
        for family, (build, *_) in GRS_FAMILIES.items():
            for p in valid_parameter_sets(family, q):
                codes[f"{family}-q{q}-a{p.a}-d{p.d}"] = grs_generator(build(p)), "self-orthogonal"
        for k in range(1, q):
            codes[f"full-field-q{q}-k{k}"] = construct_full_field(f, k), "dual-containing"
        for k in range(1, q + 1):
            codes[f"extended-q{q}-k{k}"] = construct_extended(f, k), "dual-containing"
        for variant in LADDER_VARIANTS:
            # every ceiling is q or q + 1
            for d in range(2, q + 2):
                if ladder_in_window(q, d, variant):
                    codes[f"mp6-q{q}-d{d}-v{variant}"] = mp6_ladder(q, d, variant), "dual-containing"
    return codes


CODES = constructed_codes()
each_code = pytest.mark.parametrize("name", list(CODES))


def claims(code: LinearCode, orthogonality: str) -> dict:
    """The claims section construct writes for code."""
    return {"orthogonality": orthogonality, "claimed_distance_lb": code.claimed_distance_lb, "known_distance": None}


def fresh_report(code: LinearCode, rows: list[list[int]], orthogonality: str, checks=CHECKS) -> dict:
    """run_checks on a new code over rows, against code's claims."""
    f = code.field
    return run_checks(LinearCode(f, Matrix(f, rows, cols=code.n)), checks, claims(code, orthogonality))


@cache
def original_report(name: str) -> dict:
    code, orthogonality = CODES[name]
    return fresh_report(code, code.generator.data, orthogonality)


def invertible(f, k: int, rng: random.Random) -> list[list[int]]:
    while True:
        mix = [[rng.randrange(f.q2) for _ in range(k)] for _ in range(k)]
        if rank(Matrix(f, mix, cols=k)) == k:
            return mix


@st.composite
def isometric_images(draw, code: LinearCode) -> list[list[int]]:
    """The rows of an image of code's generator under permuted, norm-one
    scaled, perhaps conjugated columns and an invertible row mix."""
    f, n = code.field, code.n
    norm_one = [x for x in f.elements() if x and f.norm(x) == 1]
    assert len(norm_one) == f.q + 1
    perm = draw(st.permutations(range(n)))
    scalars = draw(st.lists(st.sampled_from(norm_one), min_size=n, max_size=n))
    rows = [f.vmul([row[j] for j in perm], scalars) for row in code.generator.data]
    if draw(st.booleans()):
        rows = [f.conjugate(row) for row in rows]
    image = []
    for coeffs in invertible(f, code.k, random.Random(draw(st.integers(0, 2**32 - 1)))):
        acc = [0] * n
        for c, row in zip(coeffs, rows):
            acc = f.vadd(acc, f.scale(c, row))
        image.append(acc)
    return image


@each_code
def test_the_constructed_code_gets_the_report_of_a_fresh_one(name):
    code, orthogonality = CODES[name]
    assert run_checks(code, CHECKS, claims(code, orthogonality)) == original_report(name)


@each_code
@IMAGES
@given(data=st.data())
def test_reports_are_invariant_under_hermitian_isometries_and_row_mixes(name, data):
    code, orthogonality = CODES[name]
    image = data.draw(isometric_images(code))
    assert fresh_report(code, image, orthogonality) == original_report(name)


@st.composite
def scaled_off_norm_one(draw, code: LinearCode) -> list[list[int]]:
    """code's generator rows with one column scaled by a nonzero element
    whose norm is not one."""
    f = code.field
    j = draw(st.integers(0, code.n - 1))
    mu = draw(st.sampled_from([x for x in f.elements() if x and f.norm(x) != 1]))
    return [row[:j] + [f.mul(mu, row[j])] + row[j + 1 :] for row in code.generator.data]


@each_code
@SCALINGS
@given(data=st.data())
def test_a_column_scaled_off_norm_one_gets_the_naive_gram_verdict(name, data):
    code, orthogonality = CODES[name]
    rows = data.draw(scaled_off_norm_one(code))
    f = code.field
    if orthogonality == "self-orthogonal":
        orthogonal_rows = rows
    else:  # the Hermitian dual is the kernel of the conjugated generator
        orthogonal_rows = naive_nullspace(Matrix(f, [[f.pow(x, f.q) for x in row] for row in rows], cols=code.n))
    zero = not any(map(any, naive_hermitian_gram(f, orthogonal_rows)))
    gram, contained = fresh_report(code, rows, orthogonality, ("gram", "dual-containing"))["checks"]
    check = gram if orthogonality == "self-orthogonal" else contained
    assert check["verdict"] == ("pass" if zero else "fail")
