"""Property tests: the exhaustive distance enumerator and the column
independence floor against naive oracles.

`min_distance_exact` arranges the columns so that the last generator row is
(1, ..., 1, 0, ..., 0) and scores all q^2 multiples of that row at once.
Here it is compared with two enumerators that take no such shortcut:
`naive_min_distance` (every message, from tests/test_verify.py) over GF(4),
GF(9), GF(25) and GF(49), and, over GF(529), where the naive one is too
slow, the earlier depth-first enumerator that adds every codeword out in
full.  Generator entries are drawn with many zeros, so last rows that are
zero on some columns (m < n) and k = 1 codes are common.

The floor check `min_distance_at_least` must answer d >= w exactly as the
naive distance does, for every w up to the Singleton bound.  Its walk
`_subsets_independent` shares each prefix's elimination among all the
subsets that extend it; over GF(529) (Zech sums) and GF(9) (add table) it
is compared with testing every subset on its own with the earlier
basis-building version, which works element by element through the
field's methods.

`run_checks` reaches both oracles by one route: enumerate when q^(2k) fits
the cap, else test the column floor (twice for an exact claim w, at w and
w + 1).  With caps on both sides of q^(2k), its min-distance and mds
verdicts on random distance claims, exact or lower bounds, and `is_mds`,
must agree with the naive distance over GF(4), GF(9) and GF(25).
"""

from __future__ import annotations

import itertools

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qmds.gf import field_new
from qmds.grs import LinearCode
from qmds.linalg import Matrix, rank
from qmds.mpc import mixer_prefix_distances
from qmds.verify import (
    _subsets_independent,
    is_mds,
    min_distance_at_least,
    min_distance_exact,
    run_checks,
)

from test_verify import naive_min_distance

# field and the largest k whose q^(2k) messages the naive oracle can walk
SMALL_FIELDS = [(field_new(2), 4), (field_new(3), 3), (field_new(5), 2), (field_new(7), 2)]
GF529 = field_new(23)

# fixed example sequence, so every run of the suite checks the same codes
PROPERTY = settings(deadline=None, derandomize=True, max_examples=80)


def dfs_min_distance(f, gen: Matrix) -> int:
    """The earlier enumerator: one representative per scalar class (first
    nonzero coefficient 1), each codeword added out in full."""
    k, n = gen.rows, gen.cols
    mult = [[[f.mul(c, x) for x in row] for c in range(f.q2)] for row in gen.data]
    best = n

    def dfs(level, acc):
        nonlocal best
        if level == k:
            best = min(best, n - acc.count(0))
            return
        dfs(level + 1, acc)
        for c in range(1, f.q2):
            dfs(level + 1, [f.add(x, y) for x, y in zip(acc, mult[level][c])])

    for lead in range(k):
        dfs(lead + 1, mult[lead][1])
    return best


@st.composite
def codes(draw, fields, k_min=1):
    f, k_max = draw(st.sampled_from(fields))
    k = draw(st.integers(k_min, k_max))
    n = draw(st.integers(k, k + 5))
    entry = st.one_of(st.just(0), st.integers(0, f.q2 - 1))
    data = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=k, max_size=k))
    gen = Matrix(f, data, cols=n)
    assume(rank(gen) == k)
    return LinearCode(field=f, generator=gen)


@PROPERTY
@given(st.one_of(codes(SMALL_FIELDS), codes(SMALL_FIELDS[:2], k_min=3)))
def test_exact_distance_matches_every_message(code):
    # a cap of exactly q^(2k) messages admits the code
    cap = code.field.q2**code.k
    assert min_distance_exact(code, cap=cap) == naive_min_distance(code.field, code.generator)


@PROPERTY
@given(codes([(GF529, 2)]))
def test_exact_distance_without_add_table_matches_full_words(code):
    assert min_distance_exact(code) == dfs_min_distance(code.field, code.generator)


@PROPERTY
@given(codes(SMALL_FIELDS))
def test_mixer_prefix_distances_match_every_message(code):
    f, rows = code.field, code.generator.data
    expected = [naive_min_distance(f, Matrix(f, rows[:i])) for i in range(1, len(rows) + 1)]
    assert mixer_prefix_distances(code.generator) == expected


@PROPERTY
@given(codes(SMALL_FIELDS))
def test_floor_check_matches_every_message(code):
    d = naive_min_distance(code.field, code.generator)
    for w in range(1, code.n - code.k + 2):
        assert min_distance_at_least(code, w) == (d >= w), w


def naive_independent(f, vectors) -> bool:
    """The earlier subset test: reduce each vector against a growing basis,
    one field method call per element."""
    basis: list[tuple[int, list[int]]] = []
    for v in vectors:
        v = list(v)
        for piv, b in basis:
            c = v[piv]
            if c:
                v = [f.sub(x, f.mul(c, y)) for x, y in zip(v, b)]
        piv = next((i for i, x in enumerate(v) if x), None)
        if piv is None:
            return False
        scale = f.inv(v[piv])
        basis.append((piv, [f.mul(scale, x) for x in v]))
    return True


@st.composite
def walk_inputs(draw):
    """A field, a subset size s and s to s + 3 vectors of length r >= s.
    Half the lists get a combination of at most s - 1 of their vectors
    inserted, so that some s of them are dependent, and half the lists are
    sparse, so that zero and proportional vectors are common."""
    f = draw(st.sampled_from([GF529, field_new(3)]))
    r = draw(st.integers(1, 6))
    s = draw(st.integers(1, r))
    entry = st.integers(0, f.q2 - 1)
    if draw(st.booleans()):
        entry = st.one_of(st.just(0), entry)
    vectors = draw(st.lists(st.lists(entry, min_size=r, max_size=r), min_size=s, max_size=s + 3))
    if draw(st.booleans()):
        combo = [0] * r
        for v in draw(st.lists(st.sampled_from(vectors), max_size=s - 1)):
            c = draw(entry)
            combo = [f.add(x, f.mul(c, y)) for x, y in zip(combo, v)]
        vectors.insert(draw(st.integers(0, len(vectors))), combo)
    return f, vectors, s


@PROPERTY
@given(walk_inputs())
def test_independent_matches_basis_building_oracle(inputs):
    f, vectors, s = inputs
    before = [list(v) for v in vectors]
    expected = all(
        naive_independent(f, subset) for subset in itertools.combinations(vectors, s)
    )
    assert _subsets_independent(f, vectors, s) == expected
    assert vectors == before  # columns are copied before they are reduced


@st.composite
def claimed_codes(draw):
    """A code over GF(4), GF(9) or GF(25) with a known or lower-bound
    distance claim, often the MDS one n - k + 1 and sometimes past n + 1,
    and a cap that admits its q^(2k) messages or falls one short."""
    code = draw(codes(SMALL_FIELDS[:3]))
    claim = draw(st.one_of(st.just(code.n - code.k + 1), st.integers(0, code.n + 2)))
    if draw(st.booleans()):
        code.known_distance = claim
    else:
        code.claimed_distance_lb = claim
    cap = code.field.q2**code.k - draw(st.sampled_from([0, 1]))
    return code, cap


@PROPERTY
@given(claimed_codes())
def test_distance_checks_take_one_route_to_the_naive_verdict(inputs):
    code, cap = inputs
    d = naive_min_distance(code.field, code.generator)
    claim, w = code.distance_claim, code.n - code.k + 1
    enumerated = cap >= code.field.q2**code.k
    distance, mds = run_checks(code, ("min-distance", "mds"), None, cap).checks
    # an exact claim is checked as one on either side of the cap
    holds = d == claim if code.known_distance is not None else d >= claim
    assert distance.verdict == ("pass" if holds else "fail"), (d, claim)
    assert distance.method.startswith("exhaustive") == enumerated
    if claim == w:
        assert mds.verdict == ("pass" if d == w else "fail")
        assert mds.method.startswith("exhaustive") == enumerated
    else:
        assert mds.verdict == "skipped"
    assert is_mds(code, cap) == (d == w)
