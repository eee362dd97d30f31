"""Property tests: the exhaustive distance enumerator and the column
independence floor against naive oracles.

`min_distance_exact` arranges the columns so that the last generator row is
(1, ..., 1, 0, ..., 0) and scores all q^2 multiples of that row at once.
The node that fixes every row but the last two, u, with r the row above the
last, scores its children u + c' r + c by the most points (r_j, u_j) on one
line, counting the slopes `Field.line_slopes` names pair by pair; only
k >= 3 reaches it.  With m >= q^2 points, or over a field with no addition
table, it scores its q^2 children u + c' r in one pass each through
`Field.sums` instead, without adding them out, and counts their tail zeros
apart when m < n.  Here it is compared
with two enumerators that take no such shortcut: `naive_min_distance`
(every message, from tests/test_verify.py) over GF(4), GF(9), GF(25) and
GF(49), up to k = 4 over GF(9) and k = 3 over GF(25), and, over GF(529),
where the naive one is too slow, the earlier depth-first enumerator that
adds every codeword out in full.  Generator entries are mostly drawn with
many zeros, so last rows that are zero on some columns (m < n) and k = 1
codes are common; the deepest codes are also drawn with no zero entry, so
m = n.

The line count is also compared with the depth-first enumerator on codes
with k = 3 to 5 over GF(9), GF(25) and GF(49), drawn with columns that are
multiples of others (points at one place), columns whose last two entries
are a multiple of another's (a vertical pair, equal r) and zeros on the
last row (a tail); GF(4) codes of length 5 to 9 with no zero on the last
row have m >= q^2 and must take the word path.  Explicit codes of conic
points pin what a pair at one point, a vertical pair and the tail each add
to a line.

The floor check `min_distance_at_least` must answer d >= w exactly as the
naive distance does, for every w up to the Singleton bound.  Its walk
`_subsets_independent` shares each prefix's elimination among all the
subsets that extend it; over GF(4) (characteristic 2, where -1 = 1),
GF(9) and GF(25) (add tables) and GF(529) (Zech sums) it is compared with
testing every subset on its own with the earlier basis-building version,
which works element by element through the field's methods.  Half the
inputs are square, vectors of length s as every MDS claim walks them:
there a vector not yet chosen is zero at the pivots of those chosen, so
with three left the walk reads each later vector, reduced against the next
one, only at the two free columns beside its pivot, as a point of the
projective line.  Explicit cases over GF(4), GF(9) and GF(529) pin the
dependences the square walk must catch: a proportional pair at s = 2, a
collinear triple at s = 3 with one vector zero at the pivot, a multiple of
the pivot that reduces to zero, and a pivot past a zero entry, which
leaves a column before it free.

An MDS claim on a code with k < n - k is walked on the k-subsets of the
generator's columns instead.  On such codes over GF(4), GF(9), GF(25) and
GF(529), GRS codes and random ones, some made non-MDS by one repeated or
combined column, the floor at w = n - k + 1 must agree with the naive distance (the depth-first
enumerator over GF(529)) and with the parity-check walk called directly.

`run_checks` reaches both oracles by one route: enumerate when q^(2k) fits
the cap, else test the column floor (twice for an exact claim w, at w and
w + 1).  With caps on both sides of q^(2k), its min-distance and mds
verdicts on random distance claims, exact or lower bounds, and its mds
verdict on the same generator claiming n - k + 1, must agree with the naive
distance over GF(4), GF(9) and GF(25).
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qmds.gf import Field, field_new
from qmds.grs import LinearCode
from qmds.linalg import Matrix, nullspace, rank, transpose
from qmds.mpc import mixer_prefix_distances
from qmds.verify import (
    _subsets_independent,
    min_distance_at_least,
    min_distance_exact,
    run_checks,
)

from test_verify import naive_min_distance

# field and the largest k whose q^(2k) messages the naive oracle can walk
SMALL_FIELDS = [(field_new(2), 4), (field_new(3), 3), (field_new(5), 2), (field_new(7), 2)]
GF529 = field_new(23)
# k >= 3 reaches the deepest node: it counts lines when m < q^2, else words
DEEP_FIELDS = [(field_new(3), 4), (field_new(5), 3)]

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
def codes(draw, fields, k_min=1, zeros=True):
    f, k_max = draw(st.sampled_from(fields))
    k = draw(st.integers(k_min, k_max))
    n = draw(st.integers(k, k + 5))
    entry = st.one_of(st.just(0), st.integers(0, f.q2 - 1)) if zeros else st.integers(1, f.q2 - 1)
    data = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=k, max_size=k))
    gen = Matrix(f, data, cols=n)
    assume(rank(gen) == k)
    return LinearCode(field=f, generator=gen)


@PROPERTY
@given(
    st.one_of(
        codes(SMALL_FIELDS),
        codes(SMALL_FIELDS[:2], k_min=3),
        codes(DEEP_FIELDS, k_min=3),
        codes(DEEP_FIELDS, k_min=3, zeros=False),
    )
)
def test_exact_distance_matches_every_message(code):
    # a cap of exactly q^(2k) messages admits the code
    cap = code.field.q2**code.k
    assert min_distance_exact(code, cap=cap) == naive_min_distance(code.field, code.generator)


@PROPERTY
@given(codes([(GF529, 2)]))
def test_exact_distance_without_add_table_matches_full_words(code):
    assert min_distance_exact(code) == dfs_min_distance(code.field, code.generator)


def distance_and_path(code) -> tuple[int, bool]:
    """min_distance_exact of the code, and whether its deepest node counted
    the lines through its points rather than its q^2 words."""
    kernel, paths = Field.line_slopes, []

    def spy(f, r, m):
        slopes = kernel(f, r, m)
        paths.append(slopes is not None)
        return slopes

    Field.line_slopes = spy
    try:
        d = min_distance_exact(code, cap=code.field.q2**code.k)
    finally:
        Field.line_slopes = kernel
    return d, any(paths)


# field and the largest k whose scalar classes dfs_min_distance can walk
LINE_FIELDS = [(field_new(3), 5), (field_new(5), 4), (field_new(7), 3)]


@st.composite
def line_codes(draw):
    """A code with 3 <= k and fewer than q^2 columns on the last row's
    support, drawn column by column.  Some columns are nonzero multiples of
    others, so that their points (r_j, u_j) sit at one place in every node;
    some have their last two entries a multiple of another's, so that r_j
    is equal and the pair is vertical; and the last row is zero on some
    columns, the tail."""
    f, k_max = draw(st.sampled_from(LINE_FIELDS))
    k = draw(st.integers(3, k_max))
    n = draw(st.integers(k, min(k + 6, f.q2 - 1)))
    entry = st.integers(0, f.q2 - 1)
    if draw(st.booleans()):
        entry = st.one_of(st.just(0), entry)
    cols = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=n, max_size=n))
    copies = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(1, f.q2 - 1))
    for a, b, c in draw(st.lists(copies, max_size=3)):
        cols[b] = [f.mul(c, x) for x in cols[a]]
    for a, b, c in draw(st.lists(copies, max_size=3)):
        cols[b][-2:] = [f.mul(c, x) for x in cols[a][-2:]]
    for j in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        cols[j][-1] = 0
    gen = transpose(Matrix(f, cols, cols=k))
    assume(rank(gen) == k)
    return LinearCode(field=f, generator=gen)


@PROPERTY
@given(line_codes())
def test_line_count_matches_every_class(code):
    d, lines = distance_and_path(code)
    assert lines
    assert d == dfs_min_distance(code.field, code.generator)


@PROPERTY
@given(codes([(field_new(2), 5)], k_min=3, zeros=False))
def test_gf4_codes_of_four_points_or_more_count_words(code):
    # the last row has no zero, so m = n >= 4 = q^2 points
    assume(code.n >= 5)
    d, lines = distance_and_path(code)
    assert not lines
    assert d == naive_min_distance(code.field, code.generator)


def conic_columns(f, xs):
    """Columns (x^2, x, 1) over f: rows u, r and the last, so that each
    column's point is (x, x^2), on a conic, no three on one line."""
    return [[f.mul(x, x), x, 1] for x in xs]


def repeated_point(f):
    """Four conic points and the first again: the line through x = 1 and
    x = omega holds three columns, and only the pair at x = 1 itself, seen
    from its first column, puts the third on it."""
    w = f.omega
    return conic_columns(f, [1, 0, w, f.add(w, 1), 1]), 2


def vertical_pair(f):
    """Three conic points and a fourth column at x = 1 off the conic: a
    vertical pair, which lies on no line of the node.  Counted on every
    line through x = 1, it would make the line to x = omega hold three."""
    return conic_columns(f, [0, 1, f.omega]) + [[f.add(f.omega, 1), 1, 1]], 2


def tail_on_a_line(f):
    """Four conic points and two tail columns: one zero, a zero of every
    word, and one whose slope u / r = 1 + omega is that of the line through
    x = 1 and x = omega, so that line holds four zeros."""
    w = f.omega
    return conic_columns(f, [0, 1, w, f.add(w, 1)]) + [[0, 0, 0], [f.add(w, 1), 1, 0]], 2


@pytest.mark.parametrize("f", [field_new(3), field_new(7)], ids=["GF9", "GF49"])
@pytest.mark.parametrize("case", [repeated_point, vertical_pair, tail_on_a_line])
def test_the_line_count_pins_each_reserved_key(f, case):
    # the lightest word is a child of the one node, u + c' r + c
    cols, d = case(f)
    code = LinearCode(field=f, generator=transpose(Matrix(f, cols, cols=3)))
    assert rank(code.generator) == 3
    assert naive_min_distance(f, code.generator) == d
    assert distance_and_path(code) == (d, True)


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


# GF(4) has characteristic 2, where -1 = 1; GF(529) adds by Zech logs
WALK_FIELDS = [field_new(2), field_new(3), field_new(5), GF529]


@st.composite
def walk_inputs(draw):
    """A field, a subset size s and s to s + 3 vectors of length r >= s,
    with r = s (the square case of every MDS claim) in half the lists.
    Half the lists get a combination of at most s - 1 of their vectors
    inserted, so that some s of them are dependent, and half the lists are
    sparse, so that zero and proportional vectors are common."""
    f = draw(st.sampled_from(WALK_FIELDS))
    r = draw(st.integers(1, 6))
    s = r if draw(st.booleans()) else draw(st.integers(1, r))
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


def scaled(f, c, v):
    return [f.mul(c, x) for x in v]


def proportional_pair(f):
    """Four vectors of length 2, the last -1 times the first: the leaf at
    s = 2 runs with no walk above it."""
    u = [1, f.omega]
    return [u, [0, 1], [1, 0], scaled(f, f.neg(1), u)], 2


def collinear_triple(f):
    """Four vectors of length 3, the last v + c u for the first two: u is
    zero at v's pivot, so it is read unreduced against v, while v + c u
    reduces to c u; the third, (0, 0, 1), leaves every other triple
    independent."""
    v, u, c = [1, f.omega, 1], [0, 1, f.omega], f.add(f.omega, 1)
    return [v, u, [0, 0, 1], [f.add(x, f.mul(c, y)) for x, y in zip(v, u)]], 3


def multiple_of_the_pivot(f):
    """Four vectors of length 3, the last omega times the first: against
    the first it reduces to zero, which no point stands for."""
    v = [1, f.omega, 1]
    return [v, [0, 1, f.omega], [0, 1, 0], scaled(f, f.omega, v)], 3


def pivot_past_a_zero(f):
    """Five vectors of length 4, the first zero at column 0, so that its
    pivot is column 1 and column 0 stays free below it; the last, (1, 0,
    omega, 1), is a combination of the second, third and fourth."""
    return [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, f.omega, 1]], 4


@pytest.mark.parametrize("f", [field_new(2), field_new(3), GF529], ids=["GF4", "GF9", "GF529"])
@pytest.mark.parametrize("case", [proportional_pair, collinear_triple, multiple_of_the_pivot, pivot_past_a_zero])
def test_the_square_walk_refutes_a_dependent_subset(f, case):
    vectors, s = case(f)
    assert len(vectors[0]) == s
    # the last vector makes some s of them dependent, and without it every
    # s are independent
    for vs, expected in ((vectors, False), (vectors[:-1], True)):
        assert all(naive_independent(f, subset) for subset in itertools.combinations(vs, s)) is expected
        assert _subsets_independent(f, vs, s) is expected


@st.composite
def wide_codes(draw, f, k_max):
    """A code with 1 <= k < n - k and n <= 3k + 4: a GRS code (columns
    v (1, a, ..., a^(k-1)) on distinct points a, so MDS) where the field has
    enough points, else random entries, dense or sparse.  Half the codes
    get one more column that combines at most k - 1 of the others (a zero
    column at k = 1, a scaled repeat with one), so that some k columns are
    dependent and the code is not MDS."""
    k = draw(st.integers(1, k_max))
    n = draw(st.integers(2 * k + 1, 3 * k + 4))
    combine = draw(st.booleans())
    entry = st.integers(0, f.q2 - 1)
    if n - combine <= f.q2 and draw(st.booleans()):
        points = draw(st.lists(entry, min_size=n - combine, max_size=n - combine, unique=True))
        cols = []
        for a in points:
            col = [draw(st.integers(1, f.q2 - 1))]
            for _ in range(k - 1):
                col.append(f.mul(col[-1], a))
            cols.append(col)
    else:
        if draw(st.booleans()):
            entry = st.one_of(st.just(0), entry)
        column = st.lists(entry, min_size=k, max_size=k)
        cols = draw(st.lists(column, min_size=n - combine, max_size=n - combine))
    if combine:
        combo = [0] * k
        for v in draw(st.lists(st.sampled_from(cols), max_size=k - 1)):
            c = draw(entry)
            combo = [f.add(x, f.mul(c, y)) for x, y in zip(combo, v)]
        cols.insert(draw(st.integers(0, len(cols))), combo)
    gen = transpose(Matrix(f, cols, cols=k))
    assume(rank(gen) == k)
    return LinearCode(field=f, generator=gen)


@pytest.mark.parametrize(
    "f, k_max", [*SMALL_FIELDS[:3], (GF529, 2)], ids=["GF4", "GF9", "GF25", "GF529"]
)
@PROPERTY
@given(data=st.data())
def test_mds_floor_on_generator_columns_matches_every_message(f, k_max, data):
    code = data.draw(wide_codes(f, k_max))
    r = code.n - code.k
    oracle = dfs_min_distance if f is GF529 else naive_min_distance
    mds = oracle(f, code.generator) == r + 1
    assert min_distance_at_least(code, r + 1) == mds
    assert _subsets_independent(f, transpose(nullspace(code.generator)).data, r) == mds


@st.composite
def claimed_codes(draw):
    """A code over GF(4), GF(9) or GF(25) with a known or lower-bound
    distance claim, often the MDS one n - k + 1 and sometimes past n + 1,
    and a cap that admits its q^(2k) messages or falls one short."""
    code = draw(codes(SMALL_FIELDS[:3]))
    claim = draw(st.one_of(st.just(code.n - code.k + 1), st.integers(0, code.n + 2)))
    claims = {"known_distance" if draw(st.booleans()) else "claimed_distance_lb": claim}
    cap = code.field.q2**code.k - draw(st.sampled_from([0, 1]))
    return code, claims, cap


@PROPERTY
@given(claimed_codes())
def test_distance_checks_take_one_route_to_the_naive_verdict(inputs):
    code, claims, cap = inputs
    d = naive_min_distance(code.field, code.generator)
    [(kind, claim)], w = claims.items(), code.n - code.k + 1
    enumerated = cap >= code.field.q2**code.k
    distance, mds = run_checks(code, ("min-distance", "mds"), claims, cap)["checks"]
    # an exact claim is checked as one on either side of the cap
    holds = d == claim if kind == "known_distance" else d >= claim
    assert distance["verdict"] == ("pass" if holds else "fail"), (d, claim)
    assert distance["method"].startswith("exhaustive") == enumerated
    if claim == w:
        assert mds["verdict"] == ("pass" if d == w else "fail")
        assert mds["method"].startswith("exhaustive") == enumerated
    else:
        assert mds["verdict"] == "skipped"
    # the same generator claiming d >= w: its mds check passes exactly when d = w
    (mds,) = run_checks(code, ("mds",), {"claimed_distance_lb": w}, cap)["checks"]
    assert mds["verdict"] == ("pass" if d == w else "fail")
