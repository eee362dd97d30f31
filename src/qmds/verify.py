"""Independent certification oracles: exact distance by enumeration, distance
floors by column independence, MDS certification, and the two Hermitian
duality checks.  Everything here recomputes from the generator matrix and
reads no claim off the code object.  The one thing
dual_containing_check reads off the object, for the constructors, is the
code spanning its Hermitian dual: grs.hermitian_dual links the kernel it
computes back to its primal, and mpc.matrix_product keeps a product's dual
only after checking it on the two generators.  Every code qmds builds to
contain its dual carries that dual, so its containment verdict is the
dual's Gram verdict, kept on the dual once decided.  A report reads no
carried dual: run_checks decides containment by the rank route alone.

The exact distance is a depth-first walk over the generator's rows, one
scalar class at a time, once the columns are arranged to make the last row
all ones and zeros: each visited word scores all q^2 multiples of that row
from its most frequent entry.  A node that fixes every row but the last two
scores its q^4 children u + c' r + c by the column geometry of the code:
a column j among the m ones is a zero of one of them exactly when the point
(r_j, u_j) lies on a line of the plane, so the lightest child drops the
most points on one line, counted pair by pair over the slopes
Field.line_slopes names.  A node with m >= q^2 points, or over a field with
no addition table, adds its q^2 children out in full and scores each word
alone; each row's nonzero multiples are slices of the exp table,
transposed (Field.multiples); see _min_weight.

run_checks is the one place a file's claims become check results, for
`qmds verify` and for the certificate `qmds construct` writes, and a
report depends only on the generator, the claims and the cap.  It returns
the plain dict canonical_json prints, so a new check is one branch and a
new report field one key.  Its distance and MDS checks take one route:
enumerate when the q^(2k) messages fit the cap, else test the column
floor, else report the check skipped.  The floor tests d >= w on the
w - 1 subsets of the parity-check columns; an MDS claim on a code with
k < n - k is tested on the k-subsets of the generator's columns instead,
which are independent exactly when the code is MDS.  On either side an
MDS claim walks vectors of length s, the subset size.  A vector not yet
chosen is then zero at the pivots of those chosen and lives on the columns
left free, one per vector still to choose; with three left, the walk reads
each one only at the two free columns beside the next pivot, as a point of
the projective line (see _subsets_independent)."""

from __future__ import annotations

from collections import _count_elements
from functools import cache
from math import comb

from .errors import BadDimension, EnumerationTooLarge, WorkBudgetExceeded
from .gf import Field
from .grs import LinearCode, _check_dual_cells, is_self_orthogonal
from .linalg import Matrix, entrywise_frobenius, nullspace, row_space_contains, transpose

DEFAULT_ENUM_CAP = 1 << 22
DEFAULT_WORK_BUDGET = 10**8


def min_distance_exact(code: LinearCode, cap: int = DEFAULT_ENUM_CAP, workers: int = 1) -> int:
    """Exact minimum nonzero codeword weight by exhausting the message space.

    Scalar multiples of a codeword share its weight, so one representative
    per scalar class is scored (leading coefficient fixed to 1); the
    minimum over those equals the minimum over all q^(2k) messages, which
    is what the cap is measured against.  See _min_weight for how the
    classes are visited.
    """
    # workers stays only for callers that pass workers=1 (perfbench/workloads.py)
    if workers != 1:
        raise BadDimension(f"the enumeration runs in one process, got workers={workers}")
    f = code.field
    gen = code.generator
    k = gen.rows
    if k == 0:
        raise BadDimension("the zero code has no nonzero codewords")
    _require_enumerable(f, k, cap)
    return _min_weight(f, gen.data)


def _require_enumerable(f: Field, k: int, cap: int) -> None:
    """Refuse with EnumerationTooLarge when the q^(2k) messages of a k-row
    span exceed the cap."""
    messages = f.q2**k
    if messages > cap:
        count = _count(messages, f"{f.q2}^{k}")
        raise EnumerationTooLarge(f"q^2k = {count} messages exceed the cap of {cap}")


def _count(value: int, formula: str) -> str:
    """value in decimal, or the formula for it once the decimal form would
    pass 30 digits: Python refuses to print an int of more than 4300."""
    return str(value) if value < 10**30 else formula


def _min_weight(f: Field, rows: list[list[int]]) -> int:
    """Lightest nonzero word in the span of linearly independent rows.

    Weight is unchanged by permuting columns and scaling them by nonzero
    scalars, so the columns are arranged once to make the last row
    (1, ..., 1, 0, ..., 0) with m ones.  For a word u spanned by the other
    rows, u + c * last then has weight n - #{j >= m : u_j = 0} -
    #{j < m : u_j = -c}, and the lightest of those q^2 words drops the most
    frequent value of u[:m].  So a depth-first walk over the first k - 1
    rows (leading coefficient 1) scores q^2 codewords per visited word, and
    the class of the last row alone has weight m.

    Above the last of those k - 1 rows the walk adds each word out in full.
    A word u that fixes all of them but the last, r = head[-1], scores its
    q^4 children u + c' * r + c * last at once, from the points P_j = (r_j,
    u_j) of the plane (the column geometry of the code, MacWilliams-Sloane
    ch. 11).  Column j < m is a zero of the child exactly when P_j lies on
    the line y = -c' x - c, and a tail column j >= m exactly when u_j = -c'
    r_j: on every line of slope u_j / r_j, on every line when u_j = r_j = 0,
    and on none when r_j alone is zero.  So the lightest child has weight n
    minus the most points and tail columns on one non-vertical line.  The
    line through P_j that holds the most later points has the slope most of
    the pairs (P_j, P_i), i > j, share, with every pair at P_j itself on it
    and a vertical pair on none; _count_elements counts those slopes, which
    Field.line_slopes names, for each j.  That is m(m - 1)/2 pairs, where
    scoring the q^2 children one word each costs q^2 m, so a node takes it
    when m < q^2 and the field has an addition table.  Any other node adds
    its children out in full, as the walk does above it, and scores each.

    The q^2 - 1 nonzero multiples of each head row below the first are
    built once by Field.multiples, in the order of their scalars' logs:
    entry i of them runs along the exp slice from log row_i, so one
    transpose builds them all.  The order differs from the scalars' own,
    and best is a minimum, so the result does not depend on it.  A head of
    one row or none builds no multiples, and neither does r when its node
    counts lines.
    """
    head, m = _last_row_to_ones(f, rows)
    k1, n = len(head), len(rows[0])
    slopes = f.line_slopes(head[-1], m) if k1 > 1 and m < f.q2 else None
    # row 0 only ever enters with coefficient 1, and head[-1] only through
    # its multiples on the word path
    mults = [None] + [f.multiples(row) for row in head[1 : k1 - (slopes is not None)]]
    vadd = f.vadd
    vertical, same = f.q2, f.q2 + 1
    best = m

    def score_lines(u: list[int]) -> None:
        """Lower best to the lightest word u + c' * head[-1] + c * last over
        every c' and c: the most points and tail columns on one line."""
        nonlocal best
        tail, *pairs = slopes(u)
        base = {}
        _count_elements(base, tail)
        # a zero tail column is a zero of every word; a vertical one of none
        everywhere = base.pop(same, 0)
        base.pop(vertical, None)
        # a line through one point, of the slope most tail columns lie on
        top = max(base.values(), default=0)
        for keys in pairs:
            counts = base.copy()
            _count_elements(counts, keys)
            at_point = counts.pop(same, 0)
            counts.pop(vertical, None)
            if counts:
                at_point += max(counts.values())
            if at_point > top:
                top = at_point
        w = n - 1 - everywhere - top
        if w < best:
            best = w

    def score(u: list[int]) -> None:
        """Lower best to the lightest word u + c * last over every c."""
        nonlocal best
        # _count_elements is the C loop Counter runs; calling it on a plain
        # dict skips Counter's construction and type checks, which cost more
        # than the count itself on words this short
        counts = {}
        _count_elements(counts, u[:m])
        w = n - u[m:].count(0) - max(counts.values())
        if w < best:
            best = w

    def dfs(level: int, acc: list[int]) -> None:
        if level == k1:  # the class led by the last row of head
            score(acc)
        elif level == k1 - 1 and slopes is not None:
            score_lines(acc)
        else:
            dfs(level + 1, acc)
            for v in mults[level]:
                dfs(level + 1, vadd(acc, v))

    for lead, row in enumerate(head):
        dfs(lead + 1, row)
    # dfs refers to itself through its closure; clearing that cell frees it
    # now instead of leaving a reference cycle for the collector
    del dfs
    return best


def _last_row_to_ones(f: Field, rows: list[list[int]]) -> tuple[list[list[int]], int]:
    """The rows above the last, with columns permuted and scaled so that the
    last row reads (1, ..., 1, 0, ..., 0); and m, its number of ones."""
    last = rows[-1]
    support = [j for j, x in enumerate(last) if x]
    zeros = [j for j, x in enumerate(last) if not x]
    scales = [last[j] for j in support]
    head = [f.vdiv([r[j] for j in support], scales) + [r[j] for j in zeros] for r in rows[:-1]]
    return head, len(support)


def enumeration_classes(code: LinearCode) -> int:
    """How many scalar classes min_distance_exact expands for this code."""
    q2, k = code.field.q2, code.k
    return (q2**k - 1) // (q2 - 1)


def min_distance_at_least(code: LinearCode, w: int) -> bool:
    """True exactly when d >= w: every (w-1)-subset of parity-check columns
    must be linearly independent.

    An MDS claim, w - 1 = n - k, with 0 < k < n - k is tested on the
    smaller side instead: d = n - k + 1 exactly when every k columns of the
    generator are independent (MacWilliams-Sloane, ch. 11).  A nonzero
    codeword of weight at most n - k vanishes on some k coordinates S, so
    its message is a nonzero kernel vector of the k x k block G_S; and
    since the generator has full row rank, a nonzero kernel vector of a
    singular G_S gives a nonzero codeword that vanishes on S.  Both sides
    walk the same C(n, k) subsets, and the generator's are k-dimensional.
    At k = 0 the generator has no columns worth testing, so the parity
    side stays.

    The work estimate C(n, w-1) (w-1)^3, one elimination per subset, is
    checked against DEFAULT_WORK_BUDGET, read at each call, before starting.
    It bounds either walk's work from above and is kept as it was, so every
    pass or refusal stays the same."""
    n = code.n
    if type(w) is not int or w - 1 > n:
        raise BadDimension(f"w = {w!r} must be an int with w - 1 <= the length {n}")
    if w <= 1:
        return True
    r = n - code.k  # the generator has full row rank
    if w - 1 > r:
        # columns live in an r-dimensional space, so w-1 of them are
        # always dependent; equivalently Singleton gives d <= r + 1 < w
        return False
    cost = comb(n, w - 1) * (w - 1) ** 3
    if cost > DEFAULT_WORK_BUDGET:
        count = _count(cost, f"C({n}, {w - 1})*{w - 1}^3")
        raise WorkBudgetExceeded(f"estimated work {count} exceeds the budget {DEFAULT_WORK_BUDGET}")
    if w - 1 == r and 0 < code.k < r:
        return _subsets_independent(code.field, transpose(code.generator).data, code.k)
    cols = transpose(nullspace(code.generator)).data
    return _subsets_independent(code.field, cols, w - 1)


def _subsets_independent(f: Field, vectors: list[list[int]], s: int) -> bool:
    """True when every s of the vectors (1 <= s <= len(vectors)) are
    linearly independent, walking the s-subsets depth first in
    lexicographic order.

    Each node shares one elimination among all subsets with its prefix:
    rest holds the vectors after the prefix, already reduced against the
    prefix's echelon basis, and s counts the vectors still to choose.
    Taking v as the next vector reduces the later ones against it in one
    clear_column pass; one that becomes zero depends on the prefix and v,
    and any s vectors holding them are dependent.  Only the later vectors
    nonzero at v's pivot are copied and reduced, since the pass leaves the
    others as they are, so the caller's vectors are never written.  With
    two vectors left to choose, the prefix extends to an independent set by
    any pair of rest exactly when no two of them are proportional.

    In the square case, vectors of length s (every MDS claim, on either
    side), each vector of rest is zero on the prefix's pivot columns, so it
    lives on the columns still free, one per vector left to choose.  With
    three left, taking v leaves two free columns x and y beside v's pivot
    p, and each later vector u reduces against v to u - (u_p / v_p) v,
    whose entries at x and y alone name a point of the projective line
    (Field.line_points).  The prefix and v extend by any two of them
    exactly when no reduced vector is zero and no two points are equal, so
    that level copies nothing and calls neither clear_column nor a leaf.
    Longer vectors, as for a ladder's lower-bound claims, take the walk
    above throughout.
    """

    square = len(vectors[0]) == s

    def walk(rest: list[list[int]], s: int, free: list[int]) -> bool:
        if square and s == 3:
            a, b, c = free
            for i in range(len(rest) - 2):
                v = rest[i]
                # v's pivot is its first nonzero entry, a free one
                p, x, y = (a, b, c) if v[a] else (b, a, c) if v[b] else (c, a, b)
                # a reduced vector that is zero, or two that are proportional
                points = f.line_points(rest[i + 1 :], v, p, x, y)
                if None in points or len(set(points)) < len(points):
                    return False
            return True
        if s == 2:
            leading_one = {tuple(f.scale(f.inv(next(filter(None, u))), u)) for u in rest}
            return len(leading_one) == len(rest)
        for i in range(len(rest) - s + 1):
            v = rest[i]
            p = v.index(next(filter(None, v)))  # v's first nonzero entry
            later = rest[i + 1 :]
            copies = [list(u) for u in later if u[p]]
            f.clear_column(copies, v, p)
            if not all(map(any, copies)):
                return False
            reduced = iter(copies)
            if not walk([next(reduced) if u[p] else u for u in later], s - 1, [c for c in free if c != p]):
                return False
        return True

    return all(map(any, vectors)) and (s == 1 or walk(vectors, s, list(range(len(vectors[0])))))


def dual_containing_check(code: LinearCode) -> bool:
    """The code's Hermitian dual lies inside the code itself.

    A code carrying the code D that spans its Hermitian dual contains D
    exactly when D is self-orthogonal, because D's own Hermitian dual is
    the code (Ketkar-Klappenecker-Kumar-Sarvepalli, IEEE T-IT 2006); that
    takes D's Gram matrix only, and is_self_orthogonal keeps the verdict on
    D.  Every code qmds builds to contain its dual carries it; a code
    carrying none takes _rank_route, the one route run_checks takes."""
    if code._hermitian_dual is not None:
        return is_self_orthogonal(code._hermitian_dual)
    return _rank_route(code.generator)


def _rank_route(g: Matrix) -> bool:
    """Whether g's row space holds its Hermitian dual, the conjugate of its
    kernel, reduced against g's echelon form: g is eliminated once and read
    twice.  Past the DUAL_CELL_CAP every constructor applies to a Hermitian
    dual, that kernel is refused with DimensionOutOfRange before it is built."""
    _check_dual_cells(g.cols, g.rows)
    return row_space_contains(g, entrywise_frobenius(nullspace(g)))


# -- claims checking --------------------------------------------------------------

CHECKS = ("gram", "dual-containing", "min-distance", "mds")
_ENUMERATION = "exhaustive message enumeration"

# what one check found: (ok, method, work_count, detail), ok None when skipped
_Outcome = tuple[bool | None, str, int, str]


def report(target: str, checks: list[dict]) -> dict:
    """The report on checks against one target, as printed: a skipped check
    (an enumeration over the cap, say) never fails it, only a "fail" does."""
    overall = "fail" if any(check["verdict"] == "fail" for check in checks) else "pass"
    return {"target": target, "overall": overall, "checks": checks}


def run_checks(code: LinearCode, names: tuple[str, ...], claims: dict, cap: int = DEFAULT_ENUM_CAP) -> dict:
    """The report of the named checks (from CHECKS, in the order given)
    against claims, a file's claims section: its orthogonality, and its
    known_distance, else its claimed_distance_lb.  An unclaimed property's
    check is skipped.  The distance and MDS checks share one run of
    _distance_route, so a code is enumerated, or floor-checked, at most once.
    A claimed_distance_lb above the known_distance, which no code meets and
    whose lower bound the exact check would leave unchecked, raises
    BadDimension before any check runs."""
    orthogonality, known = claims.get("orthogonality"), claims.get("known_distance")
    lb = claims.get("claimed_distance_lb")
    if None not in (known, lb) and lb > known:
        raise BadDimension(f"claimed_distance_lb {lb} exceeds known_distance {known}")
    w = lb if known is None else known
    checks = []
    route = cache(lambda: _distance_route(code, w, cap, known is not None))
    for name in names:
        if name == "gram":
            ok, method, work_count, detail = _gram(code, orthogonality == "self-orthogonal")
        elif name == "dual-containing":
            ok, method, work_count, detail = _dual_containing(code, orthogonality == "dual-containing")
        elif name == "min-distance":
            ok, method, work_count, detail = _min_distance(w, known is not None, route)
        else:
            ok, method, work_count, detail = _mds(code, w, route)
        verdict = "skipped" if ok is None else "pass" if ok else "fail"
        checks.append(dict(name=name, verdict=verdict, method=method, work_count=work_count, detail=detail))
    return report(f"[{code.n},{code.k}] over GF({code.field.q2})", checks)


def _gram(code: LinearCode, claimed: bool) -> _Outcome:
    method = "hermitian gram matrix"
    if not claimed:
        return None, method, 0, "file does not claim self-orthogonality"
    ok = is_self_orthogonal(code)
    # the k^2 estimate code files have always carried, though
    # hermitian_gram sums only the k(k + 1)/2 entries with i <= j
    return ok, method, code.k * code.k, "gram matrix is zero" if ok else "gram matrix has a nonzero entry"


def _dual_containing(code: LinearCode, claimed: bool) -> _Outcome:
    method = "rank of stacked generators"
    if not claimed:
        return None, method, 0, "file does not claim dual containment"
    ok = _rank_route(code.generator)
    return ok, method, code.n, "hermitian dual is contained" if ok else "hermitian dual escapes the code"


def _distance_route(
    code: LinearCode, w: int, cap: int, exact: bool
) -> tuple[int | None, bool | None, int, list[str]]:
    """The one choice of distance oracle for a claim d >= w, or d = w when
    exact, as (d, ok, work_count, refusals).  When the q^(2k) messages fit
    the cap, d is the enumerated distance and refusals is empty.  Otherwise
    d is None, the column floor decides ok, and refusals holds the
    EnumerationTooLarge message.  An exact claim takes two floor tests,
    d >= w and d >= w + 1, and holds when the first passes and the second
    fails; a test that refutes the claim decides it even when the other is
    over its work budget.  When no test refutes it and one is over budget,
    ok is None and each WorkBudgetExceeded message follows in refusals.
    The zero code raises BadDimension."""
    try:
        d = min_distance_exact(code, cap=cap)
    except EnumerationTooLarge as too_large:
        refusals, work_count = [str(too_large)], 0
        for b in (w, w + 1) if exact else (w,):
            try:
                # no nonzero word outweighs its length, so a claim past n + 1
                # is refuted outright; the floor oracle takes b - 1 <= n only
                holds = b <= code.n + 1 and min_distance_at_least(code, b)
            except WorkBudgetExceeded as over:
                refusals.append(str(over))
                continue
            work_count += comb(code.n, b - 1) if b > 1 else 0
            if holds != (b == w):  # d < w, or an exact claim with d > w
                return None, False, work_count, refusals[:1]
        if len(refusals) > 1:
            return None, None, 0, refusals
        return None, True, work_count, refusals
    return d, d == w if exact else d >= w, enumeration_classes(code), []


def _min_distance(w: int | None, exact: bool, route) -> _Outcome:
    if w is None:
        return None, "none", 0, "file carries no distance claim"
    claim = f"d = {w}" if exact else f"d >= {w}"
    d, ok, work_count, refusals = route()
    if ok is None:
        return None, "column-independence floor", work_count, "; ".join(refusals)
    if d is None:
        method = "column-independence floor (EnumerationTooLarge for exact search)"
        return ok, method, work_count, f"{claim} {'certified' if ok else 'refuted'}; {refusals[0]}"
    return ok, _ENUMERATION, work_count, f"exact d = {d}, claimed {claim}"


def _mds(code: LinearCode, claim: int | None, route) -> _Outcome:
    w = code.n - code.k + 1
    if claim != w:
        return None, "none", 0, "file does not claim an MDS distance"
    # Singleton pins d <= w from above, so d >= w settles d = w
    d, ok, work_count, refusals = route()
    if ok is None:
        return None, "column-independence floor", work_count, refusals[-1]
    method = _ENUMERATION if d is not None else "column-independence floor"
    return ok, method, work_count, f"d = n - k + 1 = {w}" if ok else f"d falls short of n - k + 1 = {w}"
