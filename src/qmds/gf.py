"""Exact arithmetic in the tower GF(p) < GF(q) < GF(q^2), q = p^t.

An element of GF(q^2) is a plain int in [0, q^2): the base-p packing of its
polynomial coefficients, least significant digit first, so the residue class
of x always has index p.  Index 0 is the zero element and index 1 is one.

Multiplication runs on discrete-log tables built over a canonical modulus:
the lexicographically smallest primitive polynomial of degree 2t over GF(p),
where polynomials are compared by their coefficient packing (low degree
first, as a base-p integer).  "Primitive" means the residue class of x
generates the multiplicative group, so the generator omega is always x
itself.  The scan settles each candidate by an order test on powers of x
(see _primitivity_test), and the exp/log walk runs once, on the modulus
it picks, and certifies it again.

Addition runs on Zech logarithms, zech[i] = log(1 + omega^i), so that
a + b = omega^(log a + zech[log b - log a]) for nonzero a, b; adding one
changes only the constant digit, so every field builds them at
construction in one pass over the powers.  Fields of at most _TABLE_CAP
elements also get a full q^2 x q^2 addition table, since one lookup beats
a Zech sum, but only at the first vector kernel that reads it (vadd,
clear_column, line_points, line_slopes): code construction, the Gram
kernel and quantum records add through single additions alone, which read
the table once it is built and Zech logarithms before that.  Addition is
digit-wise mod p in the packing whatever the modulus, so that table is
filled digit by digit from runs of one list of the q^2 elements (see
_addition_table).

Inner products, in every field, go through hermitian_products alone, as
integer sums of digit polynomials (Kronecker substitution): two more
tables, built at its first call, hold each element and each element's
conjugate with its 2t base-p digits in slots of one int, so one integer
product holds the coefficients of a product polynomial and a sum of those
is left unreduced until the entry is done (delayed reduction).  The same
substitution runs once more over the row index: the conjugate rows are
stacked into one int per column, an entry's width apart, so one integer
sum per row gives its entries with all of them.  A row more than half of
whose entries are zero is summed over its support alone, so the sparse
block rows of a matrix-product code cost their nonzero entries, not their
length; denser rows are summed over every position.

Slopes of lines through points of the plane over GF(q^2), for the
enumerator's deepest node, go through line_slopes alone: a table built at
its first call from the addition table holds log(b - a) for every pair of
elements, and a slope is one lookup on the sum of two of its entries.
Fields past the addition table get no such table.

Only this module reads the tables: other modules call the element methods
or the vector kernels (scale, multiples, line_points, line_slopes, vmul,
vadd, vdiv, conjugate, clear_column, hermitian_products), each of which
picks its way of adding once per call.

The whole tower is capped at p^(2t) <= 2^16, so the tables fit in memory.

Fields come from three places.  field_new(p, t) (and field_for_q, which
factors q and calls it) builds GF(p^(2t)) over the canonical modulus once
per process and hands that instance back ever after.  field_with_modulus
takes the modulus a code file names: it hands back field_new's instance
when that one is built and the modulus is its canonical one, and otherwise
builds Field(p, t, modulus) afresh, unrecorded.  Matrices over one field
compare equal only when they share the instance, so a code loaded from a
file with the canonical modulus meets the codes constructed in the same
process on the same field.

Convention used throughout the package: 0^0 == 1.
"""

from __future__ import annotations

from itertools import chain, compress
from operator import add, itemgetter, mul

from .errors import (
    DimensionMismatch,
    DivisionByZero,
    FieldTooLarge,
    NonPrimeCharacteristic,
    NotInSubfield,
    ZeroInput,
    ZeroToNegativePower,
)

SIZE_CAP = 1 << 16

# fields up to this size also get a full q^2 x q^2 addition table, at the
# first vector kernel that reads it; larger ones add through Zech logarithms
_TABLE_CAP = 512


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, smallest first, by trial division."""
    primes = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            primes.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        primes.append(n)
    return primes


def _check_tower(p: int, t: int) -> None:
    """Reject a (p, t) outside the supported towers, cheapest checks first.

    A p or t that is not a plain int (a bool, a float) is refused first.
    The size cap is applied before trial division, so an enormous p or t
    (say from a code file) is refused at once instead of being factored.
    p >= 2 gives p^(2t) >= 2^(2t), so the bound on t comes first and keeps
    the power itself small.
    """
    if type(p) is not int or p < 2:
        raise NonPrimeCharacteristic(f"p = {p!r} is not prime")
    if type(t) is not int:
        raise FieldTooLarge(f"t = {t!r} is not an int")
    if t < 1:
        raise FieldTooLarge(f"t = {t} must be positive")
    if 2 * t >= SIZE_CAP.bit_length() or p ** (2 * t) > SIZE_CAP:
        raise FieldTooLarge(f"p^(2t) = {p}^{2 * t} exceeds {SIZE_CAP}")
    if _prime_factors(p) != [p]:
        raise NonPrimeCharacteristic(f"p = {p} is not prime")


class Field:
    """GF(q^2) with q = p^t, fixed canonical modulus, table arithmetic.

    Instances are immutable, apart from tables built at first use, and safe
    to share: the addition table, built by the first vector kernel that
    reads it on a field of at most _TABLE_CAP elements; the digit tables
    hermitian_products builds and replaces whole; and the difference logs
    line_slopes builds.  Get the canonical one from field_new() or
    field_for_q(), and the field a serialized code file names from
    field_with_modulus(); Field(p, t, modulus) builds a new instance on any
    primitive modulus, which no other code shares.
    """

    def __init__(self, p: int, t: int, modulus: list[int], _tables=None):
        _check_tower(p, t)
        self.p = p
        self.t = t
        self.q = q = p**t
        self.q2 = q2 = p ** (2 * t)
        if len(modulus) != 2 * t + 1 or modulus[-1] != 1:
            raise ZeroInput(f"modulus must be monic of degree {2 * t}")
        if any(type(c) is not int or not 0 <= c < p for c in modulus):
            raise ZeroInput("modulus coefficients must be ints reduced mod p")
        self.modulus = list(modulus)
        if _tables is None:
            _tables = _build_tables(p, t, modulus)
            if _tables is None:
                raise ZeroInput(f"x is not primitive modulo {modulus}")
        exp, log = _tables
        order = q2 - 1
        # exp runs over two periods, so exp[a + b] needs no reduction for
        # logs a, b < order
        self._exp = exp = exp + exp
        self._log = log
        self.omega = p  # the residue class of x
        log_minus_one = log[p - 1]  # the element p - 1 is -1
        self._neg = [0] + [exp[log[x] + log_minus_one] for x in range(1, q2)]
        self._conj = [0] + [exp[log[x] * q % order] for x in range(1, q2)]
        # the digit tables of hermitian_products, built at its first call
        self._gram = None
        # the difference logs of line_slopes, built at its first call
        self._lines = None
        # the addition table, built by _addition at the first vector kernel
        # that reads it
        self._add = None
        # 1 + omega^i differs from omega^i in the constant digit only; -1
        # marks the i with omega^i = -1
        self._zech = [log[y] if (y := x - x % p + (x + 1) % p) else -1 for x in exp[:order]]

    # -- ring operations ------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self._add is not None:
            return self._add[a][b]
        if not (a and b):
            return a or b
        # a + b = a (1 + b/a); a negative index into zech wraps mod q^2 - 1
        la = self._log[a]
        z = self._zech[self._log[b] - la]
        return self._exp[la + z] if z >= 0 else 0

    def neg(self, a: int) -> int:
        return self._neg[a]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self._neg[b])

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of zero")
        return self._exp[-self._log[a] % (self.q2 - 1)]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1  # 0^0 == 1 by convention
            if e < 0:
                raise ZeroToNegativePower("0 raised to a negative power")
            return 0
        return self._exp[(self._log[a] * e) % (self.q2 - 1)]

    def exp(self, e: int) -> int:
        """omega^e, exponent taken mod q^2 - 1."""
        return self._exp[e % (self.q2 - 1)]

    def log(self, a: int) -> int:
        if a == 0:
            raise ZeroInput("log of zero")
        return self._log[a]

    # -- vector kernels: each chooses how to add once per call ---------------

    def _addition(self) -> list[list[int]] | None:
        """The addition table, built at the first call on a field of at most
        _TABLE_CAP elements and kept; None past the cap."""
        addtab = self._add
        if addtab is None and self.q2 <= _TABLE_CAP:
            addtab = self._add = _addition_table(self.p, self.q2)
        return addtab

    def scale(self, c: int, v: list[int]) -> list[int]:
        """c * v, a new list even when c is one."""
        if not c:
            return [0] * len(v)
        if c == 1:
            return list(v)
        exp, log = self._exp, self._log
        lc = log[c]
        return [exp[lc + log[x]] if x else 0 for x in v]

    def multiples(self, v: list[int]) -> list[tuple[int, ...]]:
        """omega^j * v for j = 0, ..., q^2 - 2, each nonzero multiple of v
        once, as tuples.  Entry i of them runs along the exp slice that
        starts at log v_i (all zeros where v_i is zero), so one transpose of
        those slices builds them all."""
        exp, log, order = self._exp, self._log, self.q2 - 1
        zeros = (0,) * order
        return list(zip(*[exp[log[x] : log[x] + order] if x else zeros for x in v]))

    def line_points(self, vectors, v: list[int], p: int, x: int, y: int) -> list[int | None]:
        """Each vector u reduced against v at v's nonzero entry p, u - (u_p /
        v_p) v, read at x and y alone, as a point of the projective line:
        the pair (a, b) names b / a, or q^2 (the point at infinity) when a
        is zero, and None when both are zero.  Two nonzero pairs are
        proportional exactly when their points are equal.
        """
        exp, log, q2, addtab, add = self._exp, self._log, self.q2, self._addition(), self.add
        # u_p * (-v_x / v_p) is exp[log u_p + lx], a negative index wrapping
        # mod q^2 - 1; a zero v_x leaves u_x as it is
        neg, lp, vx, vy = self._neg, log[v[p]], v[x], v[y]
        lx, ly = log[neg[vx]] - lp, log[neg[vy]] - lp
        pairs = []
        for up, a, b in map(itemgetter(p, x, y), vectors):
            if up:
                lu = log[up]
                if vx:
                    a = add(a, exp[lu + lx]) if addtab is None else addtab[a][exp[lu + lx]]
                if vy:
                    b = add(b, exp[lu + ly]) if addtab is None else addtab[b][exp[lu + ly]]
            pairs.append((a, b))
        return [exp[log[b] - log[a]] if a and b else 0 if a else q2 if b else None for a, b in pairs]

    def line_slopes(self, r: list[int], m: int):
        """A function of u, for r and u of one length n, naming the lines of
        the plane through the points P_j = (r_j, u_j), j < m; or None on a
        field with no addition table, whose difference logs it reads.

        For u it gives a list of iterators of keys.  The first holds, for
        each j >= m, the slope u_j / r_j of the line through the origin and
        P_j.  Then, for each j < m - 1, one holds the slope (u_i - u_j) /
        (r_i - r_j) of the line through P_j and P_i, for each i = j + 1, ...,
        m - 1.  A slope is a field element, or q^2 for a vertical pair
        (equal r, different u), or q^2 + 1 for a pair at the same point.

        Each key is one lookup on the sum of two difference logs (see
        _line_tables): the u side's, read off u at each call, and the r
        side's, read here once for every call.
        """
        if self._addition() is None:
            return None
        dlog, key, flip = self._line_tables()

        def side(v: list[int]):
            """v's difference logs: the tail's entries from the origin, then
            each point's later entries from the point's own."""
            yield map(dlog[0].__getitem__, v[m:])
            for j in range(m - 1):
                yield map(dlog[v[j]].__getitem__, v[j + 1 : m])

        r_side = [list(map(flip.__getitem__, part)) for part in side(r)]

        def slopes(u: list[int]) -> list:
            return [map(key.__getitem__, map(add, us, rs)) for us, rs in zip(side(u), r_side)]

        return slopes

    def _line_tables(self) -> tuple:
        """(dlog, key, flip) for line_slopes, built at the first call and
        kept.

        dlog[a][b] is log(b - a), or the mark 2(q^2 - 1) where b = a: row a
        is the addition table's row of -a read through the logs.

        flip turns an r side's entry e of dlog into q^2 - 1 - e, in [1, q^2
        - 1], and its mark into 3(q^2 - 1) + 1.  So a u side's entry plus an
        r side's flipped one lands in one of four runs of key: below 2(q^2 -
        1), the exp table gives the slope; with equal u alone, the slope is
        zero; with equal r alone, the key is q^2; with both, q^2 + 1.
        """
        tables = self._lines
        if tables is None:
            q2, order = self.q2, self.q2 - 1
            marked = [2 * order] + self._log[1:]
            addtab = self._addition()
            dlog = [list(map(marked.__getitem__, addtab[x])) for x in self._neg]
            key = self._exp + [0] * (order + 1) + [q2] * (2 * order) + [q2 + 1]
            flip = [order - e for e in range(order)] + [0] * order + [3 * order + 1]
            tables = self._lines = (dlog, key, flip)
        return tables

    def vmul(self, u: list[int], v: list[int]) -> list[int]:
        """u_i * v_i for every i."""
        exp, log = self._exp, self._log
        return [exp[log[x] + log[y]] if x and y else 0 for x, y in zip(u, v)]

    def vdiv(self, u: list[int], v: list[int]) -> list[int]:
        """u_i / v_i for every i; v has no zero entry."""
        exp, log = self._exp, self._log
        return [exp[log[x] - log[y]] if x else 0 for x, y in zip(u, v)]

    def conjugate(self, v: list[int]) -> list[int]:
        """v with every entry raised to the q-th power."""
        return list(map(self._conj.__getitem__, v))

    def vadd(self, u: list[int], v: list[int]) -> list[int]:
        """u + v."""
        addtab = self._addition()
        if addtab is not None:
            return [addtab[x][y] for x, y in zip(u, v)]
        exp, log, zech = self._exp, self._log, self._zech
        out = []
        for x, y in zip(u, v):
            if x and y:
                lx = log[x]
                z = zech[log[y] - lx]
                out.append(exp[lx + z] if z >= 0 else 0)
            else:
                out.append(x or y)
        return out

    def clear_column(self, rows: list[list[int]], prow: list[int], c: int) -> None:
        """Subtract from every row other than prow the multiple of prow that
        zeroes its column c, in place.

        prow is nonzero at column c and zero left of it, so only its nonzero
        entries from c on take part.  Each product is one exp lookup on the
        sum of two logs, with the pivot's log folded into prow's.
        """
        exp, log, neg, addtab = self._exp, self._log, self._neg, self._addition()
        order = self.q2 - 1
        lp = order - log[prow[c]]
        terms = [(j, (log[y] + lp) % order) for j in range(c, len(prow)) if (y := prow[j])]
        targets = [(row, log[neg[x]]) for row in rows if (x := row[c]) and row is not prow]
        if addtab is not None:
            for row, lx in targets:
                for j, ly in terms:
                    row[j] = addtab[row[j]][exp[lx + ly]]
            return
        zech = self._zech
        for row, lx in targets:
            for j, ly in terms:
                y = row[j]
                if y:
                    la = log[y]
                    z = zech[(lx + ly - la) % order]
                    row[j] = exp[la + z] if z >= 0 else 0
                else:
                    row[j] = exp[lx + ly]

    def hermitian_products(
        self, rows: list[list[int]], others: list[list[int]] | None = None
    ) -> list[list[int]]:
        """For each row i, the products sum_l rows[i][l] * others[j][l]^q
        with every row j of others, in order of j.  Without others, the
        products of rows with themselves, only for the rows j >= i.  Rows of
        others whose length differs from that of rows raise
        DimensionMismatch.

        Each entry is an integer sum of digit polynomials (see
        _gram_tables), and the rows summed against are stacked into the
        slots of one int per column: column l holds the conjugate digits of
        row j at bit slot * j, where slot = (4t - 1) width spans a whole
        product polynomial.  So one sum over the columns, a row's digits
        times each packed column, gives that row's entries with every row
        at once, each in its own slot.  Without others the rows are walked
        from last to first, and each is stacked into the columns before its
        own sum, so row i's sum holds the entries j >= i and no more; others
        are stacked once.  A row more than half of whose entries are zero is
        summed over its support alone, its nonzero digits against the
        packed columns at the same positions.  Each entry is cut from its
        slot and reduced once: the 2t - 1 coefficients above degree 2t - 1
        are taken mod p and folded back through x^(2t + h) in this field,
        and every low one is taken mod p.
        """
        n = len(rows[0]) if rows else 0
        gram = others is None
        if not gram and rows and any(len(row) != n for row in others):
            raise DimensionMismatch(f"rows of length {n} against rows of other lengths")
        width, digits, conj_digits, fold = self._gram_tables(n)
        p, split, slot = self.p, width * 2 * self.t, width * (4 * self.t - 1)
        mask, low_mask = (1 << width) - 1, (1 << split) - 1

        def stack(cols: list[int], row: list[int]) -> list[int]:
            # cols[l] holds the conjugate digits of column l of the rows
            # summed against, the first of them in the lowest slot: the
            # first row stacked fills the columns, and each later one shifts
            # every column up one slot and fills the freed one
            if not cols:
                return [conj_digits[x] for x in row]
            return [(c << slot) + conj_digits[x] for c, x in zip(cols, row)]

        cols = []
        if not gram:
            for row in reversed(others):
                cols = stack(cols, row)
        out = []
        count = 0 if gram else len(others)
        for row in reversed(rows):
            if gram:
                cols = stack(cols, row)
                count += 1
            if 2 * row.count(0) > n:
                # mostly zero: sum over the support alone
                s = sum(map(mul, map(digits.__getitem__, filter(None, row)), compress(cols, row)))
            else:
                s = sum(map(mul, map(digits.__getitem__, row), cols))
            entries = []
            for _ in range(count):
                low, high = s & low_mask, s >> split
                s >>= slot
                for x_power in fold:
                    low += (high & mask) % p * x_power
                    high >>= width
                acc, unit = 0, 1
                while low:
                    acc += (low & mask) % p * unit
                    low >>= width
                    unit *= p
                entries.append(acc)
            out.append(entries)
        out.reverse()
        return out

    def _gram_tables(self, n: int) -> tuple:
        """(width, digits, conj_digits, fold) for rows of length n, built
        at the first call and kept while no row is longer than they are
        sized for.

        digits[x] holds the 2t base-p digits of x, digit i at bit width * i,
        and conj_digits[x] those of x^q.  A product of two such ints holds
        the 4t - 1 coefficients of the product polynomial, each a sum of at
        most 2t terms of at most (p - 1)^2; a sum of n products, plus the
        folded high coefficients, stays below 2^width per coefficient once
        width is the bit length of (n + 1) * 2t * (p - 1)^2.  So an entry's
        whole unreduced sum stays below 2^((4t - 1) width), and entries
        packed (4t - 1) width bits apart never carry into each other: all
        of them are nonnegative, and each fills only its own slot.  The
        width is sized for rows of length 2(q^2 + 1), the longest code qmds
        builds, so a field keeps one table pair; a longer row widens it.
        fold[h] is x^(2t + h) packed the same way.
        """
        tables = self._gram
        if tables is not None and n <= tables[0]:
            return tables[1]
        p, deg = self.p, 2 * self.t
        longest = max(n, 2 * (self.q2 + 1))
        width = ((longest + 1) * deg * (p - 1) ** 2).bit_length()
        digits = [0]
        for _ in range(deg):
            digits = [(h << width) + lo for h in digits for lo in range(p)]
        conj_digits = list(map(digits.__getitem__, self._conj))
        fold = [digits[self._exp[deg + h]] for h in range(deg - 1)]
        self._gram = (longest, (width, digits, conj_digits, fold))
        return self._gram[1]

    # -- tower structure ------------------------------------------------------

    def norm(self, a: int) -> int:
        """x -> x^(q+1), multiplicative onto GF(q); fibers have size q+1."""
        return self.pow(a, self.q + 1)

    def in_subfield(self, a: int) -> bool:
        return self._conj[a] == a

    def norm_preimage(self, u: int) -> int:
        """Some v with norm(v) = u, for u in GF(q)*.

        Deterministic choice: the v = omega^e with the smallest exponent e,
        i.e. the smallest solution of (q+1)e = log(u) mod (q^2 - 1).
        """
        if u == 0:
            raise ZeroInput("norm preimage of zero")
        if not self.in_subfield(u):
            raise NotInSubfield(f"element {u} is not in GF({self.q})")
        lu = self._log[u]
        # gcd(q+1, q^2-1) = q+1 divides log(u) exactly when u is in GF(q)*
        assert lu % (self.q + 1) == 0
        return self._exp[(lu // (self.q + 1)) % (self.q - 1)]

    def elements(self) -> range:
        return range(self.q2)

    def subfield_elements(self) -> list[int]:
        """All of GF(q), zero first, then powers of omega^(q+1)."""
        step = self.q + 1
        return [0] + [self._exp[step * j] for j in range(self.q - 1)]

    def __repr__(self) -> str:
        return f"Field(p={self.p}, t={self.t}, modulus={self.modulus})"


def _addition_table(p: int, size: int) -> list[list[int]]:
    """The table of a + b for all a, b < size, a power of p, where the sum
    is digit-wise mod p in base p.

    With a = a0 + p A and b = b0 + p B, a + b has low digit (a0 + b0) % p
    and high part A + B.  So row a is row A of the table one digit shorter,
    each entry h of it replaced by the p sums with high part h: the elements
    p h, ..., p h + p - 1 rotated left by a0.  Every cell is an int of the
    one list of elements, so the table holds size ints however many cells
    it has.
    """
    elements = list(range(size))
    if size == p:
        return [elements[a:] + elements[:a] for a in range(p)]
    high = _addition_table(p, size // p)
    runs = [
        [elements[lo + a0 : lo + p] + elements[lo : lo + a0] for lo in range(0, size, p)]
        for a0 in range(p)
    ]
    return [list(chain.from_iterable(map(runs[a % p].__getitem__, high[a // p]))) for a in range(size)]


def _build_tables(p: int, t: int, modulus: list[int]):
    """exp/log tables for x mod modulus, or None when x is not primitive.

    Walks x^0, x^1, ... by shift-and-reduce; hitting 1 early proves the
    order of x is a proper divisor of q^2 - 1.  Reaching e = q^2 - 1 with
    all powers distinct proves primitivity (and irreducibility with it:
    q^2 - 1 distinct units plus zero exhaust the quotient ring).
    """
    deg = 2 * t
    q2 = p**deg
    head = modulus[:deg]
    coeffs = [0] * deg
    coeffs[0] = 1
    exp = [0] * (q2 - 1)
    log = [0] * q2
    for e in range(q2):
        idx = 0
        shift = 1
        for c in coeffs:
            idx += c * shift
            shift *= p
        if e == q2 - 1:
            # closing the cycle: x^(q^2-1) must come back to 1
            return (exp, log) if idx == 1 else None
        if idx == 1 and e > 0:
            return None  # order of x divides e < q^2 - 1
        exp[e] = idx
        log[idx] = e
        # multiply by x: shift digits, reduce the overflow against the modulus
        top = coeffs[deg - 1]
        for i in range(deg - 1, 0, -1):
            coeffs[i] = (coeffs[i - 1] - top * head[i]) % p
        coeffs[0] = -top * head[0] % p


def _primitivity_test(p: int, t: int):
    """The test of whether x is primitive modulo a monic degree-2t modulus
    over GF(p) with nonzero constant term, as a function of the modulus.

    x is primitive exactly when its order is p^(2t) - 1: x^(p^(2t) - 1) = 1
    and x^((p^(2t) - 1) / r) != 1 for every prime r dividing p^(2t) - 1
    (Lidl and Niederreiter, Finite Fields, ch. 3).  The quotient ring is
    then a field, and the norm of x to GF(p), which is the constant term
    f(0) as the degree is even, generates GF(p)*.  That necessary check, by
    built-in pow, goes first; at p = 2 there is none.  The powers of x are
    taken by square-and-multiply on polynomials of degree < 2t.  The prime
    factors are found here, once for every modulus tested.
    """
    deg = 2 * t
    order = p**deg - 1
    cofactors = [order // r for r in _prime_factors(order)]
    norm_cofactors = [(p - 1) // r for r in _prime_factors(p - 1)]
    one = [1] + [0] * (deg - 1)

    def primitive(modulus) -> bool:
        if any(pow(modulus[0], e, p) == 1 for e in norm_cofactors):
            return False
        # c x^k, k >= deg, is c * neg_head[i] * x^(k - deg + i) summed over i
        neg_head = [(p - h) % p for h in modulus[:deg]]

        def x_power(e: int) -> list[int]:
            acc = one
            for bit in bin(e)[2:]:
                prod = [0] * (2 * deg - 1)
                for i, a in enumerate(acc):
                    if a:
                        for j, b in enumerate(acc, i):
                            prod[j] += a * b
                for k in range(2 * deg - 2, deg - 1, -1):
                    c = prod[k] % p
                    if c:
                        for i, h in enumerate(neg_head, k - deg):
                            prod[i] += c * h
                acc = [c % p for c in prod[:deg]]
                if bit == "1":
                    top = acc[-1]
                    acc = [top * neg_head[0] % p] + [(a + top * h) % p for a, h in zip(acc, neg_head[1:])]
            return acc

        return x_power(order) == one and all(x_power(e) != one for e in cofactors)

    return primitive


# the instance field_new built for each (p, t), over the canonical modulus
_CANONICAL: dict[tuple[int, int], Field] = {}


def field_new(p: int, t: int = 1) -> Field:
    """GF(p^(2t)) over the canonical modulus.

    Recorded: repeated calls hand back the same instance however they are
    spelt (field_new(3) and field_new(3, 1) alike), so tables are built once
    per (p, t).  A p or t that is not a plain int is refused, not looked up:
    (3, True) would find (3, 1).
    """
    field = _CANONICAL.get((p, t)) if type(p) is type(t) is int else None
    if field is None:
        field = _CANONICAL[p, t] = _canonical_field(p, t)
    return field


def field_with_modulus(p: int, t: int, modulus) -> Field:
    """GF(p^(2t)) over the given modulus, as a code file names it.

    field_new's instance when field_new has built GF(p^(2t)) and modulus is
    its canonical one.  Otherwise a new Field(p, t, modulus), validated as
    ever and not recorded, so moduli from untrusted files hold no memory
    past their codes; and no canonical field is built here to compare
    against, since building GF(2^16) alone takes a quarter of a second and
    its tables a few MB.
    """
    field = _CANONICAL.get((p, t))
    if field is not None and field.modulus == list(modulus):
        return field
    return Field(p, t, modulus)


def _canonical_field(p: int, t: int) -> Field:
    """Scans monic degree-2t polynomials in packing order and takes the first
    one whose residue class of x is primitive.

    The order test settles each candidate; the exp/log walk then runs on the
    one it passes and certifies it, so a walk that refuses it is a fault of
    the test, not a reason to go on scanning.
    """
    _check_tower(p, t)
    deg = 2 * t
    primitive = _primitivity_test(p, t)
    for packed in range(p**deg):
        digits = []
        n = packed
        for _ in range(deg):
            digits.append(n % p)
            n //= p
        if digits[0] == 0:
            continue  # x divides the candidate, x could not be a unit
        modulus = digits + [1]
        if primitive(modulus):
            tables = _build_tables(p, t, modulus)
            assert tables is not None, f"the order test passed {modulus} and the walk refused it"
            return Field(p, t, modulus, _tables=tables)
    raise FieldTooLarge(f"no primitive polynomial found for p={p}, t={t}")


def field_for_q(q: int) -> Field:
    """GF(q^2) for a prime power q, factoring q as p^t."""
    if type(q) is not int or q * q > SIZE_CAP:
        raise FieldTooLarge(f"q^2 = {q}^2 exceeds {SIZE_CAP}" if type(q) is int else f"q = {q!r} is not an int")
    p = 2
    while p * p <= q:
        if q % p == 0:
            t = 0
            n = q
            while n % p == 0:
                n //= p
                t += 1
            if n != 1:
                raise NonPrimeCharacteristic(f"q = {q} is not a prime power")
            return field_new(p, t)
        p += 1
    return field_new(q, 1)
