"""Finite effect algebras given as partial Cayley tables.

An effect algebra is a set with a partial commutative associative sum,
constants 0 and 1, a unique orthosupplement x' for every x (x + x' = 1),
and the zero-one law (x + 1 defined forces x = 0).  Tables are square
matrices of element indices with -1 marking an undefined sum; index 0 is
always the zero element, the unit index is explicit.

validate() turns a table into a CheckedEffectAlgebra or raises a
ValidationError whose witness verify_validation_witness() re-checks.  It
reads each cell once, in one pass that checks the cell's type and range,
compares it with its transpose, files it in the index by_sum (the defined
cells grouped by their sum) and notes any breach of cancellation or
positivity.  BadIndex is raised at once, then BadZero, NotCommutative,
ZeroOneLawViolated, OrthoMissing, OrthoNotUnique and NotAssociative in
that order; a breach is raised only after associativity passes, so an
invalid table never gets one.  A CheckedEffectAlgebra keeps by_sum, which
the associativity scan, the atoms, homogeneity and L22 read so that each
visits only the cells that can matter.  The order is stored in one form,
the int-bitset down-sets and up-sets of _bounds, filled from by_sum; le
and the order queries (sharpness, intervals, meets, joins and covers) and
the bodies of L14, L33, T36 and C1 read it.  Each derived property is
computed once, on first use, and kept: _bounds, sharp_set, is_lattice
and homogeneity_witness.
"""

from collections import namedtuple
from functools import cached_property

UNDEF = -1


class HomogeneityWitness(namedtuple("HomogeneityWitness", "u v1 v2")):
    """u below a defined sum v1+v2 below u', with no split of u along v1, v2."""

    __slots__ = ()


class ValidationError(Exception):
    """An axiom violation, with the first offending index tuple as witness."""

    def __init__(self, kind, witness):
        self.kind = kind
        self.witness = tuple(witness)
        super().__init__(f"{kind} witness={self.witness}")


class EffectAlgebraTable(namedtuple("EffectAlgebraTable", "size one sum")):
    """Raw partial Cayley table: carrier size, unit index, sum matrix."""

    __slots__ = ()

    @staticmethod
    def from_rows(size, one, rows):
        return EffectAlgebraTable(size, one, tuple(tuple(r) for r in rows))


class CheckedEffectAlgebra(
    namedtuple("CheckedEffectAlgebra", "table ortho atoms by_sum")
):
    """A validated algebra with its derived order, orthosupplement and atoms.

    ortho[x] is the unique x' with x + x' = 1, and atoms are the minimal
    nonzero elements, ascending.  by_sum, built once by validate, indexes
    the defined cells by their sum: by_sum[t] lists the cells (x, y) with
    x + y = t, row-major.  The order is held only as the int bitsets of
    _bounds, which le, is_sharp, sharp_set, interval, meet, join,
    is_lattice and hasse_covers read.  The derived properties _bounds,
    sharp_set, is_lattice and homogeneity_witness are cached in the
    instance __dict__ (so this record has no __slots__): each is computed
    on first use and then read, at most once per algebra.  Otherwise
    immutable after validation; safe to share across concurrent readers.
    """

    def __setattr__(self, name, value):
        # cached_property fills __dict__ directly, so only callers land here
        raise AttributeError(f"cannot set {name!r}: the algebra is immutable")

    @property
    def size(self):
        return self.table.size

    @property
    def one(self):
        return self.table.one

    @property
    def carrier(self):
        return range(self.table.size)

    def le(self, x, y):
        """True iff x <= y, that is, some c has x + c = y."""
        return self._bounds[0][y] >> x & 1 == 1

    def interval(self, x, y):
        """All z with x <= z <= y, ascending; empty when x is not below y."""
        down, up, _, _ = self._bounds
        return _bits(up[x] & down[y])

    def multiples(self, x):
        """(0, x, 2x, ..., kx): every defined multiple of x, k its isotropy index."""
        if x == 0:
            raise ValueError("isotropy index is undefined for the zero element")
        row_of, out = self.table.sum, [0, x]
        while (acc := row_of[out[-1]][x]) != UNDEF:
            out.append(acc)
        return tuple(out)

    def isotropy_index(self, x):
        """Largest n >= 1 for which the n-fold sum of x is defined."""
        return len(self.multiples(x)) - 1

    def is_sharp(self, x):
        """True iff the only common lower bound of x and x' is 0."""
        down = self._bounds[0]
        return down[x] & down[self.ortho[x]] == 1

    @cached_property
    def sharp_set(self):
        return tuple(x for x in self.carrier if self.is_sharp(x))

    @cached_property
    def _bounds(self):
        # Down-sets and up-sets as int bitsets (bit z of down[x] iff z <= x),
        # and each set's element.  z <= y iff some cell (z, c) of by_sum[y]
        # exists, so one pass over by_sum fills both.  The common lower
        # bounds of x and y are down[x] & down[y]; they have a greatest
        # element g iff that set is down[g].  Antisymmetry makes every
        # down-set (and up-set) distinct.
        n = self.size
        down, up = [0] * n, [0] * n
        for y, cells in enumerate(self.by_sum):
            bit, below = 1 << y, 0
            for z, _ in cells:
                below |= 1 << z
                up[z] |= bit
            down[y] = below
        by_down = {d: g for g, d in enumerate(down)}
        by_up = {u: g for g, u in enumerate(up)}
        return down, up, by_down, by_up

    def meet(self, x, y):
        """Greatest common lower bound, or None when no greatest one exists."""
        down, _, by_down, _ = self._bounds
        return by_down.get(down[x] & down[y])

    def join(self, x, y):
        """Least common upper bound, or None when no least one exists."""
        _, up, _, by_up = self._bounds
        return by_up.get(up[x] & up[y])

    @cached_property
    def is_lattice(self):
        down, up, by_down, by_up = self._bounds
        n = self.size
        return all(
            down[x] & down[y] in by_down and up[x] & up[y] in by_up
            for x in range(n)
            for y in range(x + 1, n)
        )

    @cached_property
    def homogeneity_witness(self):
        """Lexicographically first (u, v1, v2) at which homogeneity fails, or
        None when the algebra is homogeneous.

        Homogeneity: whenever u <= v1 + v2 <= u' (the sum defined), u splits
        as u1 + u2 with u1 <= v1 and u2 <= v2.  Only u <= u' can fail.  For
        such a u, bit k of m1[v1] (m2[v2]) marks the k-th split u1 + u2 = u
        in by_sum[u] with u1 <= v1 (u2 <= v2), and a defined cell (v1, v2)
        whose sum lies in [u, u'] fails iff m1[v1] & m2[v2] == 0.  Only the
        cells of by_sum[t] for t in [u, u'] are scanned, one sum at a time,
        so the least failing cell over those sums is the lexicographic one.
        Their summands lie below t, so below u', and the masks are built
        for the elements below u' only.  The mask loop indexes the order
        once per split and element, so it reads rows of booleans, built here
        from the table, not the bitsets of _bounds, which are slower there.
        """
        n, ortho, by_sum = self.size, self.ortho, self.by_sum
        leq = [[False] * n for _ in range(n)]  # leq[x][y] iff x <= y
        for x, row in enumerate(self.table.sum):
            leq_x = leq[x]
            for y in row:
                if y != UNDEF:
                    leq_x[y] = True
        for u in range(n):
            up, leq_u = ortho[u], leq[u]
            if not leq_u[up]:
                continue
            below = [v for v in range(n) if leq[v][up]]
            m1, m2 = [0] * n, [0] * n
            for k, (u1, u2) in enumerate(by_sum[u]):
                bit = 1 << k
                leq1, leq2 = leq[u1], leq[u2]
                for v in below:
                    if leq1[v]:
                        m1[v] |= bit
                    if leq2[v]:
                        m2[v] |= bit
            fails = []  # the first failing cell of each sum in [u, u']
            for t in below:
                if leq_u[t]:
                    for v1, v2 in by_sum[t]:
                        if not m1[v1] & m2[v2]:
                            fails.append((v1, v2))
                            break
            if fails:
                return HomogeneityWitness(u, *min(fails))
        return None

    def hasse_covers(self):
        """All pairs (x, y) with x < y and nothing strictly between, ordered
        by x, then y: y covers x iff [x, y] is {x, y} alone."""
        down, up, _, _ = self._bounds
        return tuple(
            (x, y)
            for x in self.carrier
            for y in _bits(up[x] & ~(1 << x))
            if up[x] & down[y] == (1 << x) | (1 << y)
        )


def _bits(m):
    """The indices of the set bits of m, ascending."""
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return tuple(out)


def _scan_cells(t):
    """One pass over the cells of a table: (mismatch, by_sum, breach).

    Raises BadIndex at a bad size, unit or row count, else at the first
    row of the wrong length or bad cell, in row-major order.  mismatch is
    the least (i, j), i < j, with s[i][j] != s[j][i], or None; each
    lower-triangle cell is compared with its transpose, which lies in a
    row already checked.  by_sum[t] holds
    the cells (x, y) with x + y = t, row-major.  breach is the first cell,
    row-major, that breaks cancellation (a second cell of its sum in its
    row) or positivity (a sum 0 off (0, 0)), as a message, or None.
    """
    # type(v) is int, not isinstance: parse refuses bool cells, so a bool
    # accepted here would serialize to a table parse cannot read back
    n, s = t.size, t.sum
    if type(n) is not int or n < 2:
        raise ValidationError("BadIndex", (n,))
    if type(t.one) is not int or not 0 < t.one < n:
        raise ValidationError("BadIndex", (t.one,))
    if len(s) != n:
        raise ValidationError("BadIndex", (len(s),))
    by_sum = [[] for _ in range(n)]
    mismatch = breach = None
    for i, row in enumerate(s):
        if len(row) != n:
            raise ValidationError("BadIndex", (i,))
        for j, v in enumerate(row):
            if type(v) is not int or not UNDEF <= v < n:
                raise ValidationError("BadIndex", (i, j))
            if j < i and v != s[j][i] and (mismatch is None or (j, i) < mismatch):
                mismatch = (j, i)
            if v == UNDEF:
                continue
            cells = by_sum[v]
            if breach is None:
                if cells and cells[-1][0] == i:
                    breach = f"cancellation broken at {(i, cells[-1][1], j)}"
                elif v == 0 and (i or j):
                    breach = f"positivity broken at {(i, j)}"
            cells.append((i, j))
    return mismatch, tuple(map(tuple, by_sum)), breach


def verify_validation_witness(table, err):
    """Re-check a ValidationError against the raw table: True iff err.witness
    is a genuine violation of the rule err.kind names.

    Uses only the table's cells, never a derived order or orthosupplement,
    and holds a witness to being a violation, not to being the first one.
    A BadIndex witness (k,) names the size, the unit, the row count or a
    row of the wrong length; (i, j) names an entry out of range.  A size,
    unit or entry whose type is not int is out of range.  Every other kind
    needs a well-shaped table and indices inside it.
    """
    t, kind, w = table, err.kind, err.witness
    if kind == "BadIndex":
        n, rows = t.size, t.sum
        match w:
            case _ if type(n) is not int:
                return w == (n,)
            case (int(i), int(j)) if 0 <= i < len(rows) and 0 <= j < len(rows[i]):
                v = rows[i][j]
                return type(v) is not int or not UNDEF <= v < n
            case (k,):
                return (
                    (k == n and n < 2)
                    or (k == t.one and not (type(k) is int and 0 < k < n))
                    or (k == len(rows) != n)
                    or (isinstance(k, int) and 0 <= k < len(rows) and len(rows[k]) != n)
                )
        return False
    try:
        _scan_cells(t)
    except ValidationError:
        return False
    n, one, s = t.size, t.one, t.sum
    if not all(isinstance(i, int) and 0 <= i < n for i in w):
        return False
    match kind, w:
        case "BadZero", (x,):
            return s[0][x] != x
        case "NotCommutative", (i, j):
            return s[i][j] != s[j][i]
        case "ZeroOneLawViolated", (x,):
            return x != 0 and s[x][one] != UNDEF
        case "OrthoMissing", (x,):
            return one not in s[x]
        case "OrthoNotUnique", (x, c1, c2):
            return c1 != c2 and s[x][c1] == one == s[x][c2]
        case "NotAssociative", (a, b, c):
            bc = s[b][c]
            if bc == UNDEF or s[a][bc] == UNDEF:
                return False
            ab = s[a][b]
            return ab == UNDEF or s[ab][c] != s[a][bc]
    return False


def validate(table):
    """Check the effect-algebra axioms and derive the ortho map and atoms.

    Checks, in order: table shape (BadIndex), index 0 acting as zero
    (BadZero), commutativity including definedness (NotCommutative), the
    zero-one law (ZeroOneLawViolated), existence and uniqueness of
    orthosupplements (OrthoMissing / OrthoNotUnique), and associativity in
    both directions including definedness transfer (NotAssociative).  The
    first violation in lexicographic scan order is raised.  One pass over
    the cells (_scan_cells), after the size, unit and row-count checks,
    raises BadIndex at the first bad cell, since no other kind outranks
    it, and notes the least transpose mismatch, by_sum and the first
    breach of cancellation or positivity; the other kinds follow in the
    order above.  The associativity scan visits only the triples whose
    a + (b + c) is defined, reached through by_sum; it raises the least
    failing (b, c) of the least failing a, the first witness of a scan
    over all n**3 triples.  The atoms are read off by_sum as well.
    Cancellation, positivity and an involutive orthosupplement follow from
    the axioms; a breach is raised last, as AssertionError, which marks a
    bug in the checks above.
    """
    mismatch, by_sum, breach = _scan_cells(table)
    n, one, s = table.size, table.one, table.sum

    for x in range(n):
        if s[0][x] != x:
            raise ValidationError("BadZero", (x,))

    if mismatch is not None:
        raise ValidationError("NotCommutative", mismatch)

    for x in range(1, n):
        if x != one and s[x][one] != UNDEF:
            raise ValidationError("ZeroOneLawViolated", (x,))
    if s[one][one] != UNDEF:
        raise ValidationError("ZeroOneLawViolated", (one,))

    ortho = []
    for x in range(n):
        row = s[x]
        count = row.count(one)
        if not count:
            raise ValidationError("OrthoMissing", (x,))
        first = row.index(one)
        if count > 1:
            raise ValidationError("OrthoNotUnique", (x, first, row.index(one, first + 1)))
        ortho.append(first)

    # One direction over all ordered triples covers both readings of
    # associativity, given commutativity was verified above: a + (b + c)
    # defined forces (a + b) + c defined and equal.  Only triples with
    # a + (b + c) defined can fail, so each a walks its defined sums a + x
    # and the cells (b, c) of x.  That walk goes by x, not by (b, c), so the
    # least of each x's first failing cell is the lexicographic one.
    for a in range(n):
        row_a = s[a]
        fails = []  # the first failing cell (b, c) of each sum x
        for x, a_x in enumerate(row_a):
            if a_x == UNDEF:
                continue
            for b, c in by_sum[x]:
                ab = row_a[b]
                if ab == UNDEF or s[ab][c] != a_x:
                    fails.append((b, c))
                    break
        if fails:
            raise ValidationError("NotAssociative", (a, *min(fails)))

    # Consequences of the axioms, never assumed above.
    if breach is not None:
        raise AssertionError(breach)
    for x in range(n):
        if ortho[ortho[x]] != x:
            raise AssertionError(f"orthosupplement not involutive at {x}")

    # x != 0 is an atom iff nothing but 0 and x lies below it: by
    # cancellation and positivity, iff its only cells are (0, x) and (x, 0).
    atoms = tuple(x for x in range(1, n) if len(by_sum[x]) == 2)
    return CheckedEffectAlgebra(
        table=table, ortho=tuple(ortho), atoms=atoms, by_sum=by_sum
    )
