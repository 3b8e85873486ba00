"""Finite effect algebras given as partial Cayley tables.

An effect algebra is a set with a partial commutative associative sum,
constants 0 and 1, a unique orthosupplement x' for every x (x + x' = 1),
and the zero-one law (x + 1 defined forces x = 0).  Tables are square
matrices of element indices with -1 marking an undefined sum; index 0 is
always the zero element, the unit index is explicit.

validate() turns a table into a CheckedEffectAlgebra or raises a
ValidationError at the first violation, which the tests'
first_violation_alt re-derives from the raw cells.  It reads each cell
once, in one pass that checks the cell's type and range, compares it
with its transpose, files it in the index by_sum (the defined cells
grouped by their sum) and notes any breach of cancellation or
positivity.  BadIndex is raised at once, then BadZero, NotCommutative,
ZeroOneLawViolated, OrthoMissing, OrthoNotUnique and NotAssociative in
that order; a breach is raised only after associativity passes, so an
invalid table never gets one.  A CheckedEffectAlgebra keeps by_sum, which
the associativity check, the atoms, homogeneity and L22 read so that each
visits only the cells that can matter.  The order is stored in one form,
the int-bitset down-sets and up-sets of _bounds, filled from by_sum; le
and the order queries (sharpness, intervals, meets, joins and covers),
the homogeneity scan unsplit_cell and the bodies of L14, L22, L33, T36
and C1 read it.  Each derived property is computed once, on first use,
and kept: _bounds, sharp_set, is_lattice and homogeneity_witness.

Homogeneity is decided at the atoms, by this lemma: homogeneity at x and
at y gives it at x + y.  Proof.  Let u = x + y <= v1 + v2 <= u'.  Then
x <= v1 + v2 <= u' <= x', so x = x1 + x2 with xi <= vi; write
vi = xi + wi.  From x + y <= x + (w1 + w2), cancellation gives
y <= w1 + w2.  Since (v1 + v2) + u is defined, so is (w1 + w2) + y, and
w1 + w2 <= y'.  So y = y1 + y2 with yi <= wi, and ui = xi + yi <= vi
gives u = u1 + u2.  Every element of a finite effect algebra is a sum of
atoms and homogeneity holds at 0, so an algebra is homogeneous exactly
when it is homogeneous at its atoms, and every element at which
homogeneity fails lies above an atom at which it fails.

Associativity is decided at the atoms too, by this lemma.  Write p ~ q
when p and q are both undefined, or both defined and equal; let h(x) be
the number of cells (y, z) with y + z = x and deg(w) the number of
defined cells in row w.  Take a table with index 0 acting as zero, and
a set of elements, the atoms, such that for each atom a:
  (1) (a + y) + z ~ a + (y + z) whenever a + (y + z) is defined,
  (2) the sum over the defined a + x of h(x) - deg(a + x) is 0,
and such that every x != 0 is a + y for an atom a and some y with
h(y) < h(x).  Then the table is associative.  Proof.  The pairs (y, z)
with a + (y + z) defined number the sum of h(x), and those with
(a + y) + z defined the sum of deg(a + x), both over the defined a + x.
By (1) the first set lies in the second, so each atom's share of (2) is
at most 0; the sum is 0, so the two sets are equal and
(a + y) + z ~ a + (y + z) for every y, z.  Now x + (b + c) ~ (x + b) + c
by induction on h(x): the zero row gives it at x = 0, and for
x = a + y with h(y) < h(x),
  x + (b + c) ~ a + (y + (b + c)) ~ a + ((y + b) + c)
              ~ (a + (y + b)) + c ~ ((a + y) + b) + c = (x + b) + c.
Conversely every effect algebra satisfies all three, with its atoms:
(1) and (2) because it is associative, and each x != 0 lies above an
atom a, so x = a + (x - a); by cancellation h(x) is the number of
elements below x, and by positivity fewer lie below x - a.  So on a
table that passes validate's earlier checks the atom check fails exactly
when the table is not associative.
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
    is_lattice, hasse_covers and unsplit_cell read.  The derived
    properties _bounds, sharp_set, is_lattice and homogeneity_witness are
    cached in the instance __dict__ (so this record has no __slots__):
    each is computed on first use and then read, at most once per
    algebra.  Otherwise
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
        down, up, _ = self._bounds
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
        # and each down-set's element.  z <= y iff some cell (z, c) of
        # by_sum[y] exists, so one pass over by_sum fills both.  The common
        # lower bounds of x and y are down[x] & down[y]; they have a
        # greatest element g iff that set is down[g].  Antisymmetry makes
        # every down-set distinct.
        n = self.size
        down, up = [0] * n, [0] * n
        for y, cells in enumerate(self.by_sum):
            bit, below = 1 << y, 0
            for z, _ in cells:
                below |= 1 << z
                up[z] |= bit
            down[y] = below
        by_down = {d: g for g, d in enumerate(down)}
        return down, up, by_down

    def meet(self, x, y):
        """Greatest common lower bound, or None when no greatest one exists."""
        down, _, by_down = self._bounds
        return by_down.get(down[x] & down[y])

    def join(self, x, y):
        """Least common upper bound, or None when no least one exists: (x' meet
        y')', as x <= y iff y' <= x' (Foulis and Bennett, Found. Phys. 24, 1994)."""
        m = self.meet(self.ortho[x], self.ortho[y])
        return None if m is None else self.ortho[m]

    @cached_property
    def is_lattice(self):
        # Meets suffice: in a finite poset with a top (the unit) where every
        # pair has a meet, the join of x and y is the meet of their common
        # upper bounds, a set that holds 1 and so is not empty.
        down, _, by_down = self._bounds
        n = self.size
        return all(
            down[x] & down[y] in by_down for x in range(n) for y in range(x + 1, n)
        )

    def unsplit_cell(self, u, splits):
        """The least cell (v1, v2), row-major, with u <= v1 + v2 <= u' and no
        split u1 + u2 = u below it (u1 <= v1, u2 <= v2), or None when there
        is none.  splits holds cells (u1, u2) with u1 + u2 = u; the trivial
        splits 0 + u and u + 0 count whether listed or not.

        Only u <= u' can fail.  Bit k of m1[v1] (m2[v2]) marks a split
        u1 + u2 = u with u1 <= v1 (u2 <= v2): bits 0 and 1 the trivial
        splits 0 + u and u + 0, bits 2, 3, ... the other splits, one each.
        A defined cell (v1, v2) whose sum lies in [u, u'] fails iff
        m1[v1] & m2[v2] == 0.  Its summands lie below u', so the masks are
        built for the elements below u' only, and there a summand lies
        above u iff it lies in [u, u'].  The cells of by_sum[t] for t in [u, u'] are scanned one
        sum at a time, so the least of each sum's first failing cell is the
        row-major first.
        """
        down, up, _ = self._bounds
        below = down[self.ortho[u]]
        if not below >> u & 1:
            return None
        between = _bits(up[u] & below)
        m1, m2 = [1] * self.size, [2] * self.size
        for v in between:
            m1[v] |= 2
            m2[v] |= 1
        bit = 4
        for u1, u2 in splits:
            if u1 and u2:
                for v in _bits(up[u1] & below):
                    m1[v] |= bit
                for v in _bits(up[u2] & below):
                    m2[v] |= bit
                bit <<= 1
        fails = []  # the first failing cell of each sum in [u, u']
        for t in between:
            for v1, v2 in self.by_sum[t]:
                if not m1[v1] & m2[v2]:
                    fails.append((v1, v2))
                    break
        return min(fails, default=None)

    @cached_property
    def homogeneity_witness(self):
        """Lexicographically first (u, v1, v2) at which homogeneity fails, or
        None when the algebra is homogeneous.

        Homogeneity at u: whenever u <= v1 + v2 <= u' (the sum defined), u
        splits as u1 + u2 with u1 <= v1 and u2 <= v2; unsplit_cell decides
        it for one u.  By the lemma of the module docstring each atom is
        checked; if none fails the algebra is homogeneous, else only the
        elements above a failing atom are checked, in index order, and the
        first that fails gives the witness, with the least failing cell of
        its sums.
        """
        by_sum = self.by_sum
        fails = {}  # each failing atom's least failing cell
        for a in self.atoms:
            cell = self.unsplit_cell(a, by_sum[a])
            if cell is not None:
                fails[a] = cell
        if not fails:
            return None
        up = self._bounds[1]
        above = 0
        for a in fails:
            above |= up[a]
        # the failing atoms lie in `above`, so this loop returns
        for u in _bits(above):
            cell = fails.get(u) or self.unsplit_cell(u, by_sum[u])
            if cell is not None:
                return HomogeneityWitness(u, *cell)

    def hasse_covers(self):
        """All pairs (x, y) with x < y and nothing strictly between, ordered
        by x, then y: y covers x iff [x, y] is {x, y} alone."""
        down, up, _ = self._bounds
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


def _associative_at_atoms(s, by_sum, atoms):
    """True iff the table is associative, decided at the atoms by the lemma
    of the module docstring; s must pass validate's earlier checks.

    Over each atom a and each defined a + x: every cell (b, c) of x has
    (a + b) + c defined and equal to a + x; the h(x) - deg(a + x), with
    h(x) = len(by_sum[x]), add up to 0 in balance; and every nonzero
    element is reached, as some a + x with h(x) < h(a + x).
    """
    n = len(s)
    deg = [n - row.count(UNDEF) for row in s]
    balance, reached = 0, 1  # 0 needs no reaching
    for a in atoms:
        row_a = s[a]
        for x, a_x in enumerate(row_a):
            if a_x == UNDEF:
                continue
            cells = by_sum[x]
            for b, c in cells:
                ab = row_a[b]
                if ab == UNDEF or s[ab][c] != a_x:
                    return False
            h = len(cells)
            balance += h - deg[a_x]
            if h < len(by_sum[a_x]):
                reached |= 1 << a_x
    return balance == 0 and reached == (1 << n) - 1


def _raise_first_not_associative(s, by_sum):
    """Raise NotAssociative at the lexicographically first failing triple,
    if there is one.

    One direction over all ordered triples covers both readings of
    associativity, given commutativity: a + (b + c) defined forces
    (a + b) + c defined and equal.  Only triples with a + (b + c) defined
    can fail, so each a walks its defined sums a + x and the cells (b, c)
    of x.  That walk goes by x, not by (b, c), so the least of each x's
    first failing cell is the lexicographic one.
    """
    for a in range(len(s)):
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


def validate(table):
    """Check the effect-algebra axioms and derive the ortho map and atoms.

    Checks, in order: table shape (BadIndex), index 0 acting as zero
    (BadZero), commutativity including definedness (NotCommutative), the
    zero-one law (ZeroOneLawViolated), existence and uniqueness of
    orthosupplements (OrthoMissing / OrthoNotUnique), and associativity in
    both directions including definedness transfer (NotAssociative).  The
    first violation in lexicographic scan order is raised, the one the
    tests' first_violation_alt re-derives by a naive scan.  One pass over
    the cells (_scan_cells), after the size, unit and row-count checks,
    raises BadIndex at the first bad cell, since no other kind outranks
    it, and notes the least transpose mismatch, by_sum and the first
    breach of cancellation or positivity; the other kinds follow in the
    order above.  The atoms are read off by_sum, and the atom check
    (_associative_at_atoms, the lemma of the module docstring) decides
    associativity from their triples alone.  Only when it fails does the
    scan over every triple with a + (b + c) defined run, to name the
    witness: the least failing (b, c) of the least failing a, the first of
    a scan over all n**3 triples.
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

    # x != 0 is an atom iff nothing but 0 and x lies below it: by
    # cancellation and positivity, iff its only cells are (0, x) and (x, 0).
    # On a table not yet known to be valid they need not be atoms; the atom
    # check is sound for any elements, as it tests all that it relies on.
    atoms = tuple(x for x in range(1, n) if len(by_sum[x]) == 2)
    if not _associative_at_atoms(s, by_sum, atoms):
        _raise_first_not_associative(s, by_sum)
        raise AssertionError("the atom check rejected an associative table")

    # Consequences of the axioms, never assumed above.
    if breach is not None:
        raise AssertionError(breach)
    for x in range(n):
        if ortho[ortho[x]] != x:
            raise AssertionError(f"orthosupplement not involutive at {x}")

    return CheckedEffectAlgebra(
        table=table, ortho=tuple(ortho), atoms=atoms, by_sum=by_sum
    )
