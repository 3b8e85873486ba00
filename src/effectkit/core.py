"""Finite effect algebras given as partial Cayley tables.

An effect algebra is a set with a partial commutative associative sum,
constants 0 and 1, a unique orthosupplement x' for every x (x + x' = 1),
and the zero-one law (x + 1 defined forces x = 0).  Tables are square
matrices of element indices with -1 marking an undefined sum; index 0 is
always the zero element, the unit index is explicit.
"""

from dataclasses import dataclass
from functools import cached_property

UNDEF = -1


class ValidationError(Exception):
    """An axiom violation, with the first offending index tuple as witness."""

    def __init__(self, kind, witness):
        self.kind = kind
        self.witness = tuple(witness)
        super().__init__(f"{kind} witness={self.witness}")


@dataclass(frozen=True)
class EffectAlgebraTable:
    """Raw partial Cayley table: carrier size, unit index, sum matrix."""

    size: int
    one: int
    sum: tuple

    @staticmethod
    def from_rows(size, one, rows):
        return EffectAlgebraTable(size, one, tuple(tuple(r) for r in rows))


@dataclass(frozen=True)
class CheckedEffectAlgebra:
    """A validated algebra with its derived order, orthosupplement and atoms.

    Immutable after validation; safe to share across concurrent readers.
    """

    table: EffectAlgebraTable
    leq: tuple        # leq[x][y] iff some c has x + c = y
    ortho: tuple      # ortho[x] is the unique x' with x + x' = 1
    atoms: tuple      # minimal nonzero elements, ascending

    @property
    def size(self):
        return self.table.size

    @property
    def one(self):
        return self.table.one

    @property
    def carrier(self):
        return range(self.table.size)

    def sum_of(self, x, y):
        """Partial sum: element index, or None when undefined."""
        v = self.table.sum[x][y]
        return None if v == UNDEF else v

    def le(self, x, y):
        return self.leq[x][y]

    def interval(self, x, y):
        """All z with x <= z <= y, ascending; empty when x is not below y."""
        leq = self.leq
        return tuple(z for z in self.carrier if leq[x][z] and leq[z][y])

    def multiple(self, x, n):
        """n-fold sum of x (0 for n = 0), or None once a partial sum is undefined."""
        acc = 0
        row_of = self.table.sum
        for _ in range(n):
            acc = row_of[acc][x]
            if acc == UNDEF:
                return None
        return acc

    def isotropy_index(self, x):
        """Largest n >= 1 for which the n-fold sum of x is defined."""
        if x == 0:
            raise ValueError("isotropy index is undefined for the zero element")
        n, acc = 1, x
        while self.table.sum[acc][x] != UNDEF:
            acc = self.table.sum[acc][x]
            n += 1
        return n

    def is_sharp(self, x):
        """True iff the only common lower bound of x and x' is 0."""
        leq, xp = self.leq, self.ortho[x]
        return not any(b and leq[b][x] and leq[b][xp] for b in self.carrier)

    @cached_property
    def sharp_set(self):
        return tuple(x for x in self.carrier if self.is_sharp(x))

    def meet(self, x, y):
        """Greatest common lower bound, or None when no greatest one exists."""
        leq = self.leq
        lows = [z for z in self.carrier if leq[z][x] and leq[z][y]]
        for g in lows:
            if all(leq[z][g] for z in lows):
                return g
        return None

    def join(self, x, y):
        leq = self.leq
        ups = [z for z in self.carrier if leq[x][z] and leq[y][z]]
        for g in ups:
            if all(leq[g][z] for z in ups):
                return g
        return None

    @cached_property
    def is_lattice(self):
        pairs = [(x, y) for x in self.carrier for y in self.carrier if x < y]
        return all(
            self.meet(x, y) is not None and self.join(x, y) is not None
            for x, y in pairs
        )

    def hasse_covers(self):
        """All pairs (x, y) with x < y and nothing strictly between."""
        leq, n = self.leq, self.size
        lt = [[leq[x][y] and x != y for y in range(n)] for x in range(n)]
        return tuple(
            (x, y)
            for x in range(n)
            for y in range(n)
            if lt[x][y] and not any(lt[x][z] and lt[z][y] for z in range(n))
        )


def _check_shape(t):
    n = t.size
    if n < 2:
        raise ValidationError("BadIndex", (n,))
    if not isinstance(t.one, int) or not 0 < t.one < n:
        raise ValidationError("BadIndex", (t.one,))
    if len(t.sum) != n:
        raise ValidationError("BadIndex", (len(t.sum),))
    for i in range(n):
        row = t.sum[i]
        if len(row) != n:
            raise ValidationError("BadIndex", (i,))
        for j in range(n):
            v = row[j]
            if not isinstance(v, int) or v < UNDEF or v >= n:
                raise ValidationError("BadIndex", (i, j))


def validate(table):
    """Check the effect-algebra axioms and derive order, ortho map and atoms.

    Checks, in order: table shape (BadIndex), index 0 acting as zero
    (BadZero), commutativity including definedness (NotCommutative), the
    zero-one law (ZeroOneLawViolated), existence and uniqueness of
    orthosupplements (OrthoMissing / OrthoNotUnique), and associativity in
    both directions including definedness transfer (NotAssociative).  The
    first violation in lexicographic scan order is raised.  Cancellation,
    positivity and an involutive orthosupplement follow from the axioms;
    they are re-checked last, and a breach raises AssertionError, which
    marks a bug in the checks above.
    """
    _check_shape(table)
    n, one, s = table.size, table.one, table.sum

    for x in range(n):
        if s[0][x] != x:
            raise ValidationError("BadZero", (x,))

    for i in range(n):
        for j in range(i + 1, n):
            if s[i][j] != s[j][i]:
                raise ValidationError("NotCommutative", (i, j))

    for x in range(1, n):
        if x != one and s[x][one] != UNDEF:
            raise ValidationError("ZeroOneLawViolated", (x,))
    if s[one][one] != UNDEF:
        raise ValidationError("ZeroOneLawViolated", (one,))

    ortho = []
    for x in range(n):
        partners = [c for c in range(n) if s[x][c] == one]
        if not partners:
            raise ValidationError("OrthoMissing", (x,))
        if len(partners) > 1:
            raise ValidationError("OrthoNotUnique", (x, partners[0], partners[1]))
        ortho.append(partners[0])

    # One direction over all ordered triples covers both readings of
    # associativity, given commutativity was verified above.
    for a in range(n):
        for b in range(n):
            for c in range(n):
                bc = s[b][c]
                if bc == UNDEF:
                    continue
                a_bc = s[a][bc]
                if a_bc == UNDEF:
                    continue
                ab = s[a][b]
                if ab == UNDEF or s[ab][c] != a_bc:
                    raise ValidationError("NotAssociative", (a, b, c))

    leq = tuple(
        tuple(any(s[x][c] == y for c in range(n)) for y in range(n))
        for x in range(n)
    )

    # Sanity: consequences of the axioms, never assumed above.
    for a in range(n):
        seen = {}
        for b in range(n):
            v = s[a][b]
            if v == UNDEF:
                continue
            if v in seen:
                raise AssertionError(f"cancellation broken at {(a, seen[v], b)}")
            seen[v] = b
            if v == 0 and (a, b) != (0, 0):
                raise AssertionError(f"positivity broken at {(a, b)}")
    for x in range(n):
        if ortho[ortho[x]] != x:
            raise AssertionError(f"orthosupplement not involutive at {x}")

    atoms = tuple(
        x
        for x in range(1, n)
        if not any(y != x and leq[y][x] for y in range(1, n))
    )
    return CheckedEffectAlgebra(table=table, leq=leq, ortho=tuple(ortho), atoms=atoms)
