"""Chain decomposition and canonical forms.

A finite homogeneous algebra whose only sharp elements are 0 and 1 splits
into a horizontal sum of chains: one branch per atom a, consisting of the
multiples of a up to its orthosupplement.  decompose() computes that
splitting and fails loudly if the input is outside the hypothesis class
(or, which would be a severe bug, satisfies the hypotheses but not the
conclusion).  verify_C2_C3() checks that splitting's labelling against
every cell of the sum table.
"""

from dataclasses import dataclass

from .core import (
    FAIL, NOT_APPLICABLE, PASS, UNDEF, CheckedEffectAlgebra, EffectAlgebraTable, LemmaReport
)
from .corpus import serialize

UNASSIGNED = -2  # a cell the search has not decided yet


class DecomposeError(Exception):
    """kind: NotTrivialSharps | NotHomogeneous | TheoremViolation."""

    def __init__(self, kind, detail=None):
        self.kind = kind
        self.detail = detail
        super().__init__(f"{kind}: {detail}" if detail is not None else kind)


@dataclass(frozen=True)
class ChainDecomposition:
    """Multiset of chain lengths plus the element labeling x -> (branch, k),
    meaning x is the k-fold multiple of branch's atom.  0 and 1 are
    attributed to branch 0 with k = 0 and k = branch length."""

    chain_lengths: tuple
    labeling: dict
    branch_atoms: tuple

    def render(self):
        lines = [f"chains: {list(self.chain_lengths)}"]
        for x in sorted(self.labeling):
            b, k = self.labeling[x]
            lines.append(f"{x} -> {b}.{k}")
        return "\n".join(lines)


def _table_of(x):
    return x.table if isinstance(x, CheckedEffectAlgebra) else x


def relabel(table, perm):
    """Apply an index permutation (perm[old] = new, perm[0] = 0) to a table."""
    n = table.size
    inv = [0] * n
    for old, new in enumerate(perm):
        inv[new] = old
    rows = []
    for i in range(n):
        src = table.sum[inv[i]]
        rows.append(
            [UNDEF if src[inv[j]] == UNDEF else perm[src[inv[j]]] for j in range(n)]
        )
    return EffectAlgebraTable.from_rows(n, perm[table.one], rows)


def _root_states(n):
    """The live states of a table with no interior cell decided: the
    relabeling that fixes only 0 and the unit 1, stopped at cell (2, 2).
    Size 2 has no interior cell and no other relabeling, so none."""
    return [(bytes([0, 1] + [0] * (n - 2)), 2, 2)] if n > 2 else []


def _resume_relabelings(S, n, states):
    """Resume the comparisons of the live states on the flat table S
    (UNASSIGNED marks undecided cells).  Returns (witness, None) if a
    relabeling perm[old] = new fixing 0 and the unit 1 makes the decided
    prefix of S lexicographically smaller, else (None, S's live states).

    Cells are compared in row-major order as integers (undefined -1, the
    unit 1, interior elements 2..n-1), the order canonical_form minimises.
    Rows 0 and 1 and columns 0 and 1 agree under every such relabeling, so
    comparisons start at cell (2, 2).  A comparison stops with no verdict
    at the first cell (u, w) that is undecided in S or in the relabeled
    table; the live state (bytes(order), u, w), order[new] = old with 0 for
    a new index not chosen yet, records where.  A relabeling proved larger
    is dropped, as is a complete tie, which is an automorphism.

    Cells decided in S stay decided, with the same value, in every table
    that extends S.  So on such a table the comparisons that states left
    undecided go on from their stop cells, a dropped relabeling stays
    larger, and the verdict and live states equal those of a start from
    _root_states.  A state whose stop cell is still undecided, in S or in
    the relabeled table, would stop there again, and is kept unchanged
    without rebuilding its relabeling.

    Relabeled row 2 is built column by column, choosing the old element
    for each new index as it is needed.  A cell whose value is not placed
    yet can be made smaller (placed at a free index below the current
    cell: done), must equal the current cell (which places it), or can
    only be larger (dropped).  Once row 2 is equal the relabeling is
    complete and the later rows are compared directly.  Indices still free
    when a witness is found are filled in any order, as no cell compared so
    far involves them.
    """
    live = []
    # the relabeling being resumed; perm, its inverse, is kept only while
    # row 2 is built, as a complete relabeling is not changed
    order = perm = None

    def stop(u, w):
        live.append((bytes(order), u, w))
        return False

    def later_rows(u, w):
        for u in range(u, n):
            row_old = order[u] * n
            base = u * n
            for w in range(w, n):
                cur = S[base + w]
                v = S[row_old + order[w]]
                if cur == UNASSIGNED or v == UNASSIGNED:
                    return stop(u, w)
                pv = v if v < 0 else order.index(v)
                if pv != cur:
                    return pv < cur
            w = 2  # the next row starts at column 2
        return False

    def row2_from(w):
        if w == n:
            return later_rows(3, 2)
        if S[2 * n + w] == UNASSIGNED:
            return stop(2, w)
        if order[w]:
            return cell(w)
        for x in range(2, n):
            if not perm[x]:
                order[w], perm[x] = x, w
                if cell(w):
                    return True
                order[w] = perm[x] = 0
        return False

    def cell(w):
        v = S[order[2] * n + order[w]]
        cur = S[2 * n + w]
        if v == UNASSIGNED:
            return stop(2, w)
        if v < 0 or perm[v]:
            pv = v if v < 0 else perm[v]
            if pv != cur:
                return pv < cur
            return row2_from(w + 1)
        # v is not placed yet: it takes a free index, and all are above w
        # (so above an undefined cell and the unit)
        if cur <= 1:
            return False
        # the least free index decides: below cur the cell is smaller, at
        # cur it ties, above cur every choice is larger
        for p in range(w + 1, cur + 1):
            if not order[p]:
                order[p], perm[v] = v, p
                if p < cur or row2_from(w + 1):
                    return True
                order[p] = perm[v] = 0
                return False
        return False

    for state in states:
        o, u, w = state
        # the fast path: a stop cell still undecided stops the state again
        if S[u * n + w] == UNASSIGNED or o[w] and o[u] and S[o[u] * n + o[w]] == UNASSIGNED:
            live.append(state)
            continue
        if u > 2:
            # a complete relabeling: compared in place, as the bytes it is
            order = o
            found = later_rows(u, w)
        else:
            order = list(o)
            perm = [0] * n
            for new, old in enumerate(o):
                if old:
                    perm[old] = new
            found = row2_from(w)
        if found:
            placed = {old: new for new, old in enumerate(order) if old}
            free = (p for p in range(2, n) if not order[p])
            return [0] + [placed.get(x) or next(free) for x in range(1, n)], None
    return None, live


def _smaller_relabeling(S, n):
    """A relabeling perm[old] = new fixing 0 and the unit 1 that makes the
    decided prefix of S smaller, or None: _resume_relabelings started from
    _root_states.  On a complete table the test is exact: None means S is
    its own least relabeling.  canonical_form descends by it; the search
    does not start afresh at each node but resumes its parent's states."""
    return _resume_relabelings(S, n, _root_states(n))[0]


def canonical_form(x):
    """Serialization of the relabeling fixing 0 whose integer tuple
    (unit index, then the sum table row by row, undefined as -1) is least.

    Equal byte strings iff isomorphic.  The tuple leads with the unit's new
    index, and 1 is the least one, so the table is first relabeled with
    the unit at 1.  Then _smaller_relabeling's witness is applied until
    there is none.  Each step makes the tuple strictly smaller and the test
    is exact on a complete table, so the descent stops at the least tuple.
    """
    t = _table_of(x)
    perm = list(range(t.size))
    perm[1], perm[t.one] = t.one, 1
    while perm is not None:
        t = relabel(t, perm)
        perm = _smaller_relabeling([v for row in t.sum for v in row], t.size)
    return serialize(t)


def decompose(e):
    """Split a homogeneous trivial-sharp algebra into chains of atom multiples."""
    extra = [x for x in e.sharp_set if x not in (0, e.one)]
    if extra:
        raise DecomposeError("NotTrivialSharps", tuple(extra))
    w = e.homogeneity_witness
    if w is not None:
        raise DecomposeError("NotHomogeneous", w)

    branches = []
    for a in e.atoms:
        *mults, top = e.multiples(a)[1:]
        length = len(mults) + 1
        if top != e.one:
            raise DecomposeError("TheoremViolation", ("top multiple", a, length, top))
        if set(e.interval(a, e.ortho[a])) != set(mults):
            raise DecomposeError(
                "TheoremViolation", ("interval", a, tuple(e.interval(a, e.ortho[a])))
            )
        branches.append((length, a, mults))
    branches.sort()

    seen = {}
    for b, (length, a, mults) in enumerate(branches):
        for x in mults:
            if x in seen:
                raise DecomposeError("TheoremViolation", ("overlap", x))
            seen[x] = b
    interior = [x for x in e.carrier if x not in (0, e.one)]
    uncovered = [x for x in interior if x not in seen]
    if uncovered:
        raise DecomposeError("TheoremViolation", ("uncovered", tuple(uncovered)))

    lengths = tuple(length for length, _, _ in branches)
    labeling = {0: (0, 0), e.one: (0, lengths[0])}
    for b, (length, a, mults) in enumerate(branches):
        for k, x in enumerate(mults, start=1):
            labeling[x] = (b, k)
    atoms = tuple(a for _, a, _ in branches)
    return ChainDecomposition(chain_lengths=lengths, labeling=labeling, branch_atoms=atoms)


def verify_C2_C3(e):
    """C2: the algebra is the horizontal sum of its decomposition chains.
    C3: it is a lattice.  Both need the standing hypotheses.

    C2 checks decompose's labelling x -> (b, k), with chain lengths l_b,
    as a sum isomorphism.  Every cell x + y, with x labelled (b, k) and y
    labelled (c, m), must follow the chain rule: if k = 0 or m = 0 the sum
    is the other summand; if b != c or k + m > l_b it is undefined; if
    k + m = l_b it is the unit, and otherwise the element labelled
    (b, k + m).  The witness of a Fail is the first cell (x, y) that
    breaks the rule.  Chains of equal length can be swapped, so the
    labelling is an isomorphism exactly when some isomorphism exists.
    """
    try:
        dec = decompose(e)
    except DecomposeError as exc:
        if exc.kind == "TheoremViolation":
            return [
                LemmaReport("C2", FAIL, exc.detail),
                LemmaReport("C3", PASS if e.is_lattice else FAIL),
            ]
        return [LemmaReport("C2", NOT_APPLICABLE), LemmaReport("C3", NOT_APPLICABLE)]

    lengths, label = dec.chain_lengths, dec.labeling
    element = {bk: x for x, bk in label.items()}

    def chain_sum(x, y):
        (b, k), (c, m) = label[x], label[y]
        if k == 0 or m == 0:
            return y if k == 0 else x
        if b != c or k + m > lengths[b]:
            return UNDEF
        return e.one if k + m == lengths[b] else element[b, k + m]

    s = e.table.sum
    bad = next(
        ((x, y) for x in e.carrier for y in e.carrier if s[x][y] != chain_sum(x, y)),
        None,
    )
    c2 = LemmaReport("C2", PASS) if bad is None else LemmaReport("C2", FAIL, bad)

    if e.is_lattice:
        c3 = LemmaReport("C3", PASS)
    else:
        bad = next(
            (x, y)
            for x in e.carrier
            for y in e.carrier
            if e.meet(x, y) is None or e.join(x, y) is None
        )
        c3 = LemmaReport("C3", FAIL, bad)
    return [c2, c3]
