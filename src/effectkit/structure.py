"""Chain decomposition, isomorphism testing and canonical forms.

A finite homogeneous algebra whose only sharp elements are 0 and 1 splits
into a horizontal sum of chains: one branch per atom a, consisting of the
multiples of a up to its orthosupplement.  decompose() computes that
splitting and fails loudly if the input is outside the hypothesis class
(or, which would be a severe bug, satisfies the hypotheses but not the
conclusion).
"""

from dataclasses import dataclass
from itertools import permutations

from .core import UNDEF, CheckedEffectAlgebra, EffectAlgebraTable
from .corpus import chain, horizontal_sum, serialize
from .lemmas import (
    FAIL,
    NOT_APPLICABLE,
    PASS,
    LemmaReport,
    has_trivial_sharps,
    homogeneity_witness,
)


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


def canonical_form(x):
    """Serialization of the relabeling fixing 0 whose integer tuple
    (unit index, then the sum table row by row, undefined as -1) is least.

    Equal byte strings iff isomorphic.  The order is integer order for
    every size.  The tuple leads with the unit's new index, and 1 is the
    least one, so the least tuple puts the unit at 1 and only the (n-2)!
    relabelings of that shape are scanned.
    """
    t = _table_of(x)
    n, s = t.size, t.sum
    rest = [y for y in range(1, n) if y != t.one]
    best = best_perm = None
    for tail in permutations(rest):
        order = (0, t.one, *tail)
        perm = [0] * n
        for new, old in enumerate(order):
            perm[old] = new
        flat = [perm[t.one]]
        for oi in order:
            row = s[oi]
            for oj in order:
                v = row[oj]
                flat.append(UNDEF if v < 0 else perm[v])
        key = tuple(flat)
        if best is None or key < best:
            best, best_perm = key, perm
    return serialize(relabel(t, best_perm))


def _signature(e, x):
    defined = [v for v in e.table.sum[x] if v != UNDEF]
    return (
        len(defined),
        sum(e.leq[y][x] for y in e.carrier),
        sum(e.leq[x][y] for y in e.carrier),
        e.table.sum[x][x] != UNDEF,
        e.ortho[x] == x,
    )


def is_isomorphic(e, f):
    """A zero/unit-preserving sum isomorphism as a list h (h[x in e] = y in f),
    or None.  Backtracking over signature-compatible images."""
    if e.size != f.size:
        return None
    n = e.size
    sig_e = [_signature(e, x) for x in range(n)]
    sig_f = [_signature(f, x) for x in range(n)]
    if sorted(sig_e) != sorted(sig_f):
        return None
    if len(e.atoms) != len(f.atoms):
        return None
    if sorted(e.isotropy_index(a) for a in e.atoms) != sorted(
        f.isotropy_index(a) for a in f.atoms
    ):
        return None

    h = [-1] * n
    used = [False] * n
    h[0], used[0] = 0, True
    if sig_e[e.one] != sig_f[f.one]:
        return None
    h[e.one], used[f.one] = f.one, True
    todo = [x for x in range(1, n) if x != e.one]
    se, sf = e.table.sum, f.table.sum

    def compatible(x, y):
        for w in range(n):
            hw = h[w]
            if hw < 0:
                continue
            v = se[x][w]
            fv = sf[y][hw]
            if v == UNDEF:
                if fv != UNDEF:
                    return False
            else:
                if fv == UNDEF:
                    return False
                if h[v] >= 0 and h[v] != fv:
                    return False
        return True

    def search(k):
        if k == len(todo):
            return all(
                (se[a][b] == UNDEF) == (sf[h[a]][h[b]] == UNDEF)
                and (se[a][b] == UNDEF or h[se[a][b]] == sf[h[a]][h[b]])
                for a in range(n)
                for b in range(n)
            )
        x = todo[k]
        for y in range(1, n):
            if used[y] or sig_f[y] != sig_e[x]:
                continue
            if not compatible(x, y):
                continue
            h[x], used[y] = y, True
            if search(k + 1):
                return True
            h[x], used[y] = -1, False
        return False

    return h if search(0) else None


def decompose(e):
    """Split a homogeneous trivial-sharp algebra into chains of atom multiples."""
    extra = [x for x in e.sharp_set if x not in (0, e.one)]
    if extra:
        raise DecomposeError("NotTrivialSharps", tuple(extra))
    w = homogeneity_witness(e)
    if w is not None:
        raise DecomposeError("NotHomogeneous", w)

    branches = []
    for a in e.atoms:
        length = e.isotropy_index(a)
        if e.multiple(a, length) != e.one:
            raise DecomposeError(
                "TheoremViolation", ("top multiple", a, length, e.multiple(a, length))
            )
        mults = [e.multiple(a, k) for k in range(1, length)]
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
    """C2: the algebra is isomorphic to the horizontal sum of its decomposition
    chains.  C3: it is a lattice.  Both need the standing hypotheses."""
    try:
        dec = decompose(e)
    except DecomposeError as exc:
        if exc.kind == "TheoremViolation":
            return [
                LemmaReport("C2", FAIL, exc.detail),
                LemmaReport("C3", PASS if e.is_lattice else FAIL),
            ]
        return [LemmaReport("C2", NOT_APPLICABLE), LemmaReport("C3", NOT_APPLICABLE)]

    rebuilt = horizontal_sum([chain(l) for l in dec.chain_lengths])
    if is_isomorphic(e, rebuilt) is None:
        c2 = LemmaReport("C2", FAIL, dec.chain_lengths)
    else:
        c2 = LemmaReport("C2", PASS)

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
