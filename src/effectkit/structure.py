"""Chain decomposition.

A finite homogeneous algebra whose only sharp elements are 0 and 1 splits
into a horizontal sum of chains: one branch per atom a, consisting of the
multiples of a up to its orthosupplement.  decompose() computes that
splitting and fails loudly if the input is outside the hypothesis class
(or, which would be a severe bug, satisfies the hypotheses but not the
conclusion).  lemmas.check_C2 checks that splitting's labelling against
every cell of the sum table.
"""

from collections import namedtuple

from .core import UNDEF, EffectAlgebraTable


class DecomposeError(Exception):
    """kind: NotTrivialSharps | NotHomogeneous | TheoremViolation."""

    def __init__(self, kind, detail=None):
        self.kind = kind
        self.detail = detail
        super().__init__(f"{kind}: {detail}" if detail is not None else kind)


class ChainDecomposition(
    namedtuple("ChainDecomposition", "chain_lengths labeling")
):
    """Multiset of chain lengths plus the element labeling x -> (branch, k),
    meaning x is the k-fold multiple of branch's atom.  0 and 1 are
    attributed to branch 0 with k = 0 and k = branch length."""

    __slots__ = ()

    def render(self):
        lines = [f"chains: {list(self.chain_lengths)}"]
        for x in sorted(self.labeling):
            b, k = self.labeling[x]
            lines.append(f"{x} -> {b}.{k}")
        return "\n".join(lines)


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
        interval = e.interval(a, e.ortho[a])
        if set(interval) != set(mults):
            raise DecomposeError("TheoremViolation", ("interval", a, interval))
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
    return ChainDecomposition(chain_lengths=lengths, labeling=labeling)

