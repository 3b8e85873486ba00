"""Chain decomposition.

A finite homogeneous algebra whose only sharp elements are 0 and 1 splits
into a horizontal sum of chains: one branch per atom a, consisting of the
multiples of a up to its orthosupplement.  decompose() computes that
splitting and fails loudly if the input is outside the hypothesis class
(or, which would be a severe bug, satisfies the hypotheses but not the
conclusion).  verify_C2_C3() checks that splitting's labelling against
every cell of the sum table.
"""

from dataclasses import dataclass

from .core import FAIL, NOT_APPLICABLE, PASS, UNDEF, EffectAlgebraTable, LemmaReport


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
