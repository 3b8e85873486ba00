"""Homogeneity decision and executable oracles for the structure statements.

Each statement L14, L15, L20, L22, L30, L31, L32, L33, T36, C1, C2, C3 has
a body check_<id>(e), which quantifies it over a concrete finite algebra
and returns the first failure's witness tuple, or None when it holds.  A
body assumes its statement's standing hypotheses and never tests them.
STATEMENTS maps each id to its body, in suite order, and HYPOTHESES maps
an id to its standing hypothesis: trivial sharps for L20, homogeneity for
L22, both for L30 onwards and none for L14 and L15.  report() is the one
guard: NotApplicable when the hypothesis does not hold, else Pass, or Fail
with the body's witness, which re-checks as a genuine violation.
"""

from collections import namedtuple

from .core import UNDEF
from .structure import DecomposeError, decompose

PASS = "Pass"
FAIL = "Fail"
NOT_APPLICABLE = "NotApplicable"


class LemmaReport(
    namedtuple("LemmaReport", "lemma_id verdict witness", defaults=(None,))
):
    __slots__ = ()

    def render(self):
        line = f"{self.lemma_id} {self.verdict}"
        if self.witness is not None:
            line += f" witness={self.witness}"
        return line


def homogeneity_witness(e):
    """Lexicographically first failure of homogeneity, or None (computed
    once per algebra, see CheckedEffectAlgebra.homogeneity_witness)."""
    return e.homogeneity_witness


def is_homogeneous(e):
    return e.homogeneity_witness is None


def verify_homogeneity_witness(e, w):
    """Re-check a witness against the table using only order primitives."""
    t = e.table.sum[w.v1][w.v2]
    if t == UNDEF or not (e.le(w.u, t) and e.le(t, e.ortho[w.u])):
        return False
    for u1 in range(e.size):
        for u2 in range(e.size):
            if e.table.sum[u1][u2] == w.u and e.le(u1, w.v1) and e.le(u2, w.v2):
                return False
    return True


def has_trivial_sharps(e):
    return set(e.sharp_set) == {0, e.one}


def _in_hypothesis_class(e):
    return has_trivial_sharps(e) and is_homogeneous(e)


def _lowest(m):
    """The index of the lowest set bit of m > 0."""
    return (m & -m).bit_length() - 1


def check_L14(e):
    """Non-sharpness of x is equivalent to x lying in some [b, b'] with b != 0."""
    down, up, _, _ = e._bounds
    covered = 0
    for b in range(1, e.size):
        covered |= up[b] & down[e.ortho[b]]
    for x in e.carrier:
        if (not e.is_sharp(x)) != (covered >> x & 1):
            return (x,)
    return None


def check_L15(e):
    """Every non-sharp atom lies below its orthosupplement."""
    for a in e.atoms:
        if not e.is_sharp(a) and not e.le(a, e.ortho[a]):
            return (a,)
    return None


def check_L20(e):
    """With trivial sharps, the atom intervals [a, a'] cover everything but 0, 1."""
    covered = {0, e.one}
    for a in e.atoms:
        covered.update(e.interval(a, e.ortho[a]))
    for x in e.carrier:
        if x not in covered:
            return (x,)
    return None


def check_L22(e):
    """In a homogeneous algebra, a defined sum inside [a, a'] (a an atom with
    a <= a') must dominate a in one of its summands.

    For each such atom only the cells of by_sum[t], t in [a, a'], are
    scanned, one sum at a time; the least failing cell over those sums is
    the row-major first, so the witness (a, v1, v2) is that of a scan over
    all cells."""
    for a in e.atoms:
        ap = e.ortho[a]
        if not e.le(a, ap):
            continue
        above = set(e.interval(a, e.one))
        fails = []  # the first failing cell of each sum in [a, a']
        for t in e.interval(a, ap):
            for v1, v2 in e.by_sum[t]:
                if v1 not in above and v2 not in above:
                    fails.append((v1, v2))
                    break
        if fails:
            return (a, *min(fails))
    return None


def check_L30(e):
    """A defined multiple of one atom never lands in another atom's interval."""
    for a in e.atoms:
        for n, m in enumerate(e.multiples(a)[1:], 1):
            for b in e.atoms:
                if b != a and e.le(b, m) and e.le(m, e.ortho[b]):
                    return (a, b, n)
    return None


def check_L31(e):
    """Every defined multiple of an atom is 1 or stays in the atom's interval."""
    for a in e.atoms:
        for n, m in enumerate(e.multiples(a)[1:], 1):
            if m != e.one and not (e.le(a, m) and e.le(m, e.ortho[a])):
                return (a, n)
    return None


def check_L32(e):
    """Each atom's orthosupplement is one of its multiples (0-fold included,
    which only occurs in the two-element algebra)."""
    for a in e.atoms:
        if e.ortho[a] not in e.multiples(a):
            return (a,)
    return None


def check_L33(e):
    """If [0, na] exceeds the multiples of a, it contains a second atom."""
    down = e._bounds[0]
    for a in e.atoms:
        mults = 1  # bit z set iff z = ka for some k <= n
        for n, m in enumerate(e.multiples(a)[1:], 1):
            mults |= 1 << m
            if down[m] != mults:
                if not any(b != a and e.le(b, m) for b in e.atoms):
                    return (a, n)
    return None


def check_T36(e):
    """Multiples of a below a' have initial segments that are exactly chains."""
    down = e._bounds[0]
    for a in e.atoms:
        mults = 1  # bit z set iff z = ka for some k <= n
        for n, m in enumerate(e.multiples(a)[1:], 1):
            mults |= 1 << m
            if e.le(m, e.ortho[a]) and down[m] != mults:
                return (a, n, _lowest(down[m] ^ mults))
    return None


def check_C1(e):
    """Distinct atom intervals are disjoint and elementwise incomparable."""
    down, up, _, _ = e._bounds
    intervals = {a: up[a] & down[e.ortho[a]] for a in e.atoms}
    for a in e.atoms:
        members = e.interval(a, e.ortho[a])
        for b in e.atoms:
            if a == b:
                continue
            if a < b and intervals[a] & intervals[b]:
                return (a, b, _lowest(intervals[a] & intervals[b]))
            for x in members:
                if intervals[b] & up[x]:
                    return (a, b, x, _lowest(intervals[b] & up[x]))
    return None


def check_C2(e):
    """The algebra is the horizontal sum of its decomposition chains.

    C2 checks decompose's labelling x -> (b, k), with chain lengths l_b,
    as a sum isomorphism.  Every cell x + y, with x labelled (b, k) and y
    labelled (c, m), must follow the chain rule: if k = 0 or m = 0 the sum
    is the other summand; if b != c or k + m > l_b it is undefined; if
    k + m = l_b it is the unit, and otherwise the element labelled
    (b, k + m).  The witness is the first cell (x, y) that breaks the
    rule, or decompose's TheoremViolation detail when no labelling is
    found; outside the hypothesis class decompose's refusal propagates.
    Chains of equal length can be swapped, so the labelling is an
    isomorphism exactly when some isomorphism exists.
    """
    try:
        dec = decompose(e)
    except DecomposeError as exc:
        if exc.kind != "TheoremViolation":
            raise
        return exc.detail

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
    return next(
        ((x, y) for x in e.carrier for y in e.carrier if s[x][y] != chain_sum(x, y)),
        None,
    )


def check_C3(e):
    """The algebra is a lattice: the witness is the first (x, y) with no
    meet or no join."""
    if e.is_lattice:
        return None
    return next(
        (x, y)
        for x in e.carrier
        for y in e.carrier
        if e.meet(x, y) is None or e.join(x, y) is None
    )


# The bodies in suite order.  The values are the functions themselves, so
# a tool that rebinds the module's functions (a tracer) finds them here.
STATEMENTS = {
    "L14": check_L14,
    "L15": check_L15,
    "L20": check_L20,
    "L22": check_L22,
    "L30": check_L30,
    "L31": check_L31,
    "L32": check_L32,
    "L33": check_L33,
    "T36": check_T36,
    "C1": check_C1,
    "C2": check_C2,
    "C3": check_C3,
}

HYPOTHESES = {
    "L20": has_trivial_sharps,
    "L22": is_homogeneous,
    **dict.fromkeys(
        ("L30", "L31", "L32", "L33", "T36", "C1", "C2", "C3"), _in_hypothesis_class
    ),
}


def report(lemma_id, e):
    """The verdict of one statement on e: NotApplicable unless its standing
    hypothesis holds, else Pass, or Fail with the body's witness."""
    hypothesis = HYPOTHESES.get(lemma_id)
    if hypothesis is not None and not hypothesis(e):
        return LemmaReport(lemma_id, NOT_APPLICABLE)
    witness = STATEMENTS[lemma_id](e)
    return LemmaReport(lemma_id, PASS if witness is None else FAIL, witness)


def lemma_suite(e):
    """Every statement's report, in suite order L14 ... C1, C2, C3."""
    return [report(lemma_id, e) for lemma_id in STATEMENTS]


class AnalysisReport(
    namedtuple("AnalysisReport", "size one atoms sharp homogeneous lattice isotropy")
):
    """Per-algebra flags surfaced by the analyze command; isotropy is
    aligned with atoms."""

    __slots__ = ()


def analyze(e):
    return AnalysisReport(
        size=e.size,
        one=e.one,
        atoms=e.atoms,
        sharp=e.sharp_set,
        homogeneous=is_homogeneous(e),
        lattice=e.is_lattice,
        isotropy=tuple(e.isotropy_index(a) for a in e.atoms),
    )
