"""Homogeneity decision and executable oracles for the structure statements.

Every oracle quantifies a statement over a concrete finite algebra and
reports Pass, Fail (with a witness tuple that re-checks as a genuine
violation) or NotApplicable when the statement's standing hypotheses do
not hold.  Statement ids: L14, L15, L20, L22, L30, L31, L32, L33, T36,
C1, C2, C3.
"""

from dataclasses import dataclass

# re-exported: HomogeneityWitness, LemmaReport and the verdicts
from .core import FAIL, NOT_APPLICABLE, PASS, UNDEF, HomogeneityWitness, LemmaReport
from .structure import verify_C2_C3

SUITE_ORDER = ("L14", "L15", "L20", "L22", "L30", "L31", "L32", "L33", "T36", "C1", "C2", "C3")


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


def check_L14(e):
    """Non-sharpness of x is equivalent to x lying in some [b, b'] with b != 0."""
    covered = set()
    for b in e.carrier:
        if b != 0:
            covered.update(e.interval(b, e.ortho[b]))
    for x in e.carrier:
        if (not e.is_sharp(x)) != (x in covered):
            return LemmaReport("L14", FAIL, (x,))
    return LemmaReport("L14", PASS)


def check_L15(e):
    """Every non-sharp atom lies below its orthosupplement."""
    for a in e.atoms:
        if not e.is_sharp(a) and not e.le(a, e.ortho[a]):
            return LemmaReport("L15", FAIL, (a,))
    return LemmaReport("L15", PASS)


def check_L20(e):
    """With trivial sharps, the atom intervals [a, a'] cover everything but 0, 1."""
    if not has_trivial_sharps(e):
        return LemmaReport("L20", NOT_APPLICABLE)
    covered = {0, e.one}
    for a in e.atoms:
        covered.update(e.interval(a, e.ortho[a]))
    for x in e.carrier:
        if x not in covered:
            return LemmaReport("L20", FAIL, (x,))
    return LemmaReport("L20", PASS)


def check_L22(e):
    """In a homogeneous algebra, a defined sum inside [a, a'] (a an atom with
    a <= a') must dominate a in one of its summands.

    For each such atom only the cells of by_sum[t], t in [a, a'], are
    scanned, one sum at a time; the least failing cell over those sums is
    the row-major first, so the witness (a, v1, v2) is that of a scan over
    all cells."""
    if not is_homogeneous(e):
        return LemmaReport("L22", NOT_APPLICABLE)
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
            return LemmaReport("L22", FAIL, (a, *min(fails)))
    return LemmaReport("L22", PASS)


def check_L30(e):
    """A defined multiple of one atom never lands in another atom's interval."""
    if not _in_hypothesis_class(e):
        return LemmaReport("L30", NOT_APPLICABLE)
    for a in e.atoms:
        for n, m in enumerate(e.multiples(a)[1:], 1):
            for b in e.atoms:
                if b != a and e.le(b, m) and e.le(m, e.ortho[b]):
                    return LemmaReport("L30", FAIL, (a, b, n))
    return LemmaReport("L30", PASS)


def check_L31(e):
    """Every defined multiple of an atom is 1 or stays in the atom's interval."""
    if not _in_hypothesis_class(e):
        return LemmaReport("L31", NOT_APPLICABLE)
    for a in e.atoms:
        for n, m in enumerate(e.multiples(a)[1:], 1):
            if m != e.one and not (e.le(a, m) and e.le(m, e.ortho[a])):
                return LemmaReport("L31", FAIL, (a, n))
    return LemmaReport("L31", PASS)


def check_L32(e):
    """Each atom's orthosupplement is one of its multiples (0-fold included,
    which only occurs in the two-element algebra)."""
    if not _in_hypothesis_class(e):
        return LemmaReport("L32", NOT_APPLICABLE)
    for a in e.atoms:
        if e.ortho[a] not in e.multiples(a):
            return LemmaReport("L32", FAIL, (a,))
    return LemmaReport("L32", PASS)


def check_L33(e):
    """If [0, na] exceeds the multiples of a, it contains a second atom."""
    if not _in_hypothesis_class(e):
        return LemmaReport("L33", NOT_APPLICABLE)
    for a in e.atoms:
        mults = {0}  # the multiples ka, k <= n
        for n, m in enumerate(e.multiples(a)[1:], 1):
            mults.add(m)
            if set(e.interval(0, m)) != mults:
                if not any(b != a and e.le(b, m) for b in e.atoms):
                    return LemmaReport("L33", FAIL, (a, n))
    return LemmaReport("L33", PASS)


def check_T36(e):
    """Multiples of a below a' have initial segments that are exactly chains."""
    if not _in_hypothesis_class(e):
        return LemmaReport("T36", NOT_APPLICABLE)
    for a in e.atoms:
        mults = {0}  # the multiples ka, k <= n
        for n, m in enumerate(e.multiples(a)[1:], 1):
            mults.add(m)
            if not e.le(m, e.ortho[a]):
                continue
            down = set(e.interval(0, m))
            if down != mults:
                z = min(down.symmetric_difference(mults))
                return LemmaReport("T36", FAIL, (a, n, z))
    return LemmaReport("T36", PASS)


def check_C1(e):
    """Distinct atom intervals are disjoint and elementwise incomparable."""
    if not _in_hypothesis_class(e):
        return LemmaReport("C1", NOT_APPLICABLE)
    intervals = {a: set(e.interval(a, e.ortho[a])) for a in e.atoms}
    for a in e.atoms:
        for b in e.atoms:
            if a == b:
                continue
            if a < b:
                common = intervals[a] & intervals[b]
                if common:
                    return LemmaReport("C1", FAIL, (a, b, min(common)))
            for x in sorted(intervals[a]):
                above = intervals[b].intersection(e.interval(x, e.one))
                if above:
                    return LemmaReport("C1", FAIL, (a, b, x, min(above)))
    return LemmaReport("C1", PASS)


def lemma_suite(e):
    """All statement oracles in stable order L14 ... C1, C2, C3."""
    reports = [
        check_L14(e),
        check_L15(e),
        check_L20(e),
        check_L22(e),
        check_L30(e),
        check_L31(e),
        check_L32(e),
        check_L33(e),
        check_T36(e),
        check_C1(e),
    ]
    reports.extend(verify_C2_C3(e))
    return reports


def render_reports(reports):
    return "\n".join(r.render() for r in reports)


@dataclass(frozen=True)
class AnalysisReport:
    """Per-algebra flags surfaced by the analyze command."""

    size: int
    one: int
    atoms: tuple
    sharp: tuple
    homogeneous: bool
    lattice: bool
    isotropy: tuple  # aligned with atoms

    def as_dict(self):
        return {
            "size": self.size,
            "one": self.one,
            "atoms": list(self.atoms),
            "sharp": list(self.sharp),
            "homogeneous": self.homogeneous,
            "lattice": self.lattice,
            "isotropy": list(self.isotropy),
        }


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
