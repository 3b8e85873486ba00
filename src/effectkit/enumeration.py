"""Exhaustive isomorph-free generation of small effect algebras.

Search: the unit is pinned at index 1 (harmless, every algebra has a
relabeling with that shape), the zero row and the unit row are forced by
the axioms, and the remaining upper-triangle cells are assigned depth
first in row-major order.  Propagation on every assignment: symmetric
storage gives commutativity, per-row value masks give cancellation and
orthosupplement uniqueness, rows are forced to keep an orthosupplement
reachable, and associativity (with definedness transfer) is re-checked
incrementally over the triples a newly decided cell can influence,
forcing further cells where the triple determines them.  The partial
table and the row masks are the whole state; each branch restores both by copy.

Isomorph rejection (Read's orderly method): a table is emitted only if
it is lexicographically minimal among relabelings of the interior
elements, so exactly one labeled table per class survives.  Minimality
is tested on every partial table the search reaches: if a relabeling
makes its decided prefix (the cells before the first undecided one)
smaller, no completion can be minimal and the subtree is cut.  On a
complete table the same test is the full minimality test.  The unit
at 1 and the integer order of cells are canonical_form's, and
canonical_form descends by the same test, so an emitted table is its own
canonical form and is keyed by its serialization.  The tests compare the
keys with every labeled table of the unfiltered search keyed by an
independent scan over all relabelings.
"""

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .core import UNDEF, EffectAlgebraTable, validate
from .corpus import parse, serialize
from .lemmas import PASS, has_trivial_sharps, is_homogeneous
from .structure import UNASSIGNED, _smaller_relabeling, verify_C2_C3

DEFAULT_MAX_SIZE = 10

SURVEY_COLUMNS = (
    "size",
    "total",
    "homogeneous",
    "trivial_sharp",
    "hypothesis_class",
    "theorem_verified",
    "counterexamples",
)


class SizeTooLarge(ValueError):
    pass


@dataclass(frozen=True)
class SurveyRow:
    size: int
    total: int
    homogeneous: int
    trivial_sharp: int
    hypothesis_class: int
    theorem_verified: int
    counterexamples: int

    def as_tsv(self):
        return "\t".join(str(getattr(self, c)) for c in SURVEY_COLUMNS)


def _snapshot(S, n):
    rows = tuple(tuple(S[i * n : (i + 1) * n]) for i in range(n))
    return EffectAlgebraTable(n, 1, rows)


def _enumerate_tables(n, first_values=None, leaf_filter=True):
    """All valid tables with unit 1: one canonical labeling per class when
    leaf_filter is on, every labeled table otherwise.  The state is the
    table S and the row masks used, restored by copy after each branch."""
    one = 1
    S = [UNASSIGNED] * (n * n)
    used = [1 << x for x in range(n)]  # x + 0 = x puts x in row x
    for x in range(n):
        S[x] = x
        S[x * n] = x
    for x in range(1, n):
        S[one * n + x] = UNDEF
        S[x * n + one] = UNDEF
    cells = [i * n + j for i in range(2, n) for j in range(i, n)]

    results = []
    queue = []

    def set_cell(i, j, v):
        pos = i * n + j
        cur = S[pos]
        if cur != UNASSIGNED:
            return cur == v
        if v != UNDEF:
            if v <= 0 or ((used[i] | used[j]) >> v) & 1:
                return False
            used[i] |= 1 << v
            used[j] |= 1 << v
        S[pos] = v
        S[j * n + i] = v
        queue.append(pos)
        for r in (i,) if i == j else (i, j):
            if not (used[r] >> one) & 1:
                row = S[r * n + 2 : r * n + n]
                k = row.count(UNASSIGNED)
                if k == 0 or k == 1 and not set_cell(r, 2 + row.index(UNASSIGNED), one):
                    return False
        return True

    def check(a, b, c):
        # whenever b+c and a+(b+c) are defined, (a+b)+c must be defined and
        # equal; covers the symmetric reading via commutative storage.
        bc = S[b * n + c]
        if bc < 0:
            return True
        abc = S[a * n + bc]
        if abc == UNASSIGNED:
            return True
        ab = S[a * n + b]
        if abc >= 0:
            if ab == UNDEF:
                return False
            if ab == UNASSIGNED:
                return True
            fc = S[ab * n + c]
            if fc == UNASSIGNED:
                return set_cell(ab, c, abc)
            return fc == abc
        if ab >= 0:
            fc = S[ab * n + c]
            if fc >= 0:
                return False
            if fc == UNASSIGNED:
                return set_cell(ab, c, UNDEF)
        return True

    def propagate():
        while queue:
            pos = queue.pop()
            i, j = divmod(pos, n)
            for t in range(2, n):
                if not (check(t, i, j) and check(i, j, t)):
                    return False
                if i != j and not (check(t, j, i) and check(j, i, t)):
                    return False
            for b in range(2, n):
                base = b * n
                for c in range(2, n):
                    w = S[base + c]
                    if w == j:
                        if not (check(i, b, c) and check(b, c, i)):
                            return False
                    elif w == i and i != j:
                        if not (check(j, b, c) and check(b, c, j)):
                            return False
        return True

    last = len(cells)

    def dfs(idx):
        while idx < last and S[cells[idx]] != UNASSIGNED:
            idx += 1
        # no completion of a prefix that some relabeling makes smaller is
        # minimal; at the leaf this is the full minimality test
        if leaf_filter and _smaller_relabeling(S, n) is not None:
            return
        if idx == last:
            results.append(_snapshot(S, n))
            return
        pos = cells[idx]
        i, j = divmod(pos, n)
        if idx == 0 and first_values is not None:
            domain = first_values
        else:
            taken = used[i] | used[j]
            domain = (UNDEF, *(k for k in range(1, n) if not (taken >> k) & 1))
        saved = S[:], used[:]
        for v in domain:
            queue.clear()
            if set_cell(i, j, v) and propagate():
                dfs(idx + 1)
            S[:], used[:] = saved

    dfs(0)
    return results


def _enumeration_worker(args):
    n, values = args
    return [serialize(t) for t in _enumerate_tables(n, values)]


def _check_cap(n, max_size):
    cap = DEFAULT_MAX_SIZE if max_size is None else max_size
    if n > cap:
        raise SizeTooLarge(f"size {n} above configured cap {cap}")


def enumerate_all(n, max_size=None, parallel=1):
    """Canonical keys of every isomorphism class of size-n effect algebras,
    sorted; deterministic including under parallel partitioning.  The
    search emits canonical labelings, so each key is the serialization of
    an emitted table and no canonical_form is called.

    The duplicate guard catches the same labeled table emitted twice, for
    example by overlapping parallel chunks.  It cannot catch a faulty
    minimality test, whose extra leaves are distinct labeled tables.  The
    tests catch that: the golden counts,
    test_emitted_tables_are_their_own_canonical_form, the sha256 pins of
    the keys and the filter-off differential test."""
    if n < 2:
        raise ValueError("effect algebras have at least two elements")
    _check_cap(n, max_size)
    if parallel > 1 and n >= 3:
        domain = (UNDEF, 1, *range(3, n))  # choices for the first cell (2, 2)
        chunks = [domain[k::parallel] for k in range(parallel)]
        chunks = [c for c in chunks if c]
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            parts = list(pool.map(_enumeration_worker, [(n, c) for c in chunks]))
    else:
        parts = [_enumeration_worker((n, None))]
    keys = set().union(*parts)
    if len(keys) != sum(map(len, parts)):
        raise AssertionError("search emitted the same labeled table twice")
    return sorted(keys)


def _theorem_holds(e):
    """The structure theorem's conclusions C2 and C3 both pass on e."""
    c2, c3 = verify_C2_C3(e)
    return c2.verdict == PASS and c3.verdict == PASS


def survey_row(n, keys):
    """Aggregate the structure-theorem flags over one size's canonical keys."""
    homog = trivial = hyp = verified = 0
    for key in keys:
        e = validate(parse(key))
        h = is_homogeneous(e)
        t = has_trivial_sharps(e)
        homog += h
        trivial += t
        if h and t:
            hyp += 1
            verified += _theorem_holds(e)
    return SurveyRow(
        size=n,
        total=len(keys),
        homogeneous=homog,
        trivial_sharp=trivial,
        hypothesis_class=hyp,
        theorem_verified=verified,
        counterexamples=hyp - verified,
    )


def survey(max_n, max_size=None, parallel=1):
    """One row per size 2..max_n aggregating the structure-theorem flags."""
    _check_cap(max_n, max_size)
    return [
        survey_row(n, enumerate_all(n, max_size=max_size, parallel=parallel))
        for n in range(2, max_n + 1)
    ]


@dataclass(frozen=True)
class CounterexampleSearch:
    """Smallest instances located by scanning the enumerated universe."""

    theorem: EffectAlgebraTable | None
    non_homogeneous: EffectAlgebraTable | None
    non_homogeneous_trivial_sharp: EffectAlgebraTable | None
    non_lattice: EffectAlgebraTable | None


def find_counterexample(max_n, max_size=None, parallel=1):
    """Search sizes 2..max_n for a theorem counterexample (none expected) and
    for the smallest non-homogeneous / non-lattice fixtures."""
    _check_cap(max_n, max_size)
    theorem = non_homog = non_homog_trivial = non_lattice = None
    for n in range(2, max_n + 1):
        if theorem and non_homog and non_homog_trivial and non_lattice:
            break
        for key in enumerate_all(n, max_size=max_size, parallel=parallel):
            e = validate(parse(key))
            h = is_homogeneous(e)
            t = has_trivial_sharps(e)
            if non_homog is None and not h:
                non_homog = e.table
            if non_homog_trivial is None and not h and t:
                non_homog_trivial = e.table
            if non_lattice is None and not e.is_lattice:
                non_lattice = e.table
            if theorem is None and h and t and not _theorem_holds(e):
                theorem = e.table
    return CounterexampleSearch(
        theorem=theorem,
        non_homogeneous=non_homog,
        non_homogeneous_trivial_sharp=non_homog_trivial,
        non_lattice=non_lattice,
    )


def write_enumeration(out_dir, max_n, max_size=None, parallel=1):
    """Persist canonical tables plus survey.tsv under out_dir; returns rows."""
    _check_cap(max_n, max_size)
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    for n in range(2, max_n + 1):
        keys = enumerate_all(n, max_size=max_size, parallel=parallel)
        size_dir = os.path.join(out_dir, f"size_{n}")
        os.makedirs(size_dir, exist_ok=True)
        for idx, key in enumerate(keys):
            with open(os.path.join(size_dir, f"{idx:04d}.json"), "wb") as fh:
                fh.write(key)
        rows.append(survey_row(n, keys))
    with open(os.path.join(out_dir, "survey.tsv"), "w", encoding="ascii") as fh:
        fh.write("\t".join(SURVEY_COLUMNS) + "\n")
        for row in rows:
            fh.write(row.as_tsv() + "\n")
    return rows
