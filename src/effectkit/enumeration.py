"""Exhaustive isomorph-free generation of small effect algebras.

Search: the unit is pinned at index 1 (harmless, every algebra has a
relabeling with that shape), the zero row and the unit row are forced by
the axioms, and the remaining upper-triangle cells are assigned depth
first in row-major order.  Propagation on every assignment: symmetric
storage gives commutativity, per-row value masks give cancellation and
orthosupplement uniqueness, rows are forced to keep an orthosupplement
reachable, and associativity (with definedness transfer) is re-checked
incrementally over the triples a newly decided cell can influence,
forcing further cells where the triple determines them.  The row masks
also locate those triples: a row holds a value in at most one cell, and
only if its mask has the value's bit.  The partial
table and the row masks are the whole state; each branch restores both by copy.

Isomorph rejection (Read's orderly method): a table is emitted only if
it is lexicographically minimal among relabelings of the interior
elements, so exactly one labeled table per class survives.  Minimality
is tested on every partial table the search reaches: if a relabeling
makes its decided prefix (the cells before the first undecided one)
smaller, no completion can be minimal and the subtree is cut.  On a
complete table the same test is the full minimality test.  So each
emitted table is the least relabeling of its class, with the unit at 1
and cells compared as integers in row-major order, and is keyed by its
serialization.  The tests pin that with their scan oracle, which keys a
table by scanning all of its relabelings.

The test is carried down the search rather than started afresh at every
node.  Each node resumes its parent's live states, the partial
relabelings whose comparison stopped undecided at some cell, and passes
the states still live to all of its branches; the root starts from the
relabeling that fixes only 0 and 1.  A state records the cell that
blocks it, undecided in the table or in its relabeling; while that cell
stays undecided the state is passed on as it is, which is most of them.
A decided cell never changes in a subtree, so a
relabeling proved larger stays larger, one proved smaller cuts the node,
and a stopped comparison goes on exactly where a fresh start would reach
it: the cuts, and so the nodes and the emitted tables, are those of a
test from scratch at every node.

The search creates no reference cycles, so reference counting frees a
node's live states as soon as no branch needs them, and nothing waits for
the cyclic garbage collector; a tier-1 test,
test_search_leaves_no_cyclic_garbage, keeps it so.

Parallel runs: one pool of worker processes serves a whole command, every
size of it.  Its tasks are the searches below each value of the first
cell (2, 2) (undefined, 1, 3, ..., n - 1) of every size n >= 3, and the
whole search of size 2.  All tasks are queued at once in size order and
their results are read back in that order, so the parent surveys or
writes size n while the workers search the sizes after it.  Each size's
keys are merged and sorted, so the output is identical for every
--parallel.  A serial run maps the search over the same tasks in this
process, with no pool.

Survey: survey_row is the one scan that parses, validates and classifies
the enumerated keys.  It counts the homogeneous and the trivial-sharp keys.
On the keys that are both, the hypothesis class, it calls the bodies of
the theorem's conclusions, lemmas.check_C2 and check_C3, with no guard, as
the key is known to meet their hypotheses; a key on which either returns
a witness is a counterexample, which the theorem rules out.
"""

import os
from collections import namedtuple
from contextlib import closing, nullcontext
from itertools import islice
from multiprocessing import Pool

from .core import UNDEF, EffectAlgebraTable, validate
from .corpus import parse, serialize
from .lemmas import check_C2, check_C3, has_trivial_sharps, is_homogeneous

DEFAULT_MAX_SIZE = 10
UNASSIGNED = -2  # a cell the search has not decided yet

SURVEY_COLUMNS = (
    "size",
    "total",
    "homogeneous",
    "trivial_sharp",
    "hypothesis_class",
    "theorem_verified",
    "counterexamples",
)


class SizeError(ValueError):
    pass


class SizeTooLarge(SizeError):
    pass


class SurveyRow(namedtuple("SurveyRow", SURVEY_COLUMNS)):
    __slots__ = ()

    def as_tsv(self):
        return "\t".join(map(str, self))


def _snapshot(S, n):
    rows = tuple(tuple(S[i * n : (i + 1) * n]) for i in range(n))
    return EffectAlgebraTable(n, 1, rows)


def _root_states(n):
    """The live states of a table with no interior cell decided: the
    relabeling that fixes only 0 and the unit 1, stopped and blocked at
    cell (2, 2).  Size 2 has no interior cell and no other relabeling, so
    none."""
    start = 2 * n + 2
    return [(start, start, bytes([0, 1] + [0] * (n - 2)) * 2)] if n > 2 else []


def _resume_relabelings(S, n, states):
    """Resume the comparisons of the live states on the flat table S
    (UNASSIGNED marks undecided cells).  Returns (witness, None) if a
    relabeling perm[old] = new fixing 0 and the unit 1 makes the decided
    prefix of S lexicographically smaller, else (None, S's live states).

    Cells are compared in row-major order as integers (undefined -1, the
    unit 1, interior elements 2..n-1), the order the search minimises.
    Rows 0 and 1 and columns 0 and 1 agree under every such relabeling, so
    comparisons start at cell (2, 2).  A comparison stops with no verdict
    at the first cell (u, w) that is undecided in S or in the relabeled
    table.  The live state (block, stop, rel) records where: stop is
    u * n + w; rel is 2n bytes, order[new] = old and then its inverse
    perm[old] = new, with 0 for an index not placed yet; block is stop if
    S's cell there is undecided, else the relabeled cell's position
    order[u] * n + order[w], which is the undecided one.  A relabeling
    proved larger is dropped, as is a complete tie, which is an
    automorphism.

    Cells decided in S stay decided, with the same value, in every table
    that extends S.  So on such a table the comparisons that states left
    undecided go on from their stop cells, a dropped relabeling stays
    larger, and the verdict and live states equal those of a start from
    _root_states.  A state whose block is still undecided would stop there
    again with the same block, and is kept unchanged, one lookup for most
    states; one whose block is decided is resumed, and stops again at once
    if the other cell is still undecided.

    Relabeled row 2 is built column by column, choosing the old element
    for each new index as it is needed.  A cell whose value is not placed
    yet can be made smaller (placed at a free index below the current
    cell: done), must equal the current cell (which places it), or can
    only be larger (dropped).  Once row 2 is equal the relabeling is
    complete and the later rows are compared directly.  Indices still free
    when a witness is found are filled in any order, as no cell compared so
    far involves them.

    The row-2 search (_row2_from, _row2_cell) and its comparison of the
    later rows (_later_rows) are module functions that take the table, the
    relabeling and live.append as arguments, and the later rows of a
    resumed complete relabeling are compared inline.  So a call defines no
    function and makes no reference cycle: the live list it returns is
    freed as soon as the search drops it, as a tier-1 test checks.
    """
    live = []
    append = live.append
    for state in states:
        block, pos, rel = state
        # the fast path: a block still undecided stops the state again
        if S[block] == UNASSIGNED:
            append(state)
            continue
        u, w = divmod(pos, n)
        if u == 2:
            rel = bytearray(rel)
            found = _row2_from(S, n, rel, w, append)
        else:
            # a complete relabeling: _later_rows's comparison, inline and
            # from the stop cell, as most resumed states are complete
            found = False
            for u in range(u, n):
                row_old = rel[u] * n
                base = u * n
                for w in range(w, n):
                    cur = S[base + w]
                    old = row_old + rel[w]
                    v = S[old]
                    if cur == UNASSIGNED or v == UNASSIGNED:
                        append((base + w if cur == UNASSIGNED else old, base + w, rel))
                        break
                    pv = v if v < 0 else rel[n + v]
                    if pv != cur:
                        found = pv < cur
                        break
                else:
                    w = 2  # the next row starts at column 2
                    continue
                break
        if found:
            order = rel[:n]
            placed = {old: new for new, old in enumerate(order) if old}
            free = (p for p in range(2, n) if not order[p])
            return [0] + [placed.get(x) or next(free) for x in range(1, n)], None
    return None, live


def _later_rows(S, n, rel, append):
    """Compare rows 3 on of the complete relabeling rel, tied on row 2:
    True if it makes the prefix smaller; False if larger or tied, or if
    stopped, with its live state appended.  The resume loop of
    _resume_relabelings holds a copy inline that starts at any cell."""
    for u in range(3, n):
        row_old = rel[u] * n
        base = u * n
        for w in range(2, n):
            cur = S[base + w]
            old = row_old + rel[w]
            v = S[old]
            if cur == UNASSIGNED or v == UNASSIGNED:
                append((base + w if cur == UNASSIGNED else old, base + w, bytes(rel)))
                return False
            pv = v if v < 0 else rel[n + v]
            if pv != cur:
                return pv < cur
    return False


def _row2_from(S, n, rel, w, append):
    """Go on building relabeled row 2 at column w, trying each free old
    element for new index w if none is placed there: True once some choice
    makes the prefix smaller (rel then holds it), else False with every
    stopped choice's live state appended."""
    if w == n:
        return _later_rows(S, n, rel, append)
    pos = 2 * n + w
    if S[pos] == UNASSIGNED:
        append((pos, pos, bytes(rel)))
        return False
    if rel[w]:
        return _row2_cell(S, n, rel, w, append)
    for x in range(2, n):
        if not rel[n + x]:
            rel[w], rel[n + x] = x, w
            if _row2_cell(S, n, rel, w, append):
                return True
            rel[w] = rel[n + x] = 0
    return False


def _row2_cell(S, n, rel, w, append):
    """Compare cell (2, w), new index w placed, and go on as _row2_from:
    the same verdict, and the same states appended."""
    old = rel[2] * n + rel[w]
    v = S[old]
    cur = S[2 * n + w]
    if v == UNASSIGNED:
        append((old, 2 * n + w, bytes(rel)))
        return False
    if v < 0 or rel[n + v]:
        pv = v if v < 0 else rel[n + v]
        if pv != cur:
            return pv < cur
        return _row2_from(S, n, rel, w + 1, append)
    # v is not placed yet: it takes a free index, and all are above w
    # (so above an undefined cell and the unit)
    if cur <= 1:
        return False
    # the least free index decides: below cur the cell is smaller, at
    # cur it ties, above cur every choice is larger
    for p in range(w + 1, cur + 1):
        if not rel[p]:
            rel[p], rel[n + v] = v, p
            if p < cur or _row2_from(S, n, rel, w + 1, append):
                return True
            rel[p] = rel[n + v] = 0
            return False
    return False


def _enumerate_tables(n, first_values=None, leaf_filter=True):
    """All valid tables with unit 1: one canonical labeling per class when
    leaf_filter is on, every labeled table otherwise.  The state is the
    table S and the row masks used, restored by copy after each branch,
    and the live relabelings of the prefix test, a new list per node."""
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
        # a check(a, b, c) whose b + c is not defined passes at once, so
        # it is not called
        while queue:
            pos = queue.pop()
            i, j = divmod(pos, n)
            defined = S[pos] >= 0  # b + c of check(t, i, j) and check(t, j, i)
            for t in range(2, n):
                if defined and not check(t, i, j) or S[j * n + t] >= 0 and not check(i, j, t):
                    return False
                if i != j and (defined and not check(t, j, i)
                               or S[i * n + t] >= 0 and not check(j, i, t)):
                    return False
            # the triples with b + c = y, whose x + (b + c) is the new cell:
            # row b != y holds y iff its mask says so, and then in one
            # column only (cancellation).  check(b, c, x), whose (b + c) + x
            # is the new cell, is not called.  Row c holds y too (c + b = y,
            # and c != y as b != 0), so this loop also calls check(x, c, b),
            # the same equation (x + c) + b = x + (c + b) read the other way,
            # which fails on every table on which check(b, c, x) fails; a
            # cell that forcing decides between the two is queued, and its
            # own pass calls check(b, c, x).  Nor can check(b, c, x) force a
            # cell: the one it would force, (b + c) + x, is the new cell.
            for y, x in ((j, i), (i, j)) if i != j else ((j, i),):
                for b in range(2, n):
                    if (used[b] >> y) & 1 and b != y:
                        c = S.index(y, b * n + 2, b * n + n) - b * n
                        if not check(x, b, c):
                            return False
        return True

    last = len(cells)

    def dfs(idx, states):
        while idx < last and S[cells[idx]] != UNASSIGNED:
            idx += 1
        # no completion of a prefix that some relabeling makes smaller is
        # minimal; at the leaf this is the full minimality test.  The
        # parent's live states are shared by its branches, never mutated.
        if leaf_filter:
            witness, states = _resume_relabelings(S, n, states)
            if witness is not None:
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
                dfs(idx + 1, states)
            S[:], used[:] = saved

    try:
        dfs(0, _root_states(n))
    finally:
        # set_cell and dfs call themselves through their closure cells, a
        # reference cycle; emptying the cells lets the search's state go
        # at once, not at the cyclic collector's next pass
        del set_cell, dfs
    return results


def _enumeration_worker(args):
    n, values = args
    return [serialize(t) for t in _enumerate_tables(n, values)]


def _check_sizes(max_n, max_size):
    if max_n < 2:
        raise SizeError(
            f"size {max_n} below 2: effect algebras have at least two elements")
    cap = DEFAULT_MAX_SIZE if max_size is None else max_size
    if max_n > cap:
        raise SizeTooLarge(f"size {max_n} above configured cap {cap}")


def _first_cell_tasks(n):
    """Size n's search split on the values of its first cell (2, 2)."""
    if n == 2:
        return [(n, None)]
    return [(n, (v,)) for v in (UNDEF, 1, *range(3, n))]


def _enumerate_sizes(sizes, parallel):
    """Yield (n, sorted canonical keys) for each n of sizes, in order.

    The tasks are the first-cell searches of every size.  With more than
    one worker, one pool of min(parallel, tasks of the largest size)
    processes runs them; otherwise they run in this process.  Leaving the
    pool's block, also by close() or an exception, terminates its workers
    without waiting for sizes no longer needed.

    The duplicate guard catches the same labeled table emitted twice, for
    example by overlapping tasks.  It cannot catch a faulty minimality
    test, whose extra leaves are distinct labeled tables.  The tests catch
    that: the golden counts, the scan oracle's check that every emitted
    table is its own least relabeling, the sha256 pins of the keys and the
    filter-off differential test."""
    sizes = list(sizes)
    per_size = [_first_cell_tasks(n) for n in sizes]
    workers = min(parallel, max(map(len, per_size)))
    tasks = [task for size_tasks in per_size for task in size_tasks]
    # The platform's default start method, fork on Linux: a pool of two
    # spawned workers re-imports the package and takes about 0.05 s to
    # start, against 0.006 s forked, more than the whole size-8 search.
    with Pool(workers) if workers > 1 else nullcontext() as pool:
        results = (pool.imap if pool else map)(_enumeration_worker, tasks)
        for n, size_tasks in zip(sizes, per_size):
            parts = list(islice(results, len(size_tasks)))
            keys = set().union(*parts)
            if len(keys) != sum(map(len, parts)):
                raise AssertionError("search emitted the same labeled table twice")
            yield n, sorted(keys)


def enumerate_all(n, max_size=None, parallel=1):
    """Canonical keys of every isomorphism class of size-n effect algebras,
    sorted; deterministic under any parallel.  Each key is the serialization
    of an emitted table, the least relabeling of its class, as the tests'
    scan oracle pins."""
    _check_sizes(n, max_size)
    ((_, keys),) = _enumerate_sizes([n], parallel)
    return keys


def survey_row(n, keys):
    """Aggregate the structure-theorem flags over one size's canonical keys:
    a hypothesis-class key (homogeneous, trivial sharps) is verified when
    the bodies of the theorem's conclusions C2 and C3 return no witness."""
    homog = trivial = hyp = verified = 0
    for key in keys:
        e = validate(parse(key))
        h = is_homogeneous(e)
        t = has_trivial_sharps(e)
        homog += h
        trivial += t
        if h and t:
            hyp += 1
            verified += check_C2(e) is None and check_C3(e) is None
    return SurveyRow(
        size=n,
        total=len(keys),
        homogeneous=homog,
        trivial_sharp=trivial,
        hypothesis_class=hyp,
        theorem_verified=verified,
        counterexamples=hyp - verified,
    )


def survey_tsv(rows):
    """The text of survey.tsv: the SURVEY_COLUMNS header, one line per row."""
    lines = ["\t".join(SURVEY_COLUMNS), *(row.as_tsv() for row in rows)]
    return "".join(line + "\n" for line in lines)


def survey(max_n, max_size=None, parallel=1):
    """One row per size 2..max_n aggregating the structure-theorem flags."""
    _check_sizes(max_n, max_size)
    with closing(_enumerate_sizes(range(2, max_n + 1), parallel)) as sizes:
        return [survey_row(n, keys) for n, keys in sizes]


def write_enumeration(out_dir, max_n, max_size=None, parallel=1):
    """Persist canonical tables plus survey.tsv under out_dir; returns rows."""
    _check_sizes(max_n, max_size)
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    with closing(_enumerate_sizes(range(2, max_n + 1), parallel)) as sizes:
        for n, keys in sizes:
            size_dir = os.path.join(out_dir, f"size_{n}")
            os.makedirs(size_dir, exist_ok=True)
            for idx, key in enumerate(keys):
                with open(os.path.join(size_dir, f"{idx:04d}.json"), "wb") as fh:
                    fh.write(key)
            rows.append(survey_row(n, keys))
    with open(os.path.join(out_dir, "survey.tsv"), "w", encoding="ascii") as fh:
        fh.write(survey_tsv(rows))
    return rows
