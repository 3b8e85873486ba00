"""Exhaustive isomorph-free generation of small effect algebras.

Search: the unit is pinned at index 1 (harmless, every algebra has a
relabeling with that shape), the zero row and the unit row are forced by
the axioms, and the remaining upper-triangle cells are assigned depth
first in row-major order, below one of the root branches that
_row_2_branches lists, each a start of row 2.  Propagation on every
assignment: symmetric storage gives commutativity, per-row value masks
give cancellation and orthosupplement uniqueness, rows are forced to
keep an orthosupplement reachable, and associativity (with definedness transfer) is re-checked
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

The test is carried down the search: each node resumes its parent's live
states, sets of relabelings that tie so far, and passes the states still
live to all of its branches.  _resume_relabelings says what a state is and
why resuming gives the cuts of testing every relabeling afresh at every
node.

The search creates no reference cycles, so reference counting frees a
node's live states as soon as no branch needs them, and nothing waits for
the cyclic garbage collector; a tier-1 test,
test_search_leaves_no_cyclic_garbage, keeps it so.

Parallel runs: one pool of worker processes serves a whole command, every
size of it.  Its tasks are the root branches of every size, as
_row_2_branches lists them: for n >= 4 row 2 set whole to (U, ..., U, 1),
and cell (2, 2) set to 1 alone (the lemma of _enumerate_tables says no
other root holds a least table); for size 3 the one branch (2, 2) = 1;
size 2 whole.  Each size's classes are merged and sorted by key, so the
output is identical for every --parallel.  A serial run maps the
search over the same tasks in this process, with no pool.

Survey: the task that finds a class classifies it, in the same process:
_enumeration_worker validates each emitted table once and returns its key
with three flags, homogeneous, trivial sharps and verified.  On a table
that is both homogeneous and trivial-sharp, the hypothesis class, it calls
the bodies of the theorem's conclusions, lemmas.check_C2 and check_C3,
with no guard, as the table is known to meet their hypotheses; verified
means both return no witness, and a member that is not verified is a
counterexample, which the theorem rules out.  survey_row only adds up the
flags, so no key is parsed back.
"""

import os
from collections import namedtuple
from itertools import islice
from multiprocessing import Pool

from .core import UNDEF, EffectAlgebraTable, validate
from .corpus import serialize
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


def _root_states(n):
    """The live states of a table with no interior cell decided: one
    state, all of 2..n-1 in one cell, stopped and blocked at cell (2, 2).
    Size 2 has no interior cell and no other relabeling, so none."""
    if n <= 2:
        return []
    start = 2 * n + 2
    ident = bytes(range(n))
    lo = bytes([0, 1] + [2] * (n - 2))
    hi = bytes([1, 2] + [n] * (n - 2))
    return [(start, start, ident + ident + lo + hi)]


def _resume_relabelings(S, n, states):
    """Resume the comparisons of the live states on the flat table S
    (UNASSIGNED marks undecided cells).  Returns (witness, None) if a
    relabeling perm[old] = new fixing 0 and the unit 1 makes the decided
    prefix of S lexicographically smaller, else (None, S's live states).

    Cells are compared in row-major order as integers (undefined -1, the
    unit 1, interior elements 2..n-1), the order the search minimises.
    Rows 0 and 1 and columns 0 and 1 agree under every such relabeling,
    and a cell below the diagonal repeats one compared before it, so row u
    is compared from column u.  A comparison stops with no verdict at the
    first cell that is undecided in S or in the relabeled table.

    A live state (blocks, stop, rel) stands for a set of relabelings: rel
    is 4n bytes, order[new] = old, its inverse perm[old] = new, and for
    each new index the bounds lo and hi of its cell, an ordered partition
    of 2..n-1 (B. McKay, "Practical graph isomorphism", Congr. Numer. 30,
    1981).  The relabelings are those that send each cell's old
    elements onto the cell's new indices in any order; a cell of one index
    is a placement.  The elements of a cell are interchangeable in every
    cell compared so far, so the set ties with S up to stop, the cell
    u * n + w where it stopped.  blocks is the undecided cell, or a tuple
    of the undecided cells, whose decision can move the comparison on;
    while none is decided the state is kept as it is, which is most of
    them.

    _compare goes on from stop.  Row u is read from one element, so a cell
    holding index u splits into one state per element.  A later cell is
    refined by the values its elements take in row u, least value first:
    those undefined in the row form one cell, which every other order
    makes larger, and an element whose value is not placed yet places it
    at the least index of its cell (the least free index decides).  The
    state splits when more than one element can take the least value, or
    stops whole at a cell with elements whose value is undecided; it then
    waits for all of them, after a probe of the decided ones for a
    smaller relabeling.  A set proved larger is dropped, as is a complete
    tie, which is an automorphism.

    Cells decided in S stay decided, with the same value, in every table
    that extends S, and a state's progress depends only on the cells it
    read.  So a set proved larger stays larger, one proved smaller cuts
    the node, and on such a table the live states go on from their stops:
    the verdict and live states equal those of a start from _root_states,
    the same verdict as testing every relabeling on its own.  The helpers
    are module functions, so a call makes no reference cycle and the live
    list is freed as soon as the search drops it, as a tier-1 test checks.
    """
    live = []
    append = live.append
    for state in states:
        block = state[0]
        if (
            S[block] == UNASSIGNED
            if block.__class__ is int
            else all(S[b] == UNASSIGNED for b in block)
        ):
            append(state)
            continue
        rel = _compare(S, n, state[2], state[1], append, b"")
        if rel is not None:
            return list(rel[n : 2 * n]), None
    return None, live


def _swap(rel, n, x, at):
    """Put old element x at new index at, where the old element there goes
    to x's index: the cells stay as they are."""
    y, px = rel[at], rel[n + x]
    rel[at], rel[px] = x, y
    rel[n + x], rel[n + y] = at, px


def _place(rel, n, x, at):
    """The state rel, with the cell that starts at new index at split in
    two: old element x alone at at, the rest after it.  A bytearray is
    changed in place, bytes are copied first."""
    if rel.__class__ is bytes:
        rel = bytearray(rel)
    _swap(rel, n, x, at)
    hi = rel[3 * n + at]
    rel[3 * n + at] = at + 1
    rel[2 * n + at + 1 : 2 * n + hi] = bytes([at + 1]) * (hi - at - 1)
    return rel


def _split(rel, n, first, at, hi):
    """The state rel, with the cell [at, hi) split in two: the old elements
    of first, then the rest, each in a cell of its own."""
    rel = bytearray(rel)
    first = bytes(first)
    mid = at + len(first)
    rel[at:hi] = first + rel[at:hi].translate(None, first)
    for q in range(at, hi):
        rel[n + rel[q]] = q
    rel[2 * n + at : 2 * n + hi] = bytes([at]) * (mid - at) + bytes([mid]) * (hi - mid)
    rel[3 * n + at : 3 * n + mid] = bytes([mid]) * (mid - at)
    return rel


def _compare(S, n, rel, pos, append, probed):
    """Go on comparing the state rel from cell pos.  Returns a relabeling
    of rel that makes the prefix smaller, as rel with more placed, or None
    with the states still live appended.  The old elements in probed are
    never placed at an index of their cell, only as a value (see _probe).
    Where the state splits, into one state per element of the cell that
    reads row u or per element that takes the least value, each is
    compared on by a call of its own, in order, and the first smaller
    relabeling is returned.  rel is changed in place if it is a
    bytearray, which the caller gives up."""
    lo, hi = 2 * n, 3 * n
    u, p = divmod(pos, n)
    row = rel[u] * n
    while True:
        if p == n:
            u += 1
            if u == n:
                return None  # a complete tie: an automorphism
            p = u
            row = rel[u] * n
        stop = u * n + p
        cur = S[stop]
        if cur == UNASSIGNED:
            append((stop, stop, bytes(rel)))
            return None
        end = rel[hi + p]
        if end == p + 1:
            # one element: compare its cell
            v = S[row + rel[p]]
            if v == UNASSIGNED:
                append((row + rel[p], stop, bytes(rel)))
                return None
            if v > 1:
                q = rel[n + v]
                first = rel[lo + q]
                if rel[hi + q] - first > 1:
                    # v is not placed: the least index of its cell decides
                    if first > cur:
                        return None
                    rel = _place(rel, n, v, first)
                    q = first
                v = q
            if v != cur:
                return rel if v < cur else None
            p += 1
        elif p == u:
            # row u is read from one element: one state per element
            base = bytearray(rel)
            base[hi + u] = u + 1
            base[lo + u + 1 : lo + end] = bytes([u + 1]) * (end - u - 1)
            for x in rel[u:end]:
                v = S[x * n + x]
                fixed = v == UNDEF or v == 1  # the same under every relabeling
                if fixed and v != cur:
                    if v > cur:
                        continue
                    _swap(base, n, x, u)
                    return base
                child = bytearray(base)
                _swap(child, n, x, u)
                if v == UNASSIGNED:
                    append((x * n + x, stop, bytes(child)))
                    continue
                # a tie on an undefined or unit diagonal goes on at once
                child = _compare(S, n, child, stop + fixed, append, probed)
                if child is not None:
                    return child
            return None
        else:
            # refine the cell [p, end) by the values of row u, least first
            members = rel[p:end]
            if probed:
                members = members.translate(None, probed)
                if not members:
                    return None  # only probed elements are left
            values = [S[row + x] for x in members]
            if UNASSIGNED in values:
                return _probe(S, n, rel, stop, append, members, values)
            block = values.count(UNDEF)
            if block:
                # the elements undefined in this row come first, in one
                # cell: every other order is larger at the first cell
                # where it differs, and the cell ties while S's cells
                # are undefined
                if block < end - p:
                    rel = _split(rel, n, _undefined(members, values), p, end)
                j = _first_defined(S, stop, block)
                if j is not None:
                    if S[j] == UNASSIGNED:
                        append((j, stop, bytes(rel)))
                        return None
                    return rel
                p += block
                continue
            least, ties = _least(n, rel, p, members, values)
            if least > cur:
                return None
            # one state per element that takes the least value
            for x, v in ties:
                child = _place(bytearray(rel), n, x, p)
                if v > 1:
                    q = child[n + v]
                    if child[hi + q] - child[lo + q] > 1:
                        child = _place(child, n, v, child[lo + q])
                if least < cur:
                    return child
                child = _compare(S, n, child, stop + 1, append, probed)
                if child is not None:
                    return child
            return None


def _undefined(members, values):
    """The elements of members whose value is undefined."""
    return [x for x, v in zip(members, values) if v == UNDEF]


def _least(n, rel, p, members, values):
    """The least value that an element of the cell at p can take there,
    and the (element, value) pairs that take it.  Every value in the row
    is decided and defined; the unit takes 1, an interior value its index
    if placed, else the least index of its cell, or p + 1 if that cell is
    this one."""
    if 1 in values:
        return 1, [(members[values.index(1)], 1)]
    lo = 2 * n
    least = n
    ties = []
    for x, v in zip(members, values):
        first = rel[lo + rel[n + v]]
        if first == p:
            first += 1
        if first < least:
            least, ties = first, [(x, v)]
        elif first == least:
            ties.append((x, v))
    return least, ties


def _first_defined(S, start, count):
    """The first of the count cells of S from start that is not undefined,
    or None."""
    for j in range(start, start + count):
        if S[j] != UNDEF:
            return j
    return None


def _probe(S, n, rel, stop, append, members, values):
    """The cell at stop holds elements whose value in the row is
    undecided.  A relabeling stops at the first of them, so only one that
    places decided ones first can make the prefix smaller; the probe
    compares the decided ones on, and ends at once if their least value
    exceeds S's cell.  Returns such a relabeling if there is one, else
    None with the state appended, stopped here and blocked until one of
    those values or a cell that the probe stopped at is decided."""
    p = stop % n
    row = rel[stop // n] * n
    blocks = [row + x for x, v in zip(members, values) if v == UNASSIGNED]
    probe = True
    undefined = values.count(UNDEF)
    if undefined:
        # the decided undefined ones come first, so only what follows them
        # needs the probe
        j = _first_defined(S, stop, undefined)
        if j is None:
            probe = undefined + len(blocks) < len(members)
        elif S[j] == UNASSIGNED:
            blocks.append(j)
            probe = False
        else:
            return _split(rel, n, _undefined(members, values), p, p + len(members))
    if probe:
        stopped = []
        probed = bytes(x for x, v in zip(members, values) if v == UNASSIGNED)
        probe = _compare(S, n, bytes(rel), stop, stopped.append, probed)
        if probe is not None:
            return probe
        blocks += [state[0] for state in stopped if state[0] not in blocks]
    append((blocks[0] if len(blocks) == 1 else tuple(blocks), stop, bytes(rel)))
    return None


def _row_2_branches(n):
    """The roots of size n's search, one task each, every one a prefix of
    row 2 (cells (2, 2), (2, 3), ...) that the search sets before it
    starts: by the lemma of _enumerate_tables, (U, ..., U, 1) whole and
    (1) at cell (2, 2) alone for n >= 4, (1) for n = 3, and the empty
    prefix for n = 2, which has no row 2."""
    if n == 2:
        return [()]
    if n == 3:
        return [(1,)]
    return [(UNDEF,) * (n - 3) + (1,), (1,)]


def _enumerate_tables(n, row_2=None, leaf_filter=True):
    """All valid tables with unit 1: one canonical labeling per class when
    leaf_filter is on, every labeled table otherwise.  row_2 is one branch
    of _row_2_branches, or None for all of them; with leaf_filter off and
    row_2 None the search starts from the empty prefix and sets nothing.
    The state is the table S and the row masks used, restored by copy
    after each branch, and the live states of the prefix test, a new list
    per node.

    Lemma (least row 2).  Let n >= 4.  Row 2 of the least relabelling,
    cells (2, 2) ... (2, n - 1) compared as U = -1 < 1 < interior, is
    (U, ..., U, 1) or (1, U, ..., U), and the second occurs only for the
    horizontal sum of n - 2 copies of chain(2).  For n = 3 row 2 is (1).
    Proof.  Every interior row holds 1 exactly once, at its
    orthosupplement, so (U, ..., U, 1) is the least row that any row 2
    can be.  If some coatom c has c + c undefined: c' is an atom, so
    c + y is defined only for y in {0, c'}, and c' != c; relabel c to 2
    and c' to n - 1, and row 2 is (U, ..., U, 1).  Otherwise every coatom
    c has c + c defined, so c <= c', and since c' is an atom, c = c' and
    c + c = 1.  Every interior x lies below a coatom, which is an atom, so
    x is that coatom: each interior x is an atom with x' = x.  For
    distinct interior x and y, x + y is undefined, as x <= y' = y would
    force x = y.  So row 2 is (1, U, ..., U).

    Read's orderly method allows any cut that keeps each class's least
    table, so the search of a whole size needs only the two branches:
    row 2 set whole to (U, ..., U, 1), and cell (2, 2) set to 1 alone.
    The first cell values 3 ... n - 1, and every other row 2 with (2, 2)
    undefined, hold no least table.  The 1-branch leaves the rest of its
    row, (U, ..., U), to the search: setting it halves size 11's search
    but makes size 12's 1-branch about three times slower."""
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
        # cell (i, j) is undecided: dfs skips decided cells, and the
        # forcing below and check pass only a cell they read as UNASSIGNED
        pos = i * n + j
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
        # Called only when b + c is defined: propagate tests that first.
        bc = S[b * n + c]
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
            rows = tuple(tuple(S[i * n : (i + 1) * n]) for i in range(n))
            results.append(EffectAlgebraTable(n, 1, rows))
            return
        pos = cells[idx]
        i, j = divmod(pos, n)
        taken = used[i] | used[j]
        domain = (UNDEF, *(k for k in range(1, n) if not (taken >> k) & 1))
        saved = S[:], used[:]
        for v in domain:
            queue.clear()
            if set_cell(i, j, v) and propagate():
                dfs(idx + 1, states)
            S[:], used[:] = saved

    def start(prefix):
        # set row 2's prefix; a cell that set_cell forces on the way, the
        # 1 that ends (U, ..., U, 1), must agree with it
        queue.clear()
        for j, v in enumerate(prefix, 2):
            if S[2 * n + j] == UNASSIGNED:
                if not set_cell(2, j, v):
                    return False
            elif S[2 * n + j] != v:
                return False
        return propagate()

    if row_2 is not None:
        branches = [row_2]
    else:
        branches = _row_2_branches(n) if leaf_filter else [()]
    saved = S[:], used[:]
    try:
        for prefix in branches:
            if start(prefix):
                dfs(0, _root_states(n))
            S[:], used[:] = saved
    finally:
        # set_cell and dfs call themselves through their closure cells, a
        # reference cycle; emptying the cells lets the search's state go
        # at once, not at the cyclic collector's next pass
        del set_cell, dfs
    return results


def _enumeration_worker(args):
    """The classes of one task, each as (key, homogeneous, trivial_sharps,
    verified): the table's serialization and the flags survey_row adds up,
    the table validated once."""
    classes = []
    for t in _enumerate_tables(*args):
        e = validate(t)
        h, s = is_homogeneous(e), has_trivial_sharps(e)
        verified = h and s and check_C2(e) is None and check_C3(e) is None
        classes.append((serialize(t), h, s, verified))
    return classes


def _check_sizes(max_n, max_size):
    if max_n < 2:
        raise SizeError(
            f"size {max_n} below 2: effect algebras have at least two elements")
    cap = DEFAULT_MAX_SIZE if max_size is None else max_size
    if max_n > cap:
        raise SizeTooLarge(f"size {max_n} above configured cap {cap}")


def _enumerate_sizes(sizes, parallel):
    """[(n, classes)] for each n of sizes, in order: the workers'
    (key, homogeneous, trivial_sharps, verified) tuples, sorted by key.

    The tasks are the root branches of every size.  With more than
    one worker, one pool of min(parallel, tasks of the largest size)
    processes maps them, one task at a time; otherwise they run in this
    process.  Pool.map returns, or raises a task's error, only once every
    task is done, so leaving the pool stops no worker in mid-result.

    The duplicate guard catches the same labeled table emitted twice, for
    example by overlapping tasks.  It cannot catch a faulty minimality
    test, whose extra leaves are distinct labeled tables.  The tests catch
    that: the golden counts, the scan oracle's check that every emitted
    table is its own least relabeling, the sha256 pins of the keys and the
    filter-off differential test."""
    per_size = [[(n, prefix) for prefix in _row_2_branches(n)] for n in sizes]
    workers = min(parallel, max(map(len, per_size)))
    tasks = [task for size_tasks in per_size for task in size_tasks]
    if workers > 1:
        # The platform's default start method, fork on Linux: a pool of two
        # spawned workers re-imports the package and takes about 0.05 s to
        # start, against 0.006 s forked, more than the whole size-8 search.
        # chunksize=1 keeps a size's heavy tasks apart.
        with Pool(workers) as pool:
            results = iter(pool.map(_enumeration_worker, tasks, chunksize=1))
    else:
        results = map(_enumeration_worker, tasks)
    out = []
    for n, size_tasks in zip(sizes, per_size):
        classes = sorted(c for part in islice(results, len(size_tasks)) for c in part)
        if len({c[0] for c in classes}) != len(classes):
            raise AssertionError("search emitted the same labeled table twice")
        out.append((n, classes))
    return out


def enumerate_all(n, max_size=None, parallel=1):
    """Canonical keys of every isomorphism class of size-n effect algebras,
    sorted; deterministic under any parallel.  Each key is the serialization
    of an emitted table, the least relabeling of its class, as the tests'
    scan oracle pins."""
    _check_sizes(n, max_size)
    ((_, classes),) = _enumerate_sizes([n], parallel)
    return [c[0] for c in classes]


def survey_row(n, classes):
    """Add up the structure-theorem flags of one size's classes, the
    (key, homogeneous, trivial_sharps, verified) tuples of
    _enumeration_worker."""
    homog = trivial = hyp = verified = 0
    for _, h, t, v in classes:
        homog += h
        trivial += t
        hyp += h and t
        verified += v
    return SurveyRow(
        size=n,
        total=len(classes),
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
    return [survey_row(*size) for size in _enumerate_sizes(range(2, max_n + 1), parallel)]


def write_enumeration(out_dir, max_n, max_size=None, parallel=1):
    """Persist canonical tables plus survey.tsv under out_dir; returns rows."""
    _check_sizes(max_n, max_size)
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    for n, classes in _enumerate_sizes(range(2, max_n + 1), parallel):
        size_dir = os.path.join(out_dir, f"size_{n}")
        os.makedirs(size_dir, exist_ok=True)
        for idx, (key, *_) in enumerate(classes):
            with open(os.path.join(size_dir, f"{idx:04d}.json"), "wb") as fh:
                fh.write(key)
        rows.append(survey_row(n, classes))
    with open(os.path.join(out_dir, "survey.tsv"), "w", encoding="ascii") as fh:
        fh.write(survey_tsv(rows))
    return rows
