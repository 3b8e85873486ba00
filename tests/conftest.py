import os
import random
import signal
import sys
import traceback
from itertools import permutations

import pytest
from hypothesis import strategies as st

import effectkit as ek
import effectkit.enumeration as en
from effectkit.core import UNDEF

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

# table files the json module itself cannot read: nesting past the
# recursion limit, and an integer literal past int()'s digit limit
HOSTILE_DOCUMENTS = [
    pytest.param(b"[" * 200_000, id="200000-nested-arrays"),
    pytest.param(b'{"size":' + b"9" * 5000 + b',"one":1,"sum":[]}', id="5000-digit-size"),
]

# a sum whose second row is not a list, and one whose second row is short
BAD_SUM_ROWS = [
    pytest.param(b'{"size":2,"one":1,"sum":[[0,1],7]}', id="row-not-a-list"),
    pytest.param(b'{"size":2,"one":1,"sum":[[0,1],[1]]}', id="short-row"),
]


# Each test's own time limit.  The whole suite takes seconds; a test still
# running after this long is stuck (a pool waiting on a worker that never
# answers, say), and failing it names it and lets the run go on.
TEST_TIME_LIMIT_S = 60


class TimeLimitExceeded(BaseException):
    """Not an Exception, so no except clause on the way (an OSError retry
    around waitpid, Hypothesis replaying a failure) can swallow it."""


@pytest.fixture(autouse=True)
def time_limit():
    """Raise TimeLimitExceeded in a test still running after
    TEST_TIME_LIMIT_S, with the stack of every thread in its message."""

    def expire(signum, frame):
        stacks = "".join(
            f"\nthread {ident}:\n" + "".join(traceback.format_stack(top))
            for ident, top in sys._current_frames().items()
        )
        raise TimeLimitExceeded(f"still running after {TEST_TIME_LIMIT_S} s{stacks}")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_TIME_LIMIT_S)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def fixture_bytes(name):
    with open(os.path.join(FIXTURES, name), "rb") as fh:
        return fh.read()


def partitions(k, lo=1):
    """All multisets of positive integers summing to k, ascending parts."""
    if k == 0:
        yield ()
        return
    for p in range(lo, k + 1):
        for rest in partitions(k - p, p):
            yield (p,) + rest


def chain_multisets(max_interior):
    """Chain-length multisets (each >= 2) with total interior <= max_interior."""
    out = []
    for k in range(1, max_interior + 1):
        for part in partitions(k):
            out.append(tuple(p + 1 for p in part))
    return out


def corpus_members():
    """(name, algebra) pairs: chains to length 8, every horizontal sum with
    interior size <= 10, the diamond, and small products."""
    members = [(f"chain:{n}", ek.chain(n)) for n in range(1, 9)]
    for lengths in chain_multisets(10):
        name = "hsum:" + ",".join(map(str, lengths))
        members.append((name, ek.horizontal_sum([ek.chain(l) for l in lengths])))
    members.append(("diamond", ek.boolean_diamond()))
    for i in range(1, 4):
        for j in range(i, 4):
            members.append(
                (f"prod:chain:{i},chain:{j}", ek.direct_product(ek.chain(i), ek.chain(j)))
            )
    return members


@pytest.fixture(scope="session")
def corpus():
    return corpus_members()


# Non-homogeneous six-element algebra, by hand: with atoms a, x the element
# z halves two ways (a+a = x+x = z) while a+x = y, a+z = 1 and x+y = 1;
# then a <= x+x <= a' but a splits over no pair below (x, x).
U = ek.UNDEF
E6_ROWS = (
    (0, 1, 2, 3, 4, 5),
    (1, 4, 3, U, 5, U),
    (2, 3, 4, 5, U, U),
    (3, U, 5, U, U, U),
    (4, 5, U, U, U, U),
    (5, U, U, U, U, U),
)


@pytest.fixture(scope="session")
def e6():
    return ek.validate(ek.EffectAlgebraTable.from_rows(6, 5, E6_ROWS))


def small_algebras():
    return st.one_of(
        st.integers(1, 6).map(ek.chain),
        st.lists(st.integers(1, 4), min_size=1, max_size=3).map(
            lambda ls: ek.horizontal_sum([ek.chain(l) for l in ls])
        ),
        st.tuples(st.integers(1, 2), st.integers(1, 3)).map(
            lambda ij: ek.direct_product(ek.chain(ij[0]), ek.chain(ij[1]))
        ),
        st.just(ek.boolean_diamond()),
    )


def is_homogeneous_alt(e):
    """Independently coded variant (descending split search, no difference table)."""
    n, s, leq, ortho = e.size, e.table.sum, order_alt(e.table), e.ortho
    for u in range(n):
        for v1 in range(n):
            for v2 in range(n):
                t = s[v1][v2]
                if t == UNDEF or not (leq[u][t] and leq[t][ortho[u]]):
                    continue
                found = False
                for u1 in range(n - 1, -1, -1):
                    if not leq[u1][v1]:
                        continue
                    for u2 in range(n):
                        if s[u1][u2] == u and leq[u2][v2]:
                            found = True
                            break
                    if found:
                        break
                if not found:
                    return False
    return True


def scan_canonical(t):
    """Reference isomorphism key of a table: scan the (n-2)! relabelings
    fixing 0 that put the unit at 1, keep the least integer tuple (the sum
    table row by row, undefined as -1) and serialize it."""
    n, s = t.size, t.sum
    rest = [y for y in range(1, n) if y != t.one]
    best = None
    for tail in permutations(rest):
        order = (0, t.one, *tail)
        perm = [0] * n
        for new, old in enumerate(order):
            perm[old] = new
        flat = [UNDEF if s[oi][oj] < 0 else perm[s[oi][oj]] for oi in order for oj in order]
        if best is None or flat < best:
            best = flat
    rows = [best[i * n : (i + 1) * n] for i in range(n)]
    return ek.serialize(ek.EffectAlgebraTable.from_rows(n, 1, rows))


def automorphism_count(t):
    """Brute force: how many relabelings that fix 0 and the unit map the
    table t to itself."""
    n, s = t.size, t.sum
    rest = [y for y in range(1, n) if y != t.one]
    count = 0
    for tail in permutations(rest):
        perm = [0] * n
        perm[t.one] = t.one
        for old, new in zip(rest, tail):
            perm[old] = new
        count += all(
            s[perm[a]][perm[b]] == (UNDEF if s[a][b] < 0 else perm[s[a][b]])
            for a in range(n)
            for b in range(n)
        )
    return count


def counted_search(monkeypatch, n):
    """Size n's classes, the worker's (key, homogeneous, trivial_sharps,
    verified) tuples sorted by key, from the worker of the whole size, the
    closed form and the search below row 2 = (U, ..., U, 1), and the number
    of prefix tests made."""
    real = en._resume_relabelings
    calls = 0

    def counting(S, m, states):
        nonlocal calls
        calls += 1
        return real(S, m, states)

    monkeypatch.setattr(en, "_resume_relabelings", counting)
    return sorted(en._enumeration_worker(n)), calls


@pytest.fixture(scope="session")
def size_10_search():
    """counted_search at size 10, made once for every test that needs the
    size-10 classes."""
    with pytest.MonkeyPatch.context() as mp:
        return counted_search(mp, 10)


def relabelled(t, rng):
    """The table under a random relabelling that fixes 0."""
    tail = list(range(1, t.size))
    rng.shuffle(tail)
    return ek.relabel(t, [0] + tail)


def non_homogeneous_fixture():
    return ek.validate(ek.parse(fixture_bytes("smallest_non_homogeneous_trivial_sharp.json")))


def fixture_sums():
    """Horizontal sums holding the non-homogeneous fixture, relabelled."""
    rng = random.Random(11)
    fixture = non_homogeneous_fixture()
    return [
        ek.validate(relabelled(ek.horizontal_sum(parts).table, rng))
        for parts in (
            [fixture, ek.chain(2)],
            [ek.chain(3), fixture],
            [ek.chain(1), fixture, ek.chain(4)],
            [fixture, fixture],
        )
    ]


@pytest.fixture(scope="session")
def reference_algebras(e6):
    """Every isomorphism class of sizes 2-7 under a seeded relabelling, the
    hand-made e6 and the committed non-homogeneous fixture."""
    rng = random.Random(7)
    out = [
        ek.validate(relabelled(ek.parse(key), rng))
        for n in range(2, 8)
        for key in ek.enumerate_all(n)
    ]
    return out + [e6, non_homogeneous_fixture()]


def corrupted(t, rng, cells):
    """t with `cells` random entries overwritten, each mirrored across the
    diagonal half the time; values run one past each end of the index range,
    so out-of-range entries occur too."""
    n = t.size
    rows = [list(r) for r in t.sum]
    for _ in range(cells):
        i, j, v = rng.randrange(n), rng.randrange(n), rng.randint(-2, n)
        rows[i][j] = v
        if rng.random() < 0.5:
            rows[j][i] = v
    return ek.EffectAlgebraTable.from_rows(n, t.one, rows)


# Naive references, coded from the definitions without the indexes and
# bitsets of src/: validation as a triple loop over every (a, b, c); the
# order read off the raw table by order_alt; atoms, sharpness, intervals,
# covers, meet and join by search over that order; homogeneity by search
# over all splits; partial sums and n-fold multiples read cell by cell.


def order_alt(t):
    """leq[x][y] iff some c has x + c = y, read off the raw table t."""
    n = t.size
    return tuple(tuple(y in t.sum[x] for y in range(n)) for x in range(n))


def first_violation_alt(t):
    """(kind, witness) of the first axiom violation in validate's check
    order, or (None, (leq, ortho, atoms)) when the table is valid."""
    n, one, s = t.size, t.one, t.sum
    if type(n) is not int or n < 2:
        return "BadIndex", (n,)
    if type(one) is not int or not 0 < one < n:
        return "BadIndex", (one,)
    if len(s) != n:
        return "BadIndex", (len(s),)
    for i in range(n):
        if len(s[i]) != n:
            return "BadIndex", (i,)
        for j in range(n):
            if type(s[i][j]) is not int or not UNDEF <= s[i][j] < n:
                return "BadIndex", (i, j)
    for x in range(n):
        if s[0][x] != x:
            return "BadZero", (x,)
    for i in range(n):
        for j in range(i + 1, n):
            if s[i][j] != s[j][i]:
                return "NotCommutative", (i, j)
    for x in range(1, n):
        if x != one and s[x][one] != UNDEF:
            return "ZeroOneLawViolated", (x,)
    if s[one][one] != UNDEF:
        return "ZeroOneLawViolated", (one,)
    ortho = []
    for x in range(n):
        partners = [c for c in range(n) if s[x][c] == one]
        if not partners:
            return "OrthoMissing", (x,)
        if len(partners) > 1:
            return "OrthoNotUnique", (x, partners[0], partners[1])
        ortho.append(partners[0])
    for a in range(n):
        for b in range(n):
            for c in range(n):
                bc = s[b][c]
                if bc == UNDEF or s[a][bc] == UNDEF:
                    continue
                ab = s[a][b]
                if ab == UNDEF or s[ab][c] != s[a][bc]:
                    return "NotAssociative", (a, b, c)
    leq = order_alt(t)
    return None, (leq, tuple(ortho), atoms_alt(leq))


def atoms_alt(leq):
    """The minimal nonzero elements of the order leq, by search."""
    n = len(leq)
    return tuple(
        x for x in range(1, n) if not any(y != x and leq[y][x] for y in range(1, n))
    )


def sum_of(e, x, y):
    """Partial sum read off the raw table: element index, or None when undefined."""
    v = e.table.sum[x][y]
    return None if v == UNDEF else v


def multiple(e, x, n):
    """n-fold sum of x (0 for n = 0), or None once a partial sum is undefined."""
    acc = 0
    for _ in range(n):
        acc = sum_of(e, acc, x)
        if acc is None:
            return None
    return acc


def is_sharp_alt(e, x):
    """True iff no b != 0 lies below both x and x', by search."""
    leq = order_alt(e.table)
    return not any(b and leq[b][x] and leq[b][e.ortho[x]] for b in e.carrier)


def interval_alt(e, x, y):
    """Every z with x <= z <= y, ascending, by search."""
    leq = order_alt(e.table)
    return tuple(z for z in e.carrier if leq[x][z] and leq[z][y])


def hasse_covers_alt(e):
    """Every (x, y) with x < y and no z strictly between, by search."""
    n, leq = e.size, order_alt(e.table)
    lt = [[leq[x][y] and x != y for y in range(n)] for x in range(n)]
    return tuple(
        (x, y)
        for x in range(n)
        for y in range(n)
        if lt[x][y] and not any(lt[x][z] and lt[z][y] for z in range(n))
    )


def meet_alt(e, x, y):
    leq = order_alt(e.table)
    lows = [z for z in e.carrier if leq[z][x] and leq[z][y]]
    greatest = [g for g in lows if all(leq[z][g] for z in lows)]
    return greatest[0] if greatest else None


def join_alt(e, x, y):
    leq = order_alt(e.table)
    ups = [z for z in e.carrier if leq[x][z] and leq[y][z]]
    least = [g for g in ups if all(leq[g][z] for z in ups)]
    return least[0] if least else None


def is_lattice_alt(e):
    return all(
        meet_alt(e, x, y) is not None and join_alt(e, x, y) is not None
        for x in e.carrier
        for y in e.carrier
    )


def homogeneity_failures_alt(e, u):
    """Every cell (v1, v2), row-major, with u <= v1 + v2 <= u' and no
    u1 + u2 = u below (v1, v2)."""
    n, s, leq, ortho = e.size, e.table.sum, order_alt(e.table), e.ortho
    return [
        (v1, v2)
        for v1 in range(n)
        for v2 in range(n)
        if s[v1][v2] != UNDEF
        and leq[u][s[v1][v2]]
        and leq[s[v1][v2]][ortho[u]]
        and not any(
            s[u1][u2] == u and leq[u1][v1] and leq[u2][v2]
            for u1 in range(n)
            for u2 in range(n)
        )
    ]


def first_homogeneity_failure_alt(e):
    """Lexicographically first (u, v1, v2) with u <= v1 + v2 <= u' and no
    u1 + u2 = u below (v1, v2), or None."""
    for u in e.carrier:
        failures = homogeneity_failures_alt(e, u)
        if failures:
            return (u, *failures[0])
    return None


def first_L22_failure_alt(e):
    """(a, v1, v2) for the first atom a <= a' in e.atoms and the first cell
    in row-major order whose defined sum lies in [a, a'] while a lies below
    neither summand, or None; a scan over all n**2 cells per atom."""
    n, s, leq, ortho = e.size, e.table.sum, order_alt(e.table), e.ortho
    for a in e.atoms:
        ap = ortho[a]
        if not leq[a][ap]:
            continue
        for v1 in range(n):
            for v2 in range(n):
                t = s[v1][v2]
                if t == UNDEF or not (leq[a][t] and leq[t][ap]):
                    continue
                if not (leq[a][v1] or leq[a][v2]):
                    return a, v1, v2
    return None
