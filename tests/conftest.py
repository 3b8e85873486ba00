import os
import random

import pytest
from hypothesis import strategies as st

import effectkit as ek
from effectkit.core import UNDEF

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

# table files the json module itself cannot read: nesting past the
# recursion limit, and an integer literal past int()'s digit limit
HOSTILE_DOCUMENTS = [
    pytest.param(b"[" * 200_000, id="200000-nested-arrays"),
    pytest.param(b'{"size":' + b"9" * 5000 + b',"one":1,"sum":[]}', id="5000-digit-size"),
]


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
    n, s, leq, ortho = e.size, e.table.sum, e.leq, e.ortho
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


def relabelled(t, rng):
    """The table under a random relabelling that fixes 0."""
    tail = list(range(1, t.size))
    rng.shuffle(tail)
    return ek.relabel(t, [0] + tail)


def non_homogeneous_fixture():
    return ek.validate(ek.parse(fixture_bytes("smallest_non_homogeneous_trivial_sharp.json")))


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
# bitsets of src/: validation as a triple loop over every (a, b, c), meet and
# join by search over all bounds, homogeneity by search over all splits.


def first_violation_alt(t):
    """(kind, witness) of the first axiom violation in validate's check
    order, or (None, (leq, ortho, atoms)) when the table is valid."""
    n, one, s = t.size, t.one, t.sum
    if n < 2:
        return "BadIndex", (n,)
    if not isinstance(one, int) or not 0 < one < n:
        return "BadIndex", (one,)
    if len(s) != n:
        return "BadIndex", (len(s),)
    for i in range(n):
        if len(s[i]) != n:
            return "BadIndex", (i,)
        for j in range(n):
            if not isinstance(s[i][j], int) or not UNDEF <= s[i][j] < n:
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
    leq = tuple(
        tuple(any(s[x][c] == y for c in range(n)) for y in range(n)) for x in range(n)
    )
    atoms = tuple(
        x for x in range(1, n) if not any(y != x and leq[y][x] for y in range(1, n))
    )
    return None, (leq, tuple(ortho), atoms)


def meet_alt(e, x, y):
    lows = [z for z in e.carrier if e.leq[z][x] and e.leq[z][y]]
    greatest = [g for g in lows if all(e.leq[z][g] for z in lows)]
    return greatest[0] if greatest else None


def join_alt(e, x, y):
    ups = [z for z in e.carrier if e.leq[x][z] and e.leq[y][z]]
    least = [g for g in ups if all(e.leq[g][z] for z in ups)]
    return least[0] if least else None


def is_lattice_alt(e):
    return all(
        meet_alt(e, x, y) is not None and join_alt(e, x, y) is not None
        for x in e.carrier
        for y in e.carrier
    )


def first_homogeneity_failure_alt(e):
    """Lexicographically first (u, v1, v2) with u <= v1 + v2 <= u' and no
    u1 + u2 = u below (v1, v2), or None."""
    n, s, leq, ortho = e.size, e.table.sum, e.leq, e.ortho
    for u in range(n):
        for v1 in range(n):
            for v2 in range(n):
                t = s[v1][v2]
                if t == UNDEF or not (leq[u][t] and leq[t][ortho[u]]):
                    continue
                if not any(
                    s[u1][u2] == u and leq[u1][v1] and leq[u2][v2]
                    for u1 in range(n)
                    for u2 in range(n)
                ):
                    return u, v1, v2
    return None
