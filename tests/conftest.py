import os

import pytest
from hypothesis import strategies as st

import effectkit as ek
from effectkit.core import UNDEF

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


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
