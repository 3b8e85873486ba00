import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import effectkit as ek
from effectkit.lemmas import FAIL, NOT_APPLICABLE, PASS, check_C3, lemma_suite, report
from effectkit.structure import (
    DecomposeError,
    decompose,
    relabel,
)

from conftest import (
    chain_multisets,
    is_lattice_alt,
    join_alt,
    meet_alt,
    small_algebras,
    sum_of,
)


def hsum(*lengths):
    return ek.horizontal_sum([ek.chain(l) for l in lengths])


def c2_c3(e):
    """The reports of C2 and C3 on e."""
    return [report("C2", e), report("C3", e)]


def random_perm(n, seed):
    rng = random.Random(seed)
    tail = list(range(1, n))
    rng.shuffle(tail)
    return [0] + tail


def test_decompose_chain_and_sum():
    assert decompose(ek.chain(4)).chain_lengths == (4,)
    assert decompose(hsum(2, 3)).chain_lengths == (2, 3)
    assert decompose(ek.chain(1)).chain_lengths == (1,)


def test_decompose_two_element_labeling():
    d = decompose(ek.chain(1))
    assert d.labeling == {0: (0, 0), 1: (0, 1)}


def test_decompose_rejects_nontrivial_sharps():
    with pytest.raises(DecomposeError) as exc:
        decompose(ek.boolean_diamond())
    assert exc.value.kind == "NotTrivialSharps"
    assert exc.value.detail == (1, 2)


def test_decompose_rejects_non_homogeneous(e6):
    with pytest.raises(DecomposeError) as exc:
        decompose(e6)
    assert exc.value.kind == "NotHomogeneous"
    w = exc.value.detail
    assert ek.lemmas.verify_homogeneity_witness(e6, w)


def test_decompose_round_trip_all_small_multisets():
    for lengths in chain_multisets(10):
        h = ek.horizontal_sum([ek.chain(l) for l in lengths])
        assert decompose(h).chain_lengths == lengths


def test_labeling_is_sum_isomorphism():
    for lengths in ((4,), (2, 3), (2, 2, 2), (3, 3)):
        h = hsum(*lengths)
        dec = decompose(h)
        n_of = dec.chain_lengths

        def model_sum(p, q):
            (b1, k1), (b2, k2) = p, q
            if k1 == 0:
                return q
            if k2 == 0:
                return p
            if k1 == n_of[b1]:  # unit
                return None if k2 else p
            if k2 == n_of[b2]:
                return None if k1 else q
            if b1 != b2 or k1 + k2 > n_of[b1]:
                return None
            return (b1, k1 + k2)

        lab = dec.labeling
        assert sorted(lab) == list(h.carrier)
        for x in h.carrier:
            for y in h.carrier:
                got = sum_of(h, x, y)
                want = model_sum(lab[x], lab[y])
                if got is None:
                    assert want is None, (x, y)
                else:
                    # units of every branch are the same element
                    gb, gk = lab[got]
                    assert want is not None
                    wb, wk = want
                    if wk == n_of[wb]:
                        assert gk == n_of[gb], (x, y)
                    else:
                        assert (gb, gk) == (wb, wk), (x, y)


def test_decompose_render():
    text = decompose(hsum(2, 3)).render()
    assert text.splitlines()[0] == "chains: [2, 3]"
    assert "1 -> 0.1" in text


def test_theorem_violation_on_doctored_algebra():
    h = hsum(2, 2)
    bad = h._replace(atoms=(1,))
    with pytest.raises(DecomposeError) as exc:
        decompose(bad)
    assert exc.value.kind == "TheoremViolation"


def first_pair_without_meet_or_join_alt(e):
    """The first (x, y), row-major, with no meet or no join, by search."""
    return next(
        (
            (x, y)
            for x in e.carrier
            for y in e.carrier
            if meet_alt(e, x, y) is None or join_alt(e, x, y) is None
        ),
        None,
    )


def test_C3_is_checked_when_decompose_fails():
    # a doctored member of the hypothesis class: decompose finds no
    # labelling, so C2 fails with its detail, and C3 is checked on its own
    bad = hsum(2, 2)._replace(atoms=(1,))
    with pytest.raises(DecomposeError) as exc:
        decompose(bad)
    assert exc.value.detail[0] == "uncovered"
    c2, c3 = c2_c3(bad)
    assert (c2.verdict, c2.witness) == (FAIL, exc.value.detail)
    assert c3.verdict == (PASS if is_lattice_alt(bad) else FAIL)
    assert c3.witness == first_pair_without_meet_or_join_alt(bad)


def test_C3_witness_is_the_first_pair_without_meet_or_join(reference_algebras):
    non_lattices = 0
    for e in reference_algebras:
        w = check_C3(e)
        assert w == first_pair_without_meet_or_join_alt(e)
        assert (w is None) == is_lattice_alt(e)
        non_lattices += w is not None
    assert non_lattices


def test_check_C2_C3():
    reports = lemma_suite(hsum(3, 3, 2))[-2:]
    assert [r.verdict for r in reports] == [PASS, PASS]
    na = lemma_suite(ek.direct_product(ek.chain(2), ek.chain(2)))[-2:]
    assert [r.verdict for r in na] == [NOT_APPLICABLE, NOT_APPLICABLE]
    assert [r.lemma_id for r in reports] == ["C2", "C3"]
    # n = 78: C2 checks the labelling cell by cell, with no search over
    # relabellings
    big = hsum(20, 20, 20, 20)
    shuffled = ek.validate(relabel(big.table, random_perm(big.size, 7)))
    assert [r.verdict for r in c2_c3(shuffled)] == [PASS, PASS]


def test_C2_fails_with_a_cell_witness(monkeypatch):
    h = hsum(2, 3)
    dec = decompose(h)
    lab = dict(dec.labeling)
    p, q = (x for x in h.carrier if lab[x] in ((0, 1), (1, 1)))
    lab[p], lab[q] = lab[q], lab[p]  # swap the atoms of the two branches
    monkeypatch.setattr(ek.lemmas, "decompose", lambda e: dec._replace(labeling=lab))
    c2, c3 = c2_c3(h)
    assert c2.verdict == FAIL and c3.verdict == PASS

    element = {bk: x for x, bk in lab.items()}
    lengths = dec.chain_lengths

    def chain_rule(x, y):
        (b, k), (c, m) = lab[x], lab[y]
        if k == 0:
            return y
        if m == 0:
            return x
        if b != c or k + m > lengths[b]:
            return ek.UNDEF
        return h.one if k + m == lengths[b] else element[b, k + m]

    cells = [(x, y) for x in h.carrier for y in h.carrier]
    first = cells.index(c2.witness)
    x, y = c2.witness
    assert h.table.sum[x][y] != chain_rule(x, y)
    assert all(h.table.sum[u][v] == chain_rule(u, v) for u, v in cells[:first])


@settings(max_examples=40, deadline=None)
@given(small_algebras())
def test_decompose_success_implies_C2_C3_pass(e):
    try:
        decompose(e)
    except DecomposeError:
        return
    assert [r.verdict for r in c2_c3(e)] == [PASS, PASS]


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(2, 5), min_size=1, max_size=4), st.randoms())
def test_round_trip_decomposition_property(lengths, rng):
    if sum(l - 1 for l in lengths) > 10:
        lengths = lengths[:2]
    h = ek.horizontal_sum([ek.chain(l) for l in lengths])
    perm = [0] + rng.sample(range(1, h.size), h.size - 1)
    shuffled = ek.validate(relabel(h.table, perm))
    assert decompose(shuffled).chain_lengths == tuple(sorted(lengths))
    assert [r.verdict for r in c2_c3(shuffled)] == [PASS, PASS]
