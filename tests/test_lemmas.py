import ast
import functools
import inspect
import random
import re
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings

import effectkit as ek
from effectkit.lemmas import (
    FAIL,
    HYPOTHESES,
    NOT_APPLICABLE,
    PASS,
    STATEMENTS,
    check_C2,
    check_L22,
    homogeneity_witness,
    is_homogeneous,
    lemma_suite,
    report,
    verify_homogeneity_witness,
)

from conftest import (
    first_homogeneity_failure_alt,
    first_L22_failure_alt,
    fixture_sums,
    homogeneity_failures_alt,
    is_homogeneous_alt,
    is_sharp_alt,
    multiple,
    non_homogeneous_fixture,
    order_alt,
    relabelled,
    small_algebras,
)


U = ek.UNDEF


def hsum(*lengths):
    return ek.horizontal_sum([ek.chain(l) for l in lengths])


def test_homogeneous_examples():
    assert is_homogeneous(ek.chain(5))
    assert is_homogeneous(ek.boolean_diamond())
    assert is_homogeneous(hsum(2, 2))
    assert is_homogeneous(ek.direct_product(ek.chain(2), ek.chain(3)))


def test_non_homogeneous_witness(e6):
    w = homogeneity_witness(e6)
    assert w == ek.HomogeneityWitness(u=1, v1=2, v2=2)
    assert verify_homogeneity_witness(e6, w)
    assert not is_homogeneous(e6)
    # a genuine witness must stop re-verifying on a homogeneous algebra
    assert not verify_homogeneity_witness(ek.chain(5), ek.HomogeneityWitness(1, 1, 1))


@settings(max_examples=50, deadline=None)
@given(small_algebras())
def test_homogeneity_differential_variants(e):
    assert is_homogeneous(e) == is_homogeneous_alt(e)


def test_homogeneity_differential_on_non_homogeneous(e6):
    assert not is_homogeneous_alt(e6)


def test_homogeneity_witness_matches_search_by_definition(reference_algebras):
    sums = fixture_sums()
    failures = 0
    for e in reference_algebras + sums:
        w = homogeneity_witness(e)
        want = first_homogeneity_failure_alt(e)
        assert (None if w is None else (w.u, w.v1, w.v2)) == want
        failures += w is not None
    assert failures > len(sums)


def split_reaches_past_u_prime(e):
    """True iff some u <= u' splits as u1 + u2 = u with an element other
    than the unit above a summand but not below u'.  homogeneity_witness
    builds its split masks over [0, u'] only, so it skips that element."""
    leq, ortho = order_alt(e.table), e.ortho
    for u in e.carrier:
        up = ortho[u]
        if not leq[u][up]:
            continue
        for u1, u2 in e.by_sum[u]:
            for v in e.carrier:
                if v != e.one and not leq[v][up] and (leq[u1][v] or leq[u2][v]):
                    return True
    return False


def test_restricted_split_masks_match_search_by_definition():
    rng = random.Random(5)
    products = [
        ek.validate(relabelled(ek.direct_product(ek.chain(i), ek.chain(j)).table, rng))
        for i, j in ((1, 2), (2, 2), (2, 3), (3, 3), (2, 5))
    ]
    products.append(
        ek.validate(relabelled(ek.horizontal_sum([products[2], ek.chain(3)]).table, rng))
    )
    e10 = [
        ek.validate(relabelled(ek.EffectAlgebraTable.from_rows(10, 1, E10_ROWS), rng))
        for _ in range(3)
    ]
    sums = fixture_sums()
    for e in products + e10:
        assert split_reaches_past_u_prime(e)
    for e in products + e10 + sums:
        w = homogeneity_witness(e)
        assert (None if w is None else (w.u, w.v1, w.v2)) == first_homogeneity_failure_alt(e)
    assert all(is_homogeneous(e) for e in products)
    assert not any(is_homogeneous(e) for e in e10 + sums)


def test_homogeneity_at_the_atoms_decides_it(e6):
    # The lemma behind homogeneity_witness, checked by the search by
    # definition: homogeneity at x and at y gives it at x + y, so each u at
    # which it fails lies above an atom at which it fails, and L22's
    # condition, homogeneity at the atoms, holds exactly on homogeneous input.
    rng = random.Random(23)
    algebras = [
        ek.validate(relabelled(ek.parse(key), rng))
        for n in range(2, 9)
        for key in ek.enumerate_all(n)
    ]
    # in a product with a chain, homogeneity fails above the failing atom too
    products = [
        ek.validate(relabelled(ek.direct_product(f, ek.chain(l)).table, rng))
        for f in (e6, non_homogeneous_fixture())
        for l in (2, 3)
    ]
    non_homogeneous = failing_non_atoms = witness_not_an_atom = 0
    for e in algebras + [e6] + fixture_sums() + products:
        s, leq = e.table.sum, order_alt(e.table)
        cells = {u: homogeneity_failures_alt(e, u) for u in e.carrier}
        failing = {u for u in e.carrier if cells[u]}
        failing_atoms = failing & set(e.atoms)
        w = homogeneity_witness(e)
        assert w == (None if not failing else (min(failing), *cells[min(failing)][0]))
        witness_not_an_atom += w is not None and w.u not in e.atoms
        for u in failing:
            assert any(leq[a][u] for a in failing_atoms), u
        for x in e.carrier:
            for y in e.carrier:
                if x not in failing and y not in failing and s[x][y] != U:
                    assert s[x][y] not in failing, (x, y)
        assert (check_L22(e) is None) == is_homogeneous_alt(e) == (not failing)
        non_homogeneous += bool(failing)
        failing_non_atoms += len(failing - failing_atoms)
    assert non_homogeneous > 25 and failing_non_atoms == 4 and witness_not_an_atom


def test_homogeneity_checks_the_atoms_then_only_above_a_failing_one(monkeypatch):
    real = ek.core.CheckedEffectAlgebra.unsplit_cell
    calls = []

    def counting(e, u, splits):
        calls.append(u)
        return real(e, u, splits)

    monkeypatch.setattr(ek.core.CheckedEffectAlgebra, "unsplit_cell", counting)
    e = ek.validate(relabelled(hsum(3, 4, 5).table, random.Random(3)))
    assert e.homogeneity_witness is None and calls == list(e.atoms) and len(calls) == 3
    calls.clear()
    assert ek.chain(64).homogeneity_witness is None and calls == [1]
    scanned_above = 0
    for e in fixture_sums():
        calls.clear()
        w = e.homogeneity_witness
        leq = order_alt(e.table)
        failing_atoms = [a for a in e.atoms if homogeneity_failures_alt(e, a)]
        above = [
            u
            for u in e.carrier
            if u not in e.atoms and any(leq[a][u] for a in failing_atoms)
        ]
        # each atom once, then the elements above a failing atom in index
        # order, up to the witness's u; a failing atom's cell is not redone
        assert calls == list(e.atoms) + [u for u in above if u <= w.u]
        scanned_above += len(calls) > len(e.atoms)
    assert scanned_above


def test_homogeneity_allocates_no_order_matrix():
    # The scan reads the order bitsets: its masks take O(n) memory, where an
    # n x n table of the order on chain(255) would take about 0.5 MiB.
    e = ek.chain(255)
    e._bounds
    tracemalloc.start()
    try:
        assert e.homogeneity_witness is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak


# A ten-element algebra with trivial sharps (atoms 8 and 9) whose failures
# of homogeneity at u = 8 lie at two sums: 7 + 7 = 3 and 7 + 9 = 9 + 7 = 5.
E10_ROWS = (
    (0, 1, 2, 3, 4, 5, 6, 7, 8, 9),
    (1, U, U, U, U, U, U, U, U, U),
    (2, U, U, U, U, U, U, U, U, 1),
    (3, U, U, U, U, U, U, U, 1, U),
    (4, U, U, U, U, U, U, 1, U, 2),
    (5, U, U, U, U, U, 1, U, 2, 3),
    (6, U, U, U, U, 1, U, 2, 3, 4),
    (7, U, U, U, 1, U, 2, 3, 4, 5),
    (8, U, U, 1, U, 2, 3, 4, 5, 6),
    (9, U, 1, U, 2, 3, 4, 5, 6, 7),
)


def test_homogeneity_witness_is_the_lexicographic_first_over_several_sums():
    # homogeneity_witness scans the cells one sum at a time; relabelling
    # moves the row-major first failure off the failing sum of least index
    base = ek.EffectAlgebraTable.from_rows(10, 1, E10_ROWS)
    later_sum = 0
    for seed in range(10):
        e = ek.validate(relabelled(base, random.Random(seed)))
        w = homogeneity_witness(e)
        assert (w.u, w.v1, w.v2) == first_homogeneity_failure_alt(e)
        assert verify_homogeneity_witness(e, w)
        sums = [e.table.sum[v1][v2] for v1, v2 in homogeneity_failures_alt(e, w.u)]
        later_sum += e.table.sum[w.v1][w.v2] > min(sums)
    assert later_sum


def computations_of(monkeypatch, name):
    """How often analyze, lemma_suite and decompose on one algebra compute
    the cached property `name`."""
    prop = ek.CheckedEffectAlgebra.__dict__[name]
    runs = []

    def counted(e):
        runs.append(e)
        return prop.func(e)

    counting = functools.cached_property(counted)
    counting.__set_name__(ek.CheckedEffectAlgebra, name)
    monkeypatch.setattr(ek.CheckedEffectAlgebra, name, counting)
    e = ek.validate(relabelled(hsum(3, 4, 5).table, random.Random(3)))
    ek.analyze(e)
    lemma_suite(e)
    ek.decompose(e)
    return len(runs)


def test_homogeneity_is_computed_once_per_algebra(monkeypatch):
    assert computations_of(monkeypatch, "homogeneity_witness") == 1


def test_order_bitsets_are_built_once_per_algebra(monkeypatch):
    assert computations_of(monkeypatch, "_bounds") == 1


def test_cells_by_sum_index_is_built_once_per_algebra(monkeypatch):
    # by_sum is filed by the one pass over the cells, which runs once
    build = ek.core._scan_cells
    runs = []

    def counted(t):
        runs.append(t)
        return build(t)

    t = relabelled(hsum(3, 4, 5).table, random.Random(3))
    monkeypatch.setattr(ek.core, "_scan_cells", counted)
    e = ek.validate(t)
    index = e.by_sum
    ek.analyze(e)
    lemma_suite(e)
    ek.decompose(e)
    assert len(runs) == 1
    assert e.by_sum is index


def test_L14_examples():
    assert report("L14", ek.boolean_diamond()).verdict == PASS
    assert report("L14", ek.direct_product(ek.chain(2), ek.chain(2))).verdict == PASS
    assert report("L14", ek.chain(6)).verdict == PASS


def test_L15_examples():
    for e in (ek.boolean_diamond(), ek.chain(4), hsum(2, 3, 4)):
        assert report("L15", e).verdict == PASS


def test_L20_examples():
    assert report("L20", hsum(3, 3)).verdict == PASS
    assert report("L20", ek.boolean_diamond()).verdict == NOT_APPLICABLE
    assert report("L20", ek.chain(2)).verdict == PASS


def test_L22_examples():
    assert report("L22", ek.chain(4)).verdict == PASS
    assert report("L22", hsum(2, 3)).verdict == PASS
    # the diamond is homogeneous, so the oracle applies; no atom sits below
    # its orthosupplement and the statement passes vacuously
    assert report("L22", ek.boolean_diamond()).verdict == PASS


def test_L22_not_applicable_on_non_homogeneous(e6):
    assert report("L22", e6).verdict == NOT_APPLICABLE


def L22_outcome_alt(e):
    if not is_homogeneous_alt(e):
        return NOT_APPLICABLE, None
    w = first_L22_failure_alt(e)
    return (PASS, None) if w is None else (FAIL, w)


def test_L22_matches_all_cells_scan(reference_algebras):
    verdicts = set()
    for e in reference_algebras:
        r = report("L22", e)
        assert (r.verdict, r.witness) == L22_outcome_alt(e)
        verdicts.add(r.verdict)
        # the body itself, also where report stops at the hypothesis
        assert check_L22(e) == first_L22_failure_alt(e)
        for a in e.atoms:
            assert e.unsplit_cell(a, ()) == e.unsplit_cell(a, e.by_sum[a])
    assert verdicts == {PASS, NOT_APPLICABLE}


def test_L22_fail_witness_is_the_row_major_first_on_doctored_algebras():
    # Declaring m an atom of a relabelled chain k (2m <= k, m >= 3) makes
    # every cell (v1, v2) with v1, v2 < m and m <= v1 + v2 <= k - m fail:
    # two or more cells, over one or more sums.  Relabelling shuffles the
    # sums' indices, so the row-major first failure need not lie in the
    # failing sum of least index, which the scan over by_sum meets first.
    rng = random.Random(22)
    later_sum = 0
    for k in range(6, 12):
        for m in range(3, k // 2 + 1):
            perm = [0] + rng.sample(range(1, k + 1), k)
            e = ek.validate(ek.relabel(ek.chain(k).table, perm))
            bad = e._replace(atoms=(perm[1], perm[m]))
            fails = [
                (v1, v2)
                for v1 in range(1, m)
                for v2 in range(1, m)
                if m <= v1 + v2 <= k - m
            ]
            assert len(fails) >= 2
            r = report("L22", bad)
            assert (r.verdict, r.witness) == (FAIL, first_L22_failure_alt(bad))
            assert r.witness == (perm[m], *min((perm[v1], perm[v2]) for v1, v2 in fails))
            s = bad.table.sum
            later_sum += s[r.witness[1]][r.witness[2]] > min(perm[v1 + v2] for v1, v2 in fails)
    assert later_sum


def test_L30_L31_L32_examples():
    h = hsum(2, 4)
    for lemma_id in ("L30", "L31", "L32"):
        assert report(lemma_id, h).verdict == PASS
    b = h.atoms[1]
    assert h.isotropy_index(b) == 4
    assert multiple(h, b, 3) == h.ortho[b]
    for lemma_id in ("L30", "L31", "L32"):
        assert report(lemma_id, ek.chain(7)).verdict == PASS
        assert report(lemma_id, ek.boolean_diamond()).verdict == NOT_APPLICABLE


def test_L32_covers_two_element_algebra():
    # the unit is the only atom and its orthosupplement is the 0-fold multiple
    assert report("L32", ek.chain(1)).verdict == PASS


def test_T36_L33_C1_examples():
    h = hsum(3, 5)
    for lemma_id in ("L33", "T36", "C1"):
        assert report(lemma_id, h).verdict == PASS
    a, b = h.atoms
    ia = set(h.interval(a, h.ortho[a]))
    ib = set(h.interval(b, h.ortho[b]))
    interior = set(h.carrier) - {0, h.one}
    assert ia | ib == interior and not ia & ib
    assert report("T36", ek.chain(4)).verdict == PASS
    p = ek.direct_product(ek.chain(2), ek.chain(3))
    assert len(p.sharp_set) == 4
    for lemma_id in ("L33", "T36", "C1"):
        assert report(lemma_id, p).verdict == NOT_APPLICABLE


def test_check_C2_passes_decompose_refusal_on():
    # outside the hypothesis class the body does not answer: the diamond's
    # sharp p and q make decompose refuse, and C2 lets that through
    with pytest.raises(ek.DecomposeError) as exc:
        check_C2(ek.boolean_diamond())
    assert exc.value.kind == "NotTrivialSharps"


def test_lemma_suite_order_and_verdicts():
    reports = lemma_suite(ek.chain(5))
    assert tuple(r.lemma_id for r in reports) == tuple(STATEMENTS)
    assert all(r.verdict == PASS for r in reports)
    d_reports = lemma_suite(ek.boolean_diamond())
    assert {r.verdict for r in d_reports} == {PASS, NOT_APPLICABLE}
    assert not any(r.verdict == FAIL for r in d_reports)


def test_render_reports_format():
    lines = [r.render() for r in lemma_suite(ek.chain(3))]
    assert lines[0] == "L14 Pass"
    assert len(lines) == len(STATEMENTS)
    bad = ek.LemmaReport("L20", FAIL, (3,))
    assert bad.render() == "L20 Fail witness=(3,)"


@settings(max_examples=40, deadline=None)
@given(small_algebras())
def test_applicability_is_monotone(e):
    # the triple-hypothesis oracles imply the weaker trivial-sharp one applies
    if report("L30", e).verdict != NOT_APPLICABLE:
        assert report("L20", e).verdict != NOT_APPLICABLE


@settings(max_examples=40, deadline=None)
@given(small_algebras())
def test_no_failures_on_valid_corpus(e):
    assert not any(r.verdict == FAIL for r in lemma_suite(e))


def test_fail_paths_on_doctored_algebra():
    # dropping an atom from the cached atom set breaks the covering oracle,
    # exercising Fail reporting and witness soundness plumbing
    h = hsum(2, 2)
    bad = h._replace(atoms=(1,))
    r = report("L20", bad)
    assert r.verdict == FAIL
    assert r.witness == (2,)
    assert 2 not in {x for a in bad.atoms for x in bad.interval(a, bad.ortho[a])}


def test_C1_fail_on_doctored_algebra():
    # pretending a multiple is an atom makes the intervals overlap
    c = ek.chain(4)
    bad = c._replace(atoms=(1, 2))
    r = report("C1", bad)
    assert r.verdict == FAIL
    assert r.witness is not None


def test_analysis_report_examples():
    rep = ek.analyze(hsum(2, 3))
    assert rep.homogeneous and rep.lattice
    assert rep.sharp == (0, 4)
    assert rep.isotropy == (2, 3)
    d = ek.analyze(ek.boolean_diamond())
    assert d.sharp == (0, 1, 2, 3)
    assert d.homogeneous
    p = ek.analyze(ek.from_spec("prod:chain:2,chain:2"))
    assert len(p.sharp) == 4
    assert rep._asdict()["atoms"] == (1, 2)


def test_bodies_leave_the_guard_to_report():
    # report is the one guard: no body names a standing hypothesis
    guard = re.compile(
        r"\b(has_trivial_sharps|is_homogeneous|_in_hypothesis_class|HYPOTHESES"
        r"|homogeneity_witness|sharp_set)\b"
    )
    for lemma_id, body in STATEMENTS.items():
        assert body.__name__ == f"check_{lemma_id}"
        assert not guard.search(inspect.getsource(body)), lemma_id
    assert set(HYPOTHESES) == set(STATEMENTS) - {"L14", "L15"}


def test_statements_are_known_to_lemmas_only():
    for name in ("LemmaReport", "PASS", "FAIL", "NOT_APPLICABLE"):
        assert not hasattr(ek.core, name) and not hasattr(ek.structure, name)
    tree = ast.parse(Path(ek.structure.__file__).read_text(encoding="utf-8"))
    imported = {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
    assert "core" in imported and "lemmas" not in imported


# The survey columns total, homogeneous, trivial_sharp and hypothesis_class
# of every size 2-9.
SURVEY_TO_9 = {
    2: (1, 1, 1, 1),
    3: (1, 1, 1, 1),
    4: (3, 3, 2, 2),
    5: (4, 4, 3, 3),
    6: (10, 9, 6, 5),
    7: (14, 12, 9, 7),
    8: (40, 25, 22, 11),
    9: (60, 34, 34, 15),
}


@pytest.fixture(scope="module")
def classes():
    """{n: (classes, algebras)} for every isomorphism class of sizes 2-9:
    the search's (key, flags) tuples and each key parsed and validated."""
    return {
        n: (classes, [ek.validate(ek.parse(c[0])) for c in classes])
        for n, classes in ek.enumeration._enumerate_sizes(SURVEY_TO_9, 1)
    }


def assert_statement_census(n, classes, members, survey):
    """Every statement on every class of size n: no Fail, L14 and L15 pass
    everywhere, and each other statement passes exactly where its
    hypothesis holds, as counted by the survey's columns."""
    total, homogeneous, trivial, hypothesis_class = survey
    row = ek.enumeration.survey_row(n, classes)
    assert (row.total, row.homogeneous, row.trivial_sharp, row.hypothesis_class) == survey
    counts = Counter((r.lemma_id, r.verdict) for e in members for r in lemma_suite(e))
    passes = {"L14": total, "L15": total, "L20": trivial, "L22": homogeneous}
    want = Counter()
    for lemma_id in STATEMENTS:
        p = passes.get(lemma_id, hypothesis_class)
        want[lemma_id, PASS] = p
        want[lemma_id, NOT_APPLICABLE] = total - p
    assert counts == want, n


def test_statement_census_sizes_2_to_9(classes):
    for n, (found, members) in classes.items():
        assert_statement_census(n, found, members, SURVEY_TO_9[n])


def test_statement_census_size_10(size_10_search):
    classes = size_10_search[0]
    members = [ek.validate(ek.parse(c[0])) for c in classes]
    assert_statement_census(10, classes, members, (172, 64, 81, 22))


# The first class, by size and then key, on which a body fails when called
# without its guard: (size, index among that size's keys, witness).
FIRST_FAILURES = {
    "L20": (4, 0, (2,)),
    "L31": (4, 0, (2, 1)),
    "L32": (4, 0, (2,)),
    "L22": (6, 3, (5, 4, 4)),
    "L30": (6, 3, (4, 5, 2)),
    "T36": (6, 3, (5, 2, 4)),
    "C1": (6, 3, (4, 5, 4, 2)),
    "C3": (6, 3, (2, 3)),
}


def test_each_hypothesis_is_needed(classes):
    # The bodies alone over every class of sizes 2-8 (C2's asks decompose,
    # which refuses algebras outside the hypothesis class).  L14, L15 and
    # L33 fail on none.  L20, L31 and L32 first fail on a homogeneous
    # algebra with sharps other than 0 and 1; the others on one with only
    # 0 and 1 sharp that is not homogeneous.
    first = {}
    for n in range(2, 9):
        for i, e in enumerate(classes[n][1]):
            for lemma_id, body in STATEMENTS.items():
                if lemma_id != "C2" and lemma_id not in first:
                    w = body(e)
                    if w is not None:
                        first[lemma_id] = (n, i, w)
    assert first == FIRST_FAILURES
    for lemma_id, (n, i, _) in first.items():
        e = classes[n][1][i]
        trivial = not any(is_sharp_alt(e, x) for x in e.carrier if x not in (0, e.one))
        if lemma_id in ("L20", "L31", "L32"):
            assert is_homogeneous_alt(e) and not trivial, lemma_id
        else:
            assert trivial and not is_homogeneous_alt(e), lemma_id
