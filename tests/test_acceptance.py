"""Acceptance suite: one test per release criterion, exact tolerances.

Run with `pytest -s tests/test_acceptance.py` to see one line per criterion.
"""

import os
import time

import effectkit as ek
from effectkit.cli import main
from effectkit.core import validate
from effectkit.enumeration import enumerate_all
from effectkit.lemmas import (
    FAIL,
    NOT_APPLICABLE,
    lemma_suite,
    verify_homogeneity_witness,
)
from effectkit.structure import decompose

from conftest import (
    FIXTURES,
    chain_multisets,
    corpus_members,
    fixture_bytes,
    is_homogeneous_alt,
    scan_canonical,
)

NON_HOMOG = os.path.join(FIXTURES, "smallest_non_homogeneous_trivial_sharp.json")


def _sharp_directly(e, x):
    return not any(b and e.le(b, x) and e.le(b, e.ortho[x]) for b in e.carrier)


def _trivially_sharp_independent(e):
    return {x for x in e.carrier if _sharp_directly(e, x)} == {0, e.one}


def test_exhaustive_theorem_verification_sizes_2_to_8():
    t0 = time.time()
    checked = counterexamples = 0
    small_elapsed = None
    for n in range(2, 9):
        for key in enumerate_all(n):
            e = validate(ek.parse(key))
            if not (_trivially_sharp_independent(e) and is_homogeneous_alt(e)):
                continue
            checked += 1
            try:
                dec = decompose(e)
                rebuilt = ek.horizontal_sum([ek.chain(l) for l in dec.chain_lengths])
                ok = scan_canonical(e.table) == scan_canonical(rebuilt.table) and e.is_lattice
            except ek.DecomposeError:
                ok = False
            if not ok:
                counterexamples += 1
        if n == 5:
            small_elapsed = time.time() - t0
    elapsed = time.time() - t0
    assert counterexamples == 0
    assert checked == 1 + 1 + 2 + 3 + 5 + 7 + 11  # partition counts of 0..6
    assert small_elapsed < 5.0
    assert elapsed < 300.0
    print(
        f"ACCEPTANCE exhaustive-theorem-verification: PASS "
        f"({checked} hypothesis-class algebras, 0 counterexamples, "
        f"sizes<=5 in {small_elapsed:.2f}s, sizes<=8 in {elapsed:.2f}s)"
    )


def test_golden_enumeration_counts():
    assert len(enumerate_all(2)) == 1
    assert len(enumerate_all(3)) == 1
    keys4 = enumerate_all(4)
    assert len(keys4) == 3
    named = {
        scan_canonical(ek.chain(3).table),
        scan_canonical(ek.boolean_diamond().table),
        scan_canonical(ek.horizontal_sum([ek.chain(2), ek.chain(2)]).table),
    }
    assert set(keys4) == named
    print("ACCEPTANCE golden-enumeration-counts: PASS (sizes 2,3,4 -> 1,1,3)")


def test_round_trip_decomposition():
    cases = 0
    for lengths in chain_multisets(10):
        h = ek.horizontal_sum([ek.chain(l) for l in lengths])
        assert decompose(h).chain_lengths == lengths, lengths
        cases += 1
    assert cases == 138  # partition counts of 1..10 summed
    print(f"ACCEPTANCE round-trip-decomposition: PASS ({cases} multisets)")


def test_lemma_oracle_suite_over_corpus():
    always = {"L14", "L15"}
    needs_trivial = {"L20"}
    needs_homog = {"L22"}
    fails = 0
    for name, e in corpus_members():
        trivial = _trivially_sharp_independent(e)
        homog = is_homogeneous_alt(e)
        for r in lemma_suite(e):
            assert r.verdict != FAIL, (name, r)
            if r.lemma_id in always:
                applicable = True
            elif r.lemma_id in needs_trivial:
                applicable = trivial
            elif r.lemma_id in needs_homog:
                applicable = homog
            else:
                applicable = trivial and homog
            assert (r.verdict == NOT_APPLICABLE) == (not applicable), (name, r)
    print(
        f"ACCEPTANCE lemma-oracle-suite: PASS "
        f"({len(corpus_members())} corpus algebras, no Fail verdicts)"
    )


def test_sharpness_biconditional():
    algebras = [e for _, e in corpus_members()]
    for n in range(2, 7):
        algebras.extend(validate(ek.parse(k)) for k in enumerate_all(n))
    checked = 0
    for e in algebras:
        for x in e.carrier:
            direct = e.is_sharp(x)
            characterized = any(
                b != 0 and e.le(b, e.ortho[b]) and e.le(b, x) and e.le(x, e.ortho[b])
                for b in e.carrier
            )
            assert (not direct) == characterized, (e.table, x)
            checked += 1
    print(f"ACCEPTANCE sharpness-biconditional: PASS ({checked} elements)")


def test_negative_path_contract(capsys):
    assert main(["decompose", "diamond"]) == 1
    assert "NotTrivialSharps" in capsys.readouterr().err

    assert main(["decompose", NON_HOMOG]) == 1
    assert "NotHomogeneous" in capsys.readouterr().err

    e = validate(ek.parse(fixture_bytes("smallest_non_homogeneous_trivial_sharp.json")))
    try:
        decompose(e)
        raise AssertionError("expected NotHomogeneous")
    except ek.DecomposeError as exc:
        assert exc.kind == "NotHomogeneous"
        assert verify_homogeneity_witness(e, exc.detail)
    with capsys.disabled():
        print("ACCEPTANCE negative-path-contract: PASS (exit 1 + witness re-verifies)")


def test_determinism_under_parallelism(tmp_path, capsys):
    serial, parallel = tmp_path / "p1", tmp_path / "p4"
    assert main(["enumerate", "--max-size", "6", "--out", str(serial)]) == 0
    capsys.readouterr()
    assert (
        main(["enumerate", "--max-size", "6", "--out", str(parallel), "--parallel", "4"])
        == 0
    )
    capsys.readouterr()
    files_s = sorted(p.relative_to(serial) for p in serial.rglob("*") if p.is_file())
    files_p = sorted(p.relative_to(parallel) for p in parallel.rglob("*") if p.is_file())
    assert files_s == files_p and files_s
    for rel in files_s:
        assert (serial / rel).read_bytes() == (parallel / rel).read_bytes(), rel
    with capsys.disabled():
        print(
            f"ACCEPTANCE determinism-under-parallelism: PASS "
            f"({len(files_s)} files byte-identical)"
        )
