import hashlib
import os
import random
import subprocess
import sys
from itertools import permutations, product
from pathlib import Path

import pytest

import effectkit as ek
import effectkit.enumeration as en
from effectkit.core import UNDEF, EffectAlgebraTable, ValidationError, validate
from effectkit.enumeration import (
    SizeTooLarge,
    _enumerate_tables,
    enumerate_all,
    find_counterexample,
    survey,
    survey_row,
    write_enumeration,
)
from effectkit.lemmas import has_trivial_sharps, is_homogeneous
from effectkit.structure import UNASSIGNED, _smaller_relabeling

from conftest import chain_multisets, partitions, relabelled

GOLDEN_COUNTS = {2: 1, 3: 1, 4: 3, 5: 4, 6: 10, 7: 14, 8: 40}
# sha256 of the concatenated keys of sizes 2..8 and 2..9
KEYS_SHA256_TO_8 = "24ae786e1883e3ea88f250f5e6bfd575c37d57f2f82bde18efa4da28e7e9f712"
KEYS_SHA256_TO_9 = "1bdb445ee3926590f744d2eb627f21758670af8dbb027dc4d3c57849693d354d"
# calls of the prefix test in a serial search, one per node reached: the
# search's cuts, which a change to propagation or pruning moves
PREFIX_TESTS = {2: 1, 3: 2, 4: 7, 5: 25, 6: 102, 7: 268, 8: 839}
PREFIX_TESTS_AT_9 = 2105


def brute_force_classes(n):
    """Independent oracle: every symmetric cell assignment, filtered by the
    axiom checker, grouped by an independently coded canonical key."""
    one = n - 1
    cells = [(i, j) for i in range(1, one) for j in range(i, one)]
    domains = [
        [UNDEF] + [k for k in range(1, n) if k not in (i, j)] for (i, j) in cells
    ]
    keys = set()
    for choice in product(*domains):
        rows = [[UNDEF] * n for _ in range(n)]
        for x in range(n):
            rows[0][x] = rows[x][0] = x
        for (i, j), v in zip(cells, choice):
            rows[i][j] = rows[j][i] = v
        t = EffectAlgebraTable.from_rows(n, one, rows)
        try:
            validate(t)
        except ValidationError:
            continue
        keys.add(_naive_canonical(t))
    return keys


def _naive_canonical(t):
    n = t.size
    best = None
    for tail in permutations(range(1, n)):
        order = (0,) + tail
        perm = [0] * n
        for new, old in enumerate(order):
            perm[old] = new
        flat = [perm[t.one]]
        for oi in order:
            for oj in order:
                v = t.sum[oi][oj]
                flat.append(v if v == UNDEF else perm[v])
        key = tuple(flat)
        if best is None or key < best:
            best = key
    return best


def _scan_canonical(t):
    """Reference canonical key: scan the (n-2)! relabelings fixing 0 that
    put the unit at 1, keep the least integer tuple (the sum table row by
    row, undefined as -1) and serialize it."""
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
    return ek.serialize(EffectAlgebraTable.from_rows(n, 1, rows))


def _as_naive_key(canonical_bytes):
    t = ek.parse(canonical_bytes)
    return _naive_canonical(t)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_against_independent_brute_force(n):
    fast = {_as_naive_key(k) for k in enumerate_all(n)}
    assert fast == brute_force_classes(n)


@pytest.mark.parametrize("n,count", sorted(GOLDEN_COUNTS.items()))
def test_class_counts(n, count):
    assert len(enumerate_all(n)) == count


def _keys_sha256(per_size):
    return hashlib.sha256(b"".join(b"".join(keys) for keys in per_size)).hexdigest()


def test_key_bytes_sizes_2_to_8_are_pinned():
    assert _keys_sha256(enumerate_all(n) for n in range(2, 9)) == KEYS_SHA256_TO_8


def _counted_enumeration(monkeypatch, n):
    """enumerate_all(n) run serially, and the number of prefix tests made."""
    real = en._smaller_relabeling
    calls = 0

    def counting(S, m):
        nonlocal calls
        calls += 1
        return real(S, m)

    monkeypatch.setattr(en, "_smaller_relabeling", counting)
    return enumerate_all(n), calls


@pytest.mark.parametrize("n,count", sorted(PREFIX_TESTS.items()))
def test_prefix_test_counts_are_pinned(monkeypatch, n, count):
    assert _counted_enumeration(monkeypatch, n)[1] == count


def test_size_9_count_and_hypothesis_class(monkeypatch):
    keys, prefix_tests = _counted_enumeration(monkeypatch, 9)
    assert prefix_tests == PREFIX_TESTS_AT_9
    assert len(keys) == 60
    row = survey_row(9, keys)
    assert row.hypothesis_class == 15 == sum(1 for _ in partitions(7))
    assert row.counterexamples == 0
    smaller = [enumerate_all(n) for n in range(2, 9)]
    assert _keys_sha256([*smaller, keys]) == KEYS_SHA256_TO_9


@pytest.mark.parametrize("n", range(2, 9))
def test_emitted_tables_are_minimal_and_pairwise_non_isomorphic(n):
    tables = _enumerate_tables(n)
    for t in tables:
        flat = [v for row in t.sum for v in row]
        assert _smaller_relabeling(flat, n) is None
    assert len({_scan_canonical(t) for t in tables}) == len(tables)


@pytest.mark.parametrize("n", range(2, 9))
def test_emitted_tables_are_their_own_canonical_form(n):
    for t in _enumerate_tables(n):
        assert ek.serialize(t) == _scan_canonical(t)


def _naive_prefix_compare(S, n, order):
    """-1 if the relabeling order (order[new] = old, fixing 0 and the unit
    1) makes the decided prefix of S smaller, 1 if larger, 0 if they agree
    up to the first undecided cell; cells compared one by one as
    integers."""
    perm = {old: new for new, old in enumerate(order)}
    for u, w in product(range(2, n), repeat=2):
        cur, v = S[u * n + w], S[order[u] * n + order[w]]
        if UNASSIGNED in (cur, v):
            return 0
        pv = v if v < 0 else perm[v]
        if pv != cur:
            return -1 if pv < cur else 1
    return 0


def _naive_smaller_prefix(S, n):
    """Reference for the prefix test: every relabeling fixing 0 and 1."""
    return any(
        _naive_prefix_compare(S, n, (0, 1, *tail)) < 0
        for tail in permutations(range(2, n))
    )


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_prefix_test_matches_naive_reference(n):
    # partial tables: every labeled table with a suffix of its cells
    # undecided, and with a random half of that suffix decided again
    cells = [(i, j) for i in range(2, n) for j in range(i, n)]
    rng = random.Random(n)
    cases = witnesses = 0
    for t in _enumerate_tables(n, leaf_filter=False):
        full = [v for row in t.sum for v in row]
        for cut in range(len(cells) + 1):
            for keep in (set(), {c for c in cells[cut:] if rng.random() < 0.5}):
                S = list(full)
                for i, j in cells[cut:]:
                    if (i, j) not in keep:
                        S[i * n + j] = S[j * n + i] = UNASSIGNED
                got = _smaller_relabeling(S, n)
                assert (got is not None) == _naive_smaller_prefix(S, n)
                if got is not None:
                    # the witness itself makes the decided prefix smaller
                    assert got[:2] == [0, 1] and sorted(got) == list(range(n))
                    order = [0] * n
                    for old, new in enumerate(got):
                        order[new] = old
                    assert _naive_prefix_compare(S, n, order) == -1
                    witnesses += 1
                cases += 1
    assert cases > 0
    assert n == 3 or witnesses > 0


def test_size4_classes_are_the_named_three():
    keys = set(enumerate_all(4))
    named = {
        ek.canonical_form(ek.chain(3)),
        ek.canonical_form(ek.boolean_diamond()),
        ek.canonical_form(ek.horizontal_sum([ek.chain(2), ek.chain(2)])),
    }
    assert keys == named


def test_size3_forced_table():
    (key,) = enumerate_all(3)
    assert key == ek.canonical_form(ek.chain(2))


def test_all_emitted_tables_validate():
    for n in range(2, 7):
        for key in enumerate_all(n):
            e = validate(ek.parse(key))
            assert e.size == n


def test_isomorph_freeness():
    for n in range(2, 7):
        keys = enumerate_all(n)
        assert len(keys) == len(set(keys))
        assert keys == sorted(keys)


def test_known_classes_are_found():
    for n in range(2, 8):
        keys = set(enumerate_all(n))
        assert ek.canonical_form(ek.chain(n - 1)) in keys
        for lengths in chain_multisets(n - 2):
            if sum(l - 1 for l in lengths) == n - 2:
                h = ek.horizontal_sum([ek.chain(l) for l in lengths])
                assert ek.canonical_form(h) in keys


def test_leaf_filter_differential():
    # every labeled table of the unfiltered search, keyed by the scan
    for n in range(2, 8):
        keys = {_scan_canonical(t) for t in _enumerate_tables(n, leaf_filter=False)}
        assert sorted(keys) == enumerate_all(n)


def test_canonical_form_matches_the_scan():
    rng = random.Random(20261018)
    for n in range(2, 9):
        for key in enumerate_all(n):
            for _ in range(3):
                t = relabelled(ek.parse(key), rng)
                assert ek.canonical_form(t) == _scan_canonical(t) == key


@pytest.mark.parametrize("spec", ["hsum:3,4,5", "hsum:4,4,4"])
def test_canonical_form_invariance_at_size_11(spec):
    # (n - 2)! = 362,880 relabelings: beyond the scan's reach in a test
    e = ek.from_spec(spec)
    assert e.size == 11
    key = ek.canonical_form(e)
    rng = random.Random(11)
    for _ in range(3):
        assert ek.canonical_form(relabelled(e.table, rng)) == key


def test_duplicate_guard_survives_optimize():
    # under -O an assert would vanish; the guard must still fire when two
    # emitted tables share a key (forced here by a constant key in place
    # of the serialization that keys the filtered search)
    code = (
        "import effectkit.enumeration as en\n"
        "en.serialize = lambda t: b'same'\n"
        "en.enumerate_all(4)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(ek.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode != 0
    assert "search emitted the same labeled table twice" in proc.stderr


def test_parallel_matches_serial():
    for n in (5, 6):
        serial = enumerate_all(n, parallel=1)
        assert enumerate_all(n, parallel=2) == serial
        assert enumerate_all(n, parallel=4) == serial


def test_size_cap():
    with pytest.raises(SizeTooLarge):
        enumerate_all(11)
    with pytest.raises(SizeTooLarge):
        enumerate_all(5, max_size=4)
    with pytest.raises(ValueError):
        enumerate_all(1)


def test_size_cap_is_checked_before_any_work(tmp_path, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("enumerated before checking the cap")

    monkeypatch.setattr(en, "enumerate_all", no_work)
    out = tmp_path / "results"
    for run in (
        lambda: survey(5, max_size=4),
        lambda: find_counterexample(5, max_size=4),
        lambda: write_enumeration(str(out), 5, max_size=4),
    ):
        with pytest.raises(SizeTooLarge):
            run()
    assert not out.exists()


def test_survey_rows():
    rows = survey(5)
    assert [tuple(getattr(r, c) for c in ("size", "total", "homogeneous",
            "trivial_sharp", "hypothesis_class", "theorem_verified",
            "counterexamples")) for r in rows] == [
        (2, 1, 1, 1, 1, 1, 0),
        (3, 1, 1, 1, 1, 1, 0),
        (4, 3, 3, 2, 2, 2, 0),
        (5, 4, 4, 3, 3, 3, 0),
    ]


def test_hypothesis_class_counts_match_partitions():
    # homogeneous + trivial sharps is exactly "horizontal sum of chains",
    # so per size the class count equals the partition count of n - 2
    for n in range(2, 7):
        row = survey_row(n, enumerate_all(n))
        assert row.hypothesis_class == sum(1 for _ in partitions(n - 2))
        assert row.counterexamples == 0
        assert row.theorem_verified == row.hypothesis_class


def test_find_counterexample_smallest_sizes(e6):
    found = find_counterexample(6)
    assert found.theorem is None
    assert found.non_homogeneous is not None
    assert found.non_homogeneous.size == 6
    assert found.non_homogeneous == found.non_homogeneous_trivial_sharp
    assert found.non_lattice == found.non_homogeneous
    got = validate(found.non_homogeneous)
    assert ek.canonical_form(got) == ek.canonical_form(e6)
    # nothing smaller: sizes 2..5 are all homogeneous lattices
    for n in range(2, 6):
        for key in enumerate_all(n):
            e = validate(ek.parse(key))
            assert is_homogeneous(e) and e.is_lattice


def test_persisted_fixture_matches_search(e6):
    from conftest import fixture_bytes

    data = fixture_bytes("smallest_non_homogeneous_trivial_sharp.json")
    found = find_counterexample(6)
    assert ek.canonical_form(found.non_homogeneous_trivial_sharp) == data
    e = validate(ek.parse(data))
    assert has_trivial_sharps(e) and not is_homogeneous(e)
    w = ek.homogeneity_witness(e)
    assert ek.lemmas.verify_homogeneity_witness(e, w)


def test_write_enumeration(tmp_path):
    out = tmp_path / "results"
    rows = write_enumeration(str(out), 4)
    assert (out / "survey.tsv").exists()
    lines = (out / "survey.tsv").read_text().splitlines()
    assert lines[0].split("\t")[0] == "size"
    assert lines[3] == "4\t3\t3\t2\t2\t2\t0"
    files = sorted((out / "size_4").iterdir())
    assert len(files) == 3
    for f, key in zip(files, enumerate_all(4)):
        assert f.read_bytes() == key
    assert [r.size for r in rows] == [2, 3, 4]
