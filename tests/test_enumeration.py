import gc
import hashlib
import importlib.util
import multiprocessing
import os
import random
import signal
import subprocess
import sys
from collections import Counter
from itertools import permutations, product
from math import factorial, prod
from pathlib import Path

import pytest

import effectkit as ek
import effectkit.enumeration as en
from effectkit.cli import main
from effectkit.core import UNDEF, EffectAlgebraTable, ValidationError, validate
from effectkit.enumeration import (
    UNASSIGNED,
    SizeTooLarge,
    _enumerate_tables,
    _resume_relabelings,
    _root_states,
    enumerate_all,
    survey,
    survey_row,
    write_enumeration,
)
from effectkit.lemmas import has_trivial_sharps, is_homogeneous

from conftest import (
    automorphism_count,
    chain_multisets,
    counted_search,
    partitions,
    scan_canonical,
)

GOLDEN_COUNTS = {2: 1, 3: 1, 4: 3, 5: 4, 6: 10, 7: 14, 8: 40}
# sha256 of the concatenated keys of sizes 2..8 and 2..9
KEYS_SHA256_TO_8 = "24ae786e1883e3ea88f250f5e6bfd575c37d57f2f82bde18efa4da28e7e9f712"
KEYS_SHA256_TO_9 = "1bdb445ee3926590f744d2eb627f21758670af8dbb027dc4d3c57849693d354d"
# sha256 of the concatenated keys of size 10 alone, and of size 11 alone
KEYS_SHA256_AT_10 = "267e597e9ce5fe350e4570e53b365fc46ef21d7ba393db2654080391edcbdee2"
KEYS_SHA256_AT_11 = "02fa311fd760be367068fe41e6174f12ead4dc56eea18be9840bad7b68a2d04f"
# calls of the prefix test in a search of a whole size, one per node
# reached: the search's cuts, which a change to propagation or pruning moves
PREFIX_TESTS = {2: 1, 3: 1, 4: 5, 5: 17, 6: 73, 7: 202, 8: 699}
PREFIX_TESTS_AT_9 = 1849
PREFIX_TESTS_AT_10 = 5668
PREFIX_TESTS_AT_11 = 15467
# live states handed to the prefix test over a whole search, one per set of
# relabelings that tie so far; one state per relabeling gave 3,435 and 35,602
STATES_HANDED = {7: 1306, 8: 7332}
# horizontal sums of chains, by chain lengths, whose ordered partitions keep
# the largest cells: n - 2 two-element chains, repeated chains, and the one
# chain of length n - 1
SYMMETRIC_SUMS = {7: [(2,) * 5, (3, 3, 2), (6,)], 8: [(2,) * 6, (3, 3, 3), (7,)]}
# labeled tables with the unit at 1 that the unfiltered search emits
UNFILTERED_COUNTS = {2: 1, 3: 1, 4: 4, 5: 16, 6: 142, 7: 1006}


@pytest.fixture(scope="module")
def fixture_script():
    """scripts/find_fixtures.py, loaded once as a module."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "find_fixtures.py"
    spec = importlib.util.spec_from_file_location("find_fixtures", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def brute_force_classes(n):
    """Independent oracle: every symmetric cell assignment, filtered by the
    axiom checker, keyed by the scan oracle."""
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
        keys.add(scan_canonical(t))
    return keys


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_against_independent_brute_force(n):
    assert set(enumerate_all(n)) == brute_force_classes(n)


@pytest.mark.parametrize("n,count", sorted(GOLDEN_COUNTS.items()))
def test_class_counts(n, count):
    assert len(enumerate_all(n)) == count


def _keys_sha256(per_size):
    return hashlib.sha256(b"".join(b"".join(keys) for keys in per_size)).hexdigest()


def test_key_bytes_sizes_2_to_8_are_pinned():
    assert _keys_sha256(enumerate_all(n) for n in range(2, 9)) == KEYS_SHA256_TO_8


@pytest.mark.parametrize("n,count", sorted(PREFIX_TESTS.items()))
def test_prefix_test_counts_are_pinned(monkeypatch, n, count):
    assert counted_search(monkeypatch, n)[1] == count


def test_size_9_count_and_hypothesis_class(monkeypatch):
    classes, prefix_tests = counted_search(monkeypatch, 9)
    keys = [c[0] for c in classes]
    assert prefix_tests == PREFIX_TESTS_AT_9
    assert len(keys) == 60
    row = survey_row(9, classes)
    assert row.hypothesis_class == 15 == sum(1 for _ in partitions(7))
    assert row.counterexamples == 0
    smaller = [enumerate_all(n) for n in range(2, 9)]
    assert _keys_sha256([*smaller, keys]) == KEYS_SHA256_TO_9
    monkeypatch.undo()
    assert enumerate_all(9) == keys


def test_size_10_count_and_hypothesis_class(size_10_search):
    classes, prefix_tests = size_10_search
    keys = [c[0] for c in classes]
    assert prefix_tests == PREFIX_TESTS_AT_10
    assert len(keys) == 172
    assert _keys_sha256([keys]) == KEYS_SHA256_AT_10
    row = survey_row(10, classes)
    assert row.as_tsv() == "10\t172\t64\t81\t22\t22\t0"
    assert row.hypothesis_class == sum(1 for _ in partitions(8))
    assert enumerate_all(10, parallel=2) == keys


def test_size_11_count_and_hypothesis_class(monkeypatch):
    classes, prefix_tests = counted_search(monkeypatch, 11)
    keys = [c[0] for c in classes]
    assert prefix_tests == PREFIX_TESTS_AT_11
    assert len(keys) == 282
    assert _keys_sha256([keys]) == KEYS_SHA256_AT_11
    row = survey_row(11, classes)
    assert row.as_tsv() == "11\t282\t87\t140\t30\t30\t0"
    assert row.hypothesis_class == sum(1 for _ in partitions(9))


def test_size_11_parallel_matches_the_pin():
    keys = enumerate_all(11, max_size=11, parallel=2)
    assert _keys_sha256([keys]) == KEYS_SHA256_AT_11


@pytest.mark.parametrize("n,count", sorted(UNFILTERED_COUNTS.items()))
def test_orbit_sum_equals_the_unfiltered_count(n, count):
    # orbit-stabiliser: a class with |Aut| automorphisms fixing 0 and 1
    # has (n - 2)!/|Aut| labelings with the unit at 1, and the unfiltered
    # search, which makes no prefix test, emits every one
    assert len(_enumerate_tables(n, leaf_filter=False)) == count
    orbits = [divmod(factorial(n - 2), automorphism_count(ek.parse(key)))
              for key in enumerate_all(n)]
    assert all(rest == 0 for _, rest in orbits)
    assert sum(size for size, _ in orbits) == count


def test_hypothesis_class_automorphisms_swap_equal_chains():
    # a chain fixing 0 and 1 is rigid, and only chains of one length can
    # be swapped: |Aut| is the product of m! over the multiplicities m
    swapped = 0
    for n in range(2, 9):
        for key in enumerate_all(n):
            e = validate(ek.parse(key))
            if is_homogeneous(e) and has_trivial_sharps(e):
                repeats = Counter(ek.decompose(e).chain_lengths).values()
                auts = automorphism_count(e.table)
                assert auts == prod(map(factorial, repeats))
                swapped += auts > 1
    assert swapped > 0


@pytest.mark.parametrize("n", [7, 8])
def test_carried_states_equal_a_start_from_the_root(monkeypatch, n):
    # at every node of the search, resuming the parent's live states gives
    # the same verdict and the same live states as starting afresh
    real = en._resume_relabelings
    nodes = 0

    def checked(S, m, states):
        nonlocal nodes
        nodes += 1
        got = real(S, m, states)
        assert got == real(S, m, _root_states(m))
        for blocks, stop, rel in got[1] or ():
            # every block cell is undecided in S
            blocks = (blocks,) if isinstance(blocks, int) else blocks
            assert blocks and all(S[b] == UNASSIGNED for b in blocks)
            # no old element sits in two places: order and its inverse
            # perm place each of 2..m-1 once
            order, perm, lo, hi = (rel[k * m : (k + 1) * m] for k in range(4))
            assert sorted(order[2:]) == list(range(2, m))
            assert all(perm[old] == new for new, old in enumerate(order))
            # the placements (cells of one index) and the partition's
            # cells cover 2..m-1 once, each index knowing its cell's bounds
            new = 2
            while new < m:
                assert new < hi[new] <= m
                assert all(lo[q] == new and hi[q] == hi[new] for q in range(new, hi[new]))
                new = hi[new]
        return got

    monkeypatch.setattr(en, "_resume_relabelings", checked)
    assert len(_enumerate_tables(n)) == GOLDEN_COUNTS[n]
    assert nodes == PREFIX_TESTS[n]


@pytest.mark.parametrize("n,count", sorted(STATES_HANDED.items()))
def test_live_state_counts_are_pinned(monkeypatch, n, count):
    real = en._resume_relabelings
    handed = 0

    def counting(S, m, states):
        nonlocal handed
        handed += len(states)
        return real(S, m, states)

    monkeypatch.setattr(en, "_resume_relabelings", counting)
    assert len(_enumerate_tables(n)) == GOLDEN_COUNTS[n]
    assert handed == count


@pytest.mark.parametrize("n", [6, 7, 8])
def test_a_state_wakes_when_any_of_its_block_cells_is_decided(n):
    # a state blocked on several cells goes on as soon as one of them is
    # decided, whichever it is: decide just that cell of a partial table,
    # and the carried states equal a start from the root.  In the searches
    # of sizes up to 10 no other block cell is decided before the first,
    # so the tests above cannot tell.  Every labeled table of size 6, the
    # symmetric sums at sizes 7 and 8
    if n in SYMMETRIC_SUMS:
        tables = [_horizontal_sum_of_chains(lengths) for lengths in SYMMETRIC_SUMS[n]]
    else:
        tables = [[v for row in t.sum for v in row] for t in _enumerate_tables(n, leaf_filter=False)]
    cells = [(i, j) for i in range(2, n) for j in range(i, n)]
    woken = 0
    for full in tables:
        for cut in range(len(cells) + 1):
            S = list(full)
            for i, j in cells[cut:]:
                S[i * n + j] = S[j * n + i] = UNASSIGNED
            witness, states = _resume_relabelings(S, n, _root_states(n))
            for blocks, _, _ in states or ():
                for b in blocks if isinstance(blocks, tuple) else ():
                    i, j = divmod(b, n)
                    later = list(S)
                    later[b] = later[j * n + i] = full[b]
                    assert _resume_relabelings(later, n, states) == _resume_relabelings(
                        later, n, _root_states(n))
                    woken += 1
    assert woken > 0


def test_search_leaves_no_cyclic_garbage():
    # the search makes no reference cycle, so reference counting frees
    # whatever it drops and the cyclic collector finds nothing after it
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for run in (
            lambda: _enumerate_tables(7),
            lambda: _enumerate_tables(6, leaf_filter=False),
            lambda: enumerate_all(7),
            lambda: survey(7),
        ):
            run()
            assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("n", range(2, 9))
def test_emitted_tables_are_minimal_and_pairwise_non_isomorphic(n):
    tables = _enumerate_tables(n)
    for t in tables:
        flat = [v for row in t.sum for v in row]
        assert _resume_relabelings(flat, n, _root_states(n))[0] is None
    assert len({scan_canonical(t) for t in tables}) == len(tables)


@pytest.mark.parametrize("n", range(2, 9))
def test_emitted_tables_are_their_own_canonical_form(n):
    for t in _enumerate_tables(n):
        assert ek.serialize(t) == scan_canonical(t)


def _naive_prefix_compare(S, n, order):
    """(-1, u) if the relabeling order (order[new] = old, fixing 0 and the
    unit 1) makes the decided prefix of S smaller, first at a cell of row
    u, (1, u) if larger, (0, None) if they agree up to the first undecided
    cell; cells compared one by one as integers."""
    perm = {old: new for new, old in enumerate(order)}
    for u, w in product(range(2, n), repeat=2):
        cur, v = S[u * n + w], S[order[u] * n + order[w]]
        if UNASSIGNED in (cur, v):
            return 0, None
        pv = v if v < 0 else perm[v]
        if pv != cur:
            return (-1 if pv < cur else 1), u
    return 0, None


def _naive_smaller_prefix(S, n):
    """Reference for the prefix test: every relabeling fixing 0 and 1."""
    return any(
        _naive_prefix_compare(S, n, (0, 1, *tail))[0] < 0
        for tail in permutations(range(2, n))
    )


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_prefix_test_matches_naive_reference(n):
    # partial tables: every labeled table with a suffix of its cells
    # undecided, and with a random half of that suffix decided again
    cells = [(i, j) for i in range(2, n) for j in range(i, n)]
    rng = random.Random(n)
    cases = witnesses = below_row_2 = 0
    for t in _enumerate_tables(n, leaf_filter=False):
        full = [v for row in t.sum for v in row]
        for cut in range(len(cells) + 1):
            for keep in (set(), {c for c in cells[cut:] if rng.random() < 0.5}):
                S = list(full)
                for i, j in cells[cut:]:
                    if (i, j) not in keep:
                        S[i * n + j] = S[j * n + i] = UNASSIGNED
                got = _resume_relabelings(S, n, _root_states(n))[0]
                assert (got is not None) == _naive_smaller_prefix(S, n)
                if got is not None:
                    # a first smaller cell below row 2 comes from a
                    # complete relabeling, one that tied on row 2
                    below_row_2 += _assert_witness(S, n, got) > 2
                    witnesses += 1
                cases += 1
    assert cases > 0
    assert n == 3 or witnesses > 0
    assert n not in (5, 6) or below_row_2 > 0


def _assert_witness(S, n, perm):
    """perm is a relabeling fixing 0 and 1 that makes the decided prefix
    of S smaller; returns the row of the first smaller cell."""
    assert perm[:2] == [0, 1] and sorted(perm) == list(range(n))
    order = [0] * n
    for old, new in enumerate(perm):
        order[new] = old
    sign, row = _naive_prefix_compare(S, n, order)
    assert sign == -1
    return row


def _carried_chain(full, n, rng):
    """Check the prefix test on one chain of nested partial tables of the
    flat table full, as a branch of the search meets them: the cells are
    decided in the search's order, a random third of them earlier, as
    propagation decides them, and the live states are carried from each
    table to the next.  Returns the tables checked and whether the chain
    ended in a witness."""
    cells = [(i, j) for i in range(2, n) for j in range(i, n)]
    decided_at = [
        rng.randint(0, k) if rng.random() < 1 / 3 else k for k in range(len(cells))
    ]
    states = _root_states(n)
    for step in range(len(cells) + 1):
        S = list(full)
        for (i, j), k in zip(cells, decided_at):
            if k >= step:
                S[i * n + j] = S[j * n + i] = UNASSIGNED
        got, states = _resume_relabelings(S, n, states)
        assert (got is not None) == _naive_smaller_prefix(S, n)
        if got is not None:
            # the search cuts here: nothing below is reached
            _assert_witness(S, n, got)
            return step + 1, True
    # S is complete: every comparison has reached a verdict
    assert states == []
    return len(cells) + 1, False


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_carried_states_match_naive_reference(n):
    # one carried chain of nested partial tables per labeled table
    rng = random.Random(100 + n)
    steps = witnesses = 0
    for t in _enumerate_tables(n, leaf_filter=False):
        checked, cut = _carried_chain([v for row in t.sum for v in row], n, rng)
        steps += checked
        witnesses += cut
    assert steps > 0
    assert n == 3 or witnesses > 0


def _horizontal_sum_of_chains(lengths):
    """The flat sum table, unit at 1, of the horizontal sum of chains of
    the given lengths: a chain of length L adds the elements a, 2a, ...,
    (L - 1)a, with ia + ja = (i + j)a up to La = 1."""
    n = 2 + sum(length - 1 for length in lengths)
    S = [UNDEF] * (n * n)
    for x in range(n):
        S[x] = S[x * n] = x
    first = 2
    for length in lengths:
        index = [None, *range(first, first + length - 1), 1]
        for i in range(1, length):
            for j in range(1, length - i + 1):
                S[index[i] * n + index[j]] = index[i + j]
        first += length - 1
    return S


def _largest_cell_past_row_2(states, n):
    return max((rel[3 * n + q] - rel[2 * n + q]
                for _, stop, rel in states if stop >= 3 * n for q in range(2, n)), default=0)


@pytest.mark.parametrize("n", [7, 8])
def test_prefix_test_matches_naive_reference_on_symmetric_tables(n):
    # up to size 6 no cell of the partition can hold more than four
    # elements; these tables keep cells of up to n - 3 past row 2.  Each
    # table, as built and under a random relabeling fixing 0 and 1, with a
    # suffix of its cells undecided, with a random half of that suffix
    # decided again, and along one carried chain of partial tables
    cells = [(i, j) for i in range(2, n) for j in range(i, n)]
    rng = random.Random(200 + n)
    witnesses = largest = 0
    for lengths in SYMMETRIC_SUMS[n]:
        built = _horizontal_sum_of_chains(lengths)
        rows = [built[i * n : (i + 1) * n] for i in range(n)]
        validate(EffectAlgebraTable.from_rows(n, 1, rows))
        perm = [0, 1, *rng.sample(range(2, n), n - 2)]
        relabeled = [UNDEF] * (n * n)
        for x, y in product(range(n), repeat=2):
            v = built[x * n + y]
            relabeled[perm[x] * n + perm[y]] = v if v < 0 else perm[v]
        for full in (built, relabeled):
            for cut in range(len(cells) + 1):
                for keep in (set(), {c for c in cells[cut:] if rng.random() < 0.5}):
                    S = list(full)
                    for i, j in cells[cut:]:
                        if (i, j) not in keep:
                            S[i * n + j] = S[j * n + i] = UNASSIGNED
                    got, states = _resume_relabelings(S, n, _root_states(n))
                    assert (got is not None) == _naive_smaller_prefix(S, n)
                    if got is not None:
                        _assert_witness(S, n, got)
                        witnesses += 1
                    else:
                        largest = max(largest, _largest_cell_past_row_2(states, n))
            witnesses += _carried_chain(full, n, rng)[1]
    # a live state past row 2 keeps every element but row 2's own in one
    # cell: the undefined ones of the two-element chains
    assert witnesses > 0
    assert largest == n - 3


def test_size4_classes_are_the_named_three():
    keys = set(enumerate_all(4))
    named = {
        scan_canonical(ek.chain(3).table),
        scan_canonical(ek.boolean_diamond().table),
        scan_canonical(ek.horizontal_sum([ek.chain(2), ek.chain(2)]).table),
    }
    assert keys == named


def test_size3_forced_table():
    (key,) = enumerate_all(3)
    assert key == scan_canonical(ek.chain(2).table)


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
        assert scan_canonical(ek.chain(n - 1).table) in keys
        for lengths in chain_multisets(n - 2):
            if sum(l - 1 for l in lengths) == n - 2:
                h = ek.horizontal_sum([ek.chain(l) for l in lengths])
                assert scan_canonical(h.table) in keys


def test_leaf_filter_differential():
    # every labeled table of the unfiltered search, keyed by the scan
    for n in range(2, 8):
        keys = {scan_canonical(t) for t in _enumerate_tables(n, leaf_filter=False)}
        assert sorted(keys) == enumerate_all(n)


def _sum_of_two_element_chains_key(n):
    return scan_canonical(ek.horizontal_sum([ek.chain(2)] * (n - 2)).table)


@pytest.mark.parametrize("n", range(3, 8))
def test_least_row_2_lemma_on_every_labeled_table(n):
    # the lemma the root branches rest on, checked without them: the
    # unfiltered search sets no row 2, and the scan oracle keys each table
    lowest = (UNDEF,) * (n - 3) + (1,)
    ones = (1,) + (UNDEF,) * (n - 3)
    rows_2 = Counter()
    for t in _enumerate_tables(n, leaf_filter=False):
        key = scan_canonical(t)
        row_2 = tuple(ek.parse(key).sum[2][2:])
        assert row_2 in (lowest, ones)
        if row_2 == ones:
            assert key == _sum_of_two_element_chains_key(n)
        rows_2[row_2] += 1
    assert rows_2[ones] > 0


@pytest.mark.parametrize("n", range(3, 11))
def test_the_1_branch_emits_only_the_sum_of_two_element_chains(n):
    tables = _enumerate_tables(n, (1,))
    assert [ek.serialize(t) for t in tables] == [_sum_of_two_element_chains_key(n)]


def test_root_branches_are_the_tasks():
    # size 2 is searched whole, size 3 has the one branch (2, 2) = 1, and
    # every larger size the two branches of the least-row-2 lemma
    assert en._row_2_branches(2) == [()]
    assert en._row_2_branches(3) == [(1,)]
    for n in range(4, 13):
        assert en._row_2_branches(n) == [(UNDEF,) * (n - 3) + (1,), (1,)]


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
    # neither the search nor a pool starts before the sizes are checked
    def no_work(*args, **kwargs):
        raise AssertionError("enumerated before checking the cap")

    monkeypatch.setattr(en, "_enumerate_sizes", no_work)
    monkeypatch.setattr(en, "Pool", no_work)
    out = tmp_path / "results"
    for max_n, max_size, error in ((5, 4, SizeTooLarge), (1, None, ValueError),
                                   (0, None, ValueError), (-3, None, ValueError)):
        for run in (
            lambda: survey(max_n, max_size=max_size, parallel=2),
            lambda: write_enumeration(str(out), max_n, max_size=max_size, parallel=2),
        ):
            with pytest.raises(error):
                run()
    assert not out.exists()


def test_shared_pool_matches_serial():
    serial = survey(8)
    assert survey(8, parallel=2) == serial
    assert not multiprocessing.active_children()
    assert survey(8, parallel=3) == serial
    assert not multiprocessing.active_children()


def test_consumer_error_terminates_the_pool(monkeypatch):
    real = en.survey_row

    def failing(n, classes):
        if n == 6:
            raise RuntimeError("survey failed")
        return real(n, classes)

    monkeypatch.setattr(en, "survey_row", failing)
    with pytest.raises(RuntimeError, match="survey failed"):
        survey(10, parallel=2)
    assert not multiprocessing.active_children()


def test_worker_error_terminates_the_pool(monkeypatch):
    # forked workers inherit the patched search
    def failing(n, row_2=None, leaf_filter=True):
        raise RuntimeError("search failed")

    monkeypatch.setattr(en, "_enumerate_tables", failing)
    with pytest.raises(RuntimeError, match="search failed"):
        enumerate_all(6, parallel=2)
    assert not multiprocessing.active_children()


def test_repeated_worker_errors_never_hang_the_pool():
    # a worker killed while it sends a result would leave the result
    # queue's lock held and the pool's shutdown waiting on it forever; the
    # loop runs in a process group of its own, so a hang can be killed
    # whole without leaving a pool thread in this process
    code = (
        "import multiprocessing\n"
        "import effectkit.enumeration as en\n"
        "def failing(n, row_2=None, leaf_filter=True):\n"
        "    raise RuntimeError('search failed')\n"
        "en._enumerate_tables = failing\n"
        "for _ in range(100):\n"
        "    try:\n"
        "        en.enumerate_all(6, parallel=2)\n"
        "    except RuntimeError:\n"
        "        pass\n"
        "    else:\n"
        "        raise AssertionError('the error was lost')\n"
        "assert not multiprocessing.active_children()\n"
        "print('ok')\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(ek.__file__).parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-c", code], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env=env, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("a failing worker hung the pool")
    assert (proc.returncode, out) == (0, "ok\n"), err


def test_duplicate_guard_with_a_pool(monkeypatch):
    # every task's keys collide, as in test_duplicate_guard_survives_optimize
    monkeypatch.setattr(en, "serialize", lambda t: b"same")
    with pytest.raises(AssertionError, match="same labeled table twice"):
        enumerate_all(6, parallel=2)
    assert not multiprocessing.active_children()


def test_workers_are_capped_by_the_largest_size(monkeypatch):
    requested, chunksizes = [], []

    class RecordingPool:
        """Records the worker count and chunk size asked for and runs the
        tasks in this process, so no worker is started."""

        def __init__(self, processes):
            requested.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize):
            chunksizes.append(chunksize)
            return list(map(fn, tasks))

    monkeypatch.setattr(en, "Pool", RecordingPool)
    assert main(["enumerate", "--max-size", "5", "--parallel", "1000000"]) == 0
    assert requested == [2]
    # size 2 alone is one task: no pool at all
    assert main(["enumerate", "--max-size", "2", "--parallel", "1000000"]) == 0
    assert requested == [2]
    # so is size 3, the one branch (2, 2) = 1
    assert main(["enumerate", "--max-size", "3", "--parallel", "2"]) == 0
    assert requested == [2]
    assert survey(5, parallel=3) == survey(5)
    assert requested == [2, 2]
    assert chunksizes == [1, 1]
    assert not multiprocessing.active_children()


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


def test_each_class_is_validated_once_in_the_task_that_finds_it(monkeypatch):
    # the survey classifies the tables the search emits, not their keys
    # parsed back; with a pool, the parent validates nothing
    assert not hasattr(en, "parse")
    calls = Counter()
    real = en.validate

    def counting(t):
        calls[t.size] += 1
        return real(t)

    monkeypatch.setattr(en, "validate", counting)
    rows = survey(8)
    assert calls == {row.size: row.total for row in rows}
    calls.clear()
    assert survey(8, parallel=2) == rows
    assert not calls


def test_hypothesis_class_counts_match_partitions():
    # homogeneous + trivial sharps is exactly "horizontal sum of chains":
    # per size the members' nonzero chain interiors l - 1 are the
    # partitions of n - 2, each once, and C2 and C3 pass on every member
    for n, classes in en._enumerate_sizes(range(2, 9), 1):
        row = survey_row(n, classes)
        members = [e for e in (validate(ek.parse(c[0])) for c in classes)
                   if is_homogeneous(e) and has_trivial_sharps(e)]
        interiors = sorted(
            tuple(sorted(l - 1 for l in ek.decompose(e).chain_lengths if l > 1))
            for e in members
        )
        assert interiors == sorted(partitions(n - 2))
        assert row.hypothesis_class == len(members)
        assert row.counterexamples == 0
        assert row.theorem_verified == row.hypothesis_class


def test_first_non_homogeneous_key_is_the_smallest_fixture(e6):
    scan = [validate(ek.parse(key)) for n in range(2, 7) for key in enumerate_all(n)]
    first = next(e for e in scan if not is_homogeneous(e))
    assert first.size == 6
    assert first is next(e for e in scan if not is_homogeneous(e) and has_trivial_sharps(e))
    assert first is next(e for e in scan if not e.is_lattice)
    assert scan_canonical(first.table) == scan_canonical(e6.table)
    # nothing smaller: sizes 2..5 are all homogeneous lattices
    assert all(is_homogeneous(e) and e.is_lattice for e in scan if e.size < 6)


def test_fixture_script_regenerates_the_committed_bytes(fixture_script):
    from conftest import FIXTURES, fixture_bytes

    made = fixture_script.fixtures()
    assert sorted(made) == sorted(p.name for p in Path(FIXTURES).glob("*.json"))
    for name, data in made.items():
        assert data == fixture_bytes(name), name


def test_persisted_fixture_matches_search(fixture_script):
    from conftest import fixture_bytes

    data = fixture_bytes("smallest_non_homogeneous_trivial_sharp.json")
    assert fixture_script.fixtures()["smallest_non_homogeneous_trivial_sharp.json"] == data
    e = validate(ek.parse(data))
    assert scan_canonical(e.table) == data
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
