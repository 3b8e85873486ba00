import ast
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import effectkit as ek
from effectkit import core
from effectkit.core import (
    UNDEF,
    EffectAlgebraTable,
    ValidationError,
    validate,
)
from effectkit.enumeration import _enumerate_tables

from conftest import (
    atoms_alt,
    corrupted,
    first_violation_alt,
    fixture_sums,
    hasse_covers_alt,
    interval_alt,
    is_lattice_alt,
    is_sharp_alt,
    join_alt,
    meet_alt,
    multiple,
    non_homogeneous_fixture,
    order_alt,
    relabelled,
    small_algebras,
    sum_of,
)

U = UNDEF


def table(size, one, rows):
    return EffectAlgebraTable.from_rows(size, one, rows)


def test_chain3_validates_with_expected_structure():
    e = ek.chain(3)
    assert e.atoms == (1,)
    assert e.ortho[1] == 2
    assert e.ortho == (3, 2, 1, 0)


def test_ortho_not_unique_witness():
    t = table(4, 3, [
        [0, 1, 2, 3],
        [1, 3, 3, U],
        [2, 3, U, U],
        [3, U, U, U],
    ])
    with pytest.raises(ValidationError) as exc:
        validate(t)
    assert exc.value.kind == "OrthoNotUnique"
    assert exc.value.witness == (1, 1, 2)


def test_ortho_missing_witness():
    t = table(3, 2, [
        [0, 1, 2],
        [1, U, U],
        [2, U, U],
    ])
    with pytest.raises(ValidationError) as exc:
        validate(t)
    assert exc.value.kind == "OrthoMissing"
    assert exc.value.witness == (1,)


def test_not_commutative():
    t = table(3, 2, [
        [0, 1, 2],
        [1, 2, U],
        [2, U, U],
    ])
    rows = [list(r) for r in t.sum]
    rows[1][2] = 2  # asymmetric definedness
    with pytest.raises(ValidationError) as exc:
        validate(table(3, 2, rows))
    assert exc.value.kind == "NotCommutative"
    assert exc.value.witness == (1, 2)


def test_zero_one_law_violated():
    t = table(3, 2, [
        [0, 1, 2],
        [1, 2, 2],
        [2, 2, U],
    ])
    with pytest.raises(ValidationError) as exc:
        validate(t)
    assert exc.value.kind == "ZeroOneLawViolated"
    assert exc.value.witness == (1,)


def test_bad_zero():
    t = table(3, 2, [
        [0, 2, 2],
        [2, 2, U],
        [2, U, U],
    ])
    with pytest.raises(ValidationError) as exc:
        validate(t)
    assert exc.value.kind == "BadZero"
    assert exc.value.witness == (1,)


@pytest.mark.parametrize(
    "size,one,rows",
    [
        (1, 0, [[0]]),
        (3, 0, [[0, 1, 2], [1, 2, U], [2, U, U]]),
        (3, 2, [[0, 1, 2], [1, 2], [2, U, U]]),
        (3, 2, [[0, 1, 2], [1, 5, U], [2, U, U]]),
        # values parse refuses: a bool cell, a bool unit, a float and a str size
        (3, 2, [[0, True, 2], [True, 2, U], [2, U, U]]),
        (3, True, [[0, 1, 2], [1, 2, U], [2, U, U]]),
        (2.0, 1, [[0, 1], [1, U]]),
        ("2", 1, [[0, 1], [1, U]]),
        # fewer rows than size: the witness is the row count
        (4, 3, [[0, 1, 2, 3], [1, 2, 3, U]]),
    ],
)
def test_bad_index(size, one, rows):
    t = EffectAlgebraTable(size, one, tuple(tuple(r) for r in rows))
    with pytest.raises(ValidationError) as exc:
        validate(t)
    assert exc.value.kind == "BadIndex"
    assert (exc.value.kind, exc.value.witness) == first_violation_alt(t)


def test_serialize_round_trips_every_valid_differential_table():
    valid = 0
    for t in differential_tables():
        try:
            e = validate(t)
        except ValidationError:
            continue
        assert ek.parse(ek.serialize(e.table)) == e.table
        valid += 1
    assert valid


def test_not_associative_first_witness():
    # 2+2 = 1 is defined while 2+1 is not, breaking definedness transfer
    t = table(5, 4, [
        [0, 1, 2, 3, 4],
        [1, 2, U, 4, U],
        [2, U, 4, U, U],
        [3, 4, U, U, U],
        [4, U, U, U, U],
    ])
    with pytest.raises(ValidationError) as exc:
        validate(t)
    assert exc.value.kind == "NotAssociative"
    assert exc.value.witness == (2, 1, 1)


def test_leq_examples():
    c3 = ek.chain(3)
    assert c3.le(1, 2)
    d = ek.boolean_diamond()
    assert not d.le(1, 2)
    for e in (c3, d):
        assert all(e.le(x, x) for x in e.carrier)


def test_ortho_examples():
    assert ek.chain(3).ortho[0] == 3
    assert ek.chain(3).ortho[1] == 2
    assert ek.boolean_diamond().ortho[1] == 2


def test_interval_examples():
    c3 = ek.chain(3)
    assert c3.interval(0, c3.one) == tuple(c3.carrier)
    d = ek.boolean_diamond()
    assert d.interval(1, 2) == ()
    # hand enumeration over the four elements: a <= z <= 2a holds for a, 2a
    assert c3.interval(1, c3.ortho[1]) == (1, 2)


def test_multiple_examples():
    c3 = ek.chain(3)
    assert multiple(c3, 1, 2) == 2
    assert multiple(c3, 1, 3) == 3
    assert multiple(c3, 1, 4) is None
    assert multiple(c3, 2, 0) == 0
    assert multiple(ek.boolean_diamond(), 1, 2) is None


def test_isotropy_examples():
    c4 = ek.chain(4)
    assert c4.isotropy_index(1) == 4
    assert multiple(c4, 1, 4) == c4.one
    assert ek.boolean_diamond().isotropy_index(1) == 1
    h = ek.horizontal_sum([ek.chain(2), ek.chain(3)])
    b = h.atoms[1]  # atom of the length-3 branch
    assert h.isotropy_index(b) == 3
    assert multiple(h, b, 3) == h.one
    assert multiple(h, b, 4) is None
    with pytest.raises(ValueError):
        c4.isotropy_index(0)


def test_sharp_examples():
    d = ek.boolean_diamond()
    assert d.sharp_set == (0, 1, 2, 3)
    c2 = ek.chain(2)
    assert not c2.is_sharp(1)
    p = ek.direct_product(ek.chain(2), ek.chain(2))
    # brute-force oracle over all lower-bound pairs
    expected = set()
    for x in p.carrier:
        if not any(b and p.le(b, x) and p.le(b, p.ortho[x]) for b in p.carrier):
            expected.add(x)
    assert set(p.sharp_set) == expected
    assert p.sharp_set == (0, 2, 6, 8)  # the four endpoint pairs


def test_meet_join_lattice():
    for n in range(1, 7):
        assert ek.chain(n).is_lattice
    h = ek.horizontal_sum([ek.chain(2), ek.chain(2)])
    assert h.meet(1, 2) == 0
    assert h.join(1, 2) == h.one
    assert h.is_lattice
    d = ek.boolean_diamond()
    assert d.meet(1, 2) == 0


def test_hasse_covers():
    c2 = ek.chain(2)
    assert c2.hasse_covers() == ((0, 1), (1, 2))
    d = ek.boolean_diamond()
    assert d.hasse_covers() == ((0, 1), (0, 2), (1, 3), (2, 3))
    h = ek.horizontal_sum([ek.chain(2), ek.chain(3)])
    assert len(h.hasse_covers()) == 5


@settings(max_examples=60, deadline=None)
@given(small_algebras())
def test_partial_order_with_bounds(e):
    n = e.size
    for x in range(n):
        assert e.le(0, x) and e.le(x, e.one)
        assert e.le(x, x)
    for x in range(n):
        for y in range(n):
            if e.le(x, y) and e.le(y, x):
                assert x == y
            for z in range(n):
                if e.le(x, y) and e.le(y, z):
                    assert e.le(x, z)


@settings(max_examples=60, deadline=None)
@given(small_algebras())
def test_ortho_involution_and_antitone(e):
    for x in e.carrier:
        assert e.ortho[e.ortho[x]] == x
        for y in e.carrier:
            if e.le(x, y):
                assert e.le(e.ortho[y], e.ortho[x])


@settings(max_examples=60, deadline=None)
@given(small_algebras())
def test_cancellation_and_positivity(e):
    s = e.table.sum
    for a in e.carrier:
        for b in e.carrier:
            v = s[a][b]
            if v == UNDEF:
                continue
            if v == 0:
                assert a == 0 and b == 0
            for c in e.carrier:
                if s[a][c] == v:
                    assert c == b


def test_multiples_match_multiple(reference_algebras):
    for e in reference_algebras:
        for x in range(1, e.size):
            mults = e.multiples(x)
            assert len(mults) - 1 == e.isotropy_index(x)
            assert mults == tuple(multiple(e, x, n) for n in range(len(mults)))
            assert multiple(e, x, len(mults)) is None
    with pytest.raises(ValueError):
        ek.chain(3).multiples(0)


@settings(max_examples=40, deadline=None)
@given(small_algebras(), st.integers(0, 5), st.integers(0, 5))
def test_multiple_additivity(e, m, n):
    for x in e.carrier:
        total = multiple(e, x, m + n)
        if total is not None:
            a, b = multiple(e, x, m), multiple(e, x, n)
            assert a is not None and b is not None
            assert sum_of(e, a, b) == total


@settings(max_examples=60, deadline=None)
@given(small_algebras())
def test_sharp_set_contains_bounds(e):
    assert 0 in e.sharp_set
    assert e.one in e.sharp_set


def test_every_export_resolves():
    for name in ek.__all__:
        assert hasattr(ek, name), name


def _package_imports(node, modules):
    """Names of the package's modules imported anywhere under node, by a
    relative or an absolute import."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Import):
            paths = [a.name for a in sub.names]
        elif isinstance(sub, ast.ImportFrom):
            base = ".".join(filter(None, ("effectkit" if sub.level else "", sub.module)))
            paths = [base, *(f"{base}.{a.name}" for a in sub.names)]
        else:
            continue
        for parts in (path.split(".") for path in paths):
            if parts[0] == "effectkit" and len(parts) > 1 and parts[1] in modules:
                found.add(parts[1])
    return found


def test_imports_are_at_module_level_and_acyclic():
    paths = sorted(Path(ek.__file__).parent.glob("*.py"))
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in paths}
    for name, tree in trees.items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = [s for s in ast.walk(fn) if isinstance(s, (ast.Import, ast.ImportFrom))]
                assert not inner, f"{name}.{fn.name} imports at line {inner[0].lineno}"
        # a module's `_`-prefixed names are its own: no other module imports them
        for sub in ast.walk(tree):
            if isinstance(sub, ast.ImportFrom) and (
                sub.level or (sub.module or "").split(".")[0] == "effectkit"
            ):
                private = [a.name for a in sub.names if a.name.startswith("_")]
                assert not private, f"{name} imports {private} at line {sub.lineno}"
    graph ={name: _package_imports(tree, trees) - {name} for name, tree in trees.items()}
    while graph:
        leaves = [m for m, deps in graph.items() if not deps & graph.keys()]
        assert leaves, f"import cycle among {sorted(graph)}"
        for m in leaves:
            del graph[m]


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # The records are namedtuples: dataclasses would pull in inspect, ast,
    # dis and tokenize and double the start-up time of every command.
    # --parallel forks with os.fork: multiprocessing would pull in socket
    # and selectors on every command too.  Only the modules the import
    # adds count, so a site hook that loads them before the import does not
    # decide the result.
    code = (
        "import sys; before = set(sys.modules); import effectkit.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    src = str(Path(ek.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "effectkit.cli" in added
    assert not added & {"dataclasses", "inspect", "multiprocessing", "socket", "selectors"}


def test_records_are_read_only():
    # every field of the seven records, and the algebra's cached
    # properties, refuse assignment: an algebra is safe to share
    e = ek.chain(3)
    records = [
        (e.table, "size one sum"),
        (e, "table ortho atoms by_sum sharp_set is_lattice"),
        (non_homogeneous_fixture().homogeneity_witness, "u v1 v2"),
        (ek.lemma_suite(e)[0], "lemma_id verdict witness"),
        (ek.analyze(e), "size one atoms sharp homogeneous lattice isotropy"),
        (ek.decompose(e), "chain_lengths labeling"),
        (
            ek.survey(3)[0],
            "size total homogeneous trivial_sharp hypothesis_class "
            "theorem_verified counterexamples",
        ),
    ]
    assert len({type(r).__name__ for r, _ in records}) == 7
    for record, names in records:
        for name in names.split():
            value = getattr(record, name)
            with pytest.raises(AttributeError):
                setattr(record, name, value)
            assert getattr(record, name) is value


def test_sources_parse_under_the_oldest_supported_python():
    # the parser refuses syntax newer than feature_version, so a source
    # using it would break requires-python; match is refused under 3.9,
    # which shows that the version is honoured
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    minor = int(re.search(r'requires-python = ">=3\.(\d+)"', pyproject.read_text()).group(1))
    for path in sorted(Path(ek.__file__).parent.glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, minor))
    with pytest.raises(SyntaxError):
        ast.parse("match x:\n    case _:\n        pass\n", feature_version=(3, 9))


def test_a_failing_hypothesis_test_is_reported_and_the_run_goes_on(tmp_path):
    # under the project's pytest settings, which turn warnings into errors,
    # a failing @given test must be a failure like any other, not an
    # INTERNALERROR that ends the session before the tests after it
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    (tmp_path / "test_given.py").write_text(
        "from hypothesis import given, strategies as st\n"
        "\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n"
        "\n"
        "@given(st.integers())\n"
        "def test_passes(x):\n"
        "    assert x == x\n"
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(pyproject),
         "--rootdir", str(tmp_path), "test_given.py"],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=tmp_path,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1].startswith("1 failed, 1 passed"), proc.stdout


def validate_outcome(t):
    try:
        e = validate(t)
    except ValidationError as err:
        return err.kind, err.witness
    leq = tuple(tuple(e.le(x, y) for y in e.carrier) for x in e.carrier)
    return None, (leq, e.ortho, e.atoms)


def differential_tables():
    rng = random.Random(20261018)
    sources = [ek.chain(n).table for n in range(1, 8)]
    sources += [
        ek.horizontal_sum([ek.chain(l) for l in ls]).table
        for ls in ((2, 2), (1, 3), (3, 4, 5), (2, 2, 2, 6))
    ]
    sources += [ek.direct_product(ek.chain(2), ek.chain(3)).table, ek.boolean_diamond().table]
    sources.append(non_homogeneous_fixture().table)
    for t in sources:
        t = relabelled(t, rng)
        yield t
        for cells in (1, 1, 2, 3) * 5:
            yield corrupted(t, rng, cells)


def associativity_violations(t):
    """Every (a, b, c) with a + (b + c) defined and (a + b) + c undefined or
    different, in lexicographic order."""
    n, s = t.size, t.sum
    out = []
    for a in range(n):
        for b in range(n):
            for c in range(n):
                bc = s[b][c]
                if bc == UNDEF or s[a][bc] == UNDEF:
                    continue
                ab = s[a][b]
                if ab == UNDEF or s[ab][c] != s[a][bc]:
                    out.append((a, b, c))
    return out


def met_out_of_order(t):
    """True iff validate's walk (a, then the sum b + c, then (b, c)) meets a
    violation before the lexicographically first one."""
    found = associativity_violations(t)
    walk_first = min(found, key=lambda v: (v[0], t.sum[v[1]][v[2]], v[1], v[2]))
    return walk_first != found[0]


def test_validate_matches_naive_scan_on_seeded_corruptions():
    kinds = set()
    out_of_order = 0
    for t in differential_tables():
        got = validate_outcome(t)
        assert got == first_violation_alt(t)
        kinds.add(got[0])
        out_of_order += got[0] == "NotAssociative" and met_out_of_order(t)
    assert kinds == {
        None, "BadIndex", "BadZero", "NotCommutative", "ZeroOneLawViolated",
        "OrthoMissing", "OrthoNotUnique", "NotAssociative",
    }
    assert out_of_order


@pytest.mark.parametrize(
    "i,j,v,first",
    [
        # 2 + 2 = 1: (1, 2, 2) has b + c = 1, met before (1, 1, 2) with 3
        (2, 2, 1, (1, 1, 2)),
        # 1 + 3 = 2: (1, 1, 3) has b + c = 2, met before (1, 1, 2) with 3
        (1, 3, 2, (1, 1, 2)),
    ],
)
def test_associativity_witness_is_the_lexicographic_first(i, j, v, first):
    rows = [list(r) for r in ek.chain(5).table.sum]
    rows[i][j] = rows[j][i] = v
    t = table(6, 5, rows)
    assert len(associativity_violations(t)) >= 2
    assert met_out_of_order(t)
    with pytest.raises(ValidationError) as exc:
        validate(t)
    assert (exc.value.kind, exc.value.witness) == first_violation_alt(t)
    assert exc.value.witness == first


def symmetric_table(n, one, cells):
    """Size n: row and column 0 act as zero, each (i, j, v) in cells sets
    i + j = j + i = v, and every other sum is undefined."""
    rows = [[U] * n for _ in range(n)]
    for x in range(n):
        rows[0][x] = rows[x][0] = x
    for i, j, v in cells:
        rows[i][j] = rows[j][i] = v
    return table(n, one, rows)


@pytest.mark.parametrize(
    "n,cells,witness",
    [
        # no atoms, so the cells and the balance pass vacuously, and only
        # the reached marks reject it
        (4, [(2, 2, 2), (2, 3, 1), (3, 3, 3)], (2, 3, 3)),
        # the atoms 2 and 4 reach every element and their cells pass, but
        # the balance is -1: only it rejects the table
        (5, [(2, 4, 1), (3, 3, 1), (4, 4, 3)], (3, 4, 4)),
    ],
)
def test_each_condition_of_the_atom_check_rejects_alone(n, cells, witness):
    t = symmetric_table(n, 1, cells)
    with pytest.raises(ValidationError) as exc:
        validate(t)
    assert (exc.value.kind, exc.value.witness) == first_violation_alt(t)
    assert exc.value.witness == witness


def test_witness_scan_runs_only_on_non_associative_tables(monkeypatch):
    real = core._raise_first_not_associative
    calls = 0

    def counting(s, by_sum):
        nonlocal calls
        calls += 1
        real(s, by_sum)

    monkeypatch.setattr(core, "_raise_first_not_associative", counting)
    rng = random.Random(25)
    for n in range(2, 10):
        for key in ek.enumerate_all(n):
            validate(relabelled(ek.parse(key), rng))
    ek.chain(255)
    ek.from_spec("prod:diamond,diamond,diamond,diamond")
    ek.horizontal_sum([ek.chain(2)] * 60)
    fixture_sums()
    assert calls == 0
    not_associative = 0
    for t in differential_tables():
        before = calls
        kind = validate_outcome(t)[0]
        assert calls - before == (kind == "NotAssociative")
        not_associative += kind == "NotAssociative"
    assert calls == not_associative > 0


def chain_with(n, cells):
    """chain(n)'s table with each (i, j, v) in cells written in."""
    rows = [list(r) for r in ek.chain(n).table.sum]
    for i, j, v in cells:
        rows[i][j] = v
    return table(n + 1, n, rows)


def lower_triangle_first_mismatch(t):
    """The first (j, i), j < i, with s[i][j] != s[j][i], met row by row
    over the lower triangle."""
    s = t.sum
    return next((j, i) for i in range(t.size) for j in range(i) if s[i][j] != s[j][i])


def breaks_cancellation(t):
    return any(
        len(defined) != len(set(defined))
        for defined in ([v for v in row if v != UNDEF] for row in t.sum)
    )


@pytest.mark.parametrize(
    "cells,kind,witness",
    [
        # 1 + 2 undefined against 2 + 1 = 3 in row 1, then an out-of-range
        # cell in row 3: no other kind outranks a bad cell
        ([(1, 2, U), (3, 3, 7)], "BadIndex", (3, 3)),
        # 3 + 2 and 4 + 1 undefined: the lower-triangle scan meets (2, 3) in
        # row 3 before (1, 4) in row 4, and (1, 4) is the least
        ([(3, 2, U), (4, 1, U)], "NotCommutative", (1, 4)),
        # 1 + 2 = 2 + 1 = 4 = 1 + 3: cancellation breaks in row 1, and the
        # table is not associative either, which is the violation raised
        ([(1, 2, 4), (2, 1, 4)], "NotAssociative", (1, 1, 2)),
    ],
)
def test_one_pass_raises_the_first_kind(cells, kind, witness):
    t = chain_with(5, cells)
    if kind == "NotCommutative":
        assert lower_triangle_first_mismatch(t) != witness
    if kind == "NotAssociative":
        assert breaks_cancellation(t)
    with pytest.raises(ValidationError) as exc:
        validate(t)
    assert (exc.value.kind, exc.value.witness) == (kind, witness)
    assert (exc.value.kind, exc.value.witness) == first_violation_alt(t)


def test_lattice_meet_join_match_naive_search(reference_algebras):
    lattices = 0
    for e in reference_algebras:
        assert e.is_lattice == is_lattice_alt(e)
        lattices += e.is_lattice
        for x in e.carrier:
            for y in e.carrier:
                assert e.meet(x, y) == meet_alt(e, x, y)
                assert e.join(x, y) == join_alt(e, x, y)
    assert 0 < lattices < len(reference_algebras)


def assert_order_primitives_match_search(e):
    """le and interval over all pairs, is_sharp, sharp_set, atoms and
    hasse_covers against the order read off the raw table and the
    searches over it."""
    leq = order_alt(e.table)
    sharp = tuple(x for x in e.carrier if is_sharp_alt(e, x))
    assert e.sharp_set == sharp
    assert tuple(x for x in e.carrier if e.is_sharp(x)) == sharp
    assert e.atoms == atoms_alt(leq)
    for x in e.carrier:
        for y in e.carrier:
            assert e.le(x, y) == leq[x][y], (x, y)
            assert e.interval(x, y) == interval_alt(e, x, y), (x, y)
    assert e.hasse_covers() == hasse_covers_alt(e)


def order_kinds(algebras):
    """Which of non-lattice, non-homogeneous and non-trivial sharps occur."""
    kinds = set()
    for e in algebras:
        if not e.is_lattice:
            kinds.add("non-lattice")
        if e.homogeneity_witness is not None:
            kinds.add("non-homogeneous")
        if e.sharp_set != (0, e.one):
            kinds.add("sharp")
    return kinds


def test_order_primitives_match_search_on_reference_algebras(reference_algebras):
    for e in reference_algebras:
        assert_order_primitives_match_search(e)
    assert order_kinds(reference_algebras) == {"non-lattice", "non-homogeneous", "sharp"}


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_order_primitives_match_search_on_every_labelled_table(n):
    algebras = [validate(t) for t in _enumerate_tables(n, leaf_filter=False)]
    for e in algebras:
        assert_order_primitives_match_search(e)
    if n == 6:
        assert order_kinds(algebras) == {"non-lattice", "non-homogeneous", "sharp"}


def test_order_primitives_match_search_on_differential_tables():
    algebras = []
    for t in differential_tables():
        try:
            algebras.append(validate(t))
        except ValidationError:
            continue
    for e in algebras:
        assert_order_primitives_match_search(e)
    assert order_kinds(algebras) == {"non-lattice", "non-homogeneous", "sharp"}


def test_validation_witnesses_reverify():
    t = ek.chain(3).table
    rows = [list(r) for r in t.sum]
    rows[1][1] = 3  # 1 + 1 = the unit: 1 has two orthosupplements, 1 and 2
    bad = table(4, 3, rows)
    with pytest.raises(ValidationError) as exc:
        validate(bad)
    err = exc.value
    assert (err.kind, err.witness) == ("OrthoNotUnique", (1, 1, 2))
    assert (err.kind, err.witness) == first_violation_alt(bad)


@settings(max_examples=200, deadline=None)
@given(small_algebras(), st.randoms(use_true_random=False), st.integers(1, 3))
def test_corrupted_table_validates_or_its_witness_reverifies(e, rng, cells):
    t = relabelled(e.table, rng)
    bad = corrupted(t, rng, cells)
    try:
        validate(bad)
    except ValidationError as err:
        assert (err.kind, err.witness) == first_violation_alt(bad)
    else:
        assert first_violation_alt(bad)[0] is None
