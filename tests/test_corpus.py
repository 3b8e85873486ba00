import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import effectkit as ek
from effectkit.corpus import ParseError, SpecError, from_spec, is_spec_string, parse, serialize

from conftest import (
    BAD_SUM_ROWS,
    HOSTILE_DOCUMENTS,
    chain_multisets,
    fixture_bytes,
    scan_canonical,
    sum_of,
)


def test_chain_validates_for_all_small_lengths():
    for n in range(1, 13):
        e = ek.chain(n)
        assert e.size == n + 1
        assert e.one == n


def test_chain_edge_cases():
    two = ek.chain(1)
    assert two.size == 2 and two.atoms == (1,)
    c3 = ek.chain(3)
    assert c3.ortho[1] == 2
    assert c3.isotropy_index(1) == 3
    with pytest.raises(ValueError):
        ek.chain(0)


def test_chain5_sharp_set_trivial():
    e = ek.chain(5)
    assert e.sharp_set == (0, e.one)


def test_horizontal_sum_sizes_and_absorption():
    h = ek.horizontal_sum([ek.chain(2), ek.chain(3)])
    assert h.size == 5
    single = ek.horizontal_sum([ek.chain(4)])
    assert scan_canonical(single.table) == scan_canonical(ek.chain(4).table)
    absorbed = ek.horizontal_sum([ek.chain(1), ek.chain(3)])
    assert absorbed.size == 4
    assert scan_canonical(absorbed.table) == scan_canonical(ek.chain(3).table)
    trivial = ek.horizontal_sum([ek.chain(1), ek.chain(1)])
    assert trivial.size == 2
    with pytest.raises(ValueError):
        ek.horizontal_sum([])


def test_horizontal_sum_validates_for_all_small_multisets():
    for lengths in chain_multisets(10):
        h = ek.horizontal_sum([ek.chain(l) for l in lengths])
        assert h.size == 2 + sum(l - 1 for l in lengths)
        assert len(h.atoms) == len(lengths)
        assert h.sharp_set == (0, h.one)


def test_horizontal_sum_keeps_duplicate_summands():
    h = ek.horizontal_sum([ek.chain(2), ek.chain(2)])
    assert h.size == 4
    assert len(h.atoms) == 2
    assert ek.is_homogeneous(h)
    assert h.sharp_set == (0, h.one)


def test_horizontal_sum_of_raw_tables_checks_them():
    parts = [ek.chain(2), ek.chain(3)]
    assert ek.horizontal_sum([e.table for e in parts]) == ek.horizontal_sum(parts)
    # 1 + 1 defined breaks the zero-one law
    bad = ek.EffectAlgebraTable(2, 1, ((0, 1), (1, 1)))
    with pytest.raises(ek.ValidationError) as exc:
        ek.horizontal_sum([ek.chain(2), bad])
    assert (exc.value.kind, exc.value.witness) == ("ZeroOneLawViolated", (1,))


def test_horizontal_sum_cross_branch_sums_undefined():
    h = ek.horizontal_sum([ek.chain(3), ek.chain(3)])
    a, b = h.atoms
    assert sum_of(h, a, b) is None
    assert sum_of(h, a, 0) == a


def test_direct_product():
    p = ek.direct_product(ek.chain(2), ek.chain(2))
    assert p.size == 9
    assert p.sharp_set == (0, 2, 6, 8)
    # the carrier is all pairs, so sizes multiply; there is no unit algebra,
    # and the size alone tells the product from chain(4)'s 5 elements
    doubled = ek.direct_product(ek.chain(1), ek.chain(4))
    assert doubled.size == 10


def test_boolean_diamond():
    d = ek.boolean_diamond()
    assert d.atoms == (1, 2)
    assert d.sharp_set == (0, 1, 2, 3)
    assert d.is_lattice
    # built as the product of two two-element chains: p = (0, 1) and
    # q = (1, 0) sum to the unit (1, 1), and nothing else is defined
    assert serialize(d.table) == (
        b'{"size":4,"one":3,"sum":[[0,1,2,3],[1,-1,3,-1],[2,3,-1,-1],[3,-1,-1,-1]]}\n'
    )


def test_serialize_golden_chain2():
    assert serialize(ek.chain(2).table) == fixture_bytes("chain2.json")
    assert fixture_bytes("chain2.json") == (
        b'{"size":3,"one":2,"sum":[[0,1,2],[1,2,-1],[2,-1,-1]]}\n'
    )


def test_parse_serialize_round_trip():
    for lengths in chain_multisets(6):
        e = ek.horizontal_sum([ek.chain(l) for l in lengths])
        assert parse(serialize(e.table)) == e.table
    d = ek.boolean_diamond()
    assert parse(serialize(d.table)) == d.table


def test_parse_accepts_insignificant_whitespace():
    t = parse(b'{ "size": 3, "one": 2,\n "sum": [[0,1,2],[1,2,-1],[2,-1,-1]] }')
    assert serialize(t) == fixture_bytes("chain2.json")


@pytest.mark.parametrize(
    "data",
    [
        b"{}",
        b"[1,2]",
        b'{"size":3,"one":2}',
        b'{"size":3,"one":2,"sum":[[0,1,2],[1,2,-1],[2,-1,-1]],"extra":1}',
        b'{"size":1,"one":0,"sum":[[0]]}',
        b'{"size":3,"one":0,"sum":[[0,1,2],[1,2,-1],[2,-1,-1]]}',
        b'{"size":3,"one":3,"sum":[[0,1,2],[1,2,-1],[2,-1,-1]]}',
        b'{"size":3,"one":2,"sum":[[0,1,2],[1,2,-1]]}',
        b'{"size":3,"one":2,"sum":[[0,1,2],[1,2,-1],[2,-1,-2]]}',
        b'{"size":3,"one":2,"sum":[[0,1,2],[1,2,-1],[2,-1,3]]}',
        b'{"size":3,"one":2,"sum":[[0,1,2],[1,2,-1],[2,-1,true]]}',
        *HOSTILE_DOCUMENTS,
    ],
)
def test_parse_rejects_bad_documents(data):
    with pytest.raises(ParseError):
        parse(data)


def test_parse_error_offset_for_malformed_json():
    with pytest.raises(ParseError) as exc:
        parse(b'{"size":3,"one":2,"sum":')
    assert exc.value.offset == 24
    assert str(exc.value).endswith("(byte offset 24)")


def test_content_error_has_no_byte_offset():
    with pytest.raises(ParseError) as exc:
        parse(b'{"size":1,"one":0,"sum":[[0]]}')
    assert exc.value.offset is None
    assert str(exc.value) == "size must be an integer >= 2"


@pytest.mark.parametrize("data", BAD_SUM_ROWS)
def test_bad_sum_row_is_a_content_error(data):
    with pytest.raises(ParseError) as exc:
        parse(data)
    assert exc.value.offset is None
    assert str(exc.value) == "sum must be a 2x2 matrix"


def test_parse_does_not_check_axioms():
    # asymmetric definedness parses fine; validate is the axiom gate
    t = parse(b'{"size":3,"one":2,"sum":[[0,1,2],[1,2,-1],[2,2,-1]]}')
    with pytest.raises(ek.ValidationError):
        ek.validate(t)


def test_spec_strings():
    assert from_spec("chain:4").size == 5
    assert from_spec("hsum:2,3,3").size == 2 + 1 + 2 + 2
    assert from_spec("prod:chain:2,chain:2").size == 9
    assert from_spec("diamond").size == 4
    assert is_spec_string("chain:4")
    assert is_spec_string("diamond")
    assert not is_spec_string("tables/chain4.json")
    assert not is_spec_string("./diamond")


@pytest.mark.parametrize(
    "text",
    ["chain:", "chain:x", "chain:0", "hsum:", "hsum:2,,3", "prod:chain:2",
     "prod:hsum:2,3,chain:2", "diamond:4", "diamond:", "ring:3",
     pytest.param("chain:x" * 20000, id="140000-char-malformed")],
)
def test_bad_spec_strings(text):
    with pytest.raises(SpecError) as info:
        from_spec(text)
    # the message quotes the spec only up to a fixed prefix
    assert len(str(info.value)) < 200


def test_spec_size_bound_is_exact(monkeypatch):
    monkeypatch.setattr(ek.corpus, "MAX_SIZE", 9)
    for text in ("chain:8", "hsum:4,5", "prod:chain:2,chain:2"):
        assert from_spec(text).size == 9
    for text in ("chain:9", "hsum:5,5", "prod:chain:2,diamond", "prod:chain:1,chain:1,chain:2"):
        with pytest.raises(SpecError, match="above the limit 9"):
            from_spec(text)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(1, 5), min_size=1, max_size=4))
def test_horizontal_sum_size_formula(lengths):
    h = ek.horizontal_sum([ek.chain(l) for l in lengths])
    assert h.size == 2 + sum(l - 1 for l in lengths)
