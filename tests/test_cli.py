import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import effectkit as ek
from effectkit import cli
from effectkit.cli import main
from effectkit.lemmas import STATEMENTS, analyze

from conftest import (
    BAD_SUM_ROWS,
    FIXTURES,
    HOSTILE_DOCUMENTS,
    first_violation_alt,
    fixture_bytes,
    no_child_left,
)

NON_HOMOG = os.path.join(FIXTURES, "smallest_non_homogeneous_trivial_sharp.json")


def write_table(tmp_path, name, data):
    p = tmp_path / name
    p.write_bytes(data)
    return str(p)


def test_validate_ok_on_file(tmp_path, capsys):
    path = write_table(tmp_path, "c3.json", ek.serialize(ek.chain(3).table))
    assert main(["validate", path]) == 0
    assert capsys.readouterr().out.strip() == "valid"


def test_validate_spec_string(capsys):
    assert main(["validate", "chain:3"]) == 0


def test_validate_writes_out_file(tmp_path, capsys):
    out = tmp_path / "v.txt"
    assert main(["validate", "chain:3", "--out", str(out)]) == 0
    assert out.read_text() == "valid\n"
    assert capsys.readouterr().out == ""


def test_validate_axiom_failure(tmp_path, capsys):
    bad = b'{"size":4,"one":3,"sum":[[0,1,2,3],[1,3,3,-1],[2,3,-1,-1],[3,-1,-1,-1]]}'
    path = write_table(tmp_path, "bad.json", bad)
    assert main(["validate", path]) == 1
    err = capsys.readouterr().err
    assert "OrthoNotUnique" in err
    assert "(1, 1, 2)" in err


def test_validate_parse_failure(tmp_path, capsys):
    path = write_table(tmp_path, "trunc.json", b'{"size":3,"one":2,')
    assert main(["validate", path]) == 2
    assert main(["validate", str(tmp_path / "missing.json")]) == 2


@pytest.mark.parametrize("data", HOSTILE_DOCUMENTS)
def test_validate_unreadable_json_is_one_parse_error(tmp_path, capsys, data):
    path = write_table(tmp_path, "hostile.json", data)
    assert main(["validate", path]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("parse error")


@pytest.mark.parametrize("data", BAD_SUM_ROWS)
def test_validate_bad_sum_row_is_one_parse_error(tmp_path, capsys, data):
    path = write_table(tmp_path, "bad_row.json", data)
    assert main(["validate", path]) == 2
    assert capsys.readouterr() == ("", "parse error: sum must be a 2x2 matrix\n")


def test_rejected_cell_is_quoted_only_up_to_a_prefix(tmp_path, capsys):
    doc = {"size": 2, "one": 1, "sum": [[0, "x" * 100_000], [1, -1]]}
    path = write_table(tmp_path, "long_cell.json", json.dumps(doc).encode())
    assert main(["validate", path]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("parse error") and len(err[0]) < 200
    assert err[0].endswith("... out of range")
    # a short cell is echoed whole
    path = write_table(tmp_path, "cell_7.json", b'{"size":2,"one":1,"sum":[[0,7],[1,-1]]}')
    assert main(["validate", path]) == 2
    assert capsys.readouterr().err == "parse error: sum entry 7 out of range\n"


def test_analyze_text(capsys):
    assert main(["analyze", "hsum:2,3"]) == 0
    out = capsys.readouterr().out
    assert "homogeneous: true" in out
    assert "sharp: [0, 4]" in out
    assert "lattice: true" in out
    assert "isotropy: [2, 3]" in out


def test_analyze_json_round_trips(capsys):
    assert main(["analyze", "hsum:2,3", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == json.loads(json.dumps(analyze(ek.from_spec("hsum:2,3"))._asdict()))


def test_parser_is_built_once_and_survives_a_usage_error(capsys):
    assert cli._parser() is cli._parser()
    with pytest.raises(SystemExit) as exc:
        main(["analyze"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: effectkit analyze")
    assert main(["analyze", "chain:3", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(analyze(ek.chain(3))._asdict(), sort_keys=True) + "\n"


def test_analyze_diamond_and_product(capsys):
    assert main(["analyze", "diamond"]) == 0
    out = capsys.readouterr().out
    assert "sharp: [0, 1, 2, 3]" in out
    assert "homogeneous: true" in out
    assert main(["analyze", "prod:chain:2,chain:2", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["sharp"]) == 4


def test_decompose_text_and_json(capsys):
    assert main(["decompose", "hsum:2,3"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "chains: [2, 3]"
    assert main(["decompose", "hsum:2,3", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["chains"] == [2, 3]


def test_decompose_diamond_fails(capsys):
    assert main(["decompose", "diamond"]) == 1
    assert "NotTrivialSharps" in capsys.readouterr().err


def test_decompose_non_homogeneous_fixture(capsys):
    # the witness record's repr is part of the program's output
    assert main(["decompose", NON_HOMOG]) == 1
    assert capsys.readouterr().err == (
        "decompose error: NotHomogeneous: HomogeneityWitness(u=5, v1=4, v2=4)\n"
    )


def test_lemmas_output(capsys):
    assert main(["lemmas", "chain:5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"{lid} Pass" for lid in STATEMENTS]
    assert main(["lemmas", "diamond", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [r["lemma"] for r in doc] == list(STATEMENTS)
    assert all(r["verdict"] != "Fail" for r in doc)


def test_hasse_dot(capsys):
    assert main(["hasse", "chain:2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph hasse {")
    assert 'n0 [label="0"];' in out
    assert 'n2 [label="1"];' in out
    assert "n0 -> n1;" in out and "n1 -> n2;" in out


def test_generate(tmp_path, capsys):
    out = tmp_path / "c3.json"
    assert main(["generate", "chain:3", "--out", str(out)]) == 0
    assert ek.parse(out.read_bytes()) == ek.chain(3).table
    assert main(["generate", "chain:oops"]) == 2


def test_enumerate_stdout(capsys):
    assert main(["enumerate", "--max-size", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("size\ttotal")
    assert lines[-1] == "4\t3\t3\t2\t2\t2\t0"


def test_enumerate_json(capsys):
    assert main(["enumerate", "--max-size", "3", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc[-1]["total"] == 1


def _tree(root):
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_enumerate_out_dir_and_parallel_determinism(tmp_path, capsys):
    runs = []
    for parallel in ("1", "2", "3", "4"):
        out = tmp_path / f"p{parallel}"
        argv = ["enumerate", "--max-size", "8", "--out", str(out)]
        assert main([*argv, "--parallel", parallel]) == 0
        runs.append((capsys.readouterr().out, _tree(out)))
        assert no_child_left()
    assert len(runs[0][1]) == 1 + sum((1, 1, 3, 4, 10, 14, 40))
    assert all(run == runs[0] for run in runs)
    stdout, tree = runs[0]
    assert stdout.encode("ascii") == tree[Path("survey.tsv")]


def test_enumerate_parallel_below_1_runs_serially(capsys, monkeypatch):
    argv = ["enumerate", "--max-size", "6"]
    assert main([*argv, "--parallel", "1"]) == 0
    serial = capsys.readouterr()

    def no_fork():
        raise AssertionError("a child was forked")

    monkeypatch.setattr(os, "fork", no_fork)
    for parallel in ("0", "-1"):
        assert main([*argv, "--parallel", parallel]) == 0
        assert capsys.readouterr() == serial
        assert no_child_left()


@pytest.mark.parametrize("size", ["1", "0", "-3"])
def test_enumerate_size_below_2_is_a_size_error(tmp_path, capsys, size):
    out = tmp_path / "results"
    assert main(["enumerate", "--max-size", size, "--out", str(out)]) == 1
    assert main(["enumerate", "--max-size", size]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 2 and all(line.startswith("size error: ") for line in err)
    assert not out.exists()


def test_enumerate_env_cap(capsys, monkeypatch):
    monkeypatch.setenv("EFFECTKIT_MAX_SIZE", "3")
    assert main(["enumerate", "--max-size", "4"]) == 1
    assert "size error" in capsys.readouterr().err
    monkeypatch.setenv("EFFECTKIT_MAX_SIZE", "4")
    assert main(["enumerate", "--max-size", "4"]) == 0


def test_enumerate_cap_fails_before_any_work(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("EFFECTKIT_MAX_SIZE", "4")
    out = tmp_path / "results"
    out.mkdir()
    assert main(["enumerate", "--max-size", "5", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("size error")
    assert not list(out.glob("size_*"))


@pytest.mark.parametrize("value", ["abc", "", "1", "-3", "8.5"])
def test_enumerate_bad_env_cap(capsys, monkeypatch, value):
    monkeypatch.setenv("EFFECTKIT_MAX_SIZE", value)
    assert main(["enumerate", "--max-size", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: EFFECTKIT_MAX_SIZE")


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize(
    "spec",
    [
        "chain:1000000000",
        "prod:chain:1000,chain:1000",
        # sizes with more digits than int-to-str conversion allows
        pytest.param("hsum:" + ",".join(["9" * 4299] * 20), id="hsum-4300-digit-size"),
        pytest.param("prod:" + ",".join(["chain:1"] * 15000), id="prod-2**15000-size"),
    ],
)
def test_oversize_spec_exits_2_at_once(spec):
    # under a 1 GiB address-space limit and a timeout, so that a spec built
    # before the size check fails this test instead of exhausting memory
    proc = subprocess.run(
        [sys.executable, "-m", "effectkit", "validate", spec],
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=_limit_address_space,
    )
    assert proc.returncode == 2
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("parse error") and "limit" in err[0]
    # the spec is quoted only up to a fixed prefix
    assert len(err[0]) < 200


def test_oversize_table_file_exits_2_at_once(tmp_path):
    # a well-formed chain table one element above the limit; validating it
    # would take cubic time, so the size check must come first
    n = ek.corpus.MAX_SIZE + 1
    rows = [[i + j if i + j < n else -1 for j in range(n)] for i in range(n)]
    path = write_table(
        tmp_path, "big.json", json.dumps({"size": n, "one": n - 1, "sum": rows}).encode()
    )
    proc = subprocess.run(
        [sys.executable, "-m", "effectkit", "validate", path],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("parse error") and "limit" in err[0]


def test_non_associative_table_at_the_size_limit_names_the_first_witness(tmp_path, capsys):
    # chain:255 with 60 + 70 undefined: the orthosupplements and the
    # zero-one law still hold, so only associativity fails, at the largest
    # size a table file may have
    n = ek.corpus.MAX_SIZE
    rows = [list(r) for r in ek.chain(n - 1).table.sum]
    rows[60][70] = rows[70][60] = ek.UNDEF
    t = ek.EffectAlgebraTable.from_rows(n, n - 1, rows)
    path = write_table(tmp_path, "chain255.json", ek.serialize(t))
    assert main(["validate", path]) == 1
    kind, witness = first_violation_alt(t)
    assert kind == "NotAssociative"
    assert capsys.readouterr().err == f"invalid: NotAssociative witness={witness}\n"


def test_console_entry_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "effectkit", "analyze", "chain:2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "size: 3" in proc.stdout
