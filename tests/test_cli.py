import io
import json
from pathlib import Path

import pytest

from narybands import table_from_json
from narybands.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
F1_PATH = str(FIXTURES / "irreducible4.json")
F2_PATH = str(FIXTURES / "reducible4.json")
MAJ_PATH = str(FIXTURES / "majority2.json")
XOR_PATH = str(FIXTURES / "txor2.json")
MIN_PATH = str(FIXTURES / "tmin3.json")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_text_band(capsys):
    code, out, _ = run(capsys, "check", F1_PATH)
    assert code == 0
    assert "associative: pass" in out
    assert "classification: general" in out
    assert "reducible: no" in out
    assert "{3,4}" in out  # label strings, not indices


def test_check_text_non_band(capsys):
    code, out, _ = run(capsys, "check", MAJ_PATH)
    assert code == 1
    assert "associative: FAIL on (0 0 1 1 1)" in out
    assert "classification" not in out


def test_check_json(capsys):
    code, out, _ = run(capsys, "check", F2_PATH, "--report", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["axioms"] == {"associative": True, "symmetric": True, "idempotent": True}
    assert doc["classes"] == [[0], [1], [2, 3]]
    assert doc["reducible"] is True
    assert doc["selection"] == {"0": 0, "1": 1, "2": 3}


def test_check_json_witness(capsys):
    code, out, _ = run(capsys, "check", MAJ_PATH, "--report", "json")
    assert code == 1
    doc = json.loads(out)
    assert doc["witnesses"]["associative"] == {"args": [0, 0, 1, 1, 1], "position": 2}


def test_decompose_compose_round_trip(capsys, tmp_path):
    sys_file = tmp_path / "system.json"
    code, out, _ = run(capsys, "decompose", F2_PATH, "-o", str(sys_file))
    assert code == 0 and out == ""
    doc = json.loads(sys_file.read_text())
    assert doc["elements"] == ["1", "2", "3", "4"]
    assert doc["classes"] == [[0], [1], [2, 3]]
    code, out, _ = run(capsys, "compose", str(sys_file))
    assert code == 0
    back, labels = table_from_json(out)
    original, _ = table_from_json(Path(F2_PATH).read_text())
    assert back.values == original.values
    assert labels == ("1", "2", "3", "4")


def test_compose_arity_override(capsys, tmp_path):
    sys_file = tmp_path / "system.json"
    run(capsys, "decompose", XOR_PATH, "-o", str(sys_file))
    code, out, _ = run(capsys, "compose", str(sys_file), "--arity", "5")
    assert code == 0
    t, _ = table_from_json(out)
    assert t.arity == 5
    code, _, err = run(capsys, "compose", str(sys_file), "--arity", "4")
    assert code == 1
    assert "exponent" in err


def test_decompose_rejects_non_band(capsys):
    code, _, err = run(capsys, "decompose", MAJ_PATH)
    assert code == 1
    assert "associative" in err


def test_decompose_no_verify_reports_consistency_error(capsys, tmp_path):
    # without the axiom check a non-band fails an internal cross-check
    # (ConsistencyError), which exits 1 like any failed property
    path = tmp_path / "constant.json"
    path.write_text(json.dumps({"arity": 3, "elements": ["a", "b"], "values": [1] * 8}))
    code, out, err = run(capsys, "decompose", "--no-verify", str(path))
    assert code == 1 and out == ""
    assert err == "error: row 0 does not fix 0; source is not idempotent\n"


def test_reduce_exit_codes(capsys):
    code, out, _ = run(capsys, "reduce", F2_PATH)
    assert code == 0
    doc = json.loads(out)
    assert doc["reducible"] is True
    assert doc["table"]["values"] == [0, 3, 2, 3, 3, 1, 2, 3, 2, 2, 3, 2, 3, 3, 2, 3]
    code, out, _ = run(capsys, "reduce", F1_PATH)
    assert code == 1
    doc = json.loads(out)
    assert doc["witness"] == {"class": 2, "images": [2, 3], "sources": [[0, 0], [1, 1]]}


def test_extend(capsys):
    code, out, _ = run(capsys, "extend", XOR_PATH, "--arity", "5")
    assert code == 0
    t, _ = table_from_json(out)
    assert t.arity == 5 and t.eval((1, 1, 1, 1, 1)) == 1
    code, _, err = run(capsys, "extend", MIN_PATH, "--arity", "4")
    assert code == 2
    assert "not reachable" in err


def test_enumerate(capsys):
    code, out, _ = run(capsys, "enumerate", "--size", "2", "--arity", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert json.loads(lines[-1]) == {"labeled": 3, "iso": 2}
    assert len(lines) == 4
    for line in lines[:-1]:
        doc = json.loads(line)
        assert doc["arity"] == 3 and len(doc["values"]) == 8


def test_enumerate_count_only_and_iso(capsys):
    code, out, _ = run(capsys, "enumerate", "--size", "3", "--arity", "3", "--count-only")
    assert code == 0
    assert out.strip() == '{"labeled": 18, "iso": 4}'
    code, out, _ = run(capsys, "enumerate", "--size", "3", "--arity", "3", "--up-to-iso")
    assert len(out.strip().splitlines()) == 5


def test_enumerate_budget(capsys):
    code, _, err = run(capsys, "enumerate", "--size", "6", "--arity", "3")
    assert code == 2
    assert err


def test_oracle_bands(capsys):
    code, out, _ = run(capsys, "oracle", "bands", "--size", "2", "--arity", "3", "--count-only")
    assert code == 0
    assert out.strip() == '{"labeled": 3, "iso": 2}'


def test_oracle_bands_budget(capsys):
    code, out, err = run(capsys, "oracle", "bands", "--size", "6", "--arity", "3")
    assert code == 2 and out == ""
    assert err == "error: band search passed the budget of 2097152 nodes\n"


def test_oracle_reductions(capsys):
    code, out, _ = run(capsys, "oracle", "reductions", XOR_PATH)
    assert code == 0
    lines = out.strip().splitlines()
    assert json.loads(lines[-1]) == {"count": 2}
    code, out, _ = run(capsys, "oracle", "reductions", F1_PATH)
    assert code == 1
    assert json.loads(out.strip().splitlines()[-1]) == {"count": 0}


def test_isomorphic(capsys, tmp_path):
    code, out, _ = run(capsys, "isomorphic", F1_PATH, F1_PATH)
    assert code == 0 and "not" not in out
    code, out, _ = run(capsys, "isomorphic", F1_PATH, F2_PATH)
    assert code == 1 and "not isomorphic" in out
    code, out, _ = run(capsys, "isomorphic", F1_PATH, MIN_PATH)
    assert code == 1  # size mismatch short-circuits


def test_isomorphic_relabeled(capsys, tmp_path):
    doc = json.loads(Path(F2_PATH).read_text())
    # swap the roles of the first two elements
    swap = {0: 1, 1: 0, 2: 2, 3: 3}
    values = doc["values"]
    m = 4
    relabeled = [0] * len(values)
    for i, v in enumerate(values):
        x, rest = divmod(i, m * m)
        y, z = divmod(rest, m)
        j = (swap[x] * m + swap[y]) * m + swap[z]
        relabeled[j] = swap[v]
    other = tmp_path / "relabeled.json"
    other.write_text(json.dumps({"arity": 3, "elements": ["a", "b", "c", "d"], "values": relabeled}))
    code, out, _ = run(capsys, "isomorphic", F2_PATH, str(other))
    assert code == 0


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(Path(MIN_PATH).read_text()))
    code, out, _ = run(capsys, "check", "-", "--report", "json")
    assert code == 0
    assert json.loads(out)["classification"] == "semilattice-extension"


def test_version(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert "narybands" in out


def test_missing_file(capsys):
    code, _, err = run(capsys, "check", "/no/such/file.json")
    assert code == 2
    assert err


def test_malformed_json(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"arity": 3}')
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2
    assert "missing keys" in err


def test_unknown_command(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


def test_output_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "out.json"
    code, out, _ = run(capsys, "check", F2_PATH, "--report", "json", "-o", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["reducible"] is True
