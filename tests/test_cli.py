import hashlib
import importlib.util
import io
import itertools
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from narybands import (
    __version__,
    decompose,
    relabel,
    system_to_json,
    table_from_function,
    table_from_json,
    table_to_json,
)
from narybands.cli import main

optable_module = importlib.import_module("narybands.optable")
compose_module = importlib.import_module("narybands.compose")
reduce_module = importlib.import_module("narybands.reduce")

from conftest import NON_BAND_DOCS

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


@pytest.mark.parametrize(
    "argv, digest",
    [
        (("--size", "4", "--arity", "3"), "6602fd4e15954d0c"),
        (("--size", "4", "--arity", "3", "--up-to-iso"), "8f37db57ebbc55eb"),
        (("--size", "4", "--arity", "5"), "3b078191410dbe38"),
        (("--size", "5", "--arity", "2"), "fea2c507e21510ab"),
        (("--size", "5", "--arity", "3"), "3c76b1fd98e03b6f"),
        (("--size", "5", "--arity", "3", "--up-to-iso"), "fcb00fd354bf647c"),
        (("--size", "5", "--arity", "4"), "5bb346bb45c6c0e7"),
        (("--size", "5", "--arity", "4", "--up-to-iso"), "2d211fd52c2025a8"),
        (("--size", "5", "--arity", "5"), "7bc8d66f14982849"),
        (("--size", "5", "--arity", "5", "--up-to-iso"), "ce4bcf27c2898efe"),
    ],
)
def test_enumerate_output_is_pinned(capsys, argv, digest):
    # the first 16 hex digits of the SHA-256 of stdout pin every table and
    # the catalog order
    code, out, _ = run(capsys, "enumerate", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


CHECK_INPUTS = {
    **{path.stem: json.loads(path.read_text()) for path in sorted(FIXTURES.glob("*.json"))},
    # one failing law each, with labels other than the defaults
    "not-associative": {"arity": 3, "elements": ["lo", "hi"], "values": [0, 0, 0, 1, 0, 1, 1, 1]},
    "not-symmetric": {"arity": 2, "elements": ["p", "q"], "values": [0, 0, 1, 1]},
    "not-idempotent": {"arity": 3, "elements": ["x", "y"], "values": [0] * 8},
    "one-element-arity-64": {"arity": 64, "elements": ["a"], "values": [0]},
}


@pytest.mark.parametrize(
    "name, report, want, digest",
    [
        ("irreducible4", "text", 0, "3a07437a23ef3443"),
        ("irreducible4", "json", 0, "bc431924aa3020b8"),
        ("majority2", "text", 1, "be2b134f9f624686"),
        ("majority2", "json", 1, "165c88bce4a0cd5b"),
        ("reducible4", "text", 0, "4b70244e61f19133"),
        ("reducible4", "json", 0, "77902db6edbb04de"),
        ("tmin3", "text", 0, "d5d0c658174bcb50"),
        ("tmin3", "json", 0, "164a1e4861099f69"),
        ("txor2", "text", 0, "b70cf9893891ad37"),
        ("txor2", "json", 0, "ff9737914585d42d"),
        ("not-associative", "text", 1, "28ef83b596c4c234"),
        ("not-associative", "json", 1, "165c88bce4a0cd5b"),
        ("not-symmetric", "text", 1, "e1fb01c7b670fd2b"),
        ("not-symmetric", "json", 1, "9cca6f679b7f66f6"),
        ("not-idempotent", "text", 1, "75142efd93181038"),
        ("not-idempotent", "json", 1, "a6cde5c719d793f5"),
        ("one-element-arity-64", "text", 0, "0b786e2e877ada0c"),
        ("one-element-arity-64", "json", 0, "4769ab798bc98b99"),
    ],
)
def test_check_output_is_pinned(capsys, tmp_path, name, report, want, digest):
    # the first 16 hex digits of the SHA-256 of stdout pin every line of
    # both report formats
    path = tmp_path / "table.json"
    path.write_text(json.dumps(CHECK_INPUTS[name]))
    code, out, err = run(capsys, "check", str(path), "--report", report)
    assert (code, err) == (want, "")
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


@pytest.mark.parametrize(
    "name, argv, want, digest",
    [
        ("irreducible4", ("decompose",), 0, "d31811b24f6b10da"),
        ("irreducible4", ("decompose", "--no-verify"), 0, "d31811b24f6b10da"),
        ("irreducible4", ("reduce",), 1, "5343ddf86b001e70"),
        ("majority2", ("decompose",), 1, "e3b0c44298fc1c14"),
        ("majority2", ("decompose", "--no-verify"), 1, "e3b0c44298fc1c14"),
        ("majority2", ("reduce",), 1, "e3b0c44298fc1c14"),
        ("reducible4", ("decompose",), 0, "4603a4297dddd69a"),
        ("reducible4", ("decompose", "--no-verify"), 0, "4603a4297dddd69a"),
        ("reducible4", ("reduce",), 0, "b7d66c8abc12d2af"),
        ("tmin3", ("decompose",), 0, "702ea7a7a71959fb"),
        ("tmin3", ("decompose", "--no-verify"), 0, "702ea7a7a71959fb"),
        ("tmin3", ("reduce",), 0, "62635e96798c77e0"),
        ("txor2", ("decompose",), 0, "f997eb4413f86aa5"),
        ("txor2", ("decompose", "--no-verify"), 0, "f997eb4413f86aa5"),
        ("txor2", ("reduce",), 0, "c746440a5f44984e"),
    ],
)
def test_decompose_and_reduce_output_is_pinned(capsys, name, argv, want, digest):
    # the first 16 hex digits of the SHA-256 of stdout: the system document
    # or reduction result of each band, and nothing for majority2
    code, out, _ = run(capsys, *argv, str(FIXTURES / f"{name}.json"))
    assert code == want
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


@pytest.mark.parametrize(
    "name, argv, error",
    [
        (
            "non-band-arity-4",
            ("decompose",),
            "operation is not associative: witness "
            "AssociativityWitness(args=(0, 0, 0, 1, 1, 1, 1), position=3)",
        ),
        (
            "non-band-arity-4",
            ("decompose", "--no-verify"),
            "decomposed system does not compose back to the table",
        ),
        (
            "non-band-arity-4",
            ("reduce", "--no-verify"),
            "decomposed system does not compose back to the table",
        ),
        (
            "non-band-five-ternary",
            ("decompose",),
            "operation is not associative: witness "
            "AssociativityWitness(args=(0, 0, 0, 4, 1), position=2)",
        ),
        (
            "non-band-five-ternary",
            ("decompose", "--no-verify"),
            "decomposed system fails validation: "
            "hom-composition: maps along 3 >= 0 >= 2 do not compose coherently",
        ),
        (
            "non-band-five-ternary",
            ("reduce", "--no-verify"),
            "decomposed system fails validation: "
            "hom-composition: maps along 3 >= 0 >= 2 do not compose coherently",
        ),
    ],
)
def test_pinned_non_bands_fail_with_or_without_verify(capsys, tmp_path, name, argv, error):
    # without --no-verify the axiom scan names the law; with it, the check
    # of the system read off the table fails, and nothing reaches stdout
    path = tmp_path / "table.json"
    path.write_text(json.dumps(NON_BAND_DOCS[name]))
    assert run(capsys, *argv, str(path)) == (1, "", f"error: {error}\n")


def test_check_one_element_arity_64(capsys, tmp_path):
    # 64 argument axes plus one would pass numpy's 64-dimension limit
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"arity": 64, "elements": ["a"], "values": [0]}))
    code, out, err = run(capsys, "check", str(path))
    assert (code, err) == (0, "")
    assert out.splitlines()[:2] == ["table: 1 elements, arity 64", "associative: pass"]
    assert out.splitlines()[-2:] == ["reducible: yes", "selection: [0]=a"]


def test_enumerate_one_element_arity_64(capsys):
    code, out, err = run(capsys, "enumerate", "--size", "1", "--arity", "64")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert json.loads(lines[0]) == {"arity": 64, "elements": ["0"], "values": [0]}
    assert lines[1:] == ['{"labeled": 1, "iso": 1}']


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


@pytest.mark.parametrize(
    "argv, error",
    [
        (("check", "huge"), "values has length 1, expected 2**1000000000"),
        (("oracle", "reductions", "huge"), "values has length 1, expected 2**1000000000"),
        (
            ("extend", "binary", "--arity", "1000000001"),
            "extension table would need 2**1000000001 cells (budget 268435456)",
        ),
        (
            ("oracle", "bands", "--size", "2", "--arity", "1000000000"),
            "searching 999999999 multisets of 2**1000000000-cell tables exceeds budget 2097152",
        ),
        (
            ("enumerate", "--size", "2", "--arity", "1000000000", "--count-only"),
            "the 1000000001 argument multisets of arity 1000000000 hold over 1048576 arguments",
        ),
    ],
    ids=["check", "oracle-reductions", "extend", "oracle-bands", "enumerate"],
)
def test_huge_arity_is_refused_at_once(capsys, tmp_path, argv, error):
    # 2**1000000000 has a billion bits: each check must refuse without it
    docs = {
        "huge": {"arity": 10**9, "elements": ["a", "b"], "values": [0]},
        "binary": {"arity": 2, "elements": ["a", "b"], "values": [0, 0, 0, 1]},
    }
    for name, doc in docs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    argv = [str(tmp_path / f"{a}.json") if a in docs else a for a in argv]
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (2, "", f"error: {error}\n")


@pytest.mark.parametrize(
    "argv, arity",
    [
        (("enumerate", "--size", "2", "--arity", "63"), 63),
        (("enumerate", "--size", "2", "--arity", "64"), 64),
        (("compose", "min2", "--arity", "63"), 63),
        (("compose", "min2", "--arity", "64"), 64),
        (("compose", "min2", "--arity", "1000000001"), 1000000001),
    ],
    ids=["enumerate-63", "enumerate-64", "compose-63", "compose-64", "compose-10^9"],
)
def test_unindexable_arity_is_refused_at_once(capsys, tmp_path, argv, arity):
    # 2**63 argument tuples pass the largest numpy index: the dense map
    # from argument tuples to multisets, which a full listing reads,
    # refuses them before numpy sees the size, and compose asks before its
    # group checks, which take arity - 2 steps per class
    path = tmp_path / "min2.json"
    path.write_text(system_to_json(decompose(table_from_function(3, 2, min))))
    argv = [str(path) if a == "min2" else a for a in argv]
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    error = f"error: an index of 2**{arity} argument tuples passes the array limit\n"
    assert (code, out, err) == (2, "", error)


def test_invalid_system_is_refused_before_the_dense_map(capsys, tmp_path):
    # Z2 has exponent 2, which does not divide 39: compose validates the
    # system before it builds the dense map over 2**40 argument tuples
    path = tmp_path / "xor2.json"
    path.write_text(system_to_json(decompose(table_from_function(3, 2, lambda x, y, z: x ^ y ^ z))))
    start = time.perf_counter()
    code, out, err = run(capsys, "compose", str(path), "--arity", "40")
    assert time.perf_counter() - start < 1
    error = "group-exponent: class 0: exponent does not divide 39"
    assert (code, out, err) == (1, "", f"error: system fails validation: {error}\n")


@pytest.mark.parametrize(
    "m, n, counts",
    [(2, 63, (3, 2)), (2, 64, (2, 1)), (3, 22, (10, 3)), (5, 12, (1065, 15))],
)
def test_enumerate_count_only_builds_nothing_dense(capsys, monkeypatch, m, n, counts):
    # relabeled multisets are ranked from their counts: neither the dense
    # map nor the digit matrix of arity n is built
    asked = []
    for name in ("_orbit_of", "_digits", "_rank"):
        real = getattr(optable_module, name)

        def recording(*args, name=name, real=real):
            asked.append((name, args[-1]))  # each takes the arity last
            return real(*args)

        monkeypatch.setattr(optable_module, name, recording)
    optable_module._relabeling_chunk.cache_clear()
    code, out, err = run(capsys, "enumerate", "--size", str(m), "--arity", str(n), "--count-only")
    assert (code, out, err) == (0, f'{{"labeled": {counts[0]}, "iso": {counts[1]}}}\n', "")
    assert ("_rank", n) in asked
    assert not {("_orbit_of", n), ("_digits", n)} & set(asked)


def test_one_element_at_a_huge_arity_at_once(capsys, tmp_path):
    # a one-element carrier has one band, and every one-element system is
    # valid: neither command takes a step per unit of arity
    path = tmp_path / "one.json"
    path.write_text(system_to_json(decompose(table_from_function(3, 1, lambda *a: 0))))
    start = time.perf_counter()
    got = [
        run(capsys, "enumerate", "--size", "1", "--arity", "1000000000", "--count-only"),
        run(capsys, "compose", str(path), "--arity", "1000000000"),
    ]
    assert time.perf_counter() - start < 1
    assert got == [
        (0, '{"labeled": 1, "iso": 1}\n', ""),
        (0, '{"arity": 1000000000, "elements": ["0"], "values": [0]}\n', ""),
    ]


def test_extend_one_element_at_a_huge_arity(capsys, tmp_path):
    # a one-element table extends to itself at any arity, in one step
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"arity": 2, "elements": ["a"], "values": [0]}))
    start = time.perf_counter()
    code, out, err = run(capsys, "extend", str(path), "--arity", "1000000001")
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (0, '{"arity": 1000000001, "elements": ["a"], "values": [0]}\n', "")


def test_oracle_reductions(capsys):
    code, out, _ = run(capsys, "oracle", "reductions", XOR_PATH)
    assert code == 0
    lines = out.strip().splitlines()
    assert json.loads(lines[-1]) == {"count": 2}
    code, out, _ = run(capsys, "oracle", "reductions", F1_PATH)
    assert code == 1
    assert json.loads(out.strip().splitlines()[-1]) == {"count": 0}


@pytest.mark.parametrize(
    "f, flags",
    [(lambda x, y: 1 - (x & y), ()), (lambda x, y: (1 - x) | y, ("--all-tables",))],
    ids=["nand", "implication"],
)
def test_oracle_reductions_drops_non_associative(capsys, tmp_path, f, flags):
    # the ternary right-nesting of a non-associative binary operation: the
    # operation extends to it, but it is no reduction
    nesting = table_from_function(3, 2, lambda x, y, z: f(x, f(y, z)))
    path = tmp_path / "nesting.json"
    path.write_text(table_to_json(nesting))
    code, out, err = run(capsys, "oracle", "reductions", str(path), *flags)
    assert (code, out, err) == (1, '{"count": 0}\n', "")


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


def test_isomorphic_scans_once_for_an_isomorphic_pair(capsys, monkeypatch, tmp_path):
    optable = importlib.import_module("narybands.optable")
    relabeled_orbits = optable._relabeled_orbits
    scans = []

    def counting(row, size, arity):
        scans.append(size)
        return relabeled_orbits(row, size, arity)

    monkeypatch.setattr(optable, "_relabeled_orbits", counting)
    # F2 with the roles of its first two elements swapped
    t, _ = table_from_json(Path(F2_PATH).read_text())
    other = tmp_path / "swapped.json"
    other.write_text(table_to_json(relabel(t, (1, 0, 2, 3))))
    assert run(capsys, "isomorphic", F2_PATH, str(other))[:2] == (0, "isomorphic\n")
    assert len(scans) == 1
    # two symmetric bands in different classes: each is scanned
    assert run(capsys, "isomorphic", F1_PATH, F2_PATH)[:2] == (1, "not isomorphic\n")
    assert len(scans) == 3


def test_isomorphic_non_symmetric(capsys, tmp_path):
    # x - y + z mod 4 is not symmetric; relabeled by p it is p(p^-1(x) - p^-1(y) + p^-1(z))
    perm = (2, 0, 3, 1)
    inverse = [perm.index(x) for x in range(4)]
    tables = {
        "t": lambda x, y, z: (x - y + z) % 4,
        "relabeled": lambda x, y, z: perm[(inverse[x] - inverse[y] + inverse[z]) % 4],
        "other": lambda x, y, z: (x + y - z) % 4,
    }
    paths = {}
    for name, fn in tables.items():
        values = [fn(*args) for args in itertools.product(range(4), repeat=3)]
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps({"arity": 3, "elements": list("abcd"), "values": values}))
    code, out, _ = run(capsys, "isomorphic", str(paths["t"]), str(paths["relabeled"]))
    assert (code, out) == (0, "isomorphic\n")
    code, out, _ = run(capsys, "isomorphic", str(paths["t"]), str(paths["other"]))
    assert (code, out) == (1, "not isomorphic\n")


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(Path(MIN_PATH).read_text()))
    code, out, _ = run(capsys, "check", "-", "--report", "json")
    assert code == 0
    assert json.loads(out)["classification"] == "semilattice-extension"


def test_version(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert out == f"narybands {__version__}\n"


def test_version_has_one_source():
    # pyproject reads the version from narybands.__version__
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    doc = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())
    assert "version" not in doc["project"]
    assert doc["project"]["dynamic"] == ["version"]
    assert doc["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "narybands.__version__"}


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


def test_memory_error_is_one_line_exit_2():
    # the full listing's dense map counts arguments over the 3**22
    # argument tuples, 31 G cells; under a 3 GiB address-space limit, set
    # in the child alone, an allocation fails
    resource = pytest.importorskip("resource")

    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    cap = 3 * 2**30 if hard == resource.RLIM_INFINITY else min(hard, 3 * 2**30)

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    src = str(Path(__file__).parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "narybands.cli", "enumerate", "--size", "3", "--arity", "22"],
        capture_output=True,
        text=True,
        preexec_fn=limit_memory,
        env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
        timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "allocate" in proc.stderr
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


def test_benchmark_stage_names_exist():
    # perfbench/tracing.py rebinds every function its STAGES table names,
    # each in the module named by the stage; a renamed or removed function
    # would fail every traced benchmark run
    path = Path(__file__).parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for stage, names in tracing.STAGES.items():
        module = importlib.import_module(f"narybands.{stage.split('.')[0]}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{stage}: {module.__name__}.{name}"


def test_benchmark_tracer_installs_on_the_package():
    # the traced run's install() rebinds every STAGES name wherever the
    # package holds it; in a fresh interpreter it installs, and calls made
    # through the rebound names record their stages
    root = Path(__file__).parents[1]
    script = (
        "import sys\n"
        "sys.path[:0] = sys.argv[1:]\n"
        "import narybands, tracing\n"
        "tracer = tracing.Tracer()\n"
        "tracer.install(narybands)\n"
        "t = narybands.table_from_function(3, 2, lambda *a: sum(a) % 2)\n"
        "narybands.validate_system(narybands.decompose(t))\n"
        "narybands.hom_maps(t)\n"
        "print(' '.join(sorted({span[0] for span in tracer.spans})))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(root / "src"), str(root / "perfbench")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    stages = set(proc.stdout.split())
    assert {"structure.decompose", "structure.validate", "structure.hom_maps"} <= stages


def test_readme_limits_equal_the_constants():
    # every limit the README states as "N <unit> (`module.CONSTANT`" is
    # that constant's value, and its limits paragraph names all five
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    limits = readme.split("## Limits and determinism")[1]
    pattern = r"(\d+(?:\^\d+)?)\s+(?:cells|elements|search\s+nodes)\s+\(`(\w+)\.([A-Z_]+)`"
    stated = re.findall(pattern, readme)
    assert {name for _, _, name in re.findall(pattern, limits)} == {
        "EXTEND_CELL_BUDGET",
        "CANONICAL_SIZE_LIMIT",
        "ENUMERATE_SIZE_LIMIT",
        "BRUTE_CANDIDATE_BUDGET",
        "REDUCTION_CANDIDATE_BUDGET",
    }
    for number, module, name in stated:
        base, _, power = number.partition("^")
        value = int(base) ** int(power or 1)
        assert value == getattr(importlib.import_module(f"narybands.{module}"), name), name


def test_oracle_help_states_the_budgets(capsys):
    code, help_text, _ = run(capsys, "oracle", "--help")
    assert code == 0
    stated = dict(re.findall(r"(reductions|bands)\s.*\(2\^(\d+) nodes\)", help_text))
    assert {oracle: 2 ** int(power) for oracle, power in stated.items()} == {
        "reductions": reduce_module.REDUCTION_CANDIDATE_BUDGET,
        "bands": compose_module.BRUTE_CANDIDATE_BUDGET,
    }
