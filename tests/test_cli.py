"""Command-line behaviour: output, exit codes, JSON round-trips."""

from __future__ import annotations

import json

import pytest

from ufgkit import jsonio
from ufgkit.cli import EXIT_ERROR, EXIT_NOT_UFG, EXIT_OK, main


@pytest.fixture
def corr_family_file(tmp_path, corr):
    _, p1, p2, p3, _ = corr
    path = tmp_path / "family.json"
    path.write_text(jsonio.dumps_canonical(jsonio.family_to_obj([p1, p2, p3])))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- posets ------------------------------------------------------------------


def test_posets_count(capsys):
    code, out, _ = run(capsys, "posets", "-n", "3")
    assert code == EXIT_OK and out.strip() == "19"
    code, out, _ = run(capsys, "posets", "-n", "1")
    assert code == EXIT_OK and out.strip() == "1"


def test_posets_list_streams_one_object_per_line(capsys):
    code, out, _ = run(capsys, "posets", "-n", "2", "--list")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert len(lines) == 3
    posets = [jsonio.poset_from_obj(json.loads(line)) for line in lines]
    assert posets[0].bits == 0  # canonical stream starts at the empty order


def test_posets_cap_error(capsys):
    code, _, err = run(capsys, "posets", "-n", "9")
    assert code == EXIT_ERROR
    assert "cap" in err


def test_cap_override_flow(capsys, monkeypatch):
    monkeypatch.setenv("UFGKIT_CAP", "2")
    code, _, err = run(capsys, "posets", "-n", "3")
    assert code == EXIT_ERROR
    code, out, _ = run(capsys, "posets", "-n", "3", "--cap-override-ack")
    assert code == EXIT_OK and out.strip() == "19"


# --- closure -----------------------------------------------------------------


def test_closure_human_output(capsys, corr_family_file):
    code, out, _ = run(capsys, "closure", "--input", corr_family_file)
    assert code == EXIT_OK
    assert "lower: {}" in out
    assert "a<b" in out and "b1<c1" in out


def test_closure_materialize_and_oracle(capsys, corr_family_file):
    code, out, _ = run(
        capsys, "closure", "--input", corr_family_file, "--materialize", "--oracle"
    )
    assert code == EXIT_OK
    assert "members: 14" in out
    assert "{a<b, a1<b1, a1<c1, b1<c1}" in out  # q is among the members
    assert "both closure routes agree on 14 orders" in out


def test_closure_of_singleton_family(capsys, tmp_path, corr):
    _, p1, _, _, _ = corr
    path = tmp_path / "single.json"
    path.write_text(jsonio.dumps_canonical(jsonio.family_to_obj([p1])))
    code, out, _ = run(capsys, "closure", "--input", str(path))
    assert code == EXIT_OK
    assert "lower: {a<b, a1<c1}" in out
    assert "upper: {a<b, a1<c1}" in out


def test_closure_rejects_non_poset_entry(capsys, tmp_path):
    bad = {"elements": ["a", "b", "c"], "posets": [[["a", "b"], ["b", "c"]]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, _, err = run(capsys, "closure", "--input", str(path))
    assert code == EXIT_ERROR
    assert "(a,b)" in err and "(a,c)" in err  # names the violating triple


def test_closure_reports_json_position(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"elements": ["a"],\n  "posets": [[]]')
    code, _, err = run(capsys, "closure", "--input", str(path))
    assert code == EXIT_ERROR
    assert "broken.json:2" in err


def test_closure_rejects_duplicate_relation(capsys, tmp_path):
    bad = {"elements": ["a", "b"], "posets": [[["a", "b"], ["a", "b"]]]}
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(bad))
    code, _, err = run(capsys, "closure", "--input", str(path))
    assert code == EXIT_ERROR and "duplicate relation" in err


# --- check-ufg ----------------------------------------------------------------


def test_check_ufg_positive(capsys, corr_family_file):
    code, out, _ = run(capsys, "check-ufg", "--input", corr_family_file, "--debug")
    assert code == EXIT_OK
    assert "ufg: yes" in out
    assert "witness: {a1<b1, a1<c1, b1<c1}" in out
    # per-member sets are relative to that witness, one line per member
    assert "{a<b, a1<c1}: nleq(a1,c1)" in out
    assert "{a1<b1}: nleq(a1,b1)" in out
    assert "cross-check: all three deciders agree" in out


def test_check_ufg_singleton_negative(capsys, tmp_path, corr):
    _, p1, _, _, _ = corr
    path = tmp_path / "single.json"
    path.write_text(jsonio.dumps_canonical(jsonio.family_to_obj([p1])))
    code, out, _ = run(capsys, "check-ufg", "--input", str(path))
    assert code == EXIT_NOT_UFG
    assert "ufg: no" in out
    assert "closure adds nothing" in out


def test_check_ufg_pair(capsys, tmp_path, corr):
    _, p1, p2, _, _ = corr
    path = tmp_path / "pair.json"
    path.write_text(jsonio.dumps_canonical(jsonio.family_to_obj([p1, p2])))
    code, out, _ = run(capsys, "check-ufg", "--input", str(path))
    assert code == EXIT_OK and "ufg: yes" in out


# --- enumerate ------------------------------------------------------------------


def test_enumerate_verify_identical(capsys):
    code, out, _ = run(capsys, "enumerate", "-n", "2", "--verify")
    assert code == EXIT_OK
    assert "catalogs identical" in out
    assert "ufg sets: 1" in out


def test_enumerate_connected_pool(capsys, corr_family_file):
    code, out, _ = run(
        capsys, "enumerate", "--input", corr_family_file, "--strategy", "connected"
    )
    assert code == EXIT_OK
    assert "ufg sets: 4" in out and "3:1" in out


def test_enumerate_max_size_one(capsys):
    code, out, _ = run(capsys, "enumerate", "-n", "2", "--max-size", "1")
    assert code == EXIT_OK and "ufg sets: 0" in out


# --- connectedness / corrigendum / falsify ----------------------------------------


def test_connectedness_command(capsys, corr_family_file):
    code, out, _ = run(capsys, "connectedness", "--input", corr_family_file)
    assert code == EXIT_OK
    assert "families checked (size >= 3): 1" in out
    assert "violations: 0" in out


def test_corrigendum_command(capsys):
    code, out, _ = run(capsys, "corrigendum")
    assert code == EXIT_OK
    assert out.count("ok ") == 6
    assert "all assertions passed" in out


@pytest.mark.parametrize(
    "flags", [("-n", "3"), ("--input", "nonexist.json"), ("--cap-override-ack",)]
)
def test_corrigendum_rejects_the_pool_flags(capsys, flags):
    # the scenario reads no pool: of the shared flags only --json and --out apply
    code, out, err = run(capsys, "corrigendum", *flags)
    assert code == EXIT_ERROR
    assert out == "" and "unrecognized arguments" in err


def test_falsify_deterministic_bytes(capsys):
    args = ("falsify", "-n", "3", "--budget", "15", "--seed", "7")
    code_a, out_a, _ = run(capsys, *args)
    code_b, out_b, _ = run(capsys, *args)
    assert code_a == code_b == EXIT_OK
    assert out_a == out_b
    assert "seed=7" in out_a and "violations: none" in out_a
    code_c, out_c, _ = run(capsys, *args, "--threads", "3")
    assert out_c == out_a


def test_usage_errors_exit_one(capsys):
    assert run(capsys, "posets")[0] == EXIT_ERROR  # missing -n/--input
    assert run(capsys, "no-such-command")[0] == EXIT_ERROR
    assert run(capsys, "falsify", "-n", "wat")[0] == EXIT_ERROR


@pytest.mark.parametrize(
    "argv, env",
    [
        (("enumerate", "-n", "0"), {}),
        (("enumerate", "-n", "3", "--max-size", "-5"), {}),
        (("enumerate", "-n", "3", "--budget", "0"), {}),
        (("enumerate", "-n", "2", "--threads", "2"), {}),  # a falsify flag only
        (("connectedness", "-n", "-1"), {}),
        (("connectedness", "-n", "3", "--max-size", "0"), {}),
        (("falsify", "--budget", "0"), {}),
        (("falsify", "--pool-size", "-2"), {}),
        (("falsify", "--threads", "0"), {}),
        (("falsify", "-n", "4,0"), {}),
        (("falsify", "-n", ""), {}),
        (("posets", "-n", "3"), {"UFGKIT_CAP": "abc"}),
        (("posets", "-n", "3"), {"UFGKIT_CAP": "0"}),
    ],
)
def test_bad_input_exits_one_without_traceback(capsys, monkeypatch, argv, env):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    code, _, err = run(capsys, *argv)
    assert code == EXIT_ERROR
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "content",
    [b'{"elements": ["\xff"]}', b"[" * 100_000 + b"]" * 100_000],
    ids=["not-utf8", "nested-100000-deep"],
)
def test_malformed_family_file_exits_one_without_traceback(capsys, tmp_path, content):
    path = tmp_path / "family.json"
    path.write_bytes(content)
    for command in ("check-ufg", "closure", "enumerate", "connectedness"):
        code, _, err = run(capsys, command, "--input", str(path))
        assert code == EXIT_ERROR, command
        assert "error:" in err and "Traceback" not in err


# --- machine output round-trips -----------------------------------------------------


def _roundtrip(raw: str, parse, render) -> None:
    obj = json.loads(raw)
    again = jsonio.dumps_canonical(render(parse(obj)))
    assert again == raw


def test_json_roundtrips_byte_identical(capsys, corr_family_file, tmp_path):
    cases = [
        (("posets", "-n", "3"), jsonio.count_payload_from_obj, lambda x: x),
        (
            ("closure", "--input", corr_family_file, "--materialize"),
            jsonio.closure_payload_from_obj,
            lambda x: x,
        ),
        (
            ("check-ufg", "--input", corr_family_file),
            jsonio.verdict_payload_from_obj,
            lambda x: x,
        ),
        (
            ("enumerate", "--input", corr_family_file),
            jsonio.catalog_from_obj,
            jsonio.catalog_to_obj,
        ),
        (
            ("connectedness", "--input", corr_family_file),
            jsonio.connectedness_from_obj,
            jsonio.connectedness_to_obj,
        ),
        (("corrigendum",), jsonio.scenario_from_obj, jsonio.scenario_to_obj),
        (
            ("falsify", "-n", "3", "--budget", "10", "--seed", "3"),
            jsonio.falsification_from_obj,
            jsonio.falsification_to_obj,
        ),
    ]
    for argv, parse, render in cases:
        code, out, _ = run(capsys, *argv, "--json")
        assert code == EXIT_OK, argv
        _roundtrip(out, parse, render)


def test_out_writes_json_file_and_keeps_stdout_human(capsys, tmp_path, corr_family_file):
    target = tmp_path / "catalog.json"
    code, out, _ = run(
        capsys, "enumerate", "--input", corr_family_file, "--out", str(target)
    )
    assert code == EXIT_OK
    assert "ufg sets: 4" in out  # human text on stdout
    raw = target.read_text()
    catalog = jsonio.catalog_from_obj(json.loads(raw))
    assert jsonio.dumps_canonical(jsonio.catalog_to_obj(catalog)) == raw


def test_family_file_roundtrip(tmp_path, corr):
    _, p1, p2, p3, _ = corr
    raw = jsonio.dumps_canonical(jsonio.family_to_obj([p3, p1, p2]))
    ground, members = jsonio.family_from_obj(json.loads(raw))
    again = jsonio.dumps_canonical(jsonio.family_to_obj(members))
    assert again == raw
