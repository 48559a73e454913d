"""Command-line behaviour: output, exit codes, JSON round-trips."""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from ufgkit import cli, jsonio, orders, ufg
from ufgkit.cli import EXIT_ERROR, EXIT_NOT_UFG, EXIT_OK, EXIT_VIOLATION, main
from ufgkit.orders import GroundSet, make_poset


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


def _run_under_one_gigabyte(*argv):
    """The CLI in a child process whose address space is limited to 1 GB."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = str(Path(cli.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-m", "ufgkit.cli", *argv],
                          capture_output=True, text=True, preexec_fn=limit, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    return done.returncode, done.stdout, done.stderr


@pytest.mark.parametrize("command", ["posets", "enumerate", "connectedness"])
def test_an_over_cap_size_is_refused_before_its_ground_is_built(command):
    # a ground of 100,000 items holds a number of 10**10 bits: built first,
    # it would exhaust a 1 GB address space before the cap was checked
    assert _run_under_one_gigabyte(command, "-n", "100000") == (EXIT_ERROR, "", (
        "error: ground set of size 100000 exceeds the cap 6; "
        "raise it explicitly with the override flag\n"
    ))


@pytest.mark.parametrize("sizes, over", [("100000", 100000), ("4,7", 7)])
def test_falsify_refuses_an_over_cap_size_before_any_trial(sizes, over):
    # every size is checked before the first trial builds a ground: 4,7
    # runs no trial on 4 items first, and 100,000 items never reach the
    # memory a ground of that size would take
    assert _run_under_one_gigabyte("falsify", "-n", sizes, "--budget", "1") == (
        EXIT_ERROR, "", f"error: ground set of size {over} exceeds the cap 6; "
        "raise it explicitly with the override flag\n")


def test_falsify_takes_the_cap_acknowledgement(capsys):
    code, out, err = run(capsys, "falsify", "-n", "7", "--budget", "2", "--cap-override-ack")
    assert (code, err) == (EXIT_OK, "")
    assert "trials: 2" in out


def test_cap_override_flow(capsys, monkeypatch):
    monkeypatch.setattr(orders, "DEFAULT_GROUND_CAP", 2)
    code, _, err = run(capsys, "posets", "-n", "3")
    assert code == EXIT_ERROR
    code, out, _ = run(capsys, "posets", "-n", "3", "--cap-override-ack")
    assert code == EXIT_OK and out.strip() == "19"


def test_cap_override_lifts_the_cap_to_a_loaded_ground(capsys, monkeypatch, tmp_path):
    path = tmp_path / "three.json"
    path.write_text(json.dumps(
        {"elements": ["a", "b", "c"], "posets": [[["a", "b"]], [["b", "c"]]]}
    ))
    monkeypatch.setattr(orders, "DEFAULT_GROUND_CAP", 2)
    code, _, err = run(capsys, "posets", "--input", str(path))
    assert code == EXIT_ERROR and "cap" in err
    code, out, _ = run(capsys, "posets", "--input", str(path), "--cap-override-ack")
    assert code == EXIT_OK and out.strip() == "19"


@pytest.mark.parametrize("command", ["enumerate", "connectedness"])
def test_the_cli_builds_the_pool_under_the_cap(capsys, monkeypatch, command):
    code, want, _ = run(capsys, command, "-n", "3")
    assert code == EXIT_OK
    monkeypatch.setattr(orders, "DEFAULT_GROUND_CAP", 2)
    assert run(capsys, command, "-n", "3") == (EXIT_ERROR, "", (
        "error: ground set of size 3 exceeds the cap 2; "
        "raise it explicitly with the override flag\n"
    ))
    assert run(capsys, command, "-n", "3", "--cap-override-ack") == (EXIT_OK, want, "")


def test_enumerate_verify_walks_the_order_space_once(capsys, monkeypatch):
    walks = []
    order_bits = orders._order_bits
    monkeypatch.setattr(orders, "_order_bits", lambda n: walks.append(n) or order_bits(n))
    code, out, _ = run(capsys, "enumerate", "--verify", "-n", "3")
    assert code == EXIT_OK and "catalogs identical" in out
    assert walks == [3]


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


def test_closure_oracle_on_a_ground_beyond_the_cap(capsys, tmp_path):
    # the oracle walks the closure interval, as --materialize does: no cap
    g = GroundSet.numbered(7)
    family = [make_poset(g, [(f"x{i}", f"x{i + 1}")]) for i in (1, 3, 5)]
    path = tmp_path / "seven.json"
    path.write_text(jsonio.dumps_canonical(jsonio.family_to_obj(family)))
    code, out, err = run(capsys, "closure", "--input", str(path), "--oracle")
    assert code == EXIT_OK and err == ""
    assert "oracle check: both closure routes agree on 8 orders" in out


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


def test_check_ufg_no_walks_the_closure_only_to_an_order_beyond_the_family(
    capsys, monkeypatch, tmp_path
):
    # {empty, chain a1<...<a12, a1<a2}: the closure holds every order inside
    # the chain, but the reason needs only its first order outside the family
    labels = [f"a{i}" for i in range(1, 13)]
    chain = [[a, b] for i, a in enumerate(labels) for b in labels[i + 1:]]
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"elements": labels, "posets": [[], chain, [["a1", "a2"]]]}))
    leaves = []
    walk = orders._interval_bits

    def counted(*args):
        for bits in walk(*args):
            leaves.append(bits)
            yield bits

    monkeypatch.setattr(orders, "_interval_bits", counted)
    code, out, err = run(capsys, "check-ufg", "--input", str(path))
    assert (code, err) == (EXIT_NOT_UFG, "")
    assert out.splitlines()[1:] == ["ufg: no", "reason: not union-free: every closure order "
                                    "outside the family already lies in a leave-one-out closure"]
    assert 0 < len(leaves) <= 4  # at most one more than the family's members


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


def test_enumerate_verify_reports_differing_catalogs(capsys, monkeypatch):
    # a connected catalog missing one family: exit 2, a count line on
    # stderr and nothing on stdout
    enumerate_connected = cli.enumerate_ufg_connected

    def missing_one(*args, **kwargs):
        catalog = enumerate_connected(*args, **kwargs)
        del catalog._families[catalog.families()[0]]
        return catalog

    monkeypatch.setattr(cli, "enumerate_ufg_connected", missing_one)
    code, out, err = run(capsys, "enumerate", "-n", "3", "--verify")
    assert code == EXIT_VIOLATION
    assert err == "catalogs differ: 1 missing from connected, 0 unexpected\n"
    assert out == ""


def test_enumerate_connected_pool(capsys, corr_family_file):
    code, out, _ = run(
        capsys, "enumerate", "--input", corr_family_file, "--strategy", "connected"
    )
    assert code == EXIT_OK
    assert "ufg sets: 4" in out and "3:1" in out


def test_enumerate_verify_reads_the_family_file_once(capsys, monkeypatch, corr_family_file):
    calls = []
    original = jsonio.load_family_file
    monkeypatch.setattr(
        jsonio, "load_family_file", lambda path: calls.append(path) or original(path)
    )
    code, out, _ = run(capsys, "enumerate", "--input", corr_family_file, "--verify")
    assert code == EXIT_OK and "catalogs identical" in out
    assert calls == [corr_family_file]


def test_text_enumerate_walks_no_witness(capsys, monkeypatch):
    # the text report reads counts only, so no certificate is built and
    # no interval is walked to a witness
    def refuse(*_):
        raise AssertionError("a witness was walked for text output")

    monkeypatch.setattr(ufg, "_certificate", refuse)
    monkeypatch.setattr(orders, "_interval_bits", refuse)
    code, out, _ = run(capsys, "enumerate", "-n", "3")
    assert code == EXIT_OK and "ufg sets: 281 (by size 2:141, 3:140)" in out


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


@pytest.mark.parametrize(
    "flags",
    [("closure", "-n", "3"), ("check-ufg", "-n", "3"),
     ("check-ufg", "--input", "f.json", "--cap-override-ack")],
)
def test_family_commands_take_only_a_family_file(capsys, flags):
    # closure and check-ufg read a family and enumerate no full space
    code, out, err = run(capsys, *flags)
    assert code == EXIT_ERROR
    assert out == "" and err.startswith("usage:") and "Traceback" not in err


def test_text_output_builds_no_json_payload(capsys, monkeypatch):
    def refuse(*_):
        raise AssertionError("a JSON payload was built for text output")

    monkeypatch.setattr(jsonio, "catalog_to_obj", refuse)
    monkeypatch.setattr(jsonio, "connectedness_to_obj", refuse)
    code, out, _ = run(capsys, "enumerate", "-n", "2")
    assert code == EXIT_OK and "ufg sets: 1" in out
    code, out, _ = run(capsys, "enumerate", "-n", "2", "--verify")
    assert code == EXIT_OK and "catalogs identical" in out
    code, out, _ = run(capsys, "connectedness", "-n", "2")
    assert code == EXIT_OK and "violations: 0" in out


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


COMMANDS = ("posets", "closure", "check-ufg", "enumerate", "connectedness", "corrigendum",
            "falsify")


@pytest.mark.parametrize("command", COMMANDS)
def test_help_exits_zero_and_every_option_has_help(capsys, command):
    code, out, _ = run(capsys, command, "--help")
    assert code == EXIT_OK and out.startswith(f"usage: ufgkit {command} ")
    (subs,) = [a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction)]
    assert sorted(subs.choices) == sorted(COMMANDS)
    for action in subs.choices[command]._actions:
        if not isinstance(action, argparse._HelpAction):
            assert action.option_strings and action.help, action


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "-n", "0"),
        ("enumerate", "-n", "3", "--max-size", "-5"),
        ("enumerate", "-n", "3", "--budget", "0"),
        ("enumerate", "-n", "2", "--threads", "2"),  # a falsify flag only
        ("connectedness", "-n", "-1"),
        ("connectedness", "-n", "3", "--max-size", "0"),
        ("falsify", "--budget", "0"),
        ("falsify", "--pool-size", "8"),  # the pool size is fixed
        ("falsify", "--threads", "0"),
        ("falsify", "-n", "4,0"),
        ("falsify", "-n", ""),
        ("closure", "--input", "x.json", "--cap-override-ack"),
        ("posets", "-n", "2", "--list", "--out", "f.json"),  # --list streams lines
        ("posets", "-n", "2", "--list", "--json"),
        # flags that would do nothing: a family file is the pool, never
        # capped, and --verify runs both strategies
        ("enumerate", "--input", "POOL", "--cap-override-ack"),
        ("connectedness", "--input", "POOL", "--cap-override-ack", "--out", "f.json"),
        ("enumerate", "-n", "2", "--verify", "--strategy", "exhaustive"),
        ("enumerate", "-n", "2", "--verify", "--strategy", "connected", "--out", "f.json"),
        # --json and --out exclude each other, for every command
        ("posets", "-n", "2", "--json", "--out", "f.json"),
        ("closure", "--input", "POOL", "--json", "--out", "f.json"),
        ("check-ufg", "--input", "POOL", "--json", "--out", "f.json"),
        ("enumerate", "-n", "2", "--json", "--out", "f.json"),
        ("connectedness", "-n", "2", "--json", "--out", "f.json"),
        ("corrigendum", "--json", "--out", "f.json"),
        ("falsify", "-n", "2", "--budget", "1", "--json", "--out", "f.json"),
    ],
)
def test_bad_input_exits_one_without_traceback(capsys, monkeypatch, tmp_path, tmp_path_factory,
                                               corr, argv):
    # POOL names a valid family file, kept out of the working directory
    pool = tmp_path_factory.mktemp("pool") / "family.json"
    pool.write_text(jsonio.dumps_canonical(jsonio.family_to_obj(corr[1:4])))
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *(str(pool) if a == "POOL" else a for a in argv))
    assert code == EXIT_ERROR
    assert "error:" in err and "Traceback" not in err
    assert out == "" and list(tmp_path.iterdir()) == []  # nothing written


@pytest.mark.parametrize(
    "argv",
    [
        ("check-ufg", "--input", "MISSING/family.json"),
        ("posets", "-n", "2", "--out", "MISSING/f.json"),
    ],
    ids=["input", "out"],
)
def test_a_missing_path_exits_one_with_the_os_error(capsys, tmp_path, argv):
    missing = str(tmp_path / "missing")
    code, out, err = run(capsys, *(a.replace("MISSING", missing) for a in argv))
    assert code == EXIT_ERROR and out == ""
    assert err.startswith("error: [Errno 2] ") and err.count("\n") == 1


def test_out_of_memory_exits_one_without_traceback(capsys, monkeypatch):
    # a run too large for the address space ends in an error line
    def exhaust(_args):
        raise MemoryError

    monkeypatch.setattr(cli, "cmd_enumerate", exhaust)
    code, out, err = run(capsys, "enumerate", "-n", "4", "--max-size", "3", "--json")
    assert code == EXIT_ERROR
    assert out == "" and err == "error: out of memory\n"


def test_out_of_memory_while_serializing_leaves_no_file(capsys, monkeypatch, tmp_path):
    # the JSON is built before --out opens its file
    def exhaust(_catalog):
        raise MemoryError

    monkeypatch.setattr(jsonio, "catalog_to_obj", exhaust)
    path = tmp_path / "f.json"
    code, _, err = run(capsys, "enumerate", "-n", "2", "--out", str(path))
    assert code == EXIT_ERROR and err == "error: out of memory\n"
    assert not path.exists()


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


@pytest.mark.parametrize(
    "family, message",
    [
        ({"elements": ["a", "b"], "posets": [[["a", "b"]], []], "note": 1},
         ": unexpected key 'note'"),
        ({"elements": ["a", "a"], "posets": [[]]}, ".elements: label 'a' appears twice"),
        ({"elements": ["a", "b"], "posets": [[], [["a", "a"]]]},
         ".posets[1]: pair (a,a) is reflexive"),
    ],
    ids=["extra-key", "duplicate-label", "reflexive-pair"],
)
def test_a_family_file_error_names_the_file_and_the_entry(capsys, tmp_path, family, message):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(family))
    for command in ("check-ufg", "closure", "enumerate"):
        assert run(capsys, command, "--input", str(path)) == (
            EXIT_ERROR, "", f"error: {path}{message}\n")


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


def test_json_output_is_the_stdlib_bytes(capsys, corr, tmp_path):
    # the writer's text must be what json.dumps writes for the parsed value
    _, p1, p2, p3, q = corr
    yes, no = tmp_path / "yes.json", tmp_path / "no.json"
    yes.write_text(jsonio.dumps_canonical(jsonio.family_to_obj([p1, p2, p3])))
    no.write_text(jsonio.dumps_canonical(jsonio.family_to_obj([p1, p2, p3, q])))
    cases = [
        (("posets", "-n", "3"), EXIT_OK),
        (("closure", "--input", yes, "--materialize"), EXIT_OK),
        (("check-ufg", "--input", yes), EXIT_OK),
        (("check-ufg", "--input", no), EXIT_NOT_UFG),
        (("enumerate", "--verify", "-n", "3", "--max-size", "4"), EXIT_OK),
        (("connectedness", "-n", "3"), EXIT_OK),
        (("corrigendum",), EXIT_OK),
        (("falsify", "-n", "3", "--budget", "10", "--seed", "3"), EXIT_OK),
    ]
    for argv, want in cases:
        code, out, _ = run(capsys, *map(str, argv), "--json")
        assert code == want, argv
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n", argv


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
