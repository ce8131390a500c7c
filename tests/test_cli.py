"""Command-line surface: dispatch, schemas, determinism, exit codes."""

import argparse
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import steinberg
from steinberg import cli
from steinberg.cli import REGISTRY, run

SRC = Path(__file__).resolve().parent.parent / "src"


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def child_env():
    """The environment of a fresh interpreter on the checkout's library.

    Without PYTHONUNBUFFERED its stdout is block-buffered, as in a user's
    call, so an exit that skipped the flush would lose output.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONUNBUFFERED", None)
    return env


def python(*args):
    """Run a fresh interpreter on the checkout's library."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=child_env(), timeout=120)


def invoke_json(argv):
    code, out, err = invoke(argv)
    assert code == 0, err
    return json.loads(out)


def test_rs_info():
    data = invoke_json(["rs", "info", "--type", "G", "--rank", "2"])
    assert data["weyl_order"] == 12
    assert data["num_positive_roots"] == 6
    assert data["longest_length"] == 6
    assert data["cartan"] == [[2, -3], [-1, 2]]


def test_char_weyl():
    data = invoke_json(["char", "weyl", "--type", "A", "--rank", "1", "--weight", "2"])
    assert data == {"weights": [{"w": [-2], "mult": 1}, {"w": [0], "mult": 1}, {"w": [2], "mult": 1}]}


def test_char_weyl_steinberg_form():
    data = invoke_json(["char", "weyl", "--type", "A", "--rank", "1", "--p", "3", "--r", "2"])
    assert len(data["weights"]) == 9


def test_class_st_forward_dot_scaling():
    data = invoke_json(
        ["class", "st-forward", "--type", "A", "--rank", "1", "--p", "3",
         "--class", '{"terms":[{"w":[1],"coeff":1}]}']
    )
    assert data == {"basis": "delta", "terms": [{"w": [5], "coeff": 1}]}


def test_char_tensor_and_class_input():
    data = invoke_json(
        ["char", "tensor", "--type", "A", "--rank", "1", "--weight", "1", "--weight", "1"]
    )
    assert data["weights"] == [{"w": [-2], "mult": 1}, {"w": [0], "mult": 2}, {"w": [2], "mult": 1}]
    # A class factor is converted through its character.
    data2 = invoke_json(
        ["char", "tensor", "--type", "A", "--rank", "1",
         "--class", '{"terms":[{"w":[2],"coeff":1},{"w":[0],"coeff":1}]}']
    )
    assert data2["weights"] == [{"w": [-2], "mult": 1}, {"w": [0], "mult": 2}, {"w": [2], "mult": 1}]


def test_char_twist_euler_contract():
    twisted = invoke_json(
        ["char", "twist", "--type", "A", "--rank", "1", "--p", "3", "--weight", "1"]
    )
    assert twisted["weights"] == [{"w": [-3], "mult": 1}, {"w": [3], "mult": 1}]
    euler = invoke_json(
        ["char", "euler", "--type", "A", "--rank", "1", "--weight=-2"]
    )
    assert euler["weights"] == [{"w": [0], "mult": -1}]
    assert invoke_json(["char", "euler", "--type", "A", "--rank", "1", "--weight=-1"]) == {
        "weights": []
    }
    contracted = invoke_json(
        ["char", "contract", "--type", "A", "--rank", "1", "--p", "3", "--weight", "5"]
    )
    assert contracted["weights"] == [{"w": [-1], "mult": 1}, {"w": [1], "mult": 1}]


def test_class_decompose_both_methods():
    char_json = json.dumps(
        {"weights": [{"w": [2], "mult": 1}, {"w": [0], "mult": 2}, {"w": [-2], "mult": 1}]}
    )
    for method in ("alternating", "peeling"):
        data = invoke_json(
            ["class", "decompose", "--type", "A", "--rank", "1",
             "--char", char_json, "--method", method]
        )
        assert data == {"basis": "delta", "terms": [{"w": [0], "coeff": 1}, {"w": [2], "coeff": 1}]}


def test_class_tensor_delta():
    data = invoke_json(
        ["class", "tensor-delta", "--type", "A", "--rank", "1", "--weight", "1",
         "--char", '{"weights":[{"w":[1],"mult":1},{"w":[-1],"mult":1}]}']
    )
    assert data["terms"] == [{"w": [0], "coeff": 1}, {"w": [2], "coeff": 1}]


def test_class_st_inverse_and_contract():
    data = invoke_json(
        ["class", "st-inverse", "--type", "A", "--rank", "1", "--p", "3",
         "--class", '{"terms":[{"w":[5],"coeff":1},{"w":[4],"coeff":2}]}']
    )
    assert data["terms"] == [{"w": [1], "coeff": 1}]
    contract = invoke_json(
        ["class", "contract", "--type", "A", "--rank", "1", "--p", "3", "--weight", "5"]
    )
    assert contract["terms"] == [{"w": [1], "coeff": 1}]


def test_class_pr_block_adjoint():
    data = invoke_json(
        ["class", "pr-block", "--type", "A", "--rank", "1", "--p", "3",
         "--lattice", "adj", "--weight", "2",
         "--class", '{"terms":[{"w":[8],"coeff":1},{"w":[4],"coeff":1}]}']
    )
    assert data["terms"] == [{"w": [8], "coeff": 1}]


def test_linkage_commands():
    data = invoke_json(
        ["linkage", "test", "--type", "A", "--rank", "1", "--p", "3",
         "--weight", "0", "--weight", "4"]
    )
    assert data["linked"] is True
    rep = invoke_json(
        ["linkage", "rep", "--type", "A", "--rank", "1", "--p", "3", "--weight", "4"]
    )
    assert rep == {
        "weight": [4],
        "rep": {"weight": [0], "wall_pairings": [1], "status": "interior"},
    }
    blocks = invoke_json(
        ["linkage", "blocks", "--type", "A", "--rank", "1", "--p", "3", "--lattice", "adj",
         "--class", '{"terms":[{"w":[8],"coeff":1},{"w":[4],"coeff":1},{"w":[0],"coeff":2}]}']
    )
    assert blocks == {
        "blocks": [
            {"rep": [0], "component": {"basis": "delta", "terms": [{"w": [0], "coeff": 2}, {"w": [4], "coeff": 1}]}},
            {"rep": [2], "component": {"basis": "delta", "terms": [{"w": [8], "coeff": 1}]}},
        ]
    }
    special = invoke_json(
        ["linkage", "special", "--type", "A", "--rank", "1", "--p", "3", "--weight", "2"]
    )
    assert special["special"] is True and special["st_level"] == 1
    nonspecial = invoke_json(
        ["linkage", "special", "--type", "A", "--rank", "1", "--p", "3", "--weight=-3"]
    )
    assert nonspecial["special"] is False and nonspecial["st_level"] is None


def test_simple_a1_commands():
    data = invoke_json(["simple", "a1", "--p", "3", "--weight", "7"])
    assert [e["w"] for e in data["weights"]] == [[-7], [-5], [-1], [1], [5], [7]]
    decomp = invoke_json(
        ["simple", "a1", "--p", "3",
         "--char", '{"weights":[{"w":[3],"mult":1},{"w":[1],"mult":1},{"w":[-1],"mult":1},{"w":[-3],"mult":1}]}']
    )
    assert decomp == {"basis": "simple", "terms": [{"w": [1], "coeff": 1}, {"w": [3], "coeff": 1}]}


def test_text_output_format():
    code, out, err = invoke(
        ["char", "weyl", "--type", "A", "--rank", "1", "--weight", "2", "--output", "text"]
    )
    assert code == 0
    assert out == "1 · e^[-2]\n1 · e^[0]\n1 · e^[2]\n"
    code, out, _ = invoke(
        ["class", "decompose", "--type", "A", "--rank", "1", "--output", "text",
         "--char", '{"weights":[{"w":[1],"mult":1},{"w":[-1],"mult":1}]}']
    )
    assert code == 0 and out == "1 · Δ[1]\n"
    code, out, _ = invoke(
        ["linkage", "blocks", "--type", "A", "--rank", "1", "--p", "3", "--lattice", "adj",
         "--output", "text",
         "--class", '{"terms":[{"w":[8],"coeff":1},{"w":[0],"coeff":2}]}']
    )
    assert code == 0
    assert out == "block [0]:\n  2 · Δ[0]\nblock [2]:\n  1 · Δ[8]\n"
    code, out, _ = invoke(["rs", "info", "--type", "A", "--rank", "1", "--output", "text"])
    assert code == 0 and out.splitlines()[0] == 'series: "A"'
    code, out, _ = invoke(
        ["simple", "a1", "--p", "3", "--output", "text",
         "--char", '{"weights":[{"w":[3],"mult":1},{"w":[1],"mult":1},{"w":[-1],"mult":1},{"w":[-3],"mult":1}]}']
    )
    assert code == 0 and out == "1 · L[1]\n1 · L[3]\n"


def test_char_tensor_mixed_inputs():
    data = invoke_json(
        ["char", "tensor", "--type", "A", "--rank", "1", "--weight", "1",
         "--char", '{"weights":[{"w":[1],"mult":1},{"w":[-1],"mult":1}]}']
    )
    assert data["weights"] == [{"w": [-2], "mult": 1}, {"w": [0], "mult": 2}, {"w": [2], "mult": 1}]


def test_byte_identical_reruns():
    argv = ["class", "decompose", "--type", "B", "--rank", "2",
            "--char", json.dumps(steinberg.weyl_character(
                steinberg.build_root_system("B", 2), (1, 1)).to_dict())]
    first = invoke(argv)
    second = invoke(argv)
    assert first == second and first[0] == 0


def test_usage_errors_exit_2():
    for argv in (
        ["bogus"],
        ["char", "weyl", "--type", "A", "--rank", "1", "--weight", "1,x"],
        ["char", "weyl", "--type", "A", "--rank", "1"],  # no weight and no p
        ["char", "weyl", "--weight", "1"],  # missing type/rank
        ["linkage", "test", "--type", "A", "--rank", "1", "--p", "3", "--weight", "0"],
        ["class", "st-forward", "--type", "A", "--rank", "1", "--p", "4",
         "--class", '{"terms":[]}'],  # p not prime
        ["char", "twist", "--type", "A", "--rank", "1", "--p", "3"],  # no input
        ["simple", "a1", "--p", "3"],
        ["class", "decompose", "--type", "A", "--rank", "1", "--char", "not json"],
        # p at or above 2^32: 402 digits overflowed a float square root, and
        # 19 digits ran trial division for minutes.
        ["char", "twist", "--type", "A", "--rank", "1", "--p", "9" * 402, "--weight", "1"],
        ["char", "twist", "--type", "A", "--rank", "1", "--p", "1000000000000000003",
         "--weight", "1"],
    ):
        code, out, err = invoke(argv)
        assert code == 2, argv
        assert "Traceback" not in err, argv


def test_payloads_naming_a_weight_twice_exit_1():
    # Summed, the first would print {"weights":[]} and the second one class
    # with coefficient 5, both with exit 0.
    for argv, weight in (
        (["char", "tensor", "--type", "A", "--rank", "1",
          "--char", '{"weights":[{"w":[1],"mult":1},{"w":[1],"mult":-1}]}'], [1]),
        (["class", "st-forward", "--type", "A", "--rank", "2", "--p", "3",
          "--class", '{"terms":[{"w":[1,0],"coeff":2},{"w":[1,0],"coeff":3}]}'], [1, 0]),
        (["class", "decompose", "--type", "B", "--rank", "2",
          "--char", '{"weights":[{"w":[0,0],"mult":1},{"w":[0,0],"mult":1}]}'], [0, 0]),
    ):
        code, out, err = invoke(argv)
        assert (code, out) == (1, ""), argv
        assert err == f"steinberg: error: weight {weight} appears twice in one " \
            f"{'character' if '--char' in argv else 'class'} payload\n", err


def test_json_payloads_must_be_objects():
    for argv, option in (
        (["char", "tensor", "--type", "A", "--rank", "1", "--char", "[1]"], "char"),
        (["class", "st-forward", "--type", "A", "--rank", "1", "--p", "3", "--class", "3"],
         "class"),
    ):
        code, out, err = invoke(argv)
        assert (code, out) == (2, ""), argv
        assert err.splitlines()[-1] == \
            f"steinberg {argv[0]} {argv[1]}: error: argument --{option}: expected a JSON object"


def test_json_weight_entries_must_be_integers(capsys):
    # Usage errors reach the caller's err stream, and nothing leaks to the process's.
    for rank, text in ((2, "[1.5,0]"), (1, "[1e0]"), (1, "[true]"), (2, "1_0,0"), (2, " 1,0")):
        code, out, err = invoke(["char", "weyl", "--type", "A", "--rank", str(rank), "--weight", text])
        assert capsys.readouterr() == ("", "")
        assert code == 2 and not out, text
        assert "Traceback" not in err, text
        assert err.strip().splitlines()[-1].startswith(
            f"steinberg char weyl: error: argument --weight: malformed weight '{text}'"
        ), err


def test_integer_options_must_be_canonical(capsys):
    # Only an optional minus sign and ASCII digits: no underscores, blanks,
    # plus signs or non-ASCII digits.
    base = ["char", "weyl", "--type", "A"]
    for argv, option in (
        (base + ["--rank", "2", "--weight", "1,0", "--p", "1_1"], "--p"),
        (base + ["--rank", "2", "--weight", "1,0", "--p", " 3"], "--p"),
        (base + ["--rank", "1_0", "--weight", "1,0"], "--rank"),
        (base + ["--rank", "+2", "--weight", "1,0"], "--rank"),
        (base + ["--rank", "1", "--p", "3", "--r", "\u0661"], "--r"),
        (base + ["--rank", "2", "--weight", "\u0661,0"], "--weight"),
        (base + ["--rank", "2", "--weight", "+1,0"], "--weight"),
    ):
        code, out, err = invoke(argv)
        assert capsys.readouterr() == ("", "")
        assert code == 2 and not out, argv
        assert "Traceback" not in err, argv
        assert err.strip().splitlines()[-1].startswith(
            f"steinberg char weyl: error: argument {option}: "
        ), err
    euler = ["char", "euler", "--type", "A", "--rank", "2"]
    assert invoke_json(euler + ["--weight=-3,0"]) == invoke_json(euler + ["--weight", "[-3,0]"])
    assert invoke_json(euler + ["--weight=-3,0"])["weights"]


def test_domain_errors_exit_1():
    for argv in (
        ["char", "weyl", "--type", "A", "--rank", "1", "--weight=-1"],
        ["char", "weyl", "--type", "A", "--rank", "1", "--weight", "1,2"],  # wrong rank
        ["rs", "info", "--type", "A", "--rank", "7"],  # rank cap
        ["char", "weyl", "--type", "A", "--rank", "1", "--lattice", "adj",
         "--p", "2", "--weight", "2"],  # Steinberg weight leaves the lattice
        ["char", "weyl", "--type", "A", "--rank", "1", "--lattice", "adj",
         "--p", "3", "--weight", "1"],  # weight outside the adjoint lattice
        ["class", "decompose", "--type", "A", "--rank", "2",
         "--char", '{"weights":[{"w":[1,0],"mult":1}]}'],  # not Weyl-invariant
        ["class", "decompose", "--type", "A", "--rank", "2",
         "--char", '{"weights":[{"w":[1],"mult":1}]}'],  # wrong rank inside payload
        ["simple", "a1", "--type", "B", "--rank", "2", "--p", "3", "--weight", "1,0"],
        ["class", "st-forward", "--type", "A", "--rank", "1", "--p", "3",
         "--class", '{"terms":{}}'],  # terms must be a list
        ["class", "decompose", "--type", "A", "--rank", "1",
         "--char", '{"weights":""}'],  # weights must be a list
    ):
        code, out, err = invoke(argv)
        assert code == 1, argv
        assert err.strip() and "Traceback" not in err, argv


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python prints ints of any length")
def test_r_past_the_printable_digits_exits_1_before_p_to_the_r_is_formed():
    # p^r beyond the digits Python prints used to end in a traceback from
    # printing; r = 10^12 would not finish forming p^r.  Each verb with --r
    # and a printed result refuses such an r, with nothing on stdout.
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("int printing has no digit limit here")
    twist = ["char", "twist", "--type", "A", "--rank", "2", "--weight", "1,1", "--p", "3"]
    forward = ["class", "st-forward", "--type", "A", "--rank", "2", "--p", "3",
               "--class", '{"terms":[{"w":[0,0],"coeff":1}]}']
    # The largest r with 3^r below 10^limit: class st-forward prints
    # (3^r - 1) * rho, whose coordinates have exactly limit digits.
    top = int(limit / math.log10(3)) + 1
    while 3**top >= 10**limit:
        top -= 1
    for argv in (twist + ["--r", "99999"], twist + ["--r", str(10**12)],
                 forward + ["--r", str(top + 1)], forward + ["--r", "99999"]):
        code, out, err = invoke(argv)
        assert code == 1 and out == "", argv
        assert err.startswith("steinberg: error: p^r = 3^") and "Traceback" not in err, argv
    payload = invoke_json(forward + ["--r", str(top)])
    assert [len(str(x)) for x in payload["terms"][0]["w"]] == [limit, limit]
    assert invoke_json(twist + ["--r", "9"])["weights"]
    # char twist prints p^r * x, so A1's weight 1 prints +-3^r up to the same
    # top, and the trivial character prints [0,0] at any r.
    a1 = ["char", "twist", "--type", "A", "--rank", "1", "--weight", "1", "--p", "3"]
    payload = invoke_json(a1 + ["--r", str(top)])
    assert sorted(len(str(abs(x))) for t in payload["weights"] for x in t["w"]) == [limit, limit]
    code, out, err = invoke(a1 + ["--r", str(top + 1)])
    assert code == 1 and out == "" and err.startswith("steinberg: error: p^r = 3^"), err
    trivial = invoke_json(twist[:6] + ["--weight", "0,0", "--p", "3", "--r", "99999"])
    assert trivial["weights"] == [{"w": [0, 0], "mult": 1}]


def test_a_character_too_large_for_one_buffer_exits_1():
    # (2^30 - 1) * rho on A2 needs about 1.8 * 10^19 slots in Weyl's
    # formula, more bytes than one buffer can hold: it used to end in an
    # OverflowError traceback from packing the numerator.
    code, out, err = invoke(["char", "weyl", "--type", "A", "--rank", "2", "--p", "2",
                             "--r", "30"])
    assert code == 1 and out == ""
    assert err.startswith("steinberg: error: Weyl's formula at [1073741823, 1073741823] "
                          "needs ") and err.count("\n") == 1, err


def test_running_out_of_memory_exits_1(monkeypatch):
    # r = 12 or 20 under a 2 GB address-space limit used to end in a
    # MemoryError traceback; here Weyl's formula raises it at once.
    def exhausted(rs, highest):
        raise MemoryError

    monkeypatch.setattr(steinberg.characters, "_weyl_formula", exhausted)
    steinberg.weyl_character.cache_clear()
    code, out, err = invoke(["char", "weyl", "--type", "A", "--rank", "2", "--p", "2",
                             "--r", "12"])
    assert (code, out, err) == (1, "", "steinberg: error: out of memory\n")


def test_non_invariant_char_input_exits_1_on_every_checking_route():
    # --char input is always scanned, however it is combined.
    bad = '{"weights":[{"w":[1,0],"mult":1}]}'
    message = ("steinberg: error: character is not Weyl-invariant: multiplicity 1 at [1, 0] "
               "but 0 at its simple reflection [-1, 1]\n")
    a2 = ["--type", "A", "--rank", "2"]
    for argv in (
        ["class", "decompose", *a2, "--char", bad],
        ["class", "decompose", *a2, "--method", "peeling", "--char", bad],
        ["class", "decompose", *a2, "--method", "peeling", "--char", bad, "--output", "text"],
        ["class", "tensor-delta", *a2, "--weight", "1,1", "--char", bad],
        ["class", "contract", *a2, "--p", "3", "--char", bad],
    ):
        assert invoke(argv) == (1, "", message), argv
    a1_bad = '{"weights":[{"w":[1],"mult":1}]}'
    assert invoke(["simple", "a1", "--type", "A", "--rank", "1", "--p", "3", "--char", a1_bad]) == (
        1, "", "steinberg: error: character is not Weyl-invariant: multiplicity 1 at [1] "
        "but 0 at its simple reflection [-1]\n")


def test_simple_a1_checks_weight_against_the_lattice():
    # --weight is checked against --lattice as in char weyl: with the
    # adjoint lattice, 1 is refused and 2, in the root lattice, is answered.
    message = "steinberg: error: weight [1] is not in the root lattice\n"
    adj = ["--lattice", "adj", "--p", "3", "--weight"]
    assert invoke(["char", "weyl", "--type", "A", "--rank", "1", *adj, "1"]) == (1, "", message)
    assert invoke(["simple", "a1", *adj, "1"]) == (1, "", message)
    code, out, err = invoke(["simple", "a1", *adj, "2"])
    assert (code, err) == (0, "")
    assert out == invoke(["simple", "a1", "--p", "3", "--weight", "2"])[1]


def test_registry_bijection_and_coverage():
    keys = [(s.group, s.verb) for s in REGISTRY]
    assert len(keys) == len(set(keys)) == 17
    expected = {
        ("rs", "info"), ("char", "weyl"), ("char", "tensor"), ("char", "twist"),
        ("char", "euler"), ("char", "contract"), ("class", "decompose"),
        ("class", "tensor-delta"), ("class", "st-forward"), ("class", "st-inverse"),
        ("class", "contract"), ("class", "pr-block"), ("linkage", "test"),
        ("linkage", "rep"), ("linkage", "blocks"), ("linkage", "special"),
        ("simple", "a1"),
    }
    assert set(keys) == expected
    handlers = [s.handler for s in REGISTRY]
    assert len(handlers) == len(set(handlers))
    # Every public compute operation is exposed by exactly one subcommand.
    ops = [op for s in REGISTRY for op in s.operations]
    assert len(ops) == len(set(ops))
    universe = {
        "build_root_system", "weyl_group_order",
        "weyl_character", "steinberg_character", "tensor", "class_to_char",
        "frobenius_twist", "euler_characteristic", "contract_weights",
        "char_to_class", "char_to_class_by_peeling", "tensor_delta_expansion",
        "steinberg_forward", "steinberg_inverse", "frobenius_contract_class",
        "steinberg_delta_multiplicity", "pr_block", "linked",
        "fundamental_alcove_rep", "alcove_position", "block_decompose",
        "is_special_point", "st_level", "simple_character_a1",
        "decompose_in_simple_basis_a1",
    }
    assert set(ops) == universe
    for name in universe:
        assert callable(getattr(steinberg, name)), name


def test_run_sends_argparse_output_to_its_streams(capsys):
    streams = sys.stdout, sys.stderr
    code, out, err = invoke(["char", "weyl", "--type", "A", "--rank", "2", "--weight=[1.5]"])
    assert code == 2 and not out and err.startswith("usage: steinberg char weyl")
    assert "malformed weight '[1.5]'" in err.splitlines()[-1]
    code, out, err = invoke(["rs", "--help"])
    assert code == 0 and out.startswith("usage: steinberg rs") and not err
    code, out, err = invoke(["rs", "info", "--type", "A", "--rank", "0"])
    assert code == 1 and not out and err.startswith("steinberg: error:")
    assert (sys.stdout, sys.stderr) == streams
    assert capsys.readouterr() == ("", "")


def test_process_streams_keep_their_roles():
    proc = python("-m", "steinberg.cli", "char", "weyl", "--type", "A", "--rank", "2",
                  "--weight=[1.5]")
    assert proc.returncode == 2 and not proc.stdout
    assert proc.stderr.startswith("usage: steinberg char weyl") and "Traceback" not in proc.stderr
    proc = python("-m", "steinberg.cli", "rs", "--help")
    assert proc.returncode == 0 and proc.stdout.startswith("usage: steinberg rs")
    assert not proc.stderr


def test_closed_stdout_pipe_exits_1_without_traceback():
    # As in `steinberg char tensor ... | head -c 10`: the reader is gone
    # before the result is written, so the write fails with EPIPE.
    proc = subprocess.Popen(
        [sys.executable, "-m", "steinberg.cli", "char", "tensor", "--type", "G", "--rank", "2",
         "--weight", "3,0", "--weight", "0,3"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env())
    proc.stdout.close()
    try:
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    finally:
        proc.stderr.close()
    assert code == 1
    assert b"Traceback" not in err and b"BrokenPipeError" not in err


def test_cli_import_leaves_heavy_stdlib_modules_unloaded():
    # dataclasses pulls in inspect, ast, dis and tokenize, and fractions
    # pulls in decimal and numbers; one CLI call should pay for none of them.
    proc = python("-S", "-c", "import steinberg.cli, sys; print(*sorted(sys.modules))")
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "steinberg.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "fractions", "decimal", "ast"}


# A result larger than a pipe's buffer, so the process must keep writing
# while its reader drains the pipe.
LARGE_RESULT = ["char", "tensor", "--type", "G", "--rank", "2", "--weight", "20,0",
                "--weight", "0,20"]


def test_closed_stdout_reports_no_traceback_when_the_reader_leaves_mid_write():
    # The write blocks once the pipe is full and fails when the reader has
    # gone; main() must not try to write the rest again at exit.
    proc = subprocess.Popen(
        [sys.executable, "-m", "steinberg.cli", *LARGE_RESULT],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env())
    try:
        assert proc.stdout.read(10)
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    finally:
        proc.stderr.close()
    assert code == 1
    assert b"Traceback" not in err and b"BrokenPipeError" not in err


def test_hard_exit_delivers_a_large_result_whole():
    proc = python("-m", "steinberg.cli", *LARGE_RESULT)
    assert proc.returncode == 0 and not proc.stderr
    assert len(proc.stdout) > 1 << 17
    assert proc.stdout == invoke(LARGE_RESULT)[1]
    assert json.loads(proc.stdout)["weights"]


def test_hard_exit_delivers_a_domain_error_line_whole():
    argv = ["rs", "info", "--type", "A", "--rank", "7"]
    proc = python("-m", "steinberg.cli", *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == invoke(argv)
    assert proc.returncode == 1 and proc.stderr.startswith("steinberg: error: ")


def test_run_builds_the_parser_once(monkeypatch):
    calls = []
    build = cli.build_parser

    def counting():
        calls.append(None)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting)
    assert invoke(["linkage", "test", "--type", "A", "--rank", "2", "--p", "5",
                   "--weight", "1,1", "--weight", "3,0"])[0] == 0
    assert len(calls) == 1


def test_main_flushes_and_exits_hard(monkeypatch, capsys):
    class HardExit(Exception):
        pass

    def hard_exit(code):
        raise HardExit(code)

    monkeypatch.setattr(os, "_exit", hard_exit)
    for argv, code in ((["rs", "info", "--type", "A", "--rank", "2"], 0),
                       (["rs", "info", "--type", "A", "--rank", "7"], 1),
                       (["rs", "bogus"], 2)):
        monkeypatch.setattr(sys, "argv", ["steinberg", *argv])
        with pytest.raises(HardExit) as exc:
            cli.main()
        assert exc.value.args == (code,)
        assert tuple(capsys.readouterr()) == invoke(argv)[1:]


def _subparsers(parser):
    """A parser's subcommand parsers by name (argparse keeps them on a private action)."""
    action, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def eager_parser():
    """The CLI's parser tree from the same registry, every argument declared up front."""
    top = argparse.ArgumentParser(prog=cli.PROG, description=cli.DESCRIPTION)
    groups = top.add_subparsers(dest="group", required=True)
    verbs = {}
    for sub in REGISTRY:
        if sub.group not in verbs:
            verbs[sub.group] = groups.add_parser(sub.group).add_subparsers(
                dest="verb", required=True)
        verb = verbs[sub.group].add_parser(sub.verb, help=sub.help)
        for flags, kwargs in cli.COMMON_OPTIONS + sub.options:
            verb.add_argument(*flags, **kwargs)
    return top


# Usage errors at every level, and help after them.
USAGE_ERRORS = [
    [], ["bogus"], ["-x"], ["--"], ["--", "rs", "info"], ["--type", "A", "rs", "info"],
    ["char"], ["char", "nope"], ["char", "--foo"], ["char", "--"], ["char", "--foo", "-h"],
    ["char", "--foo", "weyl", "--type", "A", "--rank", "2", "--weight", "1,0"],
    ["char", "weyl", "--foo", "--type", "A", "--rank", "2", "--weight", "1,0"],
    ["char", "weyl", "--type", "A", "--rank", "2", "--weight", "1,0", "extra"],
    ["char", "weyl", "--type", "A", "--rank", "2", "--", "--weight", "1,0"],
    ["char", "weyl", "--type", "A", "--rank", "2", "--weight", "[1.5,0]"],
    ["char", "weyl", "--type", "H", "--rank", "2"], ["char", "weyl", "--weight", "1"],
    ["char", "tensor", "--type", "A", "--rank", "2", "--c", "{}"],
    ["char", "twist", "--type", "A", "--rank", "1", "--p", "4", "--weight", "1"],
    ["class", "decompose", "--type", "A", "--rank", "1", "--char", "not json"],
    ["class", "st-forward", "--type", "A", "--rank", "1", "--p", "3"],
    ["linkage", "test", "--type", "A", "--rank", "1", "--p", "3", "--weight", "0"],
    ["linkage", "rep", "--he"], ["linkage", "rep", "-h", "--foo"],
    ["simple", "a1", "--p", "3"], ["simple", "--help"], ["rs", "info", "--rank", "x"],
]


def test_lazy_parsers_match_an_eager_tree(monkeypatch):
    lazy, eager = cli.build_parser(), eager_parser()
    assert lazy.format_help() == eager.format_help()
    lazy_groups, eager_groups = _subparsers(lazy), _subparsers(eager)
    assert list(lazy_groups) == list(eager_groups) == list(
        dict.fromkeys(sub.group for sub in REGISTRY))
    helps = 1
    for name, group in lazy_groups.items():
        assert group.format_usage() == eager_groups[name].format_usage(), name
        assert group.format_help() == eager_groups[name].format_help(), name
        lazy_verbs, eager_verbs = _subparsers(group), _subparsers(eager_groups[name])
        assert list(lazy_verbs) == list(eager_verbs)
        for verb, parser in lazy_verbs.items():
            assert parser.format_usage() == eager_verbs[verb].format_usage(), verb
            assert parser.format_help() == eager_verbs[verb].format_help(), verb
            helps += 1
        helps += 1
    assert helps == 1 + 5 + 17
    lazy_results = [invoke(argv) for argv in USAGE_ERRORS]
    monkeypatch.setattr(cli, "build_parser", eager_parser)
    assert [invoke(argv) for argv in USAGE_ERRORS] == lazy_results
    assert {code for code, _, _ in lazy_results} == {0, 2}


def test_only_the_invoked_subcommand_is_declared():
    parser = cli.build_parser()
    parser.parse_args(["linkage", "test", "--type", "A", "--rank", "2", "--p", "5",
                       "--weight", "1,1", "--weight", "3,0"])
    groups = _subparsers(parser)
    for name, group in groups.items():
        if name != "linkage":
            assert [a.dest for a in group._actions] == ["help"], name
    declared = {verb for verb, parser in _subparsers(groups["linkage"]).items()
                if len(parser._actions) > 1}
    assert declared == {"test"}


def test_cli_never_raises_and_keeps_stdout_clean_on_failure(monkeypatch):
    # Random argv built from the registry's words, abbreviated and unknown
    # options and assorted values, in any order: every call ends in 0, 1 or
    # 2 without a traceback, prints nothing to stdout unless it succeeds or
    # shows help, and never ends the process.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def no_exit(code):
        raise AssertionError(f"run() called os._exit({code})")

    monkeypatch.setattr(os, "_exit", no_exit)
    # Integers stay in [-3, 3] and primes at most 3, so every call is cheap:
    # the largest is G2's Steinberg character at p = 3, r = 3.
    small = st.integers(-3, 3)
    weights = st.one_of(st.lists(small, min_size=1, max_size=3),
                        st.integers(1, 2).map(lambda rank: [0] * rank))
    chars = st.builds(lambda w, m: json.dumps({"weights": [{"w": w, "mult": m}]}), weights, small)
    classes = st.builds(lambda w, c: json.dumps({"terms": [{"w": w, "coeff": c}]}),
                        weights, small)
    junk = st.one_of(small.map(str), st.sampled_from([
        "A", "G", "sc", "text", "1.5", "-0.5", "1e3", "nan", "", "x", "[1.5,0]", "[true]",
        "{", "[", "null", "{}", '{"weights":[]}', '{"terms":[]}', '{"terms":{}}', "1,,0"]))
    typed = {
        "--type": st.sampled_from("AG"), "--rank": st.sampled_from("12"),
        "--p": st.sampled_from("23"), "--r": small.map(str),
        "--lattice": st.sampled_from(["sc", "adj"]),
        "--output": st.sampled_from(["json", "text"]),
        "--method": st.sampled_from(["alternating", "peeling"]),
        "--weight": st.one_of(weights.map(lambda w: ",".join(map(str, w))),
                              weights.map(json.dumps)),
        "--char": chars, "--class": classes,
    }
    words = sorted({s.group for s in REGISTRY} | {s.verb for s in REGISTRY} | {"bogus"})
    known = sorted(typed)
    odd_options = ["-h", "--help", "--he", "--ty", "--ra", "--we", "--c", "--out", "--foo",
                   "-x", "--"]
    stray = st.one_of(
        st.sampled_from(words + odd_options).map(lambda token: [token]),
        junk.map(lambda value: [value]),
        st.tuples(st.sampled_from(known + odd_options), junk).map(list),
    )
    context = st.sampled_from([["--type", "A", "--rank", "1"], ["--type", "A", "--rank", "2"],
                               ["--type", "G", "--rank", "2"]])

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.data())
    def check(data):
        # Mostly a subcommand with a root system and some of its options,
        # each with a value of its type; then stray words, odd options and
        # junk values, all in any order.
        draw = data.draw
        sub = draw(st.sampled_from(REGISTRY))
        own = [flags[0] for flags, _ in cli.COMMON_OPTIONS + sub.options]
        chunks = [draw(context)] + [[option, draw(typed[option])]
                                    for option in own if draw(st.booleans())]
        chunks = draw(st.permutations(chunks + draw(st.lists(stray, max_size=1))))
        head = [sub.group, sub.verb]
        if draw(st.booleans()):
            head = draw(st.sampled_from([[sub.group], [], ["bogus", sub.verb], head[::-1]]))
        argv = head + [token for chunk in chunks for token in chunk]
        code, out, err = invoke(argv)
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err, argv
        assert code == 0 or not out, argv

    check()
