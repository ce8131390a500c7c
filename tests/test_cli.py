"""Command-line surface: dispatch, schemas, determinism, exit codes."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import steinberg
from steinberg.cli import REGISTRY, run

SRC = Path(__file__).resolve().parent.parent / "src"


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def python(*args):
    """Run a fresh interpreter on the checkout's library."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=120)


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
    ):
        code, out, err = invoke(argv)
        assert code == 2, argv


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
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen(
        [sys.executable, "-m", "steinberg.cli", "char", "tensor", "--type", "G", "--rank", "2",
         "--weight", "3,0", "--weight", "0,3"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
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
