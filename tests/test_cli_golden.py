"""Golden records of the command line: exit code and a digest of each stream.

For every argv in ``CASES``, ``tests/data/cli_golden.json`` holds the exit
status of an in-process ``cli.run`` call and the sha256 and byte length of
its stdout and of its stderr.  A change meant to keep the CLI's output
byte-identical must pass this file unchanged.  The cases cover every
subcommand of ``REGISTRY`` in json and text output on A1, A2, B2, G2 and B3,
E6 ``rs info`` and ``linkage test``, and domain (exit 1) and usage (exit 2)
errors.  Usage errors print argparse's usage block, whose wrapping follows
the terminal width, so every call runs with ``COLUMNS=80``.

The test imports ``steinberg`` from wherever Python finds it, so it also
checks an installed package when run from outside the checkout.  To record
a new set of cases, run ``python tests/test_cli_golden.py`` on the code
whose output is to be pinned; it rewrites the data file.
"""

import hashlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from steinberg.cli import REGISTRY, run

DATA = Path(__file__).resolve().parent / "data" / "cli_golden.json"

_A2_CHAR = ('{"weights":[{"w":[1,0],"mult":1},{"w":[-1,1],"mult":1},'
            '{"w":[0,-1],"mult":1}]}')
_B2_CHAR = ('{"weights":[{"w":[0,1],"mult":1},{"w":[1,-1],"mult":1},'
            '{"w":[-1,1],"mult":1},{"w":[0,-1],"mult":1}]}')
_A2_CLASS = '{"terms":[{"w":[1,1],"coeff":2},{"w":[0,0],"coeff":-1},{"w":[3,0],"coeff":1}]}'
_B2_CLASS = '{"terms":[{"w":[2,1],"coeff":1},{"w":[0,2],"coeff":3},{"w":[1,0],"coeff":-2}]}'
_G2_CLASS = '{"terms":[{"w":[1,0],"coeff":1},{"w":[0,1],"coeff":-1}]}'


def _t(series, rank, *rest):
    return ["--type", series, "--rank", str(rank), *rest]


_TEXT = ["--output", "text"]

CASES = (
    # rs info
    ["rs", "info", *_t("A", 1)],
    ["rs", "info", *_t("A", 2), *_TEXT],
    ["rs", "info", *_t("B", 2)],
    ["rs", "info", *_t("G", 2), *_TEXT],
    ["rs", "info", *_t("B", 3)],
    ["rs", "info", *_t("E", 6)],
    # char weyl
    ["char", "weyl", *_t("A", 1), "--weight", "3"],
    ["char", "weyl", *_t("A", 2), "--weight", "2,1", *_TEXT],
    ["char", "weyl", *_t("B", 2), "--weight", "3,2"],
    ["char", "weyl", *_t("G", 2), "--weight", "1,1", *_TEXT],
    ["char", "weyl", *_t("G", 2), "--p", "5"],
    ["char", "weyl", *_t("B", 3), "--weight", "1,0,1"],
    ["char", "weyl", *_t("A", 2), "--p", "3", "--r", "2", "--lattice", "adj", *_TEXT],
    # char tensor
    ["char", "tensor", *_t("A", 2), "--weight", "1,0", "--weight", "0,1"],
    ["char", "tensor", *_t("B", 2), "--char", _B2_CHAR, "--weight", "1,1", *_TEXT],
    ["char", "tensor", *_t("G", 2), "--class", _G2_CLASS, "--weight", "0,1"],
    ["char", "tensor", *_t("B", 3), "--weight", "1,0,0", "--weight", "0,0,1", *_TEXT],
    # char twist
    ["char", "twist", *_t("A", 1), "--weight", "2", "--p", "3", "--r", "2"],
    ["char", "twist", *_t("A", 2), "--char", _A2_CHAR, "--p", "5", *_TEXT],
    ["char", "twist", *_t("B", 3), "--weight", "0,1,0", "--p", "2"],
    # char euler
    ["char", "euler", *_t("A", 2), "--weight=-3,1"],
    ["char", "euler", *_t("G", 2), "--weight=-1,0", *_TEXT],
    ["char", "euler", *_t("B", 2), "--weight=2,-4"],
    # char contract
    ["char", "contract", *_t("A", 2), "--weight", "5,5", "--p", "3"],
    ["char", "contract", *_t("G", 2), "--weight", "4,4", "--p", "5", *_TEXT],
    # class decompose
    ["class", "decompose", *_t("A", 2), "--char", _A2_CHAR],
    ["class", "decompose", *_t("B", 2), "--weight", "2,3", "--method", "peeling", *_TEXT],
    ["class", "decompose", *_t("G", 2), "--weight", "3,1"],
    ["class", "decompose", *_t("B", 3), "--weight", "1,1,1", *_TEXT],
    # class tensor-delta
    ["class", "tensor-delta", *_t("A", 2), "--weight", "1,1", "--char", _A2_CHAR],
    ["class", "tensor-delta", *_t("B", 2), "--weight", "0,2", "--char", _B2_CHAR, *_TEXT],
    # class st-forward
    ["class", "st-forward", *_t("A", 2), "--p", "3", "--class", _A2_CLASS],
    ["class", "st-forward", *_t("B", 2), "--p", "5", "--r", "2", "--class", _B2_CLASS, *_TEXT],
    ["class", "st-forward", *_t("G", 2), "--p", "7", "--r", "0", "--class", _G2_CLASS],
    # class st-inverse
    ["class", "st-inverse", *_t("A", 2), "--p", "3",
     "--class", '{"terms":[{"w":[5,5],"coeff":2},{"w":[2,4],"coeff":1},{"w":[11,2],"coeff":-1}]}'],
    ["class", "st-inverse", *_t("G", 2), "--p", "5", *_TEXT,
     "--class", '{"terms":[{"w":[4,9],"coeff":3},{"w":[4,5],"coeff":1}]}'],
    # class contract
    ["class", "contract", *_t("A", 2), "--weight", "8,8", "--p", "3"],
    ["class", "contract", *_t("G", 2), "--weight", "9,4", "--p", "5", *_TEXT],
    ["class", "contract", *_t("B", 3), "--weight", "2,2,2", "--p", "3"],
    # class pr-block
    ["class", "pr-block", *_t("A", 2), "--p", "3", "--weight", "0,0", "--class", _A2_CLASS],
    ["class", "pr-block", *_t("B", 2), "--p", "5", "--weight", "2,1", "--class", _B2_CLASS,
     *_TEXT],
    # linkage test
    ["linkage", "test", *_t("A", 2), "--p", "3", "--weight", "0,0", "--weight", "1,1"],
    ["linkage", "test", *_t("G", 2), "--p", "7", "--weight", "2,3", "--weight", "10,0", *_TEXT],
    ["linkage", "test", *_t("B", 3), "--p", "5", "--weight", "1,0,2", "--weight", "3,3,3"],
    ["linkage", "test", *_t("E", 6), "--p", "5",
     "--weight", "1,0,0,0,0,1", "--weight", "0,1,0,0,1,0"],
    # linkage rep
    ["linkage", "rep", *_t("A", 2), "--p", "3", "--weight", "7,4"],
    ["linkage", "rep", *_t("G", 2), "--p", "5", "--weight=-3,8", *_TEXT],
    ["linkage", "rep", *_t("B", 3), "--p", "7", "--weight", "5,9,2"],
    # linkage blocks
    ["linkage", "blocks", *_t("A", 2), "--p", "3", "--class", _A2_CLASS],
    ["linkage", "blocks", *_t("B", 2), "--p", "5", "--class", _B2_CLASS, *_TEXT],
    # linkage special
    ["linkage", "special", *_t("A", 2), "--p", "3", "--weight", "2,2"],
    ["linkage", "special", *_t("G", 2), "--p", "5", "--weight=-1,4", *_TEXT],
    ["linkage", "special", *_t("B", 3), "--p", "3", "--weight", "2,2,2"],
    # simple a1
    ["simple", "a1", "--p", "3", "--weight", "11"],
    ["simple", "a1", "--p", "5", *_TEXT, "--char",
     '{"weights":[{"w":[4],"mult":1},{"w":[2],"mult":1},{"w":[0],"mult":2},'
     '{"w":[-2],"mult":1},{"w":[-4],"mult":1}]}'],
    # domain and configuration errors: exit 1
    ["char", "weyl", *_t("A", 2), "--weight=-1,0"],
    ["rs", "info", *_t("G", 3)],
    ["class", "decompose", *_t("A", 2), "--char", '{"weights":[{"w":[1,0],"mult":1}]}'],
    ["simple", "a1", *_t("A", 2), "--p", "3", "--weight", "1"],
    ["class", "st-forward", *_t("A", 1), "--p", "2", "--lattice", "adj",
     "--class", '{"terms":[{"w":[2],"coeff":1}]}'],
    ["char", "tensor", *_t("A", 2), "--char", '{"weights":[{"w":[1],"mult":1}]}'],
    # usage errors: exit 2
    [],
    ["char", "weyl", *_t("A", 2), "--weight", "1.5,0"],
    ["char", "weyl", *_t("A", 2)],
    ["class", "st-forward", *_t("A", 2), "--class", _A2_CLASS],
    ["linkage", "test", *_t("B", 2), "--p", "4", "--weight", "0,0", "--weight", "1,1"],
    ["char", "weyl", "--type", "A", "--rank", "x", "--weight", "1"],
)


def _digest(text: str) -> dict:
    data = text.encode("utf-8")
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def record(argv) -> dict:
    """Exit status and the digests of both streams of one ``cli.run`` call."""
    saved = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        out, err = io.StringIO(), io.StringIO()
        code = run(list(argv), out=out, err=err)
    finally:
        if saved is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = saved
    return {"argv": list(argv), "exit": code,
            "stdout": _digest(out.getvalue()), "stderr": _digest(err.getvalue())}


def _golden() -> dict:
    return {json.dumps(r["argv"]): r for r in json.loads(DATA.read_text(encoding="utf-8"))}


def test_golden_file_records_exactly_the_cases():
    assert list(_golden()) == [json.dumps(argv) for argv in CASES]


def test_cases_cover_every_subcommand_and_exit_status():
    golden = _golden().values()
    covered = {tuple(r["argv"][:2]) for r in golden if r["exit"] == 0}
    assert covered == {(s.group, s.verb) for s in REGISTRY}
    assert {r["exit"] for r in golden} == {0, 1, 2}


@pytest.mark.parametrize("argv", CASES, ids=lambda argv: " ".join(argv[:2]) or "(none)")
def test_cli_output_matches_its_golden_record(argv):
    assert record(argv) == _golden()[json.dumps(argv)]


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    lines = ",\n".join(json.dumps(record(argv)) for argv in CASES)
    DATA.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
    sys.exit(0)
