"""Seeded invocations for the cli-cold workload.

A round holds 101 invocations of the ``steinberg`` command: three times 33
on A2 and G2 (root-system summaries, Weyl-basis decompositions, tensor
products, linkage tests, 5 domain errors that exit 1 and 4 usage errors that
exit 2) plus two on E6 (``rs info`` and ``linkage test``).  The seed picks
the weights, primes and order.
Each invocation is ``(label, argv, check)`` and ``check(code, stdout,
stderr)`` compares the outcome with a reference the benchmark computes
itself: the closed-form Weyl group order, the Weyl dimension formula, the
construction of the inputs, or equality of closed-alcove normal forms.
"""

from __future__ import annotations

import json
import math
import random

import workloads

TYPES = (("A", 2), ("G", 2))
PRIMES = (2, 3, 5, 7)

# A known defect: the CLI truncates a fractional weight and exits 0.  A
# usage error (exit 2) is the correct outcome.
KNOWN_DEFECT = ("char weyl rejects a fractional weight",
                ["char", "weyl", "--type", "A", "--rank", "2", "--weight", "[1.5,0]"], 2)


def weyl_group_order(series, rank) -> int:
    """Closed-form order of the Weyl group, for the types used here."""
    if series == "A":
        return math.factorial(rank + 1)
    return {("E", 6): 51840, ("G", 2): 12}[(series, rank)]


def positive_root_count(series, rank) -> int:
    """Closed-form number of positive roots (the length of the longest element)."""
    if series == "A":
        return rank * (rank + 1) // 2
    return {("E", 6): 36, ("G", 2): 6}[(series, rank)]


def round_calls(S, seed):
    """The round of invocations for a seed; ``S`` serves references only."""
    rng = random.Random(f"cli-cold/{seed}")
    built = {key: S.build_root_system(*key) for key in TYPES + (workloads.E6,)}
    calls = []
    for _ in range(3):
        for key in TYPES:
            rs = built[key]
            calls.append(_rs_info(key))
            calls += [_decompose(rng, key, method)
                      for method in ("alternating", "peeling", "alternating")]
            calls += [_tensor(rng, rs) for _ in range(3)]
            calls += [_linkage(S, rng, rs, rng.choice(PRIMES), i % 2 == 0, 4) for i in range(5)]
        calls += _errors(rng)
    calls += [_rs_info(workloads.E6), _linkage(S, rng, built[workloads.E6], 7, False, 3)]
    rng.shuffle(calls)
    return calls


def _type_args(key):
    return ["--type", key[0], "--rank", str(key[1])]


def _w(weight):
    return "[" + ",".join(str(x) for x in weight) + "]"


def _json_out(code, out, err):
    if code != 0 or err:
        return None
    return json.loads(out)


def _rs_info(key):
    def check(code, out, err):
        data = _json_out(code, out, err)
        n = positive_root_count(*key)
        return data is not None and (
            data["weyl_order"] == weyl_group_order(*key)
            and data["num_positive_roots"] == n and data["longest_length"] == n)

    return f"rs info {key[0]}{key[1]}", ["rs", "info", *_type_args(key)], check


def _decompose(rng, key, method):
    top = 2 if key[0] == "G" else 4
    lam = [rng.randint(0, top) for _ in range(key[1])]
    argv = ["class", "decompose", *_type_args(key), "--weight", _w(lam), "--method", method]

    def check(code, out, err):
        # A Weyl character is the class of its own Weyl module.
        data = _json_out(code, out, err)
        return data == {"basis": "delta", "terms": [{"w": lam, "coeff": 1}]}

    return f"class decompose {key[0]}{key[1]} {lam} {method}", argv, check


def _tensor(rng, rs):
    top = 2 if rs.series == "G" else 3
    a, b = ([rng.randint(0, top) for _ in range(rs.rank)] for _ in range(2))
    argv = ["char", "tensor", *_type_args((rs.series, rs.rank)),
            "--weight", _w(a), "--weight", _w(b)]

    def check(code, out, err):
        data = _json_out(code, out, err)
        if data is None:
            return False
        mults = {tuple(e["w"]): e["mult"] for e in data["weights"]}
        top_weight = tuple(x + y for x, y in zip(a, b))
        return (sum(mults.values()) == workloads.weyl_dim(rs, a) * workloads.weyl_dim(rs, b)
                and mults.get(top_weight) == 1)

    return f"char tensor {rs.series}{rs.rank} {a}x{b}", argv, check


def _linkage(S, rng, rs, p, by_construction, top):
    lam = tuple(rng.randint(0, top) for _ in range(rs.rank))
    if by_construction:
        mu = workloads.dot_image(rng, rs, lam, p)
    else:
        mu = tuple(rng.randint(0, top) for _ in range(rs.rank))
    argv = ["linkage", "test", *_type_args((rs.series, rs.rank)), "--p", str(p),
            f"--weight={_w(lam)}", f"--weight={_w(mu)}"]

    def check(code, out, err):
        data = _json_out(code, out, err)
        if data is None:
            return False
        if by_construction:
            expected = True
        else:
            expected = S.fundamental_alcove_rep(rs, lam, p) == S.fundamental_alcove_rep(rs, mu, p)
        return data == {"weights": [list(lam), list(mu)], "p": p, "linked": expected}

    return f"linkage test {rs.series}{rs.rank} p={p} {lam}~{mu}", argv, check


def _exit_check(expected):
    def check(code, out, err):
        return code == expected and not out and "Traceback" not in err and err.startswith(
            "steinberg: error:" if expected == 1 else "usage: steinberg")

    return check


def _errors(rng):
    """Five domain errors (exit 1) and four usage errors (exit 2)."""
    a2, g2 = _type_args(("A", 2)), _type_args(("G", 2))
    neg = -rng.randint(1, 4)
    domain = [
        ["char", "weyl", *a2, f"--weight={neg},0"],
        ["char", "weyl", *g2, "--weight", "1,2,3"],
        ["rs", "info", "--type", "E", "--rank", "5"],
        ["linkage", "test", *a2, "--lattice", "adj", "--p", "3",
         "--weight", "1,0", "--weight", "0,0"],
        ["class", "decompose", *g2, "--char", '{"weights":[{"w":[1,0],"mult":1}]}'],
    ]
    usage = [
        ["linkage", "test", *g2, "--weight", "0,0", "--weight", "1,1"],
        ["char", "twist", *a2, "--p", str(rng.choice((4, 6, 8, 9))), "--weight", "1,1"],
        ["char", "weyl", *g2, "--weight", "1,x"],
        ["rs", "summary", *a2],
    ]
    return ([(f"exit 1: {' '.join(a)}", a, _exit_check(1)) for a in domain]
            + [(f"exit 2: {' '.join(a)}", a, _exit_check(2)) for a in usage])
