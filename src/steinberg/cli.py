"""Command-line surface.

Every computation the library performs is reachable through exactly one
subcommand; the registry at the bottom records which operations each
subcommand exposes.  Output is canonical JSON by default (stable ordering,
byte-identical across runs) or aligned text with --output text.  Exit codes:
0 success, 1 domain or configuration error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from collections import namedtuple

from . import grothendieck as gk
from . import linkage as lk
from .characters import (
    Character,
    _strict_int,
    contract_weights,
    euler_characteristic,
    frobenius_twist,
    steinberg_character,
    tensor,
    weyl_character,
)
from .errors import ConfigurationError, DomainError
from .rootdata import (
    Lattice,
    build_root_system,
    require_in_lattice,
    require_rank,
    require_steinberg_configuration,
)
from .simple_a1 import decompose_in_simple_basis_a1, simple_character_a1
from .weyl import weyl_group_order

PROG = "steinberg"


_INTEGER = re.compile("-?[0-9]+")


def _parse_int(text: str) -> int:
    """An optional minus sign and ASCII digits: no blanks, underscores or other digits."""
    if not _INTEGER.fullmatch(text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _parse_weight(text: str):
    try:
        if text.lstrip().startswith("["):
            data = json.loads(text)
            if not isinstance(data, list):
                raise ValueError("expected a JSON array")
            return tuple(_strict_int(x) for x in data)
        return tuple(_parse_int(part) for part in text.split(","))
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise argparse.ArgumentTypeError(f"malformed weight {text!r}: {exc}") from exc


def _parse_prime(text: str) -> int:
    try:
        p = _parse_int(text)
    except argparse.ArgumentTypeError as exc:
        raise argparse.ArgumentTypeError(f"p must be an integer, got {text!r}") from exc
    if p < 2 or any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
        raise argparse.ArgumentTypeError(f"p must be a prime >= 2, got {p}")
    return p


def _parse_json(text: str) -> dict:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise argparse.ArgumentTypeError(f"malformed JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise argparse.ArgumentTypeError("expected a JSON object")
    return data


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog=PROG, description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--type", dest="series", choices=list("ABCDEFG"), help="series A-G")
    common.add_argument("--rank", type=_parse_int, help="rank of the root system")
    common.add_argument("--lattice", choices=["sc", "adj"], default="sc",
                        help="weight lattice: simply connected (sc) or adjoint (adj)")
    common.add_argument("--output", choices=["json", "text"], default="json")
    common.add_argument("--p", type=_parse_prime, help="the characteristic, a prime")

    groups = parser.add_subparsers(dest="group", required=True)
    verb_actions = {}

    def sub(group, name, **kwargs):
        if group not in verb_actions:
            g = groups.add_parser(group)
            verb_actions[group] = g.add_subparsers(dest="verb", required=True)
        return verb_actions[group].add_parser(name, parents=[common], **kwargs)

    sub("rs", "info", help="root system and Weyl group summary")

    s = sub("char", "weyl", help="Weyl-module character")
    s.add_argument("--weight", type=_parse_weight, help="dominant highest weight")
    s.add_argument("--r", type=_parse_int, default=1,
                   help="with --p and no --weight: degree of the Steinberg character")

    s = sub("char", "tensor", help="product of characters")
    s.add_argument("--weight", type=_parse_weight, action="append", default=[],
                   help="factor given as a Weyl-module highest weight (repeatable)")
    s.add_argument("--char", type=_parse_json, action="append", default=[],
                   help="factor given as character JSON (repeatable)")
    s.add_argument("--class", dest="kclass", type=_parse_json, action="append", default=[],
                   help="factor given as class JSON, converted to its character (repeatable)")

    s = sub("char", "twist", help="Frobenius twist of a character")
    s.add_argument("--weight", type=_parse_weight)
    s.add_argument("--char", type=_parse_json)
    s.add_argument("--r", type=_parse_int, default=1, help="twist degree")

    s = sub("char", "euler", help="Euler characteristic of a line bundle weight")
    s.add_argument("--weight", type=_parse_weight, required=True)

    s = sub("char", "contract", help="weight contraction of a character by p")
    s.add_argument("--weight", type=_parse_weight)
    s.add_argument("--char", type=_parse_json)

    s = sub("class", "decompose", help="expand a character in the Weyl-module basis")
    s.add_argument("--weight", type=_parse_weight)
    s.add_argument("--char", type=_parse_json)
    s.add_argument("--method", choices=["alternating", "peeling"], default="alternating")

    s = sub("class", "tensor-delta", help="Weyl-basis expansion of Delta(mu) tensor chi")
    s.add_argument("--weight", type=_parse_weight, required=True, help="the weight mu")
    s.add_argument("--char", type=_parse_json, required=True)

    s = sub("class", "st-forward", help="Steinberg equivalence on classes")
    s.add_argument("--class", dest="kclass", type=_parse_json, required=True)
    s.add_argument("--r", type=_parse_int, default=1, help="iterate the equivalence r times")

    s = sub("class", "st-inverse", help="inverse Steinberg equivalence on classes")
    s.add_argument("--class", dest="kclass", type=_parse_json, required=True)

    s = sub("class", "contract", help="class of the Frobenius contraction")
    s.add_argument("--weight", type=_parse_weight)
    s.add_argument("--char", type=_parse_json)

    s = sub("class", "pr-block", help="project a class onto one linkage block")
    s.add_argument("--class", dest="kclass", type=_parse_json, required=True)
    s.add_argument("--weight", type=_parse_weight, required=True, help="block representative")

    s = sub("linkage", "test", help="affine-orbit test for two weights")
    s.add_argument("--weight", type=_parse_weight, action="append", default=[],
                   help="give exactly twice")

    s = sub("linkage", "rep", help="closed-alcove normal form of a weight")
    s.add_argument("--weight", type=_parse_weight, required=True)

    s = sub("linkage", "blocks", help="block decomposition of a class")
    s.add_argument("--class", dest="kclass", type=_parse_json, required=True)

    s = sub("linkage", "special", help="special-point test for a weight")
    s.add_argument("--weight", type=_parse_weight, required=True)

    s = sub("simple", "a1", help="rank-one simple characters and decompositions")
    s.add_argument("--weight", type=_parse_weight, help="dominant weight: emit its simple character")
    s.add_argument("--char", type=_parse_json, help="character JSON: decompose in the simple basis")

    return parser


Context = namedtuple("Context", "rs lattice p output")


def _context(parser, args, need_p: bool) -> Context:
    series, rank = args.series, args.rank
    if args.group == "simple":
        series = series or "A"
        rank = 1 if rank is None else rank
    if series is None or rank is None:
        parser.error(f"{args.group} {args.verb} requires --type and --rank")
    rs = build_root_system(series, rank)
    lattice = Lattice(args.lattice)
    if need_p and args.p is None:
        parser.error(f"{args.group} {args.verb} requires --p")
    if args.p is not None and lattice is Lattice.ADJOINT:
        require_steinberg_configuration(rs, args.p, 1, lattice)
    return Context(rs=rs, lattice=lattice, p=args.p, output=args.output)


def _check_weight(ctx: Context, weight):
    weight = require_rank(ctx.rs, weight)
    require_in_lattice(ctx.rs, weight, ctx.lattice)
    return weight


def _load_char(ctx: Context, data: dict) -> Character:
    try:
        chi = Character.from_dict(data, rank=ctx.rs.rank)
    except ValueError as exc:
        raise DomainError(str(exc)) from exc
    for w in chi.support():
        _check_weight(ctx, w)
    return chi


def _load_class(ctx: Context, data: dict) -> gk.KElement:
    try:
        el = gk.KElement.from_dict(data, rank=ctx.rs.rank)
    except ValueError as exc:
        raise DomainError(str(exc)) from exc
    for w in el.support():
        _check_weight(ctx, w)
    return el


def _one_char_input(parser, ctx, args) -> Character:
    given = [x for x in (args.weight, args.char) if x is not None]
    if len(given) != 1:
        parser.error(f"{args.group} {args.verb} needs exactly one of --weight or --char")
    if args.weight is not None:
        return weyl_character(ctx.rs, _check_weight(ctx, args.weight))
    return _load_char(ctx, args.char)


# Handlers return a JSON-ready payload plus a text rendering.


def _render_char(chi: Character):
    return chi.to_dict(), [f"{m} · e^{_fmt(w)}" for w, m in chi.sorted_items()] or ["0"]


def _render_class(el: gk.KElement, basis: str = "delta"):
    sym = "Δ" if basis == "delta" else "L"
    return (
        el.to_dict(basis=basis),
        [f"{c} · {sym}{_fmt(w)}" for w, c in el.sorted_items()] or ["0"],
    )


def _fmt(weight) -> str:
    return "[" + ",".join(str(x) for x in weight) + "]"


def _cmd_rs_info(parser, ctx, args):
    rs = ctx.rs
    payload = {
        "series": rs.series,
        "rank": rs.rank,
        "cartan": [list(row) for row in rs.cartan],
        "num_positive_roots": rs.num_positive_roots,
        "weyl_order": weyl_group_order(rs),
        "longest_length": rs.num_positive_roots,
        "rho": list(rs.rho),
    }
    text = [f"{k}: {json.dumps(v, separators=(',', ':'))}" for k, v in payload.items()]
    return payload, text


def _cmd_char_weyl(parser, ctx, args):
    if args.weight is None and ctx.p is None:
        parser.error("char weyl needs --weight, or --p (with optional --r) for the Steinberg character")
    if args.weight is not None:
        chi = weyl_character(ctx.rs, _check_weight(ctx, args.weight))
    else:
        chi = steinberg_character(ctx.rs, ctx.p, args.r, ctx.lattice)
    return _render_char(chi)


def _cmd_char_tensor(parser, ctx, args):
    factors = [weyl_character(ctx.rs, _check_weight(ctx, w)) for w in args.weight]
    factors += [_load_char(ctx, d) for d in args.char]
    factors += [gk.class_to_char(ctx.rs, _load_class(ctx, d)) for d in args.kclass]
    if not factors:
        parser.error("char tensor needs at least one --weight, --char, or --class")
    out = Character({(0,) * ctx.rs.rank: 1})
    for f in factors:
        out = tensor(out, f)
    return _render_char(out)


def _cmd_char_twist(parser, ctx, args):
    chi = _one_char_input(parser, ctx, args)
    return _render_char(frobenius_twist(chi, args.r, ctx.p))


def _cmd_char_euler(parser, ctx, args):
    _check_weight(ctx, args.weight)
    return _render_char(euler_characteristic(ctx.rs, args.weight))


def _cmd_char_contract(parser, ctx, args):
    chi = _one_char_input(parser, ctx, args)
    return _render_char(contract_weights(chi, ctx.p))


def _cmd_class_decompose(parser, ctx, args):
    chi = _one_char_input(parser, ctx, args)
    if args.method == "peeling":
        el = gk.char_to_class_by_peeling(ctx.rs, chi)
    else:
        el = gk.char_to_class(ctx.rs, chi)
    return _render_class(el)


def _cmd_class_tensor_delta(parser, ctx, args):
    chi = _load_char(ctx, args.char)
    mu = _check_weight(ctx, args.weight)
    return _render_class(gk.tensor_delta_expansion(ctx.rs, mu, chi))


def _cmd_class_st_forward(parser, ctx, args):
    el = _load_class(ctx, args.kclass)
    return _render_class(gk.steinberg_forward(ctx.rs, el, ctx.p, args.r, ctx.lattice))


def _cmd_class_st_inverse(parser, ctx, args):
    el = _load_class(ctx, args.kclass)
    return _render_class(gk.steinberg_inverse(ctx.rs, el, ctx.p, ctx.lattice))


def _cmd_class_contract(parser, ctx, args):
    chi = _one_char_input(parser, ctx, args)
    return _render_class(gk.frobenius_contract_class(ctx.rs, chi, ctx.p))


def _cmd_class_pr_block(parser, ctx, args):
    el = _load_class(ctx, args.kclass)
    nu = _check_weight(ctx, args.weight)
    return _render_class(gk.pr_block(ctx.rs, el, nu, ctx.p, ctx.lattice))


def _cmd_linkage_test(parser, ctx, args):
    if len(args.weight) != 2:
        parser.error("linkage test needs --weight given exactly twice")
    lam, mu = (_check_weight(ctx, w) for w in args.weight)
    result = lk.linked(ctx.rs, lam, mu, ctx.p, ctx.lattice)
    payload = {"weights": [list(lam), list(mu)], "p": ctx.p, "linked": result}
    return payload, [f"linked: {str(result).lower()}"]


def _cmd_linkage_rep(parser, ctx, args):
    lam = _check_weight(ctx, args.weight)
    rep = lk.fundamental_alcove_rep(ctx.rs, lam, ctx.p)
    pos = lk.alcove_position(ctx.rs, rep, ctx.p)
    payload = {
        "weight": list(lam),
        "rep": {
            "weight": list(pos.weight),
            "wall_pairings": list(pos.wall_pairings),
            "status": pos.status,
        },
    }
    text = [
        f"rep: {_fmt(pos.weight)}",
        f"wall_pairings: {_fmt(pos.wall_pairings)}",
        f"status: {pos.status}",
    ]
    return payload, text


def _cmd_linkage_blocks(parser, ctx, args):
    el = _load_class(ctx, args.kclass)
    blocks = gk.block_decompose(ctx.rs, el, ctx.p, ctx.lattice)
    payload = {
        "blocks": [
            {"rep": list(rep), "component": comp.to_dict()} for rep, comp in blocks
        ]
    }
    text = []
    for rep, comp in blocks:
        text.append(f"block {_fmt(rep)}:")
        text.extend(f"  {c} · Δ{_fmt(w)}" for w, c in comp.sorted_items())
    return payload, text or ["0"]


def _cmd_linkage_special(parser, ctx, args):
    lam = _check_weight(ctx, args.weight)
    pos = lk.alcove_position(ctx.rs, lam, ctx.p)
    special = lk.is_special_point(ctx.rs, lam, ctx.p)
    level = None
    if all(x >= 0 for x in lam):
        level = lk.st_level(ctx.rs, lam, ctx.p, ctx.lattice)
    payload = {
        "weight": list(lam),
        "special": special,
        "pairings": list(pos.wall_pairings),
        "st_level": level,
    }
    text = [f"special: {str(special).lower()}", f"pairings: {_fmt(pos.wall_pairings)}"]
    if level is not None:
        text.append(f"st_level: {level}")
    return payload, text


def _cmd_simple_a1(parser, ctx, args):
    if (ctx.rs.series, ctx.rs.rank) != ("A", 1):
        raise DomainError(f"simple a1 only supports type A rank 1, got {ctx.rs!r}")
    given = [x for x in (args.weight, args.char) if x is not None]
    if len(given) != 1:
        parser.error("simple a1 needs exactly one of --weight or --char")
    if args.weight is not None:
        return _render_char(simple_character_a1(ctx.rs, args.weight, ctx.p))
    chi = _load_char(ctx, args.char)
    coeffs = decompose_in_simple_basis_a1(ctx.rs, chi, ctx.p)
    payload = {
        "basis": "simple",
        "terms": [{"w": list(w), "coeff": c} for w, c in sorted(coeffs.items())],
    }
    text = [f"{c} · L{_fmt(w)}" for w, c in sorted(coeffs.items())] or ["0"]
    return payload, text


Subcommand = namedtuple("Subcommand", "group verb handler needs_p operations")


REGISTRY = (
    Subcommand("rs", "info", _cmd_rs_info, False, ("build_root_system", "weyl_group_order")),
    Subcommand("char", "weyl", _cmd_char_weyl, False, ("weyl_character", "steinberg_character")),
    Subcommand("char", "tensor", _cmd_char_tensor, False, ("tensor", "class_to_char")),
    Subcommand("char", "twist", _cmd_char_twist, True, ("frobenius_twist",)),
    Subcommand("char", "euler", _cmd_char_euler, False, ("euler_characteristic",)),
    Subcommand("char", "contract", _cmd_char_contract, True, ("contract_weights",)),
    Subcommand("class", "decompose", _cmd_class_decompose, False,
               ("char_to_class", "char_to_class_by_peeling")),
    Subcommand("class", "tensor-delta", _cmd_class_tensor_delta, False,
               ("tensor_delta_expansion",)),
    Subcommand("class", "st-forward", _cmd_class_st_forward, True, ("steinberg_forward",)),
    Subcommand("class", "st-inverse", _cmd_class_st_inverse, True, ("steinberg_inverse",)),
    Subcommand("class", "contract", _cmd_class_contract, True,
               ("frobenius_contract_class", "steinberg_delta_multiplicity")),
    Subcommand("class", "pr-block", _cmd_class_pr_block, True, ("pr_block",)),
    Subcommand("linkage", "test", _cmd_linkage_test, True, ("linked",)),
    Subcommand("linkage", "rep", _cmd_linkage_rep, True,
               ("fundamental_alcove_rep", "alcove_position")),
    Subcommand("linkage", "blocks", _cmd_linkage_blocks, True, ("block_decompose",)),
    Subcommand("linkage", "special", _cmd_linkage_special, True,
               ("is_special_point", "st_level")),
    Subcommand("simple", "a1", _cmd_simple_a1, True,
               ("simple_character_a1", "decompose_in_simple_basis_a1")),
)

_DISPATCH = {(s.group, s.verb): s for s in REGISTRY}


def run(argv, out=None, err=None) -> int:
    """Parse and execute one invocation; returns the exit status.

    Results go to ``out`` and error lines to ``err`` (by default the
    process's streams).  argparse writes help to ``sys.stdout`` and usage
    errors to ``sys.stderr``, so those two are bound to ``out`` and ``err``
    for the duration of the call.
    """
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        parser = build_parser()
        try:
            args = parser.parse_args(argv)
            sub = _DISPATCH[(args.group, args.verb)]
            ctx = _context(parser, args, sub.needs_p)
            payload, text = sub.handler(parser, ctx, args)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
        except (DomainError, ConfigurationError) as exc:
            print(f"{PROG}: error: {exc}", file=err)
            return 1
        if getattr(args, "output", "json") == "text":
            for line in text:
                print(line, file=out)
        else:
            print(json.dumps(payload, separators=(",", ":")), file=out)
        return 0
    finally:
        sys.stdout, sys.stderr = saved


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()  # a closed pipe must raise here, not at exit
    except BrokenPipeError:
        # The reader went away: point stdout at devnull so the flush at
        # interpreter exit has nothing left to fail on, and report failure.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
