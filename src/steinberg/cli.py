"""Command-line surface; ``DESCRIPTION`` is its help text.

``REGISTRY`` is the one table of subcommands, read by parsing and dispatch
alike.  Each call is a fresh process and pays only for the subcommand it
runs: a group declares its verb parsers, and a verb its options, only when
argparse selects it or prints its help.  ``main`` flushes both streams and
ends the process with ``os._exit``, skipping interpreter teardown;
in-process callers use ``run``, which returns the exit status instead.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from collections import namedtuple
from functools import partial, reduce

from . import grothendieck as gk
from . import linkage as lk
from .characters import (
    Character,
    contract_weights,
    euler_characteristic,
    frobenius_twist,
    steinberg_character,
    tensor,
    weyl_character,
)
from .errors import ConfigurationError, DomainError
from .rootdata import (
    _MAX_P,
    Lattice,
    _is_prime,
    _strict_int,
    build_root_system,
    require_in_lattice,
    require_rank,
    require_steinberg_configuration,
    weyl_group_order,
)
from .simple_a1 import decompose_in_simple_basis_a1, simple_character_a1

PROG = "steinberg"
DESCRIPTION = """Command-line surface.  Every computation the library performs is
reachable through exactly one subcommand; the registry at the bottom records which
operations each subcommand exposes.  Output is canonical JSON by default (stable
ordering, byte-identical across runs) or aligned text with --output text.  Exit
codes: 0 success, 1 domain or configuration error, 2 usage error."""


_INTEGER = re.compile("-?[0-9]+")


def _parse_int(text: str) -> int:
    """An optional minus sign and ASCII digits: no blanks, underscores or other digits."""
    if not _INTEGER.fullmatch(text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _parse_weight(text: str):
    try:
        if text.lstrip().startswith("["):
            return tuple(_strict_int(x) for x in json.loads(text))
        return tuple(_parse_int(part) for part in text.split(","))
    except (ValueError, argparse.ArgumentTypeError, RecursionError) as exc:
        raise argparse.ArgumentTypeError(f"malformed weight {text!r}: {exc}") from exc


def _parse_prime(text: str) -> int:
    try:
        p = _parse_int(text)
    except argparse.ArgumentTypeError as exc:
        raise argparse.ArgumentTypeError(f"p must be an integer, got {text!r}") from exc
    if p >= _MAX_P:
        raise argparse.ArgumentTypeError(f"p must be below 2^32, got {p}")
    if not _is_prime(p):
        raise argparse.ArgumentTypeError(f"p must be a prime >= 2, got {p}")
    return p


def _parse_json(text: str) -> dict:
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise argparse.ArgumentTypeError(f"malformed JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise argparse.ArgumentTypeError("expected a JSON object")
    return data


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


def _load(ctx: Context, cls, data: dict):
    """A ``Character`` or ``KElement`` from its JSON payload, each weight checked."""
    try:
        value = cls.from_dict(data, rank=ctx.rs.rank)
    except ValueError as exc:
        raise DomainError(str(exc)) from exc
    for w in value.support():
        _check_weight(ctx, w)
    return value


def _require_one_input(parser, args) -> None:
    if (args.weight is None) == (args.char is None):
        parser.error(f"{args.group} {args.verb} needs exactly one of --weight or --char")


def _one_char_input(parser, ctx, args) -> Character:
    _require_one_input(parser, args)
    if args.weight is not None:
        return weyl_character(ctx.rs, _check_weight(ctx, args.weight))
    return _load(ctx, Character, args.char)


# Handlers return a JSON-ready payload plus a text rendering.


def _render_char(chi: Character):
    return chi.to_dict(), [f"{m} · e^{_fmt(w)}" for w, m in chi.sorted_items()] or ["0"]


def _render_class(el: gk.KElement):
    return el.to_dict(), [f"{c} · Δ{_fmt(w)}" for w, c in el.sorted_items()] or ["0"]


def _fmt(weight) -> str:
    return "[" + ",".join(str(x) for x in weight) + "]"


def _require_printable(p: int, r: int, weights, shift: int = 0) -> None:
    """Refuse an r for which p^r makes coordinates too long to print.

    Each coordinate x of the input ``weights`` prints as
    p^r * (x + shift) - shift: ``char twist`` dilates (shift 0) and
    ``class st-forward`` dot-multiplies (shift 1).  Python prints an int of
    at most ``sys.get_int_max_str_digits()`` digits (0: no limit).  As
    p^r >= 2^(r * (p.bit_length() - 1)) and log2(10) < 10/3, p^r is refused
    unformed when 3 * r * (p.bit_length() - 1) > 10 * (limit + 2).
    """
    limit = getattr(sys, "get_int_max_str_digits", int)()
    scales = {x + shift for w in weights for x in w} - {0}
    if not limit or r < 1 or not scales:
        return
    if 3 * r * (p.bit_length() - 1) <= 10 * (limit + 2):
        scale = p**r
        if max(abs(scale * c - shift) for c in scales) < 10**limit:
            return
    raise DomainError(f"p^r = {p}^{r} makes coordinates of more than {limit} digits, "
                      "too long to print")


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
    factors += [_load(ctx, Character, d) for d in args.char]
    factors += [gk.class_to_char(ctx.rs, _load(ctx, gk.KElement, d)) for d in args.kclass]
    if not factors:
        parser.error("char tensor needs at least one --weight, --char, or --class")
    return _render_char(reduce(tensor, factors))


def _cmd_char_twist(parser, ctx, args):
    chi = _one_char_input(parser, ctx, args)
    _require_printable(ctx.p, args.r, chi.support())
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
    chi = _load(ctx, Character, args.char)
    mu = _check_weight(ctx, args.weight)
    return _render_class(gk.tensor_delta_expansion(ctx.rs, mu, chi))


def _cmd_class_st_forward(parser, ctx, args):
    el = _load(ctx, gk.KElement, args.kclass)
    _require_printable(ctx.p, args.r, el.support(), shift=1)
    return _render_class(gk.steinberg_forward(ctx.rs, el, ctx.p, args.r, ctx.lattice))


def _cmd_class_st_inverse(parser, ctx, args):
    el = _load(ctx, gk.KElement, args.kclass)
    return _render_class(gk.steinberg_inverse(ctx.rs, el, ctx.p, ctx.lattice))


def _cmd_class_contract(parser, ctx, args):
    chi = _one_char_input(parser, ctx, args)
    return _render_class(gk.frobenius_contract_class(ctx.rs, chi, ctx.p))


def _cmd_class_pr_block(parser, ctx, args):
    el = _load(ctx, gk.KElement, args.kclass)
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
    el = _load(ctx, gk.KElement, args.kclass)
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
    _require_one_input(parser, args)
    if args.weight is not None:
        return _render_char(simple_character_a1(ctx.rs, _check_weight(ctx, args.weight), ctx.p))
    chi = _load(ctx, Character, args.char)
    coeffs = decompose_in_simple_basis_a1(ctx.rs, chi, ctx.p)
    payload = {
        "basis": "simple",
        "terms": [{"w": list(w), "coeff": c} for w, c in sorted(coeffs.items())],
    }
    text = [f"{c} · L{_fmt(w)}" for w, c in sorted(coeffs.items())] or ["0"]
    return payload, text


def _opt(*flags, **kwargs):
    """One ``add_argument`` call, recorded as data: (flags, keyword arguments)."""
    return flags, kwargs


_weight = partial(_opt, "--weight", type=_parse_weight)
_char = partial(_opt, "--char", type=_parse_json)
_class = partial(_opt, "--class", dest="kclass", type=_parse_json)
_r = partial(_opt, "--r", type=_parse_int, default=1)

# Options of every subcommand, declared ahead of its own.
COMMON_OPTIONS = (
    _opt("--type", dest="series", choices=list("ABCDEFG"), help="series A-G"),
    _opt("--rank", type=_parse_int, help="rank of the root system"),
    _opt("--lattice", choices=["sc", "adj"], default="sc",
         help="weight lattice: simply connected (sc) or adjoint (adj)"),
    _opt("--output", choices=["json", "text"], default="json"),
    _opt("--p", type=_parse_prime, help="the characteristic, a prime"),
)

Subcommand = namedtuple("Subcommand", "group verb help handler needs_p operations options")

REGISTRY = (
    Subcommand("rs", "info", "root system and Weyl group summary", _cmd_rs_info, False,
               ("build_root_system", "weyl_group_order"), ()),
    Subcommand("char", "weyl", "Weyl-module character", _cmd_char_weyl, False,
               ("weyl_character", "steinberg_character"),
               (_weight(help="dominant highest weight"),
                _r(help="with --p and no --weight: degree of the Steinberg character"))),
    Subcommand("char", "tensor", "product of characters", _cmd_char_tensor, False,
               ("tensor", "class_to_char"),
               (_weight(action="append", default=[],
                        help="factor given as a Weyl-module highest weight (repeatable)"),
                _char(action="append", default=[],
                      help="factor given as character JSON (repeatable)"),
                _class(action="append", default=[],
                       help="factor given as class JSON, converted to its character (repeatable)"))),
    Subcommand("char", "twist", "Frobenius twist of a character", _cmd_char_twist, True,
               ("frobenius_twist",), (_weight(), _char(), _r(help="twist degree"))),
    Subcommand("char", "euler", "Euler characteristic of a line bundle weight", _cmd_char_euler,
               False, ("euler_characteristic",), (_weight(required=True),)),
    Subcommand("char", "contract", "weight contraction of a character by p", _cmd_char_contract,
               True, ("contract_weights",), (_weight(), _char())),
    Subcommand("class", "decompose", "expand a character in the Weyl-module basis",
               _cmd_class_decompose, False, ("char_to_class", "char_to_class_by_peeling"),
               (_weight(), _char(),
                _opt("--method", choices=["alternating", "peeling"], default="alternating"))),
    Subcommand("class", "tensor-delta", "Weyl-basis expansion of Delta(mu) tensor chi",
               _cmd_class_tensor_delta, False, ("tensor_delta_expansion",),
               (_weight(required=True, help="the weight mu"), _char(required=True))),
    Subcommand("class", "st-forward", "Steinberg equivalence on classes", _cmd_class_st_forward,
               True, ("steinberg_forward",),
               (_class(required=True), _r(help="iterate the equivalence r times"))),
    Subcommand("class", "st-inverse", "inverse Steinberg equivalence on classes",
               _cmd_class_st_inverse, True, ("steinberg_inverse",), (_class(required=True),)),
    Subcommand("class", "contract", "class of the Frobenius contraction", _cmd_class_contract,
               True, ("frobenius_contract_class", "steinberg_delta_multiplicity"),
               (_weight(), _char())),
    Subcommand("class", "pr-block", "project a class onto one linkage block", _cmd_class_pr_block,
               True, ("pr_block",),
               (_class(required=True), _weight(required=True, help="block representative"))),
    Subcommand("linkage", "test", "affine-orbit test for two weights", _cmd_linkage_test, True,
               ("linked",), (_weight(action="append", default=[], help="give exactly twice"),)),
    Subcommand("linkage", "rep", "closed-alcove normal form of a weight", _cmd_linkage_rep, True,
               ("fundamental_alcove_rep", "alcove_position"), (_weight(required=True),)),
    Subcommand("linkage", "blocks", "block decomposition of a class", _cmd_linkage_blocks, True,
               ("block_decompose",), (_class(required=True),)),
    Subcommand("linkage", "special", "special-point test for a weight", _cmd_linkage_special,
               True, ("is_special_point", "st_level"), (_weight(required=True),)),
    Subcommand("simple", "a1", "rank-one simple characters and decompositions", _cmd_simple_a1,
               True, ("simple_character_a1", "decompose_in_simple_basis_a1"),
               (_weight(help="dominant weight: emit its simple character"),
                _char(help="character JSON: decompose in the simple basis"))),
)


class _LazyParser(argparse.ArgumentParser):
    """Runs ``declare(parser)`` once, before it first parses or formats usage or help.

    A usage error's message is cut to 256 characters, so an oversized
    argument that it quotes is not written back in full.
    """

    def __init__(self, *args, declare=None, **kwargs):
        super().__init__(*args, **kwargs)
        self._declare = declare

    def _declared(self):
        declare, self._declare = self._declare, None
        if declare is not None:
            declare(self)

    def parse_known_args(self, args=None, namespace=None):
        self._declared()
        return super().parse_known_args(args, namespace)

    def format_usage(self):
        self._declared()
        return super().format_usage()

    def format_help(self):
        self._declared()
        return super().format_help()

    def error(self, message):
        if len(message) > 256:
            message = message[:253] + "..."
        super().error(message)


def _declare_group(group, parser):
    verbs = parser.add_subparsers(dest="verb", required=True, parser_class=_LazyParser)
    for sub in REGISTRY:
        if sub.group == group:
            verbs.add_parser(sub.verb, help=sub.help, declare=partial(_declare_verb, sub))


def _declare_verb(sub, parser):
    for flags, kwargs in COMMON_OPTIONS + sub.options:
        parser.add_argument(*flags, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    """The top parser and one lazy parser per group of ``REGISTRY``."""
    parser = _LazyParser(prog=PROG, description=DESCRIPTION)
    groups = parser.add_subparsers(dest="group", required=True, parser_class=_LazyParser)
    for group in dict.fromkeys(sub.group for sub in REGISTRY):
        groups.add_parser(group, declare=partial(_declare_group, group))
    return parser


_DISPATCH = {(s.group, s.verb): s for s in REGISTRY}


def run(argv, out=None, err=None) -> int:
    """Parse and execute one invocation; returns the exit status.

    Results go to ``out`` and error lines to ``err`` (by default the
    process's streams).  argparse writes help to ``sys.stdout`` and usage
    errors to ``sys.stderr``, so those two are bound to ``out`` and ``err``
    for the duration of the call.  A request that runs out of memory exits 1
    with one error line, as a domain error does.
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
        except MemoryError:
            print(f"{PROG}: error: out of memory", file=err)
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
    """Run ``sys.argv`` as one invocation and end the process with its status.

    Both streams are flushed, then ``os._exit`` skips interpreter teardown.
    A reader that went away (a closed stdout pipe) exits 1.
    """
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:
        code = 1
    os._exit(code)


if __name__ == "__main__":
    main()
