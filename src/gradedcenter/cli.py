"""Command-line front end.

Exit codes: 0 success, 1 invalid input (unparseable quiver file,
parameters outside the admissible family, window/margin violations),
2 internal inconsistency (two computations of one quantity disagree, a
failed acceptance criterion, or an InconsistencyError from the library).
All output is plain text, one record per line, and byte-identical
across repeated identical invocations.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .center import InconsistencyError, solve_component, solver_margin
from .gentle import (
    OmegaParams,
    QuiverParseError,
    build_lambda,
    clock_condition,
    format_quiver,
    is_gentle,
    is_one_cycle,
    parse_quiver,
)
from .hom import hom_basis, hom_dim_closed_form
from .model import ModelParams, make_vertex, window_dot
from .ring import reduced_and_nil, theorem_case


class _CliInputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _CliInputError(message)


def _add_params(sub):
    sub.add_argument("--r", type=int, required=True, help="number of relations")
    sub.add_argument("--n", type=int, required=True, help="cycle length")
    sub.add_argument("--m", type=int, required=True, help="tail length")


def _omega(args) -> OmegaParams:
    return OmegaParams(args.r, args.n, args.m)


def _cmd_validate(args) -> int:
    try:
        text = Path(args.file).read_text()
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    q = parse_quiver(text)
    gentle_ok, violations = is_gentle(q)
    if gentle_ok:
        one_cycle = is_one_cycle(q)
        if one_cycle:
            clock = "satisfied" if clock_condition(q) else "not satisfied"
        else:
            clock = "n/a"
        cycle_str = "yes" if one_cycle else "no"
    else:
        cycle_str = "n/a"
        clock = "n/a"
    print(
        f"gentle: {'yes' if gentle_ok else 'no'},"
        f" one-cycle: {cycle_str}, clock condition: {clock}"
    )
    for v in violations:
        print(v)
    return 0


def _cmd_lambda(args) -> int:
    sys.stdout.write(format_quiver(build_lambda(_omega(args))))
    return 0


def _cmd_hom(args) -> int:
    params = ModelParams(_omega(args), args.window)
    v = make_vertex(params, args.family, args.i, args.a, args.b)
    if args.p < 0:
        print("error: --p must be >= 0", file=sys.stderr)
        return 1
    hs = hom_basis(params, v, args.p)
    closed = hom_dim_closed_form(params, v, args.p)
    print(f"vertex: {v!r}")
    print(f"p: {args.p}")
    print(f"model dim: {hs.dim}")
    print(f"closed form: {closed}")
    for k, elem in enumerate(hs.basis):
        print(f"basis[{k}]: {'id' if elem is None else repr(elem)}")
    if hs.dim != closed:
        print(
            f"error: model dimension {hs.dim} disagrees with closed form {closed}",
            file=sys.stderr,
        )
        return 2
    return 0


def _cmd_center(args) -> int:
    params = ModelParams(_omega(args), args.window)
    inner = args.window - solver_margin(params)
    rep = solve_component(params, args.p, args.variant, args.field, args.window, inner)
    for line in rep.format_lines():
        print(line)
    if rep.residual:
        print("error: residual (mixed-class) components in solver output", file=sys.stderr)
        return 2
    return 0


def _cmd_ring(args) -> int:
    pres = theorem_case(_omega(args), args.char, args.variant)
    print(pres.serialize())
    red, nil = reduced_and_nil(pres)
    print(f"reduced: {red}")
    print(f"nilpotent: {nil}")
    return 0


def _cmd_check(args) -> int:
    from .acceptance import CRITERIA, run_criterion

    only = getattr(args, "criterion", None)
    if only is not None and not 1 <= only <= len(CRITERIA):
        print(f"error: criterion must be in [1, {len(CRITERIA)}]", file=sys.stderr)
        return 1
    chosen = range(1, len(CRITERIA) + 1) if only is None else (only,)
    all_ok = True
    for k in chosen:
        name, ok, detail = run_criterion(k)
        print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
        all_ok = all_ok and ok
    return 0 if all_ok else 2


def _cmd_ar(args) -> int:
    if args.window > 8:
        print("error: ar window must be <= 8 (output size guard)", file=sys.stderr)
        return 1
    params = ModelParams(_omega(args), args.window)
    sys.stdout.write(window_dot(params))
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="gradedcenter", description=__doc__)
    parser.set_defaults(func=None)
    sub = parser.add_subparsers(dest="subcommand")

    p = sub.add_parser("validate", help="check a quiver file for gentleness and the clock condition")
    p.add_argument("file", help="quiver file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("lambda", help="print the quiver with relations for (r, n, m)")
    _add_params(p)
    p.set_defaults(func=_cmd_lambda)

    p = sub.add_parser("hom", help="graded hom dimension from one vertex, model vs closed form")
    _add_params(p)
    p.add_argument("--family", required=True, choices=("X", "Y", "Z"))
    p.add_argument("--i", type=int, required=True, help="vertex index")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--p", type=int, required=True, help="suspension degree")
    p.add_argument("--window", type=int, default=10)
    p.set_defaults(func=_cmd_hom)

    p = sub.add_parser("center", help="solve one degree of the graded or commutative center")
    _add_params(p)
    p.add_argument("--p", type=int, required=True, help="degree")
    p.add_argument("--variant", choices=("graded", "commutative"), default="graded")
    p.add_argument("--field", type=int, default=3, help="prime field characteristic")
    p.add_argument("--window", type=int, default=10, help="outer window half-width")
    p.set_defaults(func=_cmd_center)

    p = sub.add_parser("ring", help="classification-table presentation for (r, n, m)")
    _add_params(p)
    p.add_argument("--char", type=int, default=3, help="prime field characteristic")
    p.add_argument("--variant", choices=("graded", "commutative"), default="graded")
    p.set_defaults(func=_cmd_ring)

    p = sub.add_parser("check", help="run the acceptance suite")
    p.add_argument("--grid", action="store_true", help="run the full grid (the default)")
    p.add_argument("--criterion", type=int, default=None,
                   help="run a single criterion by number instead of all nine")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("ar", help="emit the window-truncated arrow graph as dot")
    _add_params(p)
    p.add_argument("--window", type=int, default=2)
    p.set_defaults(func=_cmd_ar)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _CliInputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if args.func is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args)
    except (ValueError, QuiverParseError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except InconsistencyError as e:
        print(f"error: internal inconsistency: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
