"""Command-line surface.

Verbs: torus info, bracket eval, verify, module build|verify|decompose|
roundtrip|compare, export.  Exit codes: 0 pass, 1 fail, 2 config error
(a ParseError: unreadable or malformed input, or an argparse error).
"""
from __future__ import annotations

import argparse
import json
import sys

from .cuspidal import TensorFieldModule, build_module, constructions_agree, dump_module, roundtrip_holds
from .cyclo import parse_scalar
from .derivations import bracket_d, bracket_witt, parse_d_element, parse_witt_element
from .errors import ParseError, QtlieError
from .jetalg import bracket_jets, parse_jet_element
from .repn import decompose_tensor, preset_pullback, pullback, rep_from_dict, rep_to_dict, verify_representation
from .torus import TorusSpec, center_generator_names, class_representatives, load_torus
from .verify import run_suites, reports_to_json
from .xmatrix import x_power


def _alpha_from_arg(spec: TorusSpec, text: str | None):
    if not text:
        return (0,) * spec.d
    parts = text.split(",")
    if len(parts) != spec.d:
        raise ParseError(f"alpha needs {spec.d} entries")
    return tuple(parse_scalar(p, spec.field) for p in parts)


def _size(text: str) -> int:
    """argparse type of a box, degree or sample count: a non-negative integer."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def cmd_torus_info(args) -> int:
    spec = load_torus(args.spec)
    print(f"d={spec.d} z={spec.z} k={list(spec.k)} L={spec.L}")
    print(f"N={spec.N}, |Gamma|={spec.N ** 2}")
    if spec.z:
        parts = []
        for i in range(spec.z):
            parts.append(f"{spec.k[i]}Z x {spec.k[i]}Z")
        parts.extend("Z" for _ in range(spec.d - 2 * spec.z))
        print(f"R = {' x '.join(parts)}")
    else:
        print(f"commutative torus, R=Z^{spec.d}")
    print(f"center generated by: {', '.join(center_generator_names(spec))}")
    print(f"class representatives: {len(class_representatives(spec))}")
    return 0


# --algebra name -> (element parser, bracket), both taking the spec first
_ALGEBRAS = {
    "d": (parse_d_element, bracket_d),
    "wd": (lambda spec, text: parse_witt_element(spec.field, text), lambda spec, a, b: bracket_witt(a, b)),
    "gtilde": (parse_jet_element, bracket_jets),
}


def cmd_bracket_eval(args) -> int:
    spec = load_torus(args.spec)
    parse, bracket = _ALGEBRAS[args.algebra]
    print(bracket(spec, parse(spec, args.left), parse(spec, args.right)))
    return 0


def cmd_verify(args) -> int:
    spec = load_torus(args.spec)
    config = {}
    if args.box is not None:
        config["box"] = args.box
    if args.degree is not None:
        config["degree"] = args.degree
    if args.samples is not None:
        config["samples"] = args.samples
    config["seed"] = args.seed
    config["flip"] = args.flip_sigma
    reports = []
    for report in run_suites(spec, args.suite or ["all"], config):
        reports.append(report)
        print(report.summary(), flush=True)
    if args.out:
        _write(args.out, reports_to_json(reports, spec, args.seed))
    return 0 if all(r.passed for r in reports) else 1


def cmd_export(args) -> int:
    spec = load_torus(args.spec)
    try:
        exp = tuple(int(x) for x in args.exp.split(","))
    except ValueError as exc:
        raise ParseError(f"exponent must be comma-separated integers, got {args.exp!r}") from exc
    if len(exp) != spec.d:
        raise ParseError(f"exponent needs {spec.d} coordinates")
    mat = x_power(spec, exp)
    payload = {
        "L": spec.L,
        "rows": mat.rows,
        "cols": mat.cols,
        "entries": mat.serialize(),
    }
    if args.out:
        _write(args.out, _pretty(payload))
    else:
        print(_pretty(payload), end="")
    return 0


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read JSON from {path!r}: {exc}") from exc


def _pretty(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _write(path: str, text: str) -> None:
    """The one writer of every --out file."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _required(args, option: str, alternative: str = ""):
    """The value of a `module` option that this action cannot run without."""
    value = getattr(args, option)
    if value is None:
        raise ParseError(f"module {args.action} needs --{option}{alternative}")
    return value


def cmd_module_build(args) -> int:
    spec = load_torus(_required(args, "spec"))
    alpha = _alpha_from_arg(spec, args.alpha)
    vw, rep = preset_pullback(spec, args.vw)
    if args.tensor_field:
        module = TensorFieldModule(spec, alpha, vw, box=args.box)
    else:
        module = build_module(spec, alpha, rep, box=args.box)
    payload = dump_module(module, args.box)
    if args.out:
        _write(args.out, _pretty(payload))
        print(f"wrote module dump to {args.out}")
    else:
        print(json.dumps(payload, sort_keys=True))
    return 0


def cmd_module_verify(args) -> int:
    spec, rep = rep_from_dict(_read_json(_required(args, "rep")))
    report = verify_representation(spec, rep, args.degree)
    print(f"representation check: {'PASS' if report.passed else 'FAIL'} "
          f"({report.cases} pairs)")
    if not report.passed:
        print(f"first failure: {report.first_failure}")
        return 1
    return 0


def cmd_module_decompose(args) -> int:
    spec, rep = rep_from_dict(_read_json(_required(args, "rep")))
    vw, _phi = decompose_tensor(spec, rep, seed=args.seed)
    print(f"factors: dim V = {vw.dim_V}, dim W = {vw.dim_W}")
    if args.out:
        _write(args.out, _pretty(rep_to_dict(pullback(spec, vw))))
        print(f"wrote factored representation to {args.out}")
    return 0


def cmd_module_roundtrip(args) -> int:
    spec = load_torus(_required(args, "spec"))
    ok = roundtrip_holds(spec, _alpha_from_arg(spec, args.alpha), preset_pullback(spec, args.vw),
                         args.degree)
    print(f"roundtrip: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_module_compare(args) -> int:
    if args.dump_a and args.dump_b:
        ok = _read_json(args.dump_a) == _read_json(args.dump_b)
    else:
        spec = load_torus(_required(args, "spec", " (or both --dump-a and --dump-b)"))
        ok = constructions_agree(preset_pullback(spec, args.vw))
    print(f"compare: {'EQUAL' if ok else 'DIFFERENT'}")
    return 0 if ok else 1


# module action -> (command, the options it reads); any other option is an argparse error
_MODULE_ACTIONS = {
    "build": (cmd_module_build, ("--spec", "--alpha", "--vw", "--tensor-field", "--box", "--out")),
    "verify": (cmd_module_verify, ("--rep", "--degree")),
    "decompose": (cmd_module_decompose, ("--rep", "--seed", "--out")),
    "roundtrip": (cmd_module_roundtrip, ("--spec", "--alpha", "--vw", "--degree")),
    "compare": (cmd_module_compare, ("--spec", "--vw", "--dump-a", "--dump-b")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qtlie",
                                     description="Exact quantum-torus Lie algebra toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_torus = sub.add_parser("torus", help="torus utilities")
    torus_sub = p_torus.add_subparsers(dest="action", required=True)
    p_info = torus_sub.add_parser("info", help="print derived torus data")
    p_info.add_argument("spec")
    p_info.set_defaults(fn=cmd_torus_info)

    p_bracket = sub.add_parser("bracket", help="bracket evaluation")
    bracket_sub = p_bracket.add_subparsers(dest="action", required=True)
    p_eval = bracket_sub.add_parser("eval", help="evaluate a bracket of two elements")
    p_eval.add_argument("--spec", required=True)
    p_eval.add_argument("--algebra", default="d", choices=list(_ALGEBRAS))
    p_eval.add_argument("left")
    p_eval.add_argument("right")
    p_eval.set_defaults(fn=cmd_bracket_eval)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("--spec", required=True)
    p_verify.add_argument("--suite", action="append",
                          help="suite name (repeatable); default: all")
    p_verify.add_argument("--box", type=_size)
    p_verify.add_argument("--degree", type=_size,
                          help="total-degree bound of the jet exponents (jacobi-jets) and of the"
                               " operator families (roundtrip); filtration-degree bound of span-filtration")
    p_verify.add_argument("--samples", type=_size)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--flip-sigma", action="store_true",
                          help="swap the pairing arguments (must fail)")
    p_verify.add_argument("--out", help="write the JSON report here")
    p_verify.set_defaults(fn=cmd_verify)

    p_export = sub.add_parser("export", help="export a class matrix as JSON")
    p_export.add_argument("--spec", required=True)
    p_export.add_argument("--exp", required=True, help="comma-separated exponent")
    p_export.add_argument("--out")
    p_export.set_defaults(fn=cmd_export)

    module_options = {
        "--spec": {},
        "--rep": {"help": "representation file"},
        "--alpha": {"help": "comma-separated weight offset"},
        "--vw": {"default": "natural-regular", "help": "module preset: natural-regular or trivial-regular"},
        "--tensor-field": {"action": "store_true", "help": "build the closed-form tensor-field module"},
        "--box": {"type": _size, "default": 2},
        "--degree": {"type": _size,
                     "help": "total-degree bound of the operator families (roundtrip, default 3);"
                             " filtration-degree bound of the bracket check (verify, default the cutoff)"},
        "--seed": {"type": int, "default": 1},
        "--out": {},
        "--dump-a": {},
        "--dump-b": {},
    }
    p_module = sub.add_parser("module", help="module operations")
    module_sub = p_module.add_subparsers(dest="action", required=True)
    for action, (fn, options) in _MODULE_ACTIONS.items():
        p_action = module_sub.add_parser(action)
        for option in options:
            p_action.add_argument(option, **module_options[option])
        p_action.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except QtlieError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
