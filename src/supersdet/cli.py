"""Batch command-line front end.

Subcommands: verify, lpoly, lgenus, sdet, zeta, pushforward.  Output is
pretty text or canonical JSON (sorted keys, compact separators), identical
bytes for identical invocations.  Exit codes: 0 success, 1 a verified
identity failed, 2 usage or input error.

Each subcommand imports the layers it runs when it starts, not when this
module loads: ``lgenus`` and ``pushforward`` load only ``series`` and
``manifolds``, ``sdet`` and ``zeta`` load ``zeta`` and what it builds on,
and only ``verify`` loads every layer.  A CLI call is a fresh process that
compiles what it imports, so start-up is most of what a small call costs;
for the same reason the package defines its records without dataclasses.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import List, Optional

# verify.SUITES in run order, spelled out so that building the parser does
# not import verify; a test holds the two equal
SUITE_NAMES = ("grassmann", "susy", "series", "zeta")


def _positive_int(raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"{raw!r} is not a positive integer")
    return value


def _printable(x: Fraction) -> Fraction:
    """x, or a usage error when its numerator or denominator has more digits
    than Python writes an integer as text (sys.get_int_max_str_digits): a
    computed value too long to print is refused, not a crash."""
    limit = sys.get_int_max_str_digits()
    if limit and max(abs(x.numerator), x.denominator) >= 10 ** limit:
        raise SystemExit(f"supersdet: the result has more than {limit} digits, "
                         "Python's limit for writing an integer")
    return x


def _fraction_json(x: Fraction) -> dict:
    return {"num": x.numerator, "den": x.denominator}


def _emit(payload: dict, text_lines: List[str], fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")
    else:
        for line in text_lines:
            sys.stdout.write(line + "\n")


def _load_manifold_arg(source: str):
    from . import manifolds as mf
    if source.startswith("builtin:"):
        return mf.builtin(source.split(":", 1)[1])
    if source in mf.BUILTIN_NAMES:
        return mf.builtin(source)
    return mf.load_manifold_file(source)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_verify(args) -> int:
    from . import verify as vf
    suites = list(vf.SUITES) if args.suite == "all" else [args.suite]
    results: List[vf.CheckResult] = []
    for suite in suites:
        results.extend(vf.run_suite(suite))
    payload = {
        "suites": suites,
        "checks": [
            {"suite": r.suite, "name": r.name, "passed": r.passed, "detail": r.detail}
            for r in results
        ],
        "passed": all(r.passed for r in results),
    }
    lines = []
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        line = f"[{mark}] {r.suite}: {r.name}"
        if r.detail:
            line += f" -- {r.detail}"
        lines.append(line)
    total = len(results)
    good = sum(r.passed for r in results)
    lines.append(f"{good}/{total} checks passed")
    _emit(payload, lines, args.format)
    return 0 if payload["passed"] else 1


def _cmd_lpoly(args) -> int:
    from . import series as cs
    K = args.k
    polys = cs.l_polynomials(K)
    payload = {
        "K": K,
        "polynomials": [
            {"weight": k, "degree": 4 * k, "terms": poly.to_json()}
            for k, poly in enumerate(polys, start=1)
        ],
    }
    lines = [f"L_{k} = {poly}" for k, poly in enumerate(polys, start=1)]
    _emit(payload, lines, args.format)
    return 0


# The two manifold subcommands turn a rejected document or class expression
# into a usage error themselves, so that main() needs no manifolds import.

def _cmd_lgenus(args) -> int:
    from . import manifolds as mf
    try:
        data = _load_manifold_arg(args.manifold)
        genus = _printable(mf.l_genus(data))
    except (mf.ManifoldParseError, mf.ManifoldValidationError) as exc:
        raise SystemExit(f"supersdet: {exc}") from None
    match = genus == data.signature
    payload = {
        "manifold": data.name,
        "dimension": data.dimension,
        "l_genus": _fraction_json(genus),
        "signature": _fraction_json(Fraction(data.signature)),
        "match": match,
    }
    verdict = "MATCH" if match else "MISMATCH"
    lines = [f"L-genus = {genus}, signature = {data.signature}, {verdict}"]
    _emit(payload, lines, args.format)
    return 0 if match else 1


def _cmd_sdet(args) -> int:
    from . import series as cs
    from . import zeta as zs
    K = args.k
    if args.mode == "concrete":
        dim = zs.demo_curvature().n
        if args.n != dim:
            raise SystemExit(f"supersdet: concrete mode ships a dimension-{dim} instance")
    report = zs.sdet_report(args.n, K, mode=args.mode, pp=args.pp)
    # the pretty lines render the report's polynomials rather than compute them again
    if args.mode == "formal":
        sdet_text = str(cs.GradedPolynomial.from_json(K, "ph", report["sdet"]))
    else:
        sdet_text = report["sdet"]
    l_class = cs.GradedPolynomial.from_json(K, "ph", report["l_class"])
    lines = [
        f"n = {report['n']}, K = {report['K']}, mode = {report['mode']}, "
        f"sector = {report['sector']}",
        f"sdet = {sdet_text}",
        f"signature class (ph variables) = {l_class}",
        f"equal = {report['equal']}",
    ]
    _emit(report, lines, args.format)
    return 0 if report["equal"] else 1


def _cmd_zeta(args) -> int:
    from . import zeta as zs
    if args.what == "product":
        if args.n is None:
            raise SystemExit("supersdet zeta --what product needs --n")
        power = zs.regularized_product_power(args.n)
        payload = {
            "what": "product",
            "n": args.n,
            "r_exponent": _fraction_json(power.r_exponent),
            "coefficient": _fraction_json(power.coefficient),
        }
        lines = [f"regularized product of ((2 pi k)/r)^{args.n} modes = r^({power.r_exponent})"]
        _emit(payload, lines, args.format)
        return 0
    if args.k is None:
        raise SystemExit("supersdet zeta --what trace needs --k")
    bc = zs.BoundaryCondition.PERIODIC if args.bc == "periodic" \
        else zs.BoundaryCondition.ANTIPERIODIC
    trace = zs.trace_inv_power(bc, 2 * args.k)
    payload = {
        "what": "trace",
        "bc": bc.value,
        "k": args.k,
        "coefficient": _fraction_json(trace.coefficient),
        "r_exponent": _fraction_json(trace.r_exponent),
    }
    lines = [f"Tr (d/dt)^(-{2 * args.k}) [{bc.value}] = {trace.coefficient} * r^{trace.r_exponent}"]
    _emit(payload, lines, args.format)
    return 0


def _cmd_pushforward(args) -> int:
    from . import manifolds as mf
    try:
        manifold = _load_manifold_arg(args.manifold)
        if not isinstance(manifold, mf.CohomologyModel):
            raise SystemExit(
                f"supersdet pushforward: manifold {manifold.name!r} has no ring model")
        element = mf.parse_class(getattr(args, "class_expr"), manifold)
        value = _printable(mf.pushforward(element, manifold))
    except (mf.ManifoldParseError, mf.ManifoldValidationError) as exc:
        raise SystemExit(f"supersdet: {exc}") from None
    payload = {
        "manifold": manifold.name,
        "class": getattr(args, "class_expr"),
        "value": _fraction_json(value),
    }
    lines = [f"pushforward of {getattr(args, 'class_expr')} over {manifold.name} = {value}"]
    _emit(payload, lines, args.format)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supersdet",
        description="Exact verification of super circle group laws, regularized "
                    "superdeterminants and the signature genus.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("pretty", "json"), default="pretty")

    p_verify = sub.add_parser("verify", help="run the identity suites")
    p_verify.add_argument("--suite", choices=SUITE_NAMES + ("all",), default="all")
    add_format(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    p_lpoly = sub.add_parser("lpoly", help="print the signature polynomials")
    p_lpoly.add_argument("--k", type=_positive_int, required=True, metavar="K")
    add_format(p_lpoly)
    p_lpoly.set_defaults(func=_cmd_lpoly)

    p_lgenus = sub.add_parser("lgenus", help="evaluate the signature genus")
    p_lgenus.add_argument("--manifold", required=True,
                          help="builtin:NAME or a JSON file path")
    add_format(p_lgenus)
    p_lgenus.set_defaults(func=_cmd_lgenus)

    p_sdet = sub.add_parser("sdet", help="superdeterminant report")
    p_sdet.add_argument("--n", type=_positive_int, required=True, help="fiber dimension")
    p_sdet.add_argument("--k", type=_positive_int, default=4,
                        help="grading truncation (default 4)")
    p_sdet.add_argument("--mode", choices=("formal", "concrete"), default="formal")
    p_sdet.add_argument("--pp", action="store_true",
                        help="use the all-periodic sector")
    add_format(p_sdet)
    p_sdet.set_defaults(func=_cmd_sdet)

    p_zeta = sub.add_parser("zeta", help="exact regularization values")
    p_zeta.add_argument("--what", choices=("product", "trace"), required=True)
    p_zeta.add_argument("--n", type=_positive_int, default=None, help="power for --what product")
    p_zeta.add_argument("--k", type=_positive_int, default=None,
                        help="trace order k for --what trace")
    p_zeta.add_argument("--bc", choices=("periodic", "antiperiodic"), default="periodic")
    add_format(p_zeta)
    p_zeta.set_defaults(func=_cmd_zeta)

    p_push = sub.add_parser("pushforward", help="integrate a class against the signature class")
    p_push.add_argument("--manifold", required=True)
    p_push.add_argument("--class", dest="class_expr", required=True,
                        help="linear combination of basis powers, e.g. '1 + 2*h^2'")
    add_format(p_push)
    p_push.set_defaults(func=_cmd_pushforward)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            sys.stderr.write(exc.code + "\n")
            return 2
        raise
    except OSError as exc:
        sys.stderr.write(f"supersdet: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
