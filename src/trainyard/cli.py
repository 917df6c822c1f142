"""Command-line surface: every operation behind a stable text/JSON face.

Output format is chosen by the TRAINYARD_FORMAT environment variable
("text", the default, or "json"); horizons default to TRAINYARD_HORIZON
(expansion.DEFAULT_HORIZON, 64, when unset) and can be overridden per
call with -n.  Rod-set arguments are literals like "[1,-2^3]" — quote
them, since "-" starts an option on most shells — or "@file" /
"@file:3" to read the first (or third) non-comment line of a plain-text
file of literals.

Exit codes: 0 success, 1 domain error (reported to stderr), 2 usage.
An output integer longer than OUTPUT_INT_BITS_LIMIT bits is a domain
error, as are an integer literal of more digits than such an integer has
and a reader that closes stdout before the output is all written.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import re
import sys

from .counts import (
    ArithmeticRods,
    DEFAULT_ENUMERATION_CAP,
    RodSource,
    TrainsOf,
    binomial_count,
    discrepancies,
    enumerate_trains,
    train_counts,
)
from .expansion import (
    DEFAULT_HORIZON,
    compose,
    dual,
    expand,
    expand_minimal,
    rodset_from_counts,
    solve_Q,
    solve_R,
)
from .rodset import Record, RodSet, format_rodset, parse_rodset
from .series import cyclotomic, poly_divexact, poly_mul, poly_text


# Longest integer the CLI prints, in bits.  Decimal conversion is quadratic in
# the length: one int of 800k bits takes 1.2 s (2-vCPU VM, Python 3.11).  That
# is why CPython refuses ints of more than 4,300 digits.  Handlers check their
# results against this bound before anything is converted, and main raises
# CPython's cap to the bound's digits, so that parsing a literal stays bounded.
OUTPUT_INT_BITS_LIMIT = 1 << 18
_OUTPUT_DIGITS = int(OUTPUT_INT_BITS_LIMIT * math.log10(2)) + 1  # 78,914


class _CliError(ValueError):
    """Domain-level failure raised by CLI plumbing (file handling etc.)."""


def _too_long(bits) -> _CliError:
    return _CliError(
        f"an output integer has {bits} bits, over the limit "
        f"OUTPUT_INT_BITS_LIMIT = {OUTPUT_INT_BITS_LIMIT} bits"
    )


def _bounded(result):
    """result, once no int in it has more than OUTPUT_INT_BITS_LIMIT bits.

    Walks lists, tuples and the fields of records (rod sets, sources,
    reports and hits), so it runs on a handler's result before any of it
    is rendered.
    """
    stack = [result]
    while stack:
        item = stack.pop()
        if isinstance(item, int):
            if item.bit_length() > OUTPUT_INT_BITS_LIMIT:
                raise _too_long(item.bit_length())
        elif isinstance(item, (list, tuple)):
            stack.extend(item)
        elif isinstance(item, Record):
            stack.extend(getattr(item, name) for name in item.__slots__)
    return result


def _read_rodset_file(arg: str) -> str:
    """Resolve "@path" or "@path:N" to the N-th non-comment line."""
    path, _, selector = arg[1:].partition(":")
    index = 1
    if selector:
        if not selector.isdecimal() or int(selector) < 1:
            raise _CliError(f"bad line selector in {arg!r}: expected @file or @file:N")
        index = int(selector)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = [
                line.strip()
                for line in handle
                if line.strip() and not line.lstrip().startswith("#")
            ]
    except OSError as exc:
        raise _CliError(f"cannot read rod-set file {path!r}: {exc}") from exc
    if len(lines) < index:
        raise _CliError(f"{path!r} has {len(lines)} rod-set lines; wanted line {index}")
    return lines[index - 1]


def _rodset_arg(text: str) -> RodSet:
    if text.startswith("@"):
        text = _read_rodset_file(text)
    return parse_rodset(text)


def _sign_arg(text: str):
    if text in ("+", "+1", "1"):
        return 1
    if text in ("-", "-1"):
        return -1
    raise argparse.ArgumentTypeError(f"sign must be + or -, not {text!r}")


def _int_csv(text: str) -> list[int]:
    try:
        return [int(tok.strip()) for tok in text.split(",")]
    except ValueError:
        raise _CliError(f"expected a comma-separated integer list, got {text!r}")


def _horizon(args: argparse.Namespace) -> int:
    if getattr(args, "n", None) is not None:
        value = args.n
    else:
        raw = os.environ.get("TRAINYARD_HORIZON", str(DEFAULT_HORIZON))
        try:
            value = int(raw)
        except ValueError:
            raise _CliError(f"TRAINYARD_HORIZON must be an integer, not {raw!r}")
    if value < 1:
        raise _CliError("horizon must be at least 1")
    return value


def _format() -> str:
    value = os.environ.get("TRAINYARD_FORMAT", "text")
    if value not in ("text", "json"):
        raise _CliError(f"TRAINYARD_FORMAT must be 'text' or 'json', not {value!r}")
    return value


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (JSON object, text lines) for main to print.
# The structure handlers import the searches when called, after their
# arguments are parsed, so that no other call loads them.


def _cmd_counts(args):
    chosen = [
        arg for arg in (args.rodset, args.arith, args.trains) if arg is not None
    ]
    if len(chosen) != 1:
        raise _CliError("give exactly one of RODSET, --arith or --trains")
    if args.arith is not None:
        fields = args.arith.split(",")
        if len(fields) != 3:
            raise _CliError("--arith takes FIRST,STEP,SIGN (e.g. 1,2,+)")
        source: RodSource = ArithmeticRods(
            int(fields[0]), int(fields[1]), _sign_arg(fields[2])
        )
    elif args.trains is not None:
        raw = args.trains
        sign = 1
        if raw.startswith("-"):
            sign, raw = -1, raw[1:]
        source = TrainsOf(_rodset_arg(raw), sign)
    else:
        source = _rodset_arg(args.rodset)
    values = _bounded(train_counts(source, _horizon(args)))
    return {"start": 0, "values": values}, [_csv(values)]


def _cmd_discrep(args):
    n = _horizon(args)
    values = _bounded(discrepancies(_rodset_arg(args.r), _rodset_arg(args.s), n))
    return {"start": 1, "values": values}, [_csv(values)]


def _cmd_expand(args):
    exp = _bounded(expand(_rodset_arg(args.r), _rodset_arg(args.q), _horizon(args)))
    return exp.to_json(), [f"S={exp.s}"]


def _cmd_solveq(args):
    exp = _bounded(solve_Q(_rodset_arg(args.r), _rodset_arg(args.s), _horizon(args)))
    return exp.to_json(), [f"Q={exp.q}", f"finite={str(exp.q_finite).lower()}"]


def _cmd_solver(args):
    exp = _bounded(solve_R(_rodset_arg(args.q), _rodset_arg(args.s), _horizon(args)))
    return exp.to_json(), [f"R={exp.r}", f"finite={str(exp.r_finite).lower()}"]


def _rendered(record):
    """A record's own JSON and text, for a handler to return."""
    return record.to_json(), [str(record)]


def _cmd_dual(args):
    return _rendered(_bounded(dual(_rodset_arg(args.q), _horizon(args))))


def _cmd_compose(args):
    return _rendered(_bounded(compose(_rodset_arg(args.q1), _rodset_arg(args.q2))))


def _cmd_fromseq(args):
    return _rendered(_bounded(rodset_from_counts(_int_csv(args.values))))


def _cmd_expandmin(args):
    q, s = _bounded(expand_minimal(_rodset_arg(args.r)))
    return {"Q": format_rodset(q), "S": format_rodset(s)}, [
        f"Q={format_rodset(q)}",
        f"S={format_rodset(s)}",
    ]


def _cmd_period(args):
    rods = _rodset_arg(args.r)
    from .structure import detect_period

    return _rendered(_bounded(detect_period(rods)))


def _cmd_scan1(args):
    rods = _rodset_arg(args.r)
    from .structure import scan_one_expansions

    hits = _bounded(scan_one_expansions(rods, args.bound))
    return [{"a": a, "mult": m} for a, m in hits], [
        f"a={a} mult={m}" for a, m in hits
    ] or ["none"]


def _hits_output(hits):
    return [h.to_json() for h in _bounded(hits)], [str(h) for h in hits] or ["none"]


def _cmd_scan2(args):
    rods = _rodset_arg(args.r)
    from .structure import scan_two_expansions

    return _hits_output(scan_two_expansions(rods, args.bound, include_trivial=args.include_trivial))


def _cmd_lucas(args):
    horizon = _horizon(args)
    from .structure import lucas_check

    return _rendered(lucas_check(args.s, args.t, args.sign, horizon))


def _cmd_lucas_shapes(args):
    from .structure import lucas_two_shapes

    hits = lucas_two_shapes(
        args.s,
        args.t,
        args.sign,
        args.kind,
        a_min=args.a_min,
        a_max=args.a_max,
        a=args.a,
        d=args.d,
        k_max=args.k_max,
    )
    return _hits_output(hits)


def _cmd_borwein(args):
    from .structure import borwein_classify

    return _rendered(borwein_classify(args.bound))


def _train_token(rod: tuple, rods: RodSet) -> str:
    length, color, sign = rod
    text = f"{'-' if sign < 0 else ''}{length}"
    if abs(rods.mult(length)) >= 2:
        text += f"#{color}"
    return text


def _cmd_enumerate(args):
    rods = _rodset_arg(args.r)
    result = enumerate_trains(rods, args.n, cap=args.cap, collect=args.list)
    obj = {"n": args.n, "net": result.net, "total": result.total}
    lines = [f"net={result.net} total={result.total}"]
    if args.list:
        trains = [
            "+".join(_train_token(rod, rods) for rod in train) if train else "e"
            for train in result.trains
        ]
        obj["trains"] = trains
        lines += trains
    return obj, lines


def _cmd_binom(args):
    rods = _rodset_arg(args.r)
    if len(rods.pairs) == 1:
        # [a^u] counts u^(n/a) when a | n: refused by a lower bound on its bits, before computing it.
        (a, u), = rods.pairs
        bits = (args.n // a) * (abs(u).bit_length() - 1) + 1
        if args.n % a == 0 and bits > OUTPUT_INT_BITS_LIMIT:
            raise _too_long(f"at least {bits}")
    value = _bounded(binomial_count(rods, args.n))
    return {"value": value}, [str(value)]


def _cmd_poly(args):
    p1, p2 = _int_csv(args.p1), _int_csv(args.p2)
    if args.op == "mul":
        result = _bounded(poly_mul(p1, p2))
        return {"coefficients": result}, [poly_text(result)]
    quotient = _bounded(poly_divexact(p1, p2))
    return {"quotient": quotient}, ["not divisible" if quotient is None else poly_text(quotient)]


def _cmd_cyclo(args):
    coeffs = cyclotomic(args.d)
    return {"d": args.d, "coefficients": coeffs}, [poly_text(coeffs)]


# ---------------------------------------------------------------------------
# Parser


def _arg(*flags, **options):
    """One add_argument call, as (flags, options)."""
    return flags, options


def _build_parser(argv) -> argparse.ArgumentParser:
    """The parser for argv: when argv[0] names a subcommand, with that subparser alone.

    Otherwise (no arguments, -h, an unknown word) it holds every subcommand.
    A subparser's help, usage and errors do not depend on its siblings, and
    the top-level usage, which an unrecognized argument prints, lists every
    name either way, so each call prints the same bytes as with the whole
    tree while building one subparser instead of nineteen.
    """
    horizon, bound = _arg("-n", type=int), _arg("-b", "--bound", type=int, required=True)
    # name -> (handler, help, arguments): each subcommand, declared once.
    commands = {
        "counts": (_cmd_counts, "net train counts F(0..N)", (
            _arg("rodset", nargs="?", help='rod-set literal, e.g. "[1,-2]"'),
            _arg("--arith", metavar="A,D,SIGN", help="arithmetic rods a, a+d, a+2d, ..."),
            _arg("--trains", metavar="RODSET", help="rods = trains of RODSET (prefix - to negate)"),
            _arg("-n", type=int, help="largest length (default: horizon)"),
        )),
        "discrep": (_cmd_discrep, "discrepancies D(1..N) of R against S's recursion",
                    (_arg("r"), _arg("s"), horizon)),
        "expand": (_cmd_expand, "S with R -> Q -> S", (_arg("r"), _arg("q"), horizon)),
        "solveq": (_cmd_solveq, "Q with R -> Q -> S, with finiteness verdict",
                   (_arg("r"), _arg("s"), horizon)),
        "solver": (_cmd_solver, "R with R -> Q -> S", (_arg("q"), _arg("s"), horizon)),
        "dual": (_cmd_dual, "dual rod set Q* (inverts 1 + C(x,Q))", (_arg("q"), horizon)),
        "compose": (_cmd_compose, "Q of the composite expansion", (_arg("q1"), _arg("q2"))),
        "fromseq": (_cmd_fromseq, "rod set whose train counts match a sequence", (
            _arg("values", metavar="V0,V1,...", help="count sequence, starting 1"),
        )),
        "expandmin": (_cmd_expandmin, "expand away the minimal-length rods", (_arg("r"),)),
        "period": (_cmd_period, "exact periodicity of n -> F(n,R)", (_arg("r"),)),
        "scan1": (_cmd_scan1, "one-rod expansion targets [a^m]", (_arg("r"), bound)),
        "scan2": (_cmd_scan2, "two-rod expansion targets [a^ma, b^mb]", (
            _arg("r"),
            bound,
            _arg("--include-trivial", action="store_true", help="keep the empty-Q self-expansion"),
        )),
        "lucas": (_cmd_lucas, "Lucas-family laws for R = [1^(±s), 2^t], for every multiple", (
            _arg("s", type=int),
            _arg("t", type=int),
            _arg("sign", type=_sign_arg),
            _arg("-n", type=int,
                 help="decide L(d) | L(kd) for every d <= n/2 and every k (default: horizon)"),
        )),
        "lucas-shapes": (_cmd_lucas_shapes, "closed-form two-rod expansions of Lucas rod sets", (
            _arg("s", type=int),
            _arg("t", type=int),
            _arg("sign", type=_sign_arg),
            _arg("--kind", choices=("adjacent", "skip", "multiple"), required=True),
            _arg("--a-min", type=int, default=2),
            _arg("--a-max", type=int, default=4),
            _arg("--a", type=int),
            _arg("--d", type=int),
            _arg("--k-max", type=int, default=1),
        )),
        "borwein": (_cmd_borwein, "classify trinomials 1 ∓ x^a ∓ x^b", (bound,)),
        "enumerate": (_cmd_enumerate, "brute-force train enumeration", (
            _arg("r"),
            _arg("n", type=int),
            _arg("--list", action="store_true", help="print each train"),
            _arg("--cap", type=int, default=DEFAULT_ENUMERATION_CAP),
        )),
        "binom": (_cmd_binom, "binomial-sum count for 1- or 2-length rod sets",
                  (_arg("r"), _arg("n", type=int))),
        "poly": (_cmd_poly, "exact polynomial arithmetic (ascending coefficient CSV)", (
            _arg("op", choices=("mul", "div")),
            _arg("p1"),
            _arg("p2"),
        )),
        "cyclo": (_cmd_cyclo, "cyclotomic polynomial of order d", (_arg("d", type=int),)),
    }
    named = argv[0] if argv and argv[0] in commands else None
    parser = argparse.ArgumentParser(
        prog="trainyard",
        description="Exact net-train-count algebra on signed rod sets.",
    )
    # With one subparser built, the metavar keeps every name in the top-level usage.
    sub = parser.add_subparsers(
        dest="command", required=True, metavar=named and "{%s}" % ",".join(commands)
    )
    for name, (handler, help_text, arguments) in commands.items():
        if named in (None, name):
            p = sub.add_parser(name, help=help_text)
            p.set_defaults(handler=handler)
            for flags, options in arguments:
                p.add_argument(*flags, **options)
    if "poly" in sub.choices:
        # Let coefficient lists that start with a negative number ("-1,1")
        # parse as positionals rather than options.
        sub.choices["poly"]._negative_number_matcher = re.compile(r"^-\d+(?:,-?\d+)*$")
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser(argv).parse_args(argv)
    # Python 3.10.0 to 3.10.6 have no cap to raise.
    cap = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if cap is not None:
        sys.set_int_max_str_digits(_OUTPUT_DIGITS)
    try:
        return _run(args)
    finally:
        if cap is not None:
            sys.set_int_max_str_digits(cap)


def _run(args: argparse.Namespace) -> int:
    try:
        obj, lines = args.handler(args)
        text = lines
        if _format() == "json":
            import json  # only a JSON call pays for loading it

            text = [json.dumps(obj)]
    except (ValueError, argparse.ArgumentTypeError) as exc:
        # Every domain error in the package is a ValueError subclass.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RecursionError, MemoryError, OverflowError) as exc:
        print(f"error: input too large to compute ({type(exc).__name__})", file=sys.stderr)
        return 1
    try:
        for line in text:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone.  Point stdout at devnull, so that the flush at
        # shutdown finds nothing to write and reports no second error.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        with contextlib.suppress(BrokenPipeError):
            print("error: stdout was closed before the output was all written", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
