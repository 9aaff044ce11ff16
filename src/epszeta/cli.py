"""Command-line front end: evaluate, tabulate, export curves, cross-check.

Exit codes: 0 success, 2 bad flags (an unwritable --out included), 3 domain
error, 4 tolerance failure.  `eval --format json` and `--format csv` carry
the same record of six fields.
"""

import argparse
import functools
import json
import random
import sys
from itertools import chain
from pathlib import Path

from .elastica import _CURVES, ElasticaParams, _curve, uniform_grid
from .errors import ConvergenceError, DomainError
from .extended import Modulus, Regime, ek_ratio, epsilon_any, zeta_any
from .quadrature import epsilon_by_quadrature

_TABLE_X = 0.5
_TABLE_KS = (0.5, 1.0, 2.0)
_TABLE_TOL = 5e-7  # six printed decimals


def _text_value(value, show_imag):
    if show_imag:
        sign = "-" if value.imag < 0 else "+"
        return f"{value.real:.6f} {sign} {abs(value.imag):.6f}i"
    return f"{value.real:.6f}"


def cmd_eval(args):
    m = getattr(Modulus, args.modulus)(args.k)  # --modulus names the constructor
    if args.fn == "epsilon":
        value = epsilon_any(args.x, m)
    else:
        value = zeta_any(args.x, m, branch=args.branch)
    if args.format == "text":
        show = args.fn == "zeta" and m.regime is Regime.LARGE_REAL
        print(_text_value(value, show))
        return 0
    record = {"fn": args.fn, "x": args.x, "k": m.k, "regime": m.regime.value,
              "re": value.real, "im": value.imag}
    if args.format == "json":
        print(json.dumps(record))
    else:
        print(",".join(record))
        print(",".join(v if isinstance(v, str) else f"{v:.17g}" for v in record.values()))
    return 0


def cmd_tables(args):
    blocks = (
        ("epsilon(x, k), real modulus", "epsilon", Modulus.real),
        ("epsilon(x, ik), imaginary modulus", "epsilon", Modulus.imaginary),
        ("zeta(x, k), real modulus", "zeta", Modulus.real),
        ("zeta(x, ik), imaginary modulus", "zeta", Modulus.imaginary),
    )
    worst = 0.0
    for idx, (title, fn, make) in enumerate(blocks, start=1):
        print(f"Table {idx}: {title}, x = {_TABLE_X}")
        print(f"  {'k':>4}  {'Present':>22}  {'Quadrature':>22}  {'AbsDiff':>9}")
        for k in _TABLE_KS:
            m = make(k)
            eps_quad = epsilon_by_quadrature(_TABLE_X, m, tol=1e-11)
            if fn == "epsilon":
                present = epsilon_any(_TABLE_X, m)
                quad = eps_quad
            else:
                present = zeta_any(_TABLE_X, m)
                quad = eps_quad - ek_ratio(m) * _TABLE_X
            show = fn == "zeta" and m.regime is Regime.LARGE_REAL
            diff = abs(present - quad)
            worst = max(worst, diff)
            print(f"  {k:>4g}  {_text_value(present, show):>22}  "
                  f"{_text_value(quad, show):>22}  {diff:>9.1e}")
        print()
    if worst > _TABLE_TOL:
        print(f"FAIL: largest Present/Quadrature gap {worst:.3e} exceeds {_TABLE_TOL:g}")
        return 4
    print(f"all Present/Quadrature gaps <= {worst:.3e} (threshold {_TABLE_TOL:g})")
    return 0


def cmd_elastica(args):
    if not args.u_min < args.u_max:
        args.parser.error("--u-min must be strictly less than --u-max")
    if args.samples < 2:
        args.parser.error("--samples must be at least 2")
    params = ElasticaParams(k=args.k, omega=args.omega)
    us = uniform_grid(args.u_min, args.u_max, args.samples)
    # the whole curve is computed, then written as one text formatted by one
    # `%`, so a domain error leaves no partial CSV
    values = tuple(chain.from_iterable(zip(us, *_curve(args.kind, params, us))))
    text = ("u,x,y\n" + "%.17g,%.17g,%.17g\n" * len(us)) % values
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            args.parser.error(f"cannot write --out {args.out}: {exc.strerror}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_check(args):
    if args.trials <= 0:
        args.parser.error("--trials must be positive")
    if not args.tol > 0.0:
        args.parser.error("--tol must be positive")
    rng = random.Random(args.seed)
    qtol = max(min(1e-10, args.tol / 100.0), 1e-13)
    # (constructor, low, high) of the drawn modulus, one regime each
    draws = ((Modulus.real, 0.05, 0.95), (Modulus.real, 1.05, 5.0),
             (Modulus.imaginary, 0.1, 3.0))
    print(f"oracle comparison: {args.trials} trials per regime, "
          f"tol {args.tol:g}, seed {args.seed}")
    ok = True
    for make, low, high in draws:
        worst, at = 0.0, None
        for _ in range(args.trials):
            m = make(rng.uniform(low, high))
            x = rng.uniform(-3.0, 3.0)
            diff = abs(epsilon_any(x, m) - epsilon_by_quadrature(x, m, qtol))
            if at is None or diff > worst:
                worst, at = diff, (m, x)
        m, x = at
        ok = ok and worst <= args.tol
        print(f"  {m.regime.value:<16} max |transform - quadrature| = {worst:.3e} "
              f"at k={m.k!r}, x={x!r}")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 4


@functools.cache
def build_parser():
    """The argument parser, built on the first call and reused by every later one."""
    parser = argparse.ArgumentParser(
        prog="epszeta",
        description="Jacobi epsilon and zeta for real moduli of any size and "
                    "pure imaginary moduli, plus elastica curve export.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate epsilon or zeta at one point")
    p.add_argument("--fn", choices=("epsilon", "zeta"), required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--k", type=float, required=True,
                   help="modulus magnitude (sign is ignored)")
    p.add_argument("--modulus", choices=("real", "imaginary"), default="real",
                   help="interpret --k as the real modulus k or as i*k")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--branch", choices=("lower", "upper"), default="lower",
                   help="imaginary-part sign for zeta with real k > 1")
    p.set_defaults(func=cmd_eval, parser=p)

    p = sub.add_parser("tables", help="print the four reference tables with "
                                      "the quadrature cross-check")
    p.set_defaults(func=cmd_tables, parser=p)

    p = sub.add_parser("elastica", help="sample an elastica curve to CSV")
    p.add_argument("--kind", choices=tuple(_CURVES), required=True)
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--omega", type=float, default=1.0)
    p.add_argument("--u-min", type=float, required=True)
    p.add_argument("--u-max", type=float, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--out", help="output path (stdout when omitted)")
    p.set_defaults(func=cmd_elastica, parser=p)

    p = sub.add_parser("check", help="randomized transform-vs-quadrature comparison")
    p.add_argument("--trials", type=int, default=100, help="trials per regime")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_check, parser=p)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
