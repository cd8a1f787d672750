"""Command-line interface: classification, enumeration and verification.

Machine-readable output: JSON documents (one object, or one object per line
for `scan`) and CSV for `poisson`.  Every JSON document is in `json.dumps`'
default form (", " and ": " separators); `scan`, `enumerate-lines` and
`surfaces-through` write theirs directly in it, building no dicts for them.
Rationals are always serialized exactly as "a/b" strings, never as
floats.  Exit codes: 0 success, 1 verification mismatch (exact verdict
and numeric witness disagree, or no grid point could be evaluated; from
N = 3 on, a non-identity within COMPLETE_TOL of 1 on the whole grid is one,
as in `verify-super --m=38 --lambda=6 --N=3 --q=0.8`), 2 invalid input,
including an --out path that cannot be written.  `scan` and
`enumerate-lines` stream, one write per outer surface or divisor d; a
mismatch found in mid-stream (exit 1) leaves what was written cut after
the last whole one.  A reader that closes stdout early (`scan ... | head`)
ends the command quietly with exit code 0.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import dataclasses
import json
import math
import os
import sys
from fractions import Fraction

from . import elliptic, lattice, oracle, poisson
from .elliptic import DomainError, EllipticContext, PoleError
from .lattice import LambdaPair, Surface

# numeric witness thresholds: abelian lines must sit below SOUND_TOL,
# non-abelian lines must exceed COMPLETE_TOL somewhere on the grid
SOUND_TOL = 1e-9
COMPLETE_TOL = 1e-4


# each verdict tag's JSON text, keyed on `_value_` (Enum.__hash__ runs in Python)
_TAG_JSON = {v._value_: json.dumps(v.value) for v in lattice.Verdict}


def _int_frac_str(num: int, den: int) -> str:
    """num/den, already in lowest terms with den > 0, as "a/b" or "a"."""
    return str(num) if den == 1 else f"{num}/{den}"


# argparse shows the text of an ArgumentTypeError but replaces that of a
# ValueError with "invalid <function name> value"
def _parse_frac(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator in {text!r}") from None
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_surface(text: str) -> Surface:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"surface must be 'm,n', got {text!r}")
    try:
        return Surface(int(parts[0]), int(parts[1]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_grid(text: str) -> list[complex]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"grid must be 'r1,r2,count', got {text!r}")
    try:
        r1, r2, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    for r in (r1, r2):
        if not math.isfinite(r) or r == 0:
            raise argparse.ArgumentTypeError(
                f"grid radii must be finite and nonzero, got {r}")
    if count < 1:
        raise argparse.ArgumentTypeError(f"grid count must be at least 1, got {count}")
    return elliptic.verification_grid(r1, r2, count)


def _parse_kk(text: str) -> tuple[int, int]:
    try:
        k, kp = (int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"multi-index must be two integers 'k,kp', got {text!r}") from None
    return k, kp


def _parse_rank(text: str) -> int:
    try:
        N = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if N < 2:
        raise argparse.ArgumentTypeError(f"N must be >= 2, got {N}")
    return N


def _surface_dict(s: Surface) -> dict:
    return {"m": s.m, "n": s.n}


def _lambda_dict(lam: LambdaPair | None) -> dict | None:
    if lam is None:
        return None
    return {"lambda": str(lam.lam), "lambda_star": str(lam.lam_star)}


def _verdict_dict(v: lattice.AbelianityVerdict, N: int) -> dict:
    """The verdict, which does not depend on N, with the N = 2 caveat: there
    the conditions are only sufficient ("magic" theta cancellations can occur
    because the q^2 shift coincides with the q^N half-period)."""
    wit = None if v.witnesses is None else dataclasses.asdict(v.witnesses)
    return {"tag": v.tag.value, "abelian": v.is_abelian,
            "witnesses": wit, "n_caveat": N == 2}


def _line_dict(line: lattice.LineParams | None) -> dict | None:
    if line is None:
        return None
    return {"e_p": str(line.e_p),
            "e_pstar": str(line.e_pstar),
            "c_over_N": str(line.c_over_N),
            "algebra_valid": line.algebra_valid}


def emit(report, fmt: str = "json") -> str:
    """Serialize a report deterministically: JSON, or CSV from (header, rows)."""
    if fmt == "json":
        return json.dumps(report)
    header, rows = report
    return "\n".join(",".join(row) for row in (header, *rows))


@contextlib.contextmanager
def _output(out_path: str | None):
    """Yield a `write` that copies text to stdout and to --out, which is opened
    first: an unwritable path is an input error (exit 2) before any byte."""
    with open(out_path, "w") if out_path else contextlib.nullcontext() as fh:
        def write(text: str) -> None:
            sys.stdout.write(text)
            if fh:
                fh.write(text)
        yield write


def _write_output(text: str, out_path: str | None) -> None:
    with _output(out_path) as write:
        write(text + "\n")


def _cmd_intersect(args) -> int:
    s1, s2 = args.s1, args.s2
    line = lattice.intersect_surfaces(s1, s2)
    report = {"s1": _surface_dict(s1), "s2": _surface_dict(s2), "N": args.N,
              "intersection": _line_dict(line),
              "lambda_s1": None, "lambda_s2": None,
              "verdict_s1": None, "verdict_s2": None}
    if line is not None:
        (lam1, v1), (lam2, v2) = lattice.intersection_sides(s1, s2)
        report.update(lambda_s1=_lambda_dict(lam1), lambda_s2=_lambda_dict(lam2),
                      verdict_s1=_verdict_dict(v1, args.N),
                      verdict_s2=_verdict_dict(v2, args.N))
    _write_output(emit(report), args.out)
    return 0


def _oracle_agreement(s: Surface, lam: LambdaPair | None,
                      verdict: lattice.AbelianityVerdict,
                      oracle_abelian: bool) -> tuple[bool, bool]:
    """(zero-lambda exclusion, verdict agrees with the oracle).

    lambda=0 / lambda*=0 cancels identically but leaves the |p|<1 moduli
    space, so the verdict is NotAbelian by convention; not a mismatch.
    """
    excluded = not s.is_whole_surface_abelian() and \
        (lam.lam == 0 or lam.lam_star == 0)
    return excluded, (verdict.is_abelian == oracle_abelian
                      or (excluded and oracle_abelian))


def _cmd_classify(args) -> int:
    s = args.surface
    lam = LambdaPair.from_lambda(args.lam)
    verdict = lattice.classify_lambda(s, lam)
    mset = oracle.exchange_exponents(s, lam)
    oracle_abelian = oracle.is_abelian(mset)
    excluded, consistent = _oracle_agreement(s, lam, verdict, oracle_abelian)
    report = {"surface": _surface_dict(s), "lambda": _lambda_dict(lam),
              "N": args.N, "verdict": _verdict_dict(verdict, args.N),
              "oracle_abelian": oracle_abelian,
              "zero_lambda_exclusion": excluded,
              "consistent": consistent}
    _write_output(emit(report), args.out)
    return 0 if consistent else 1


def _cmd_enumerate_lines(args) -> int:
    s = args.surface
    if args.k_min > args.k_max:
        raise ValueError(f"--k-min {args.k_min} exceeds --k-max {args.k_max}")
    ks = range(args.k_min, args.k_max + 1)
    divisors = lattice._families_by_divisor(s)  # input errors before any byte
    # the document is written as the text json.dumps gives for
    # {"surface", "N", "families": [{"d", ..., "members": [{"k", ...}]}]}:
    # same keys in the same order, ", " and ": " separators.  One write per
    # divisor d, the first with the head, so a mismatch cuts it after a divisor
    text = f'{{"surface": {emit(_surface_dict(s))}, "N": {args.N}, "families": ['
    heads = [(k, f'{{"k": {k}, "lambda": "') for k in ks]
    member, tags = lattice.LambdaFamily.member, _TAG_JSON
    with _output(args.out) as write:
        for families in divisors:
            fams = []
            for fam in families:
                members = []
                for k, head in heads:
                    num, den, tag = member(fam, k)
                    # lambda = num/den and lambda* = (den - num)/den are both in
                    # lowest terms, so they share the "/den" (none when den == 1)
                    over = "" if den == 1 else f"/{den}"
                    members.append(f'{head}{num}{over}", "lambda_star": '
                                   f'"{den - num}{over}", "tag": {tags[tag._value_]}}}')
                fams.append(f'{{"d": {fam.d}, "gamma": {fam.gamma}, "gamma_prime": '
                            f'{fam.gamma_prime}, "g": {fam.g}, "ell": {fam.ell}, '
                            f'"ell_prime": {fam.ell_prime}, "integer_degenerate": '
                            f'{"true" if fam.integer_degenerate else "false"}, '
                            f'"members": [{", ".join(members)}]}}')
            write(text + ", ".join(fams))
            text = ", "
        write(text.removesuffix(", ") + "]}\n")  # text is the head if no family
    return 0


def _cmd_surfaces_through(args) -> int:
    s1, s2 = args.s1, args.s2
    if args.t_min > args.t_max:
        raise ValueError(f"--t-min {args.t_min} exceeds --t-max {args.t_max}")
    # NoIntersectionError (exit 2) when the surfaces do not meet
    line, walked = lattice._surfaces_through(s1, s2, range(args.t_min, args.t_max + 1))
    # written as the text json.dumps gives for {"s1": {"m", "n"}, "s2", "line",
    # "surfaces": [{"m", "n"}, ...]}, as in `enumerate-lines`
    surfaces = ", ".join([f'{{"m": {m}, "n": {n}}}' for m, n in walked])
    _write_output(f'{{"s1": {emit(_surface_dict(s1))}, "s2": {emit(_surface_dict(s2))}, '
                  f'"line": {emit(_line_dict(line))}, "surfaces": [{surfaces}]}}', args.out)
    return 0


def _finite_at(val: complex, x: complex) -> complex:
    """val, or DomainError: no NaN or infinity enters a maximum or a row."""
    if not cmath.isfinite(val):
        raise DomainError(f"value {val} at grid point x = {x} is not finite")
    return val


def _grid_max_deviation(evaluate, grid) -> tuple[float, int]:
    """Max |value - 1| over the grid, skipping pole-adjacent points."""
    worst = 0.0
    used = 0
    for x in grid:
        try:
            val = _finite_at(evaluate(x), x)
        except PoleError:
            continue
        used += 1
        worst = max(worst, abs(val - 1.0))
    return worst, used


def _numeric_ok(worst: float, used: int, identity: bool, N: int) -> bool:
    """Numeric witness check: an identity must stay below SOUND_TOL, and a
    non-identity must exceed COMPLETE_TOL somewhere, except at N = 2, the
    sufficient-only regime, which claims no completeness.  A grid on which no
    point could be evaluated checks nothing."""
    if used == 0:
        return False
    if identity:
        return worst < SOUND_TOL
    return N == 2 or worst > COMPLETE_TOL


def _cmd_verify_y(args) -> int:
    s = args.surface
    lam = None if args.lam is None else LambdaPair.from_lambda(args.lam)
    if not s.is_whole_surface_abelian() and lam is None:
        raise ValueError("--lambda is required unless m=0 or n=0")
    ctx = EllipticContext(N=args.N, q=args.q)
    mset = oracle.exchange_exponents(s, lam)
    oracle_abelian = oracle.is_abelian(mset)
    verdict = lattice.classify_lambda(s, lam)
    _, classification_ok = _oracle_agreement(s, lam, verdict, oracle_abelian)
    worst, used = _grid_max_deviation(elliptic.exchange_plan(ctx, s, lam), args.grid)
    collapses = oracle.cycle_collapses(mset, args.N)
    numeric_ok = _numeric_ok(worst, used, oracle_abelian or collapses, args.N)
    report = {"surface": _surface_dict(s), "lambda": _lambda_dict(lam),
              "N": args.N, "q": args.q,
              "verdict": _verdict_dict(verdict, args.N),
              "oracle_abelian": oracle_abelian,
              "cycle_collapse": collapses and not oracle_abelian,
              "max_abs_y_minus_1": worst,
              "points_evaluated": used,
              "numeric_consistent": numeric_ok,
              "classification_consistent": classification_ok}
    _write_output(emit(report), args.out)
    return 0 if (numeric_ok and classification_ok) else 1


def _cmd_verify_super(args) -> int:
    verdict = lattice.super_abelianity_check(args.m, args.lam)
    mset = oracle.centrality_exponents(abs(args.m), args.lam)
    oracle_empty = oracle.is_abelian(mset)
    ctx = EllipticContext(N=args.N, q=args.q)
    worst, used = _grid_max_deviation(
        elliptic.centrality_plan(ctx, abs(args.m), args.lam), args.grid)
    collapses = oracle.cycle_collapses(mset, args.N)
    numeric_ok = _numeric_ok(worst, used, oracle_empty or collapses, args.N)
    consistent = (verdict.super_abelian == oracle_empty) and numeric_ok
    report = {"m": args.m, "lambda": args.lam, "N": args.N, "q": args.q,
              "verdict": dataclasses.asdict(verdict),
              "oracle_empty": oracle_empty,
              "cycle_collapse": collapses and not oracle_empty,
              "max_abs_ratio_minus_1": worst,
              "points_evaluated": used,
              "consistent": consistent}
    _write_output(emit(report), args.out)
    return 0 if consistent else 1


def _cmd_poisson(args) -> int:
    s = args.surface
    lam = LambdaPair.from_lambda(args.lam)
    verdict = lattice.classify_lambda(s, lam)
    if not verdict.is_abelian:
        raise ValueError(f"no Poisson structure off abelianity lines "
                         f"(verdict {verdict.tag.value})")
    params = poisson.params_for_line(s, lam)  # refuses a whole surface
    ctx = EllipticContext(N=args.N, q=args.q)
    k, kp = args.kk
    route = poisson.f_series if args.route == "series" else poisson.f_compact
    evaluate = (lambda x: poisson.f_kk(ctx, params, k, kp, x, route)) \
        if (k, kp) != (1, 1) else (lambda x: route(ctx, params, x))
    rows = []
    for x in args.grid:
        x_re, x_im = f"{x.real:.17g}", f"{x.imag:.17g}"
        try:
            val = _finite_at(evaluate(x), x)
        except PoleError as exc:
            print(f"poisson: skipped x = {x_re},{x_im}: {exc}", file=sys.stderr)
            continue
        rows.append((x_re, x_im, f"{val.real:.17g}", f"{val.imag:.17g}"))
    _write_output(emit((("x_re", "x_im", "f_re", "f_im"), rows), "csv"), args.out)
    if not rows:
        print("poisson: no grid point could be evaluated", file=sys.stderr)
        return 1
    return 0


def _cmd_scan(args) -> int:
    box = args.box
    if box < 0:
        raise ValueError(f"--box must be >= 0, got {box}")
    surfaces = [Surface(m, n)
                for m in range(-box, box + 1)
                for n in range(-box, box + 1)
                if (m, n) != (0, 0)]
    pairs = disagree = 0
    NOT_ABELIAN = lattice.Verdict.NOT_ABELIAN
    # each row is written as the text json.dumps gives for {"s1": [m, n],
    # "s2", "e_p", "e_pstar", "c_over_N", "lambda_s1", "lambda_s2", "tag_s1",
    # "tag_s2", "oracle_agree"}: same keys in the same order, ", " and ": "
    # separators; every value is digits, "-" and "/", so nothing is escaped
    texts = [f"[{s.m}, {s.n}]" for s in surfaces]
    with _output(args.out) as write:  # one write per outer surface
        for i, s1 in enumerate(surfaces):
            row = []
            head = f'{{"s1": {texts[i]}, "s2": '
            for j in range(i + 1, len(surfaces)):
                s2 = surfaces[j]
                core = lattice._sides_reduced(s1, s2)
                if core is None:
                    continue
                (a, d, b, dp), (c, e), ((lam1, tag1, _), (lam2, tag2, _)) = core
                # the exchange function cancels iff every exponent count is zero
                o1, o2 = (not any(oracle._exchange_counts(s.m, s.n, a, d, b, dp)[0].values())
                          for s in (s1, s2))
                agree = (tag1 is not NOT_ABELIAN) == o1 and (tag2 is not NOT_ABELIAN) == o2
                disagree += not agree
                l1 = "null" if lam1 is None else f'"{_int_frac_str(*lam1)}"'
                l2 = "null" if lam2 is None else f'"{_int_frac_str(*lam2)}"'
                row.append(
                    f'{head}{texts[j]}, "e_p": "{_int_frac_str(-a, d)}", '
                    f'"e_pstar": "{_int_frac_str(-b, dp)}", '
                    f'"c_over_N": "{_int_frac_str(c, e)}", '
                    f'"lambda_s1": {l1}, "lambda_s2": {l2}, '
                    f'"tag_s1": {_TAG_JSON[tag1._value_]}, '
                    f'"tag_s2": {_TAG_JSON[tag2._value_]}, '
                    f'"oracle_agree": {"true" if agree else "false"}}}')
            if row:
                pairs += len(row)
                write("\n".join(row) + "\n")
        if not pairs:  # an empty sweep is one blank line, like every report
            write("\n")
    if disagree:
        print(f"scan: {pairs} intersecting pairs, {disagree} with "
              f"oracle_agree false", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abelianity",
        description="Classify and verify abelianity lines on critical "
                    "surfaces of deformed W-algebra structure functions.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, numeric=False, rank=True):
        if rank:
            p.add_argument("--N", type=_parse_rank, default=3,
                           help="algebra rank parameter (default 3)")
        p.add_argument("--out", default=None,
                       help="also write the output bytes to this path")
        if numeric:
            p.add_argument("--q", type=float, default=0.6,
                           help="deformation parameter in (0,1)")
            p.add_argument("--grid", type=_parse_grid,
                           default=elliptic.verification_grid(),
                           help="evaluation grid 'r1,r2,count'")

    p = sub.add_parser("intersect", help="intersect two critical surfaces")
    p.add_argument("--s1", type=_parse_surface, required=True)
    p.add_argument("--s2", type=_parse_surface, required=True)
    add_common(p)
    p.set_defaults(func=_cmd_intersect)

    p = sub.add_parser("classify", help="classify a line on one surface")
    p.add_argument("--surface", type=_parse_surface, required=True)
    p.add_argument("--lambda", dest="lam", type=_parse_frac, required=True)
    add_common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("enumerate-lines",
                       help="enumerate cross-cancellation line families")
    p.add_argument("--surface", type=_parse_surface, required=True)
    p.add_argument("--k-min", type=int, default=-2)
    p.add_argument("--k-max", type=int, default=2)
    add_common(p)
    p.set_defaults(func=_cmd_enumerate_lines)

    p = sub.add_parser("surfaces-through",
                       help="surfaces through an intersection line")
    p.add_argument("--s1", type=_parse_surface, required=True)
    p.add_argument("--s2", type=_parse_surface, required=True)
    p.add_argument("--t-min", type=int, default=-5)
    p.add_argument("--t-max", type=int, default=5)
    add_common(p, rank=False)  # the surfaces through a line do not depend on N
    p.set_defaults(func=_cmd_surfaces_through)

    p = sub.add_parser("verify-y",
                       help="verify a verdict against the numeric exchange function")
    p.add_argument("--surface", type=_parse_surface, required=True)
    p.add_argument("--lambda", dest="lam", type=_parse_frac, default=None)
    add_common(p, numeric=True)
    p.set_defaults(func=_cmd_verify_y)

    p = sub.add_parser("verify-super",
                       help="verify a super-abelianity verdict numerically")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=int, required=True)
    add_common(p, numeric=True)
    p.set_defaults(func=_cmd_verify_super)

    p = sub.add_parser("poisson",
                       help="evaluate the Poisson structure function on a grid")
    p.add_argument("--surface", type=_parse_surface, required=True)
    p.add_argument("--lambda", dest="lam", type=_parse_frac, required=True)
    p.add_argument("--kk", type=_parse_kk, default=(1, 1),
                   help="multi-index 'k,kp' (default 1,1)")
    p.add_argument("--route", choices=("compact", "series"), default="compact")
    add_common(p, numeric=True)
    p.set_defaults(func=_cmd_poisson)

    p = sub.add_parser("scan", help="sweep all surface pairs within a box")
    p.add_argument("--box", type=int, required=True)
    add_common(p, rank=False)  # no row of the sweep depends on N
    p.set_defaults(func=_cmd_scan)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors already
        return int(exc.code or 0)
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader closed stdout (e.g. `| head`): stop quietly, and point
        # stdout at /dev/null so the interpreter's final flush cannot fail
        try:
            fd = sys.stdout.fileno()
        except (OSError, ValueError):  # not a file descriptor: nothing to flush
            return 0
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return 0
    except (ValueError, OSError) as exc:
        # ValueError: every input error, the lattice's included; OSError: an
        # --out path that cannot be written (BrokenPipeError is handled above)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except lattice.CrossCheckError as exc:
        print(f"verification mismatch: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
