"""Poisson structure function f(x) on abelianity lines, via two routes.

On an abelianity line the quadratic bracket is {t(z), t(w)} = f(z/w) t t,
and f is obtained by differentiating the exchange function transverse to
the line.  Two independent evaluation routes are provided for each line
type and must agree:

  * the compact route assembles -N lambda ln(q) x d/dx of a weighted sum of
    log U_a factors analytically from the theta log-derivative series;
  * the series route evaluates the explicit double sums
    f = -2 N lambda ln(q) (2 I(x) - I(qx) - I(x/q)).

Both sum every Lambert pair D_a in its dual nome with the kernel of
`elliptic`, so the cost stays bounded as q -> 1.  A nome a = q^{2N/l} is
never formed as a float but taken as T = ln(1/a) = 2N ln(1/q)/l, so it
cannot underflow for small q.

Type (a) covers non-vanishing integer lambda (weights m/l, n/l* with l, l*
the reduced denominators of lambda/m, lambda*/n); type (b) covers the
cross-cancellation lines with divisor witness d and remainder mu = m mod d.
mu = 0 is admitted as the degenerate boundary where both types literally
apply and must coincide.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .elliptic import DomainError, EllipticContext, PoleError, _DualNome
from .lattice import LambdaPair, Surface, _condition2_d


@dataclass(frozen=True)
class PoissonParamsA:
    """Parameters of an integer-lambda (type a) line.

    l > 0 and l* > 0 are the reduced denominators of lambda/m and
    lambda*/n (`LambdaPair.over`), and w = m/l = gcd(lambda, m) carrying
    the sign of m (likewise w* = n/l*).
    """

    surface: Surface
    lam: int
    w: int
    w_star: int
    ell: int
    ell_star: int

    @classmethod
    def from_line(cls, surface: Surface, lam: int) -> "PoissonParamsA":
        if surface.m == 0 or surface.n == 0:
            raise DomainError(f"{surface} has no lambda coordinate")
        if lam in (0, 1):
            raise DomainError("type (a) requires non-vanishing integer "
                              "lambda and lambda*")
        _, ell, _, ell_star = LambdaPair.from_lambda(lam).over(surface.m, surface.n)
        return cls(surface, lam, surface.m // ell, surface.n // ell_star,
                   ell, ell_star)


@dataclass(frozen=True)
class PoissonParamsB:
    """Parameters of a cross-cancellation (type b) line.

    d is the reduced denominator of lambda/m and divides m+n; mu is the
    remainder of m by d.  mu = 0 only at the overlap boundary with type (a).
    """

    surface: Surface
    lam: Fraction
    d: int
    mu: int

    @classmethod
    def from_line(cls, surface: Surface, lam) -> "PoissonParamsB":
        lam = Fraction(lam)
        if surface.m == 0 or surface.n == 0:
            raise DomainError(f"{surface} has no lambda coordinate")
        d = _condition2_d(surface, LambdaPair.from_lambda(lam))
        if d is None:
            raise DomainError("not a type (b) line: lambda/m - lambda*/n must be "
                              "an integer with common reduced denominator d | m+n")
        return cls(surface, lam, d, surface.m % d)


# ---------------------------------------------------------------------------
# series primitives
# ---------------------------------------------------------------------------

def theta_logderiv_series(a: float, x: complex) -> complex:
    """-x d/dx ln theta_a(x), the Lambert-type pair

        D_a(x) = sum_{s>=0} x a^s/(1 - x a^s) - sum_{s>=1} x^-1 a^s/(1 - x^-1 a^s),

    summed in the dual nome of a (`elliptic._DualNome.logderiv`): the cost
    stays bounded as a -> 1 and no sum is cut short.  PoleError within
    `elliptic.POLE_DISTANCE` of a zero x = a^k of theta_a.  Satisfies
    value(a,x) + value(a,1/x) = -1.
    """
    if not 0.0 < a < 1.0:
        raise DomainError(f"nome must lie in (0,1), got {a}")
    return _DualNome(-math.log(a)).logderiv(x)


def _nome(ctx: EllipticContext, ell: int) -> _DualNome:
    """The nome q^{2N/ell}, taken as T = 2N ln(1/q)/ell."""
    return _DualNome(-2.0 * ctx.N * math.log(ctx.q) / ell)


def _u_logderiv(ctx: EllipticContext, nome: _DualNome, x: complex) -> complex:
    """x d/dx ln U_a(x), assembled analytically.

    Chain rule through the squared arguments gives the factor +-2:
      x d/dx ln theta_a(c x^2)  = -2 D_a(c x^2),
      x d/dx ln theta_a(c x^-2) = +2 D_a(c x^-2).
    """
    q2 = ctx.q * ctx.q
    x2 = x * x
    D = nome.logderiv
    try:
        return 2.0 * (D(x2) - D(q2 * x2) + D(q2 / x2) - D(1.0 / x2))
    except (DomainError, ZeroDivisionError) as exc:  # D_a was handed 0 or inf
        raise DomainError(_RANGE_REASON.format(ctx.q)) from exc


_RANGE_REASON = ("argument must be finite and nonzero: a squared or shifted "
                 "grid argument at q = {:g} lies outside float range")


def _shift_powers(ctx: EllipticContext, exponent: float, ks: range) -> list[float]:
    """s^k for k in ks with s = q^exponent, the argument shifts of type (b).

    Raises DomainError when s or a power leaves the normal float range;
    s is not formed when no k is nonzero.
    """
    if not any(ks):
        return [1.0] * len(ks)
    try:
        s = ctx.q ** exponent
        powers = [s ** k for k in ks]
    except OverflowError:
        pass
    else:
        # an underflow to 0 or to a subnormal float is silent
        if all(v >= sys.float_info.min for v in powers):
            return powers
    raise DomainError(f"argument shift (q^{exponent:g})^k for k up to "
                      f"{ks[-1]} lies outside float range")


def _second_difference(fn, ctx: EllipticContext, x: complex) -> complex:
    try:
        return 2.0 * fn(x) - fn(ctx.q * x) - fn(x / ctx.q)
    except (DomainError, ZeroDivisionError) as exc:
        raise DomainError(_RANGE_REASON.format(ctx.q)) from exc


# ---------------------------------------------------------------------------
# type (a)
# ---------------------------------------------------------------------------

def f_type_a(ctx: EllipticContext, params: PoissonParamsA, x: complex) -> complex:
    """Compact form, type (a):

    f(x) = -N lambda ln(q) x d/dx [ (m/l) ln U_{q^{2N/l}}(x)
                                  + (n/l*) ln U_{q^{2N/l*}}(x) ].
    """
    a1, a2 = _nome(ctx, params.ell), _nome(ctx, params.ell_star)
    bracket = (params.surface.m / params.ell) * _u_logderiv(ctx, a1, x) \
        + (params.surface.n / params.ell_star) * _u_logderiv(ctx, a2, x)
    return -ctx.N * params.lam * math.log(ctx.q) * bracket


def f_type_a_series(ctx: EllipticContext, params: PoissonParamsA,
                    x: complex) -> complex:
    """Series form, type (a): f = -2 N lambda ln(q) (2I(x) - I(qx) - I(x/q))
    with I(x) the weighted pair of Lambert sums in x^2."""
    D1, D2 = _nome(ctx, params.ell).logderiv, _nome(ctx, params.ell_star).logderiv

    def I(y: complex) -> complex:
        y2 = y * y
        return (params.surface.m / params.ell) * D1(y2) \
            + (params.surface.n / params.ell_star) * D2(y2)

    return -2.0 * ctx.N * params.lam * math.log(ctx.q) \
        * _second_difference(I, ctx, x)


# ---------------------------------------------------------------------------
# type (b)
# ---------------------------------------------------------------------------

def f_type_b(ctx: EllipticContext, params: PoissonParamsB, x: complex) -> complex:
    """Compact form, type (b):

    f(x) = -N lambda ln(q) ((m+n)/d) x d/dx [
              (1 + mu^2/(mn)) ln U_{q^{2N/d}}(x)
            - (d mu/(mn)) ln U_{q^{2N}}(x)
            + (d/(mn)) sum_{k=1}^{mu-1} (k - mu)
                  ln( U_{q^{2N}}(s^k x) U_{q^{2N}}(s^-k x) ) ]

    with s = q^{-N lambda/m}.
    """
    m, n = params.surface.m, params.surface.n
    d, mu = params.d, params.mu
    a_d, a_full = _nome(ctx, d), _nome(ctx, 1)
    ks = range(1, mu)
    shifts = _shift_powers(ctx, -ctx.N * float(params.lam / m), ks)

    bracket = (1.0 + mu * mu / (m * n)) * _u_logderiv(ctx, a_d, x)
    bracket -= (d * mu / (m * n)) * _u_logderiv(ctx, a_full, x)
    for k, sk in zip(ks, shifts):
        term = _u_logderiv(ctx, a_full, sk * x) \
            + _u_logderiv(ctx, a_full, x / sk)
        bracket += (d / (m * n)) * (k - mu) * term
    pref = -ctx.N * float(params.lam) * math.log(ctx.q) * (m + n) / d
    return pref * bracket


def f_type_b_series(ctx: EllipticContext, params: PoissonParamsB,
                    x: complex) -> complex:
    """Series form, type (b): the triple Lambert sum with weights
    (1 + mu^2/mn), d mu/mn and (d/mn)(k - mu) over k = 0..mu-1, combined as
    f = -2 N lambda ln(q) ((m+n)/d) (2I(x) - I(qx) - I(x/q))."""
    m, n = params.surface.m, params.surface.n
    d, mu = params.d, params.mu
    D_d, D_full = _nome(ctx, d).logderiv, _nome(ctx, 1).logderiv
    ks = range(mu)
    shifts = _shift_powers(ctx, -2.0 * ctx.N * float(params.lam / m), ks)

    def I(y: complex) -> complex:
        y2 = y * y
        total = (1.0 + mu * mu / (m * n)) * D_d(y2)
        total += (d * mu / (m * n)) * D_full(y2)
        for k, pk in zip(ks, shifts):
            ksum = D_full(pk * y2) - D_full(pk / y2)
            total += (d / (m * n)) * (k - mu) * ksum
        return total

    pref = -2.0 * ctx.N * float(params.lam) * math.log(ctx.q) * (m + n) / d
    return pref * _second_difference(I, ctx, x)


# ---------------------------------------------------------------------------
# dispatch and multi-index bracket
# ---------------------------------------------------------------------------

PoissonParams = PoissonParamsA | PoissonParamsB


def f_compact(ctx: EllipticContext, params: PoissonParams, x: complex) -> complex:
    if isinstance(params, PoissonParamsA):
        return f_type_a(ctx, params, x)
    return f_type_b(ctx, params, x)


def f_series(ctx: EllipticContext, params: PoissonParams, x: complex) -> complex:
    if isinstance(params, PoissonParamsA):
        return f_type_a_series(ctx, params, x)
    return f_type_b_series(ctx, params, x)


def _half_index_range(k: int) -> list[Fraction]:
    # (1-k)/2, (3-k)/2, ..., (k-1)/2 in integer steps
    return [Fraction(1 - k, 2) + r for r in range(k)]


def f_kk(ctx: EllipticContext, params: PoissonParams, k: int, kp: int,
         x: complex) -> complex:
    """Multi-index structure function
    f^{(k,k')}(x) = sum_i sum_j f(q^{i-j} x) over the half-integer ranges."""
    if not (1 <= k <= ctx.N and 1 <= kp <= ctx.N):
        raise DomainError(f"k, k' must lie in 1..N={ctx.N}")
    total = 0.0 + 0.0j
    for i in _half_index_range(k):
        for j in _half_index_range(kp):
            total += f_compact(ctx, params, ctx.q ** float(i - j) * x)
    return total


def params_for_line(surface: Surface, lam: LambdaPair) -> PoissonParams:
    """Poisson parameters for an abelianity line, preferring type (a)."""
    if lam.lam.denominator == 1 and lam.lam not in (0, 1):
        return PoissonParamsA.from_line(surface, int(lam.lam))
    return PoissonParamsB.from_line(surface, lam.lam)
