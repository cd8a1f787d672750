"""Poisson structure function f(x) on abelianity lines, via two routes.

On an abelianity line the quadratic bracket is {t(z), t(w)} = f(z/w) t t,
and f is obtained by differentiating the exchange function transverse to
the line.  Two independent evaluation routes are provided for each line
type and must agree:

  * the compact route assembles -N lambda ln(q) x d/dx of a weighted sum of
    log U_a factors analytically from the theta log-derivative series;
  * the series route evaluates the explicit double sums
    f = -2 N lambda ln(q) (2 I(x) - I(qx) - I(x/q)), with each Lambert pair
    of I summed in its dual nome by `theta_logderiv_series`, so the cost
    stays bounded as q -> 1.

Type (a) covers non-vanishing integer lambda (weights m/l, n/l* with l, l*
the reduced denominators of lambda/m, lambda*/n); type (b) covers the
cross-cancellation lines with divisor witness d and remainder mu = m mod d.
mu = 0 is admitted as the degenerate boundary where both types literally
apply and must coincide.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .elliptic import DomainError, EllipticContext, PoleError
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

def theta_logderiv_series(a: float, x: complex, *, eps: float = 1e-16) -> complex:
    """-x d/dx ln theta_a(x), the Lambert-type pair

        D_a(x) = sum_{s>=0} x a^s/(1 - x a^s) - sum_{s>=1} x^-1 a^s/(1 - x^-1 a^s),

    summed in the dual nome rho = exp(-4 pi^2/T), T = ln(1/a) (Jacobi
    imaginary transformation, DLMF 20.7):

        D_a(x) = -1/2 - ln(x)/T - (i pi/T) sigma (1 + 2 D_rho(X)),
        X = exp(-2 pi i sigma ln(x)/T),

    with the principal ln and sigma = -1 when Im ln x > 0, else +1, so that
    sqrt(rho) <= |X| <= 1.  D_rho keeps its pairs up to the least n with
    rho^(n-1/2) < eps: the cost stays bounded as a -> 1 (one term once rho
    underflows) and no sum is cut short.  A zero x = a^k (1 + delta) of
    theta_a sits at |X - 1| ~ 2 pi |delta|/T; PoleError is raised for
    |X - 1| < 2 pi 1e-9/T, i.e. |delta| below about 1e-9.  Satisfies
    value(a,x) + value(a,1/x) = -1.
    """
    if not 0.0 < a < 1.0:
        raise DomainError(f"nome must lie in (0,1), got {a}")
    x = complex(x)
    if x == 0:
        raise DomainError("argument must be nonzero")
    if not (math.isfinite(x.real) and math.isfinite(x.imag)):
        raise DomainError(f"argument must be finite, got {x}")
    T = -math.log(a)
    lnx = cmath.log(x)
    sigma = -1.0 if lnx.imag > 0.0 else 1.0
    # X = exp(re + i im), re <= 0; gap = 1 - X stays accurate near X = 1
    re = 2.0 * math.pi * sigma * lnx.imag / T
    im = -2.0 * math.pi * sigma * lnx.real / T
    mod = math.exp(re)
    X = complex(mod * math.cos(im), mod * math.sin(im))
    gap = complex(2.0 * math.sin(0.5 * im) ** 2 - math.expm1(re) * math.cos(im),
                  -X.imag)
    if abs(gap) < 2e-9 * math.pi / T:
        raise PoleError(f"series pole: x within 1e-9 of a power of a (x={x})")
    log_rho = -4.0 * math.pi * math.pi / T
    rho = math.exp(log_rho)
    n = math.floor(math.log(eps) / log_rho + 0.5) + 1 if rho > 0.0 else 1
    total = (1.0 + X) / gap   # 1 + 2 X/(1 - X)
    if n > 1:
        iX = 1.0 / X
        r = 1.0
        for _ in range(1, n):
            r *= rho
            total += 2.0 * (X * r / (1.0 - X * r) - iX * r / (1.0 - iX * r))
    return -0.5 - lnx / T - 1j * math.pi * sigma * total / T


def _u_logderiv(ctx: EllipticContext, a: float, x: complex) -> complex:
    """x d/dx ln U_a(x), assembled analytically.

    Chain rule through the squared arguments gives the factor +-2:
      x d/dx ln theta_a(c x^2)  = -2 D_a(c x^2),
      x d/dx ln theta_a(c x^-2) = +2 D_a(c x^-2),
    with D_a = theta_logderiv_series.
    """
    q2 = ctx.q * ctx.q
    x2 = x * x
    eps = ctx.eps_trunc
    D = theta_logderiv_series
    return 2.0 * (D(a, x2, eps=eps) - D(a, q2 * x2, eps=eps)
                  + D(a, q2 / x2, eps=eps) - D(a, 1.0 / x2, eps=eps))


def _second_difference(fn, ctx: EllipticContext, x: complex) -> complex:
    return 2.0 * fn(x) - fn(ctx.q * x) - fn(x / ctx.q)


# ---------------------------------------------------------------------------
# type (a)
# ---------------------------------------------------------------------------

def f_type_a(ctx: EllipticContext, params: PoissonParamsA, x: complex) -> complex:
    """Compact form, type (a):

    f(x) = -N lambda ln(q) x d/dx [ (m/l) ln U_{q^{2N/l}}(x)
                                  + (n/l*) ln U_{q^{2N/l*}}(x) ].
    """
    a1 = ctx.q ** (2.0 * ctx.N / params.ell)
    a2 = ctx.q ** (2.0 * ctx.N / params.ell_star)
    bracket = (params.surface.m / params.ell) * _u_logderiv(ctx, a1, x) \
        + (params.surface.n / params.ell_star) * _u_logderiv(ctx, a2, x)
    return -ctx.N * params.lam * math.log(ctx.q) * bracket


def f_type_a_series(ctx: EllipticContext, params: PoissonParamsA,
                    x: complex) -> complex:
    """Series form, type (a): f = -2 N lambda ln(q) (2I(x) - I(qx) - I(x/q))
    with I(x) the weighted pair of Lambert sums in x^2."""
    a1 = ctx.q ** (2.0 * ctx.N / params.ell)
    a2 = ctx.q ** (2.0 * ctx.N / params.ell_star)
    eps = ctx.eps_trunc
    D = theta_logderiv_series

    def I(y: complex) -> complex:
        y2 = y * y
        return (params.surface.m / params.ell) * D(a1, y2, eps=eps) \
            + (params.surface.n / params.ell_star) * D(a2, y2, eps=eps)

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
    a_d = ctx.q ** (2.0 * ctx.N / d)
    a_full = ctx.nome
    s = ctx.q ** (-ctx.N * float(params.lam / m))

    bracket = (1.0 + mu * mu / (m * n)) * _u_logderiv(ctx, a_d, x)
    bracket -= (d * mu / (m * n)) * _u_logderiv(ctx, a_full, x)
    for k in range(1, mu):
        term = _u_logderiv(ctx, a_full, s ** k * x) \
            + _u_logderiv(ctx, a_full, x / s ** k)
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
    a_d = ctx.q ** (2.0 * ctx.N / d)
    a_full = ctx.nome
    eps = ctx.eps_trunc
    p = ctx.q ** (-2.0 * ctx.N * float(params.lam / m))
    D = theta_logderiv_series

    def I(y: complex) -> complex:
        y2 = y * y
        total = (1.0 + mu * mu / (m * n)) * D(a_d, y2, eps=eps)
        total += (d * mu / (m * n)) * D(a_full, y2, eps=eps)
        for k in range(mu):
            pk = p ** k
            ksum = D(a_full, pk * y2, eps=eps) - D(a_full, pk / y2, eps=eps)
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
