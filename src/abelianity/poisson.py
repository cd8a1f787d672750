"""Poisson structure function f(x) on abelianity lines, via two routes.

On an abelianity line the quadratic bracket is {t(z), t(w)} = f(z/w) t t,
and f is obtained by differentiating the exchange function transverse to
the line.  Each line type states its terms as two tables, and each
evaluation route is one loop over its table; the routes must agree:

  * the compact route assembles -N lambda ln(q) x d/dx of a weighted sum of
    log U_a factors analytically from the theta log-derivative series;
  * the series route evaluates the explicit double sums
    f = -2 N lambda ln(q) (2 I(x) - I(qx) - I(x/q)).

Both sum every Lambert pair D_a in its dual nome with the kernel of
`elliptic`, so the cost stays bounded as q -> 1.  Every argument is a
logarithm: a nome a = q^{2N/l} is taken as T = ln(1/a) = 2N ln(1/q)/l,
and each point of D_a as a sum of multiples of ln x and ln q, so no nome,
squared argument or shift is formed as a float and none can leave float
range.  Only `f_kk` hands its route the float point q^u x.

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

from .elliptic import DomainError, EllipticContext, _DualNome
from .lattice import LambdaPair, Surface, _condition2_reduced

# A table row (weight, l, k, sign) is one weighted term in the nome
# q^{2N/l} with shift index k: the compact route takes
# weight * (ln U(s^k x) + sign ln U(s^-k x)), the series route
# weight * (D(p^k y^2) + sign D(p^k / y^2)), where s = q^e and p = s^2 for
# the line's shift exponent e; sign 0 leaves the second term out.
_Table = list[tuple[float, int, int, int]]


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

    def _terms(self, N: int) -> tuple[int, float, _Table, _Table]:
        """(scale, e, compact, series) of

            f(x) = -N lambda ln(q) x d/dx [ (m/l) ln U_{q^{2N/l}}(x)
                                          + (n/l*) ln U_{q^{2N/l*}}(x) ],

        whose series I(y) is (m/l) D_{q^{2N/l}}(y^2) + (n/l*) D_{q^{2N/l*}}(y^2);
        no term is shifted."""
        table = [(self.w, self.ell, 0, 0), (self.w_star, self.ell_star, 0, 0)]
        return 1, -N * self.lam / self.surface.m, table, table


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
        m, n = surface.m, surface.n
        d = _condition2_reduced(m, n, *LambdaPair.from_lambda(lam).over(m, n))
        if d is None:
            raise DomainError("not a type (b) line: lambda/m - lambda*/n must be "
                              "an integer with common reduced denominator d | m+n")
        return cls(surface, lam, d, m % d)

    def _terms(self, N: int) -> tuple[int, float, _Table, _Table]:
        """(scale, e, compact, series) of

            f(x) = -N lambda ln(q) ((m+n)/d) x d/dx [
                      (1 + mu^2/(mn)) ln U_{q^{2N/d}}(x)
                    - (d mu/(mn)) ln U_{q^{2N}}(x)
                    + (d/(mn)) sum_{k=1}^{mu-1} (k - mu)
                          ln( U_{q^{2N}}(s^k x) U_{q^{2N}}(s^-k x) ) ]

        with s = q^e, e = -N lambda/m, and of its triple Lambert sum
        I(y) = (1 + mu^2/mn) D_{q^{2N/d}}(y^2) + (d mu/mn) D_{q^{2N}}(y^2)
             + (d/mn) sum_{k=0}^{mu-1} (k - mu) (D_{q^{2N}}(p^k y^2) - D_{q^{2N}}(p^k/y^2))
        with p = s^2."""
        m, n, d, mu = self.surface.m, self.surface.n, self.d, self.mu
        c = d / (m * n)
        compact = [(1.0 + mu * mu / (m * n), d, 0, 0), (-(d * mu / (m * n)), 1, 0, 0)]
        compact += [(c * (k - mu), 1, k, 1) for k in range(1, mu)]
        series = [(1.0 + mu * mu / (m * n), d, 0, 0), (d * mu / (m * n), 1, 0, 0)]
        series += [(c * (k - mu), 1, k, -1) for k in range(mu)]
        return (m + n) // d, -N * float(self.lam / m), compact, series


PoissonParams = PoissonParamsA | PoissonParamsB


def _log(x: complex) -> complex:
    """ln x, or DomainError when x is 0 or not finite."""
    x = complex(x)
    if x == 0 or not cmath.isfinite(x):
        raise DomainError(f"argument must be finite and nonzero, got {x}")
    return cmath.log(x)


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
    return _DualNome(-math.log(a)).logderiv(_log(x))


def _kernels(ctx: EllipticContext, table: _Table) -> dict:
    """The Lambert pair D of each distinct nome q^{2N/l} of the table, the
    nome taken as T = 2N ln(1/q)/l; each D takes the log of its point."""
    return {ell: _DualNome(-2.0 * ctx.N * math.log(ctx.q) / ell).logderiv
            for ell in {row[1] for row in table}}


def f_compact(ctx: EllipticContext, params: PoissonParams, x: complex) -> complex:
    """Compact route: f(x) = -N lambda ln(q) scale x d/dx sum weight
    (ln U_{q^{2N/l}}(s^k x) + sign ln U_{q^{2N/l}}(s^-k x)) over the line's
    compact table.

    The chain rule through the squared arguments of U_a gives
      x d/dx ln U_a(y) = 2 (D_a(y^2) - D_a(q^2 y^2) + D_a(q^2/y^2) - D_a(1/y^2)),
    each argument formed as its log: ln y = ln x +- k ln s, ln y^2 = 2 ln y
    and ln(q^2 y^{+-2}) = 2 ln q +- 2 ln y.
    """
    scale, e, table, _ = params._terms(ctx.N)
    D = _kernels(ctx, table)
    lnq = math.log(ctx.q)
    lns = e * lnq
    lnx = _log(x)

    def u(Da, lny: complex) -> complex:
        return 2.0 * (Da(2.0 * lny) - Da(2.0 * lnq + 2.0 * lny)
                      + Da(2.0 * lnq - 2.0 * lny) - Da(-2.0 * lny))

    total = 0.0 + 0.0j
    for weight, ell, k, sign in table:
        term = u(D[ell], lnx + k * lns)
        if sign:
            term += sign * u(D[ell], lnx - k * lns)
        total += weight * term
    return -ctx.N * float(params.lam) * lnq * scale * total


def f_series(ctx: EllipticContext, params: PoissonParams, x: complex) -> complex:
    """Series route: f = -2 N lambda ln(q) scale (2 I(x) - I(qx) - I(x/q))
    with I(y) = sum weight (D_{q^{2N/l}}(p^k y^2) + sign D_{q^{2N/l}}(p^k/y^2))
    over the line's series table, p = q^{2e}.  Every argument is formed as
    its log: ln(p^k y^{+-2}) = k ln p +- 2 ln y, ln(q^{+-1} x) = ln x +- ln q."""
    scale, e, _, table = params._terms(ctx.N)
    D = _kernels(ctx, table)
    lnq = math.log(ctx.q)
    lnp = 2.0 * e * lnq

    def I(lny: complex) -> complex:
        total = 0.0 + 0.0j
        for weight, ell, k, sign in table:
            term = D[ell](k * lnp + 2.0 * lny)
            if sign:
                term += sign * D[ell](k * lnp - 2.0 * lny)
            total += weight * term
        return total

    lnx = _log(x)
    second = 2.0 * I(lnx) - I(lnx + lnq) - I(lnx - lnq)
    return -2.0 * ctx.N * float(params.lam) * lnq * scale * second


def f_kk(ctx: EllipticContext, params: PoissonParams, k: int, kp: int,
         x: complex, route=f_compact) -> complex:
    """Multi-index structure function f^{(k,k')}(x) = sum_i sum_j f(q^{i-j} x)
    over i = (1-k)/2, ..., (k-1)/2 and j = (1-k')/2, ..., (k'-1)/2 in integer
    steps, with f evaluated by `route` (`f_compact` or `f_series`).

    i - j = (k'-k)/2 + u takes the k + k' - 1 values u = 1-k'..k-1, each
    min(k, k'+u) - max(0, u) times, so each distinct shift is evaluated once,
    in the order the double sum first reaches it (a pole is reported at the
    same point).  The shifted point q^{i-j} x is handed to `route` as a
    float: DomainError when it leaves float range.
    """
    if not (1 <= k <= ctx.N and 1 <= kp <= ctx.N):
        raise DomainError(f"k, k' must lie in 1..N={ctx.N}")
    total = 0.0 + 0.0j
    for u in (*range(0, -kp, -1), *range(1, k)):
        shift = (kp - k) / 2 + u
        try:
            y = ctx.q ** shift * x
        except OverflowError:
            y = math.inf
        if y == 0 or not cmath.isfinite(y):
            raise DomainError(f"shifted argument q^{shift:g} x at x={x} lies "
                              f"outside float range")
        total += (min(k, kp + u) - max(0, u)) * route(ctx, params, y)
    return total


def params_for_line(surface: Surface, lam: LambdaPair) -> PoissonParams:
    """Poisson parameters for an abelianity line, preferring type (a); a whole
    surface has no lambda coordinate, and both types refuse it (DomainError)."""
    if lam.lam.denominator == 1 and lam.lam not in (0, 1):
        return PoissonParamsA.from_line(surface, int(lam.lam))
    return PoissonParamsB.from_line(surface, lam.lam)
