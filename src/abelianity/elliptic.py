"""Floating-point evaluation of the theta-based structure functions.

The short Jacobi theta function
    theta_a(z) = (z; a)_inf (a/z; a)_inf,   0 < a < 1,
defines the block
    U_a(z) = q^{2/N-2} theta_a(q^2 z^2) theta_a(q^2 z^-2)
             / (theta_a(z^2) theta_a(z^-2)),
which is symmetric under z -> 1/z, depends on z^2 only, and (for the
structure nome a = q^{2N}) is q^N-periodic in z.

U and the theta log-derivative D_a of the Poisson routes are evaluated in
the dual nome rho = exp(-4 pi^2 / T) of T = ln(1/a), by one Jacobi
imaginary transformation (DLMF 20.7), `_DualNome`.  With L = ln(1/q) it
cancels every Gaussian factor and constant of the four thetas of U:

    U_a(z) = q^{2/N} e^{4L^2/T}
             theta_rho(omega Y) theta_rho(omega^-1 Y) / theta_rho(Y)^2,

with omega = exp(4 pi i L / T) and the dual coordinate
Y = exp(2 pi i ln(z^2) / T).  For the structure nome T = 2NL, omega is
e^{2 pi i / N} and the constant is exactly 1.

* U is invariant under Y -> rho Y (another branch of ln z^2) and under
  Y -> 1/Y, so Y is taken in sqrt(rho) <= |Y| <= 1.  ln|z| only turns the
  phase of Y and arg(z^2) only sets its modulus, so every z in float range
  is reduced exactly.
* The shift z -> q^{N t} z is the rotation Y -> e^{-2 pi i t} Y.  U and
  every exchange product over exponents t are a `ShiftPlan`: the distinct
  t mod 1 become rotations once, and each point costs one reduction plus
  one theta ratio per distinct t.  The full-cycle identity
  prod_j U(q^j x) = 1 is the telescoping product over Y -> omega^-1 Y.
* Poles sit at Y in rho^Z and zeros at omega^{+-1} Y in rho^Z, i.e. Y near
  1, omega^-1 or omega in the reduced annulus.  A pole at
  z^2 = a^k (1 + delta) sits at |Y - 1| ~ 2 pi |delta| / T, a zero likewise;
  PoleError is raised at both, for |delta| below POLE_DISTANCE.
* rho is tiny exactly where a is close to 1, so the products, truncated at
  TRUNCATION, are short.  A value outside float range raises DomainError.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .lattice import LambdaPair, Surface
from .oracle import _exchange_residues


class DomainError(ValueError):
    """Argument outside the definition domain (nome not in (0,1), z=0...)."""


class PoleError(ArithmeticError):
    """Evaluation point is within tolerance of a zero or pole of the result."""


TRUNCATION = 1e-16  # theta products and Lambert sums drop tails below this
POLE_DISTANCE = 1e-9  # PoleError for |delta| below this at w = a^k (1 + delta)


@dataclass(frozen=True)
class EllipticContext:
    """Numeric evaluation environment: the rank N >= 2 and the deformation
    parameter q in (0,1).  Truncation and pole distance are the module
    constants TRUNCATION and POLE_DISTANCE."""

    N: int
    q: float

    def __post_init__(self) -> None:
        if self.N < 2:
            raise DomainError(f"N must be >= 2, got {self.N}")
        if not 0.0 < self.q < 1.0:
            raise DomainError(f"q must lie in (0,1), got {self.q}")


def theta(a: float, z: complex) -> complex:
    """Short Jacobi theta theta_a(z) = (z;a)_inf (a/z;a)_inf.

    The argument is first reduced into the annulus a <= |z| < 1 with the
    exact quasi-periodicity theta_a(a^k z) = (-1)^k a^{-k(k-1)/2} z^{-k}
    theta_a(z), then the products stop once the tail factors are within
    TRUNCATION of 1.  Raises DomainError when the value leaves float range.
    """
    if not 0.0 < a < 1.0:
        raise DomainError(f"nome must lie in (0,1), got {a}")
    z = complex(z)
    if z == 0 or not cmath.isfinite(z):
        raise DomainError("theta argument must be finite and nonzero")
    lna = math.log(a)
    try:
        k = math.ceil(math.log(abs(z)) / lna) - 1
        zr = z * a ** (-k)
        prefactor = (-1) ** (k & 1) * a ** (-(k * (k - 1)) // 2) * zr ** (-k)
    except OverflowError as exc:
        raise DomainError(f"theta_{a}({z}) lies outside float range") from exc

    n_max = max(1, math.ceil(math.log(TRUNCATION) / lna))
    prod = 1.0 + 0.0j
    an = 1.0
    for _ in range(n_max + 1):
        prod *= (1.0 - zr * an) * (1.0 - a * an / zr)
        an *= a
    val = prefactor * prod
    if not cmath.isfinite(val):
        raise DomainError(f"theta_{a}({z}) lies outside float range")
    return val


class _DualNome:
    """The dual nome of a = e^-T, built from T and never from a.

    A point w (z^2 for U) has the dual coordinate Y = exp(i scale ln w),
    scale = 2 pi/T.  `powers` holds rho^j for the factor pairs
    (1 - rho^j y)(1 - rho^j / y), j = 1..n-1, that follow the leading
    (1 - y) of theta_rho(y); n is the least with rho^{n-1/2} < TRUNCATION,
    and no pair is needed once rho underflows.  Two evaluations share them:
    `ratio`, the theta ratio of U (constants from `for_u`), and `logderiv`,
    which takes its point as ln w.
    """

    __slots__ = ("T", "scale", "powers", "pole_tol", "omega", "omega_inv",
                 "log_const")

    def __init__(self, T: float) -> None:
        self.T = T
        self.scale = 2.0 * math.pi / T
        log_rho = -2.0 * math.pi * self.scale
        rho = math.exp(log_rho)
        n = math.floor(math.log(TRUNCATION) / log_rho + 0.5) + 1 if rho > 0.0 else 1
        self.powers = [rho ** j for j in range(1, n)]
        self.pole_tol = POLE_DISTANCE * self.scale

    @classmethod
    def for_u(cls, ctx: EllipticContext, a: float | None = None) -> "_DualNome":
        """The dual of U_a for one (q, N, a); `a=None` is the structure nome
        q^{2N} (T = 2NL, omega = e^{2 pi i/N}, constant 1)."""
        if a is not None and not 0.0 < a < 1.0:
            raise DomainError(f"nome must lie in (0,1), got {a}")
        L = -math.log(ctx.q)
        if a is None:
            dual = cls(2 * ctx.N * L)
            dual.omega = cmath.exp(2j * math.pi / ctx.N)
            dual.log_const = 0.0
        else:
            T = -math.log(a)
            dual = cls(T)
            dual.omega = cmath.exp(4j * math.pi * L / T)
            dual.log_const = 4.0 * L * L / T - 2.0 * L / ctx.N
        dual.omega_inv = dual.omega.conjugate()
        return dual

    def angles(self, z: complex) -> tuple[float, float]:
        """(arg z^2, angle of Y): the modulus of Y is exp(-scale arg z^2)."""
        z = complex(z)
        try:
            r = abs(z)
        except OverflowError:
            r = math.inf
        if r == 0.0 or not math.isfinite(r):
            raise DomainError(f"U argument must be finite and nonzero, got {z}")
        u = z / r
        # the phase of (z/|z|)^2 is bitwise the same for z and -z
        return cmath.phase(u * u), 2.0 * self.scale * math.log(r)

    def reduce(self, phi: float, psi: float) -> tuple[complex, bool]:
        """Y = exp(-scale phi + i psi) brought to |Y| <= 1 by Y -> 1/Y, for
        -pi <= phi <= pi; the flag tells whether it was inverted."""
        inverted = phi < 0.0
        if inverted:
            phi, psi = -phi, -psi
        mod = math.exp(-self.scale * phi)
        return complex(mod * math.cos(psi), mod * math.sin(psi)), inverted

    def ratio(self, y: complex) -> complex:
        """theta_rho(omega y) theta_rho(y / omega) / theta_rho(y)^2 for
        sqrt(rho) <= |y| <= 1; pairs are grouped so that the value at
        conj(y) is the conjugate of that at y.  The leading factors 1 - y,
        1 - omega y and 1 - y/omega measure the distance to the only pole
        and zeros in that annulus: PoleError within POLE_DISTANCE of one (in
        z^2), DomainError when the value lies outside float range."""
        wy = self.omega * y
        vy = self.omega_inv * y
        zero_w, zero_v, den = 1.0 - wy, 1.0 - vy, 1.0 - y
        tol = self.pole_tol
        if abs(den) < tol or abs(zero_w) < tol or abs(zero_v) < tol:
            raise PoleError(f"U argument within {POLE_DISTANCE:g} of a zero or pole")
        num = zero_w * zero_v
        if self.powers:
            iy = 1.0 / y
            iwy = self.omega_inv * iy
            ivy = self.omega * iy
            for p in self.powers:
                num *= (1.0 - p * wy) * (1.0 - p * vy) * ((1.0 - p * iwy) * (1.0 - p * ivy))
                den *= (1.0 - p * y) * (1.0 - p * iy)
        try:
            val = num / (den * den)
        except ZeroDivisionError:  # den underflowed away from any pole
            val = 0j
        if val == 0 or not cmath.isfinite(val):
            raise DomainError("U value lies outside float range")
        return val

    def logderiv(self, lnx: complex) -> complex:
        """D_a(x) = -x d/dx ln theta_a(x) at the point x = e^lnx, summed in
        the dual nome:

            D_a(x) = -1/2 - ln(x)/T - (i pi/T) sigma (1 + 2 D_rho(X)),

        with ln x = lnx reduced to imaginary part in [-pi, pi], X the
        reduced dual coordinate of 1/x and sigma = -1 when that was
        inverted, else +1.  Any logarithm of x may be passed, so the point
        itself never has to lie in float range.  PoleError within
        POLE_DISTANCE of a zero of theta_a."""
        # exact when lnx.imag already lies in [-pi, pi]
        lnx = complex(lnx.real, math.remainder(lnx.imag, 2.0 * math.pi))
        X, inverted = self.reduce(-lnx.imag, -self.scale * lnx.real)
        # 1 - X without cancellation, from X = exp(-scale |arg x| + i im)
        im = cmath.phase(X)
        gap = complex(2.0 * math.sin(0.5 * im) ** 2
                      - math.expm1(-self.scale * abs(lnx.imag)) * math.cos(im),
                      -X.imag)
        if abs(gap) < self.pole_tol:
            try:
                x = cmath.exp(lnx)
            except OverflowError:
                x = f"exp({lnx})"
            raise PoleError(f"series pole: x within {POLE_DISTANCE:g} of a power "
                            f"of a (x={x})")
        total = (1.0 + X) / gap   # 1 + 2 X/(1 - X)
        if self.powers:
            iX = 1.0 / X
            for r in self.powers:
                total += 2.0 * (X * r / (1.0 - X * r) - iX * r / (1.0 - iX * r))
        sigma = -1.0 if inverted else 1.0
        return -0.5 - lnx / self.T - 1j * math.pi * sigma * total / self.T

    def scaled(self, v: complex) -> complex:
        """Multiply by the constant q^{2/N} e^{4L^2/T} in log form."""
        if not self.log_const:
            return v
        if abs(self.log_const) < 700.0:
            out = math.exp(self.log_const) * v
            if cmath.isfinite(out):
                return out
        try:
            return cmath.exp(self.log_const + cmath.log(v))
        except OverflowError as exc:
            raise DomainError("U_a value lies outside float range") from exc


def u_zero_pole_adjacent(ctx: EllipticContext, a: float, z: complex) -> bool:
    """True when U_a(z) has a zero or pole within tolerance of z, that is
    when `ufunc_a` raises PoleError there; DomainError where it raises that.

    Poles: z^2 or z^-2 on the lattice a^Z; zeros: q^2 z^{+-2} on it.
    """
    try:
        ufunc_a(ctx, a, z)
    except PoleError:
        return True
    return False


def ufunc_a(ctx: EllipticContext, a: float, z: complex) -> complex:
    """U_a(z) with an arbitrary nome a in (0,1).

    Raises PoleError within tolerance of a zero or pole and DomainError
    when the value lies outside float range.
    """
    dual = _DualNome.for_u(ctx, a)
    return dual.scaled(ShiftPlan(dual, 1, [0], [])(z))


class ShiftPlan:
    """Exchange product prod_num U(q^{N t} x) / prod_den U(q^{N t} x) in
    the dual nome `dual`; a one-factor plan is U itself.

    Built once per command from integer exponents: each t is k/L for one
    modulus L, and the lists keep every raw factor in product order,
    cancelling ones included.  The distinct residues k mod L become slots,
    in order of first appearance, each with the rotation e^{-2 pi i t} of
    the dual coordinate, so building and evaluating do no rational
    arithmetic.  Each point is reduced once and its slots follow by
    rotation.  Each slot raises PoleError near a zero or a pole, and
    factors are applied in list order.  A value outside float range raises
    DomainError.
    """

    def __init__(self, dual: _DualNome, modulus: int, numerator, denominator) -> None:
        self._dual = dual
        slots: dict[int, int] = {}
        for k in (*numerator, *denominator):
            slots.setdefault(k % modulus, len(slots))
        self._num = [slots[k % modulus] for k in numerator]
        self._den = [slots[k % modulus] for k in denominator]
        self._rot = [cmath.exp(-2j * math.pi * (k / modulus)) for k in slots]
        self._rot_inv = [r.conjugate() for r in self._rot]

    def __call__(self, x: complex) -> complex:
        dual = self._dual
        y, inverted = dual.reduce(*dual.angles(x))
        try:
            vals = [dual.ratio(y * r) for r in (self._rot_inv if inverted else self._rot)]
        except PoleError:
            raise PoleError(f"factor argument near a zero or pole at x={x}") from None
        if x.real == 0.0 or x.imag == 0.0:  # z^2 real: U real
            vals = [complex(v.real, 0.0) for v in vals]
        val = 1.0 + 0.0j
        for i in self._num:
            val *= vals[i]
        for i in self._den:
            val /= vals[i]
        # no factor sits at a zero: 0 is an underflow as inf is an overflow
        if val == 0 or not cmath.isfinite(val):
            raise DomainError(f"exchange value at x={x} lies outside float range")
        return val


def exchange_plan(ctx: EllipticContext, s: Surface, lam: LambdaPair | None) -> ShiftPlan:
    """The exchange function of S_{m,n} at line coordinate lam, as a plan.

    On m=0 or n=0 surfaces lam is ignored: the factors are U(s^l x) over
    l = 0..|n|-1 divided by U(s^-l x) over l = 1..|n| for the real
    half-nome s = q^{-N/n}, the shift t = -l/n (n := m on S_{m,0}).

    The slots come from every raw factor of the product form as an integer
    residue mod L (`oracle._exchange_residues`; L = lcm of the reduced
    denominators of lambda/m and lambda*/n, or |n| on a whole surface),
    cancelling factors included: the plan is the numeric witness and never
    reads the oracle's net multiset.
    """
    return ShiftPlan(_DualNome.for_u(ctx), *_exchange_residues(s, lam))


def yfunc(ctx: EllipticContext, s: Surface, lam: LambdaPair | None, x: complex) -> complex:
    """Exchange function of S_{m,n} at line coordinate lam, evaluated at x.

    For m=0 or n=0 surfaces lam is ignored; see `exchange_plan`.
    """
    return exchange_plan(ctx, s, lam)(x)


def centrality_plan(ctx: EllipticContext, m: int, lam: int) -> ShiftPlan:
    """The generator/Lax exchange ratio on S_{m,-m} as a plan:

        prod_{k=1}^{m} U(s*^{-k} x) / U(s^{-k} x)

    with s = q^{-N lambda/m}, s* = q^{-N(lambda-1)/m}: the exponents are
    t = (lambda-1) k/m over t = lambda k/m, taken as residues mod m.
    """
    if m <= 0:
        raise DomainError("m must be positive (reduce m<0 to |m| first)")
    return ShiftPlan(_DualNome.for_u(ctx), m, [(lam - 1) * k for k in range(1, m + 1)],
                     [lam * k for k in range(1, m + 1)])


def centrality_ratio(ctx: EllipticContext, m: int, lam: int, x: complex) -> complex:
    """Generator/Lax exchange ratio on S_{m,-m} for integer lambda (see
    `centrality_plan`).  Identically 1 on super-abelianity lines."""
    return centrality_plan(ctx, m, lam)(x)


def verification_grid(r_inner: float = 0.8, r_outer: float = 1.25,
                      count: int = 20) -> list[complex]:
    """Standard two-radius verification grid: count points r e^{i pi j/count}
    alternating between the two radii, covering |x| < 1 and |x| > 1."""
    pts = []
    for j in range(count):
        r = r_inner if j % 2 == 0 else r_outer
        pts.append(r * cmath.exp(1j * math.pi * j / count))
    return pts
