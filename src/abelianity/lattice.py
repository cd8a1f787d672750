"""Exact arithmetic for critical surfaces and their abelianity lines.

A critical surface S_{m,n} is the locus in (p, q, c) moduli space where
s^m s*^n = q^{-N}, with half-nomes s = -p^{1/2} and s* = -p*^{1/2}.  All
geometry here is carried by the exact q-exponents of s and s* (never p
itself), so every operation is pure integer/rational arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Iterable, Iterator


# the first three are input errors, so ValueErrors; a CrossCheckError is not
class NoIntersectionError(ValueError):
    """The two surfaces do not intersect (m=m', n=n' or zero determinant)."""


class DegenerateParametrizationError(ValueError):
    """lambda/m is undefined because the surface has m=0 or n=0."""


class ConstructionFailedError(ValueError):
    """A realization construction produced no verifiable candidate."""


class CrossCheckError(Exception):
    """Internal disagreement between two independent classification routes."""


def _lowest(num: int, den: int) -> tuple[int, int]:
    """num/den in lowest terms with a positive denominator (den != 0)."""
    g = math.gcd(num, den)
    if den < 0:
        g = -g
    return num // g, den // g


def _is_difference(c: int, qc: int, p: int, qp: int, ps: int, qs: int) -> bool:
    """c/qc == p/qp - ps/qs, cross-multiplied over the three denominators."""
    return c * qp * qs == (p * qs - ps * qp) * qc


def _bezout_min_second(a: int, b: int) -> tuple[int, int]:
    """Bezout pair (x, y) with x*a + y*b = 1 and 0 <= y < |a|.

    Requires gcd(a, b) = 1 and a != 0.  The representative with the smallest
    non-negative second coefficient makes golden tests deterministic.
    """
    g = math.gcd(a, b)
    if g != 1:
        raise ValueError(f"arguments not coprime: gcd({a},{b})={g}")
    y = pow(b, -1, abs(a))
    return (1 - y * b) // a, y


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True, order=True)
class Surface:
    """Critical surface S_{m,n}; the pair (0,0) is excluded (1 = q^{-N} is
    unsatisfiable for |q| < 1)."""

    m: int
    n: int

    def __post_init__(self) -> None:
        if self.m == 0 and self.n == 0:
            raise ValueError("surface (0,0) does not exist")

    def is_whole_surface_abelian(self) -> bool:
        return self.m == 0 or self.n == 0

    def is_extended_center(self) -> bool:
        return (self.m, self.n) in ((1, -1), (-1, 1))

    def __str__(self) -> str:
        return f"S_{{{self.m},{self.n}}}"


@dataclass(frozen=True)
class LineParams:
    """Exact half-nome exponents of a line: s = q^{N e_p}, s* = q^{N e_pstar},
    and c/N = e_p - e_pstar."""

    e_p: Fraction
    e_pstar: Fraction
    c_over_N: Fraction = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "c_over_N", self.e_p - self.e_pstar)

    @property
    def algebra_valid(self) -> bool:
        """True when |s| < 1 and |s*| < 1 for q in (0,1), i.e. |p|, |p*| < 1.

        The classification itself is purely arithmetic and does not require
        this; numerics converge for |q| < 1 alone.
        """
        return self.e_p > 0 and self.e_pstar > 0


@dataclass(frozen=True)
class LambdaPair:
    """On-surface line coordinate (lambda, lambda*) with lambda* = 1 - lambda.
    lam is an int or a Fraction, stored as a Fraction; `from_lambda` converts
    anything `Fraction` takes."""

    lam: Fraction
    lam_star: Fraction = field(init=False)

    def __post_init__(self) -> None:
        lam = self.lam
        if not isinstance(lam, Fraction):
            if not isinstance(lam, int):
                raise ValueError(f"LambdaPair takes an int or a Fraction, not {lam!r}; "
                                 "LambdaPair.from_lambda converts other values")
            object.__setattr__(self, "lam", lam := Fraction(lam))
        object.__setattr__(self, "lam_star", 1 - lam)

    @classmethod
    def from_lambda(cls, lam) -> "LambdaPair":
        return cls(Fraction(lam))

    def over(self, m: int, n: int) -> tuple[int, int, int, int]:
        """(a, d, b, d') with lambda/m = a/d and lambda*/n = b/d' in lowest
        terms, d, d' > 0.  Requires m, n != 0."""
        a, d = _lowest(self.lam.numerator, self.lam.denominator * m)
        b, dp = _lowest(self.lam_star.numerator, self.lam_star.denominator * n)
        return a, d, b, dp


class Verdict(Enum):
    NOT_ABELIAN = "NotAbelian"
    INTEGER_LAMBDA = "IntegerLambda"
    CONDITION2 = "Condition2"
    WHOLE_SURFACE = "WholeSurface"
    EXTENDED_CENTER = "ExtendedCenter"


# results of `_classify_reduced`, bound once: each `Verdict.X` read goes
# through the Enum metaclass, and the core runs per family member
_NOT_ABELIAN, _INTEGER_LAMBDA = (Verdict.NOT_ABELIAN, None), (Verdict.INTEGER_LAMBDA, None)
_CONDITION2 = Verdict.CONDITION2


@dataclass(frozen=True)
class Witnesses:
    """Integer witnesses (d, gamma, gamma', g) of a condition-2 verdict."""

    d: int
    gamma: int
    gamma_prime: int
    g: int


@dataclass(frozen=True)
class AbelianityVerdict:
    tag: Verdict
    witnesses: Witnesses | None = None

    @property
    def is_abelian(self) -> bool:
        return self.tag is not Verdict.NOT_ABELIAN


@dataclass(frozen=True, kw_only=True)  # a positional True would be failed_condition
class SuperAbelianityVerdict:
    """Outcome of the localized-extended-center test on S_{m,-m}.

    failed_condition indexes the first violated requirement:
      1 = m even, 2 = gcd(m, lambda) != 1 (no Bezout pair),
      3 = gcd(m, beta0' + 1) != 1; super_abelian is failed_condition is None.
    """

    super_abelian: bool = field(init=False)
    failed_condition: int | None = None
    beta0: int | None = None
    beta0_prime: int | None = None
    m_reduced_from: int | None = None  # set when a negative m was mapped to |m|

    def __post_init__(self) -> None:
        object.__setattr__(self, "super_abelian", self.failed_condition is None)


@dataclass(frozen=True)
class LambdaFamily:
    """One (d, gamma) family of cross-cancellation solutions on a surface.

    The pair (d, gamma) fixes the family, and construction computes the rest:
    g = gcd(m, n), gamma' from gamma'*g + gamma*(m+n)/d = 1, the Bezout pair
    ell*m/g + ell'*n/g = 1 with 0 <= ell' < |m/g|, and integer_degenerate,
    which is d | m.  Members are lambda/m = gamma'*ell + gamma/d + k*n/g for k
    in Z, with the conjugate lambda*/n = gamma'*ell' + gamma/d - k*m/g.  When
    d | m every member has integer lambda and the family degenerates into the
    integer classification.  A member is formed over the common denominator
    d g as one integer numerator (gamma'*ell*d + gamma) g + k n d and
    classified on integers.  One integer pass, `_divisor_families`, forms
    and checks the families of a divisor d, with g and the Bezout pair formed
    once for d: construction runs it on its one gamma, `solve_condition2` on
    all of d's gammas, building the instances without __init__.  It checks
    the input (m, n != 0, d | m+n, 0 < gamma < d, gcd(gamma, d) = 1 and
    gamma' integral), then members k = -2..2 (kept in `checked`): the verdict
    core must give (Condition2, (d, gamma, gamma', g)), or, when integer-
    degenerate, (IntegerLambda, None) and condition 2 must give d.  Any
    failure is a CrossCheckError naming the family, and k for a member.
    """

    surface: Surface
    d: int
    gamma: int
    gamma_prime: int = field(init=False)
    g: int = field(init=False)
    ell: int = field(init=False)
    ell_prime: int = field(init=False)
    integer_degenerate: bool = field(init=False)
    checked: tuple[tuple[int, int, Verdict], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.__dict__.update(_divisor_families(self.surface, self.d, [self.gamma])[0])

    def _integers(self, ks: Iterable[int]) -> list[tuple[int, int, tuple]]:
        """Members k in ks as `_member_integers` gives them."""
        m, n = self.surface.m, self.surface.n
        return _member_integers(m, n, self.d, self.g, self.ell, self.gamma, self.gamma_prime, ks)

    def member(self, k: int) -> tuple[int, int, Verdict]:
        """(numerator, denominator, tag) of member k, lambda in lowest terms;
        k = -2..2 are read from `checked`, so each is classified once."""
        if -2 <= k <= 2:
            return self.checked[k + 2]
        (num, den, reduced), = self._integers((k,))
        return num, den, _classify_reduced(self.surface, reduced)[0]


def _member_integers(m: int, n: int, d0: int, g: int, ell: int, gamma: int, gamma_prime: int,
                     ks: Iterable[int]) -> list[tuple[int, int, tuple]]:
    """Members k in ks of the family (d0, gamma) on S_{m,n} as (num, den, (a, d,
    b, d')): lambda = num/den, lambda/m = a/d, lambda*/n = b/d', lowest terms,
    positive denominators.  Member k is (gamma'*ell*d0 + gamma) g + k n d0 over
    d0 g; gcd(m a, d) = gcd(m, d), gcd(den - num, den n) = gcd(den - num, n)."""
    dg, step, gcd = d0 * g, n * d0, math.gcd
    base = (gamma_prime * ell * d0 + gamma) * g
    out = []
    for k in ks:
        over_m = base + k * step
        a, d = over_m // (r := gcd(over_m, dg)), dg // r
        num, den = m * a // (r := gcd(m, d)), d // r
        r = gcd(den - num, n) if n > 0 else -gcd(den - num, n)
        out.append((num, den, (a, d, (den - num) // r, den * n // r)))
    return out


def _family_error(s: Surface, d: int, gamma: int, why: str) -> CrossCheckError:
    return CrossCheckError(f"family (d, gamma) = ({d}, {gamma}) on {s}{why}")


def _divisor_families(s: Surface, d: int, gammas: list[int]) -> list[dict]:
    """The families (d, gamma) on s for gamma in gammas (not empty), each as
    the values of its `LambdaFamily` fields in field order, checked as the
    class docstring says; g and the Bezout pair are formed once."""
    m, n = s.m, s.n
    if not (m and n and d > 1 and (m + n) % d == 0):
        raise _family_error(s, d, gammas[0], ": needs m, n != 0 and d | m+n")
    g, quot = math.gcd(m, n), (m + n) // d
    ell, ell_prime = _bezout_min_second(m // g, n // g)
    degenerate = m % d == 0
    classify, condition2 = _classify_reduced, _condition2_reduced
    out = []
    for gamma in gammas:
        if not (0 < gamma < d and math.gcd(gamma, d) == 1):
            raise _family_error(s, d, gamma, ": needs 0 < gamma < d and gcd(gamma, d) = 1")
        gamma_prime, rem = divmod(1 - gamma * quot, g)
        if rem:
            raise _family_error(s, d, gamma, ": gamma' is not integral")
        expected = _INTEGER_LAMBDA if degenerate else (_CONDITION2, (d, gamma, gamma_prime, g))
        checked = []
        for k, (num, den, reduced) in enumerate(
                _member_integers(m, n, d, g, ell, gamma, gamma_prime, range(-2, 3)), -2):
            # a Condition2 verdict with witness d means condition 2 gave d;
            # the integer-degenerate verdict stops before condition 2
            if degenerate and condition2(m, n, *reduced) != d:
                raise _family_error(s, d, gamma, f" member k={k} fails condition 2")
            verdict = classify(s, reduced)
            if verdict != expected:
                raise _family_error(s, d, gamma, f" member k={k}: verdict {verdict} != {expected}")
            checked.append((num, den, verdict[0]))
        out.append({"surface": s, "d": d, "gamma": gamma, "gamma_prime": gamma_prime, "g": g,
                    "ell": ell, "ell_prime": ell_prime, "integer_degenerate": degenerate,
                    "checked": tuple(checked)})
    return out


# ---------------------------------------------------------------------------
# intersections
# ---------------------------------------------------------------------------

def _meet_det(s1: Surface, s2: Surface) -> int:
    """m'n - mn' when the two surfaces intersect, else 0."""
    if s1.m == s2.m or s1.n == s2.n:
        return 0
    return s2.m * s1.n - s1.m * s2.n


def intersect_surfaces(s1: Surface, s2: Surface) -> LineParams | None:
    """Line parameters of S_{m,n} cap S_{m',n'}, or None when empty.

    The intersection is non-empty iff m != m', n != n' and m'n - mn' != 0;
    the result is invariant under swapping the two surfaces.
    """
    det = _meet_det(s1, s2)
    if det == 0:
        return None
    return LineParams(Fraction(s2.n - s1.n, det), Fraction(s1.m - s2.m, det))


def lambda_of_intersection(s1: Surface, s2: Surface) -> LambdaPair:
    """Coordinate (lambda, lambda*) of the intersection line, viewed on s1.

    Not symmetric: the coordinate lives on s1.  Requires s1.m != 0 and
    s1.n != 0, otherwise lambda/m is undefined (whole-surface case).
    """
    if s1.m == 0 or s1.n == 0:
        raise DegenerateParametrizationError(
            f"{s1} has m=0 or n=0; lambda/m is undefined on it")
    det = _meet_det(s1, s2)
    if det == 0:
        raise NoIntersectionError(f"{s1} and {s2} do not intersect")
    return LambdaPair(Fraction(s1.m * (s1.n - s2.n), det))


def _walk_line(line: LineParams, s1: Surface, s2: Surface, step: tuple[int, int],
               t_values: Iterable[int]) -> list[tuple[int, int]]:
    """The surfaces w = s2 + t*step for t in t_values as (m, n), each checked to
    carry `line` as `intersect_surfaces(o, w) == line` (o = s1, or s2 when w is
    s1) on integers: w meets o and x * den == num * det per exponent."""
    dm, dn = step
    (pp, qp), (ps, qs), (pc, qc) = ((e.numerator, e.denominator) for e in
                                    (line.e_p, line.e_pstar, line.c_over_N))
    out: list[tuple[int, int]] = []
    for t in t_values:
        wm, wn = s2.m + t * dm, s2.n + t * dn
        # e_pstar != 0 means s1.m != s2.m, so s1 is the one surface of the line
        # with m = s1.m; a w off the line fails the checks below
        om, on = (s2.m, s2.n) if wm == s1.m else (s1.m, s1.n)
        det = wm * on - om * wn  # `_meet_det(o, w)` when m and n both differ
        if wm == om or wn == on or det == 0 or (wn - on) * qp != pp * det \
                or (om - wm) * qs != ps * det or (wm + wn - om - on) * qc != pc * det:
            raise CrossCheckError(f"S_{{{wm},{wn}}} fails to reproduce the line through {s1}")
        out.append((wm, wn))
    return out


def _surfaces_through(s1: Surface, s2: Surface, t_range: Iterable[int]
                      ) -> tuple[LineParams, list[tuple[int, int]]]:
    """The line s1 cap s2 and `surfaces_through_line` as (m, n) pairs."""
    line = intersect_surfaces(s1, s2)
    if line is None:
        raise NoIntersectionError(f"{s1} and {s2} do not intersect")
    dm, dn = s1.m - s2.m, s1.n - s2.n
    g0 = math.gcd(dm, dn)
    return line, _walk_line(line, s1, s2, (dm // g0, dn // g0), t_range)


def surfaces_through_line(s1: Surface, s2: Surface,
                          t_range: Iterable[int]) -> list[Surface]:
    """All surfaces through the line s1 cap s2, indexed along the primitive
    integer direction: (m'',n'') = (m',n') + t*(m-m', n-n')/g0.

    Every returned surface is re-verified to reproduce the exact LineParams
    of the original pair.  (The lattice line never passes through (0,0) for
    a valid intersection, since (m,n) and (m',n') are linearly independent.)
    """
    return [Surface(m, n) for m, n in _surfaces_through(s1, s2, t_range)[1]]


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def _condition2_reduced(m: int, n: int, a: int, d: int, b: int, dp: int) -> int | None:
    """Witness d of the cross-cancellation condition, or None, for lambda/m =
    a/d and lambda*/n = b/d' in lowest terms (m, n != 0): lambda/m - lambda*/n
    in Z, equal reduced denominators d, and d | (m + n)."""
    return d if dp == d and (a - b) % d == 0 and (m + n) % d == 0 else None


def _classify_reduced(s: Surface, reduced: tuple | None) -> tuple[Verdict, tuple | None]:
    """The verdict core of `classify_lambda`, its precedence included: the tag
    and, on a condition-2 line, the witnesses (d, gamma, gamma', g), for reduced =
    (a, d, b, d'), lambda/m = a/d and lambda*/n = b/d' in lowest terms, or None."""
    m, n = s.m, s.n  # Surface's two predicates, inlined: this runs per family member
    if m == 0 or n == 0:
        return Verdict.WHOLE_SURFACE, None
    if m + n == 0 and m in (1, -1):
        return Verdict.EXTENDED_CENTER, None
    if reduced is None:
        raise DegenerateParametrizationError(f"{s} requires a lambda coordinate")
    a, d, b, dp = reduced
    if a == 0 or b == 0:
        return _NOT_ABELIAN
    if m % d == 0 and n % dp == 0:
        return _INTEGER_LAMBDA
    if _condition2_reduced(m, n, a, d, b, dp) is None:
        return _NOT_ABELIAN
    g, gamma = math.gcd(m, n), a % d
    # exact: m a + n b = d (lambda + lambda* = 1) and a = b mod d give g | 1 - gamma (m+n)/d
    return _CONDITION2, (d, gamma, (1 - gamma * ((m + n) // d)) // g, g)


def classify_lambda(s: Surface, lam: LambdaPair | None) -> AbelianityVerdict:
    """Abelianity verdict for the line with coordinate lam on surface s.

    Precedence: whole-surface (m=0 or n=0), extended center (m,n)=+-(1,-1),
    non-vanishing integer lambda, cross-cancellation (condition 2 with
    witness d), else not abelian.  lambda=0 or lambda*=0 is not abelian:
    those points leave the |p|<1 moduli space (p=1 resp. p*=1).  lam may be
    None only on a whole surface, which has no lambda coordinate.  The integer
    core `_classify_reduced` decides; this wrapper builds the verdict object.
    """
    tag, witnesses = _classify_reduced(
        s, None if lam is None or s.is_whole_surface_abelian() else lam.over(s.m, s.n))
    return AbelianityVerdict(tag, witnesses and Witnesses(*witnesses))


def _sides_reduced(s1: Surface, s2: Surface) -> tuple | None:
    """`intersection_sides` on integers, or None when s1 and s2 do not meet.
    On the line lambda/m = -e_p and lambda*/n = -e_pstar on both sides, so
    (a, d, b, d') = (-num(e_p), den(e_p), -num(e_pstar), den(e_pstar)) is
    reduced once.  Returns ((a, d, b, d'), c/N, sides), a side being (lambda
    or None on a whole surface, as (num, den) like c/N; tag; witnesses).
    Checks c/N = e_p - e_pstar, lambda + lambda* = 1 and each tag against
      (a)  m(n-n')/(m'n-mn') in Z          (per side; may hold on one only),
      (b)  (m+n-m'-n')/(m'n-mn') in Z and (m+n)(m'+n') != 0  (symmetric),
      (c)/(c')  one surface is +-(1,-1)."""
    det = _meet_det(s1, s2)
    if det == 0:
        return None
    a, d = _lowest(s1.n - s2.n, det)
    b, dp = _lowest(s2.m - s1.m, det)
    c, e = _lowest(s2.m + s2.n - s1.m - s1.n, det)
    if not _is_difference(c, e, -a, d, -b, dp):
        raise CrossCheckError(f"c/N != e_p - e_pstar on {s1} cap {s2}")
    symmetric = (s1.m + s1.n - s2.m - s2.n) % det == 0 and (s1.m + s1.n) * (
        s2.m + s2.n) != 0 or s1.is_extended_center() or s2.is_extended_center()
    sides = []
    for sa, sb, det_ab in ((s1, s2, det), (s2, s1, -det)):
        lam = None
        if not sa.is_whole_surface_abelian():
            if not _is_difference(sa.m * a, d, 1, 1, sa.n * b, dp):
                raise CrossCheckError(f"lambda + lambda* != 1 on {sa} (pair {sa} cap {sb})")
            lam = (sa.m // (r := math.gcd(sa.m, d)) * a, d // r)
        tag, witnesses = _classify_reduced(sa, (a, d, b, dp))
        if (sa.m * (sa.n - sb.n) % det_ab == 0 or symmetric) == (tag is Verdict.NOT_ABELIAN):
            raise CrossCheckError(f"intersection conditions disagree with the line "
                                  f"classification on {sa} (pair {sa} cap {sb})")
        sides.append((lam, tag, witnesses))
    return (a, d, b, dp), (c, e), tuple(sides)


def intersection_sides(s1: Surface, s2: Surface
                       ) -> tuple[tuple[LambdaPair | None, AbelianityVerdict], ...]:
    """(lam, verdict) on each side of the intersection line, lam being the
    side's coordinate (None on a whole surface, m=0 or n=0).  On the line
    lambda/m = -e_p and lambda*/n = -e_pstar on both sides; the integer core
    `_sides_reduced` decides and checks, this wrapper builds the objects."""
    core = _sides_reduced(s1, s2)
    if core is None:
        raise NoIntersectionError(f"{s1} and {s2} do not intersect")
    return tuple((lam and LambdaPair.from_lambda(Fraction(*lam)),
                  AbelianityVerdict(tag, witnesses and Witnesses(*witnesses)))
                 for lam, tag, witnesses in core[2])


def classify_intersection(s1: Surface, s2: Surface
                          ) -> tuple[AbelianityVerdict, AbelianityVerdict]:
    """Verdicts for both sides of the intersection line of s1 and s2, with
    the intersection-level cross-check of `intersection_sides`."""
    return tuple(v for _, v in intersection_sides(s1, s2))


def _families_by_divisor(s: Surface) -> Iterator[list[LambdaFamily]]:
    """`solve_condition2`'s families, one list per admissible divisor d in
    increasing order, each formed when reached; the arguments are checked first."""
    m, n = s.m, s.n
    if m == 0 or n == 0:
        raise DegenerateParametrizationError(f"{s}: abelian on the whole surface")
    if m + n == 0:
        raise ValueError(
            f"{s}: m+n=0 admits no cross-cancellation line; "
            "only S_{1,-1} and S_{-1,1} are special (extended center)")
    g = math.gcd(m, n)
    total = abs(m + n)
    new = object.__new__

    def by_divisor():
        for d in range(2, total + 1):
            if total % d != 0:
                continue
            quot = (m + n) // d
            if math.gcd(abs(quot), g) != 1:
                continue
            # never empty: g | d, and some 0 < gamma < d coprime to d has
            # gamma * quot = 1 mod g (Chinese remainders)
            gammas = [gamma for gamma in range(1, d)
                      if math.gcd(gamma, d) == 1 and (1 - gamma * quot) % g == 0]
            families = []
            for values in _divisor_families(s, d, gammas):  # checked there: no __init__
                families.append(fam := new(LambdaFamily))
                fam.__dict__.update(values)
            yield families
    return by_divisor()


def solve_condition2(s: Surface) -> list[LambdaFamily]:
    """All (d, gamma) families solving the cross-cancellation condition on s.

    For g = gcd(m,n), a divisor d > 0 of m+n is admissible when (m+n)/d is
    coprime with g; each gamma with 0 < gamma < d, gcd(gamma, d) = 1 and
    g | (1 - gamma (m+n)/d) yields one family equal to `LambdaFamily(s, d,
    gamma)`, with its other values computed and its members k = -2..2
    self-checked on integers in one pass per divisor.

    Returns [] when no admissible (d, gamma) exists, i.e. no
    cross-cancellation can occur on this surface.
    """
    return [fam for families in _families_by_divisor(s) for fam in families]


def super_abelianity_check(m: int, lam: int) -> SuperAbelianityVerdict:
    """Localized-extended-center test for integer lambda on S_{m,-m}.

    Passes iff (1) m odd, (2) gcd(m, lambda) = 1, (3) gcd(m, beta0'+1) = 1,
    where beta0*m - beta0'*lambda = 1 with the canonical 1 <= beta0' <= m-1.
    Negative m is reduced to |m| (recorded on the verdict).  On the critical
    level m=1 every test passes (beta0' = 0, beta0 = 1) for every lambda.
    """
    if m == 0:
        raise ValueError("m must be nonzero")
    reduced_from = m if m < 0 else None
    m = abs(m)
    if m % 2 == 0:
        return SuperAbelianityVerdict(failed_condition=1, m_reduced_from=reduced_from)
    if math.gcd(m, lam) != 1:
        # no Bezout pair exists; reported, not raised
        return SuperAbelianityVerdict(failed_condition=2, m_reduced_from=reduced_from)
    beta0_prime = (-pow(lam, -1, m)) % m  # in 1..m-1, or 0 when m = 1
    beta0 = (1 + beta0_prime * lam) // m  # exact: beta0' lambda = -1 mod m
    if math.gcd(m, beta0_prime + 1) != 1:
        return SuperAbelianityVerdict(failed_condition=3, beta0=beta0,
                                      beta0_prime=beta0_prime, m_reduced_from=reduced_from)
    return SuperAbelianityVerdict(beta0=beta0, beta0_prime=beta0_prime,
                                  m_reduced_from=reduced_from)


# ---------------------------------------------------------------------------
# realizations of a line as intersections
# ---------------------------------------------------------------------------

def realize_line_as_intersections(s: Surface, lam: LambdaPair,
                                  count: int) -> list[Surface]:
    """`count` distinct surfaces whose intersection with s realizes lam.

    All integer solutions of m' e_p + n' e_pstar = -1 (the surface condition
    on the line e_p = -lambda/m, e_pstar = -lambda*/n) form the lattice line
    (m,n) + t*(dm,dn), with direction proportional to (-lambda* m, lambda n),
    i.e. to (-b d, a d') for lambda/m = a/d and lambda*/n = b/d' in lowest
    terms.  The direction is made primitive with dn < 0, so that small
    positive t hit the nearby small surfaces first, and t = 1..count are
    walked, every surface re-verified to carry the line.  The Bezout, shift
    and anchor constructions generate sub-families of this lattice line;
    tests/test_lattice.py keeps them as reference checks of the walk.
    """
    if s.m == 0 or s.n == 0:
        raise DegenerateParametrizationError(f"{s} has no lambda coordinate")
    if lam.lam == 0 or lam.lam_star == 0:
        raise ConstructionFailedError(
            "lambda=0 or lambda*=0 cannot be realized as an intersection "
            "(it would force m=m' or n=n')")
    a, d, b, dp = lam.over(s.m, s.n)
    dm, dn = -b * d, a * dp
    g = math.gcd(dm, dn)
    if dn > 0:
        g = -g
    line = LineParams(-lam.lam / s.m, -lam.lam_star / s.n)
    return [Surface(m, n) for m, n in
            _walk_line(line, s, s, (dm // g, dn // g), range(1, count + 1))]
