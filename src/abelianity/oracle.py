"""Exact cancellation oracle for the exchange function.

The exchange function is a ratio of products of a single building block U
evaluated at arguments q^{N t} x.  Since U is q^N-periodic and depends only
on the squared argument, the ratio is identically 1 exactly when the signed
multiset of exponents t, reduced mod 1, cancels completely.  This module
decides that cancellation symbolically, independently of the integer
classification in `lattice`.  A whole surface (m = 0 or n = 0) is abelian
by its surface relation, and its multiset is empty without counting.

Every exponent is a multiple of a few rationals j/d, so a multiset is kept
as integer residues k of k/L mod 1 over a common modulus L.  The exchange
and centrality multisets are counted in closed form, one whole cycle of
residues at a time; `Fraction` keys are made only when `entries` is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .lattice import DegenerateParametrizationError, LambdaPair, Surface


@dataclass(frozen=True)
class ExponentMultiset:
    """Signed multiset of U-argument exponents, keys reduced into [0,1).

    Stored as (k, multiplicity) pairs for the keys k/modulus, sorted by k,
    with the smallest modulus that holds every key (so equal multisets
    compare equal).  Positive multiplicity = numerator factor, negative =
    denominator.  The represented ratio of U-functions is identically 1 iff
    the multiset is empty.
    """

    modulus: int
    residues: tuple[tuple[int, int], ...]

    @classmethod
    def build(cls, numerator: Iterable[Fraction],
              denominator: Iterable[Fraction]) -> "ExponentMultiset":
        """Multiset of explicit numerator and denominator exponent lists."""
        acc: dict[Fraction, int] = {}
        for weight, terms in ((1, numerator), (-1, denominator)):
            for t in terms:
                key = t % 1
                acc[key] = acc.get(key, 0) + weight
        modulus = math.lcm(*[t.denominator for t in acc])
        return cls._from_counts(
            {t.numerator * (modulus // t.denominator): c for t, c in acc.items()},
            modulus)

    @classmethod
    def _from_counts(cls, counts: dict[int, int], modulus: int) -> "ExponentMultiset":
        keys = sorted(k for k, c in counts.items() if c)
        g = math.gcd(modulus, *keys)
        return cls(modulus // g, tuple((k // g, counts[k]) for k in keys))

    @property
    def entries(self) -> tuple[tuple[Fraction, int], ...]:
        """(key, multiplicity) pairs with exact keys in [0, 1), sorted."""
        return tuple((Fraction(k, self.modulus), c) for k, c in self.residues)


def _cycle_remainder(d: int, count: int) -> tuple[range, range]:
    """Multipliers j left of {l a/d : l=1..count} over {-l a/d : l=1..count-1}.

    For gcd(a, d) = 1 and count >= 1.  l -> l a mod d runs through every
    residue once per d consecutive l, so both products strip to their
    remainders after whole cycles.  With mu = count mod d and
    mubar = min(mu, d - mu) what is left is
      numerator:   {a j/d : j=1..mubar},  denominator: {a j/d : j=d-mubar+1..d-1},
    or, when mu = 0, the one whole cycle more on the numerator side minus
    the d-1 remainder terms below it: the single residue 0 (j = 0).
    """
    mu = count % d
    if mu == 0:
        return range(1), range(0)
    mubar = min(mu, d - mu)
    return range(1, mubar + 1), range(d - mubar + 1, d)


def _tally(counts: dict[int, int], a: int, d: int, num: range, den: range,
           scale: int) -> None:
    """Count the keys (a j mod d) * scale: +1 for j in num, -1 for j in den."""
    for js, weight in ((num, 1), (den, -1)):
        for j in js:
            k = a * j % d * scale
            counts[k] = counts.get(k, 0) + weight


def _exchange_residues(s: Surface,
                       lam: LambdaPair | None) -> tuple[int, list[int], list[int]]:
    """(L, numerator, denominator): the exchange function's exponents on s
    as integers k of t = k/L, each list in product order.

    For m, n != 0, with lambda/m = a/d, lambda*/n = b/d' in lowest terms and
    L = lcm(d, d'), the four products contribute
      numerator:   t = lambda l/m (l=1..|m|),  t = -lambda* l/n (l=1..|n|-1)
      denominator: t = -lambda l/m (l=1..|m|-1),  t = lambda* l/n (l=1..|n|).
    On m=0 (resp. n=0) surfaces the free half-nome obeys s*^n = q^{-N}
    (resp. s^m = q^{-N}), so t = l e with e = -1/n, and the un-cancelled
    product form is used directly with L = |n| (resp. |m|).  Keys are not
    reduced mod L.
    """
    m, n = s.m, s.n
    if m == 0 or n == 0:
        k = m or n
        modulus = abs(k)
        e = -1 if k > 0 else 1  # t = l e/L
        fwd = [ell * e for ell in range(modulus)]
        back = [-ell * e for ell in range(1, modulus + 1)]
        if n == 0:  # S_{m,0} is the reciprocal of S_{0,m}
            return modulus, back, fwd
        return modulus, fwd, back
    if lam is None:
        raise DegenerateParametrizationError(f"{s} requires a lambda coordinate")
    a, d, b, dp = lam.over(m, n)
    modulus = math.lcm(d, dp)
    A, B = a * (modulus // d), b * (modulus // dp)
    num = [ell * A for ell in range(1, abs(m) + 1)]
    num += [-ell * B for ell in range(1, abs(n))]
    den = [-ell * A for ell in range(1, abs(m))]
    den += [ell * B for ell in range(1, abs(n) + 1)]
    return modulus, num, den


def _exchange_counts(m: int, n: int, a: int, d: int, b: int, dp: int) -> tuple[dict, int]:
    """`exchange_exponents` as (counts, L), keys k of t = k/L, on integers.

    The closed form of counting the lists of `_exchange_residues` term by
    term: with lambda/m = a/d and lambda*/n = b/d' in lowest terms, the
    lambda products leave the multipliers `_cycle_remainder(d, |m|)` of a/d,
    and the lambda* products those of b/d' with numerator and denominator
    swapped, keyed mod L = lcm(d, d').  At most (d + d')/2 multipliers are
    counted, whatever |m| and |n|.  On a whole surface t = l e with |n| e an
    integer, so the lists cancel mod L and the counts are empty."""
    if m == 0 or n == 0:
        return {}, 1
    counts: dict[int, int] = {}
    modulus = math.lcm(d, dp)
    _tally(counts, a, d, *_cycle_remainder(d, abs(m)), modulus // d)
    den, num = _cycle_remainder(dp, abs(n))
    _tally(counts, b, dp, num, den, modulus // dp)
    return counts, modulus


def exchange_exponents(s: Surface, lam: LambdaPair | None = None) -> ExponentMultiset:
    """Signed exponent multiset of the exchange function on s at coordinate
    lam, from `_exchange_counts`; empty on a whole surface, where lam may be
    None."""
    if s.is_whole_surface_abelian():
        return ExponentMultiset(1, ())
    if lam is None:
        raise DegenerateParametrizationError(f"{s} requires a lambda coordinate")
    return ExponentMultiset._from_counts(*_exchange_counts(s.m, s.n, *lam.over(s.m, s.n)))


def is_abelian(mset: ExponentMultiset) -> bool:
    """True iff the exchange function is identically 1: the multiset is empty."""
    return not mset.residues


def cycle_collapses(mset: ExponentMultiset, N: int) -> bool:
    """True when the residual evaluates to 1 via the full-cycle identity.

    The product of U over a complete shift cycle is identically 1:
    prod_{j=0}^{N-1} U(q^{N(t+j/N)} x) = 1 (the combined theta nome q^2
    equals the internal q^2 shift of U, and the quasi-periodicity
    prefactors cancel the constants exactly).  Hence a nonempty multiset
    whose multiplicity function is constant on every 1/N-translation orbit
    still yields a ratio identically equal to 1.  This lies outside the
    cancellation framework of `is_abelian`, which matches whole U factors;
    a False here does not certify the absence of further identities.
    """
    modulus = math.lcm(mset.modulus, N)
    scale, step = modulus // mset.modulus, modulus // N
    d = {k * scale: c for k, c in mset.residues}
    for k, c in d.items():
        for j in range(1, N):
            if d.get((k + j * step) % modulus, 0) != c:
                return False
    return True


def centrality_exponents(m: int, lam: int) -> ExponentMultiset:
    """Exponent multiset of the generator/Lax exchange ratio on S_{m,-m}.

    numerator t = (lambda-1) k/m, denominator t = lambda k/m for k=1..m.
    Empty iff the line is super-abelian (localized extended center).
    With c/m = a/d in lowest terms, d divides m, so {c k/m : k=1..m} is
    m/d whole cycles of the residues j/d; keyed mod lcm of the two d.
    """
    if m <= 0:
        raise ValueError("m must be positive (reduce m<0 to |m| first)")
    d_num = m // math.gcd(lam - 1, m)
    d_den = m // math.gcd(lam, m)
    modulus = math.lcm(d_num, d_den)
    counts: dict[int, int] = {}
    for d, weight in ((d_num, m // d_num), (d_den, -(m // d_den))):
        for k in range(0, modulus, modulus // d):
            counts[k] = counts.get(k, 0) + weight
    return ExponentMultiset._from_counts(counts, modulus)
