"""The structure-function block U(z) for the tests, from the package's one
shift-plan evaluator, and the whole-surface product it defines at every
half-nome root."""

import cmath

from abelianity import EllipticContext
from abelianity.elliptic import ShiftPlan, _DualNome


def ufunc(ctx: EllipticContext, z: complex) -> complex:
    """U(z) in the structure nome q^{2N} as a one-factor `ShiftPlan`: it
    raises PoleError near a zero or pole of U and DomainError when the value
    lies outside float range, as every plan does."""
    return ShiftPlan(_DualNome.for_u(ctx), 1, [0], [])(z)


def half_nome_roots(ctx: EllipticContext, n: int) -> list[complex]:
    """The |n| solutions s of s^n = q^{-N}, the real one first and then by
    increasing argument: the half-nomes of S_{0,n} (and of S_{n,0})."""
    base, k = ctx.q ** (-ctx.N / n), abs(n)
    return [base * cmath.exp(2j * cmath.pi * j / k) for j in range(k)]


def whole_surface_product(ctx: EllipticContext, n: int, s: complex,
                          x: complex) -> complex:
    """prod_{l=0}^{|n|-1} U(s^l x) / prod_{l=1}^{|n|} U(s^-l x), the exchange
    function of S_{0,n} at half-nome s (its reciprocal on S_{n,0}), each
    factor a separate evaluation of U at its own point, all from one U plan
    (one plan per factor costs 2.6 times as much per product).
    PoleError when a factor does."""
    u = ShiftPlan(_DualNome.for_u(ctx), 1, [0], [])
    val = 1.0 + 0.0j
    for ell in range(abs(n)):
        val *= u(s ** ell * x)
    for ell in range(1, abs(n) + 1):
        val /= u(s ** -ell * x)
    return val
