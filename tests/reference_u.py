"""The structure-function block U(z) for the tests, from the package's one
shift-plan evaluator."""

from abelianity import EllipticContext
from abelianity.elliptic import ShiftPlan, _DualNome


def ufunc(ctx: EllipticContext, z: complex) -> complex:
    """U(z) in the structure nome q^{2N} as a one-factor `ShiftPlan`: it
    raises PoleError near a zero or pole of U and DomainError when the value
    lies outside float range, as every plan does."""
    return ShiftPlan(_DualNome.for_u(ctx), 1, [0], [])(z)
