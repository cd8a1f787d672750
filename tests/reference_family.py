"""Reference member of a cross-cancellation family, in Fraction arithmetic."""

from fractions import Fraction as F

from abelianity import LambdaPair


def reference_lambda_pair(fam, k: int) -> LambdaPair:
    """Member k of a `LambdaFamily` from the family formulas
    lambda/m = gamma'*ell + gamma/d + k*n/g and
    lambda*/n = gamma'*ell' + gamma/d - k*m/g, independently of the
    family's integer member path; LambdaPair checks that they sum to 1."""
    m, n = fam.surface.m, fam.surface.n
    lam = m * (fam.gamma_prime * fam.ell + F(fam.gamma, fam.d) + k * F(n, fam.g))
    lam_star = n * (fam.gamma_prime * fam.ell_prime + F(fam.gamma, fam.d)
                    - k * F(m, fam.g))
    return LambdaPair(lam, lam_star)
