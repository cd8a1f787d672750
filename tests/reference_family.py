"""Reference members and documents of cross-cancellation families, built
from Fraction arithmetic and plain dicts."""

from fractions import Fraction as F

from abelianity import LambdaPair, Surface, solve_condition2


def reference_lambda_pair(fam, k: int) -> LambdaPair:
    """Member k of a `LambdaFamily` from the family formulas
    lambda/m = gamma'*ell + gamma/d + k*n/g and
    lambda*/n = gamma'*ell' + gamma/d - k*m/g, independently of the
    family's integer member path; the two must sum to 1."""
    m, n = fam.surface.m, fam.surface.n
    lam = m * (fam.gamma_prime * fam.ell + F(fam.gamma, fam.d) + k * F(n, fam.g))
    lam_star = n * (fam.gamma_prime * fam.ell_prime + F(fam.gamma, fam.d)
                    - k * F(m, fam.g))
    assert lam + lam_star == 1, (fam, k, lam, lam_star)
    return LambdaPair(lam)


def reference_enumerate_document(s: Surface, ks, N: int) -> dict:
    """The `enumerate-lines --surface=m,n --N=N` document over members k in
    ks as a dict tree; `json.dumps` of it is the command's output."""
    fams = []
    for fam in solve_condition2(s):
        members = []
        for k in ks:
            num, den, tag = fam.member(k)
            members.append({"k": k, "lambda": str(F(num, den)),
                            "lambda_star": str(F(den - num, den)),
                            "tag": tag.value})
        fams.append({"d": fam.d, "gamma": fam.gamma,
                     "gamma_prime": fam.gamma_prime, "g": fam.g,
                     "ell": fam.ell, "ell_prime": fam.ell_prime,
                     "integer_degenerate": fam.integer_degenerate,
                     "members": members})
    return {"surface": {"m": s.m, "n": s.n}, "N": N, "families": fams}
