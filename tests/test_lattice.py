"""Exact-arithmetic tests: intersections, classification, realizations.

Expected values are frozen from hand evaluation of the intersection
formulas and cross-checked here against brute-force oracles (exhaustive
lattice scans, permutation matching, raw predicate enumeration).
"""

import dataclasses
import math
from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from abelianity import (
    ConstructionFailedError,
    CrossCheckError,
    DegenerateParametrizationError,
    LambdaFamily,
    LambdaPair,
    NoIntersectionError,
    Surface,
    Verdict,
    LineParams,
    classify_intersection,
    classify_lambda,
    intersect_surfaces,
    intersection_sides,
    lambda_of_intersection,
    realize_line_as_intersections,
    solve_condition2,
    super_abelianity_check,
    surfaces_through_line,
)
from abelianity import lattice
from abelianity.lattice import (
    AbelianityVerdict,
    SuperAbelianityVerdict,
    Witnesses,
    _bezout_min_second,
    _condition2_reduced,
)
from reference_family import reference_lambda_pair

surfaces = st.tuples(st.integers(-8, 8), st.integers(-8, 8)) \
    .filter(lambda t: t != (0, 0)).map(lambda t: Surface(*t))


def raw_condition2(s: Surface, lam: F):
    """Direct statement of the cross-cancellation condition; returns d or None.

    d = 1 means lambda/m and lambda*/n are both integers, which is the
    integer-lambda case, not a cross-cancellation.
    """
    lm = lam / s.m
    ln = (1 - lam) / s.n
    if (lm - ln).denominator != 1:
        return None
    d = lm.denominator
    if d == 1 or ln.denominator != d or (s.m + s.n) % d != 0:
        return None
    return d


def reference_condition2_reduced(s: Surface, a: int, d: int, b: int,
                                 dp: int) -> int | None:
    """Condition 2 on lambda/m = a/d and lambda*/n = b/d' in lowest terms,
    as `lattice` stated it before its verdict core took bare integers."""
    if dp != d or (a - b) % d != 0 or (s.m + s.n) % d != 0:
        return None
    return d


def reference_condition2_witnesses(s: Surface, a: int, d: int) -> Witnesses:
    """Witnesses of a condition-2 line with lambda/m = a/d in lowest terms,
    as `lattice` formed them before its verdict core returned bare integers."""
    g = math.gcd(s.m, s.n)
    gamma = a % d
    rhs = 1 - gamma * ((s.m + s.n) // d)
    assert rhs % g == 0, "gamma' must be integral on a condition-2 line"
    gamma_prime = rhs // g
    return Witnesses(d=d, gamma=gamma, gamma_prime=gamma_prime, g=g)


def reference_classify_lambda(s: Surface, lam: LambdaPair | None) -> AbelianityVerdict:
    """The Fraction path that `classify_lambda` took before its branches
    moved onto the reduced integers (a, d, b, d'): zero and integer lambda
    are read from the `Fraction` accessors, and only the remaining lines
    are reduced."""
    if s.is_whole_surface_abelian():
        return AbelianityVerdict(Verdict.WHOLE_SURFACE)
    if s.is_extended_center():
        return AbelianityVerdict(Verdict.EXTENDED_CENTER)
    if lam.lam.numerator == 0 or lam.lam_star.numerator == 0:
        return AbelianityVerdict(Verdict.NOT_ABELIAN)
    if lam.lam.denominator == 1 and lam.lam_star.denominator == 1:
        return AbelianityVerdict(Verdict.INTEGER_LAMBDA)
    a, d, b, dp = lam.over(s.m, s.n)
    if reference_condition2_reduced(s, a, d, b, dp) is not None:
        return AbelianityVerdict(Verdict.CONDITION2,
                                 witnesses=reference_condition2_witnesses(s, a, d))
    return AbelianityVerdict(Verdict.NOT_ABELIAN)


def reference_intersection_sides(s1: Surface, s2: Surface):
    """`intersection_sides` as it was before it became the wrapper of an
    integer core: each side's coordinate from `lambda_of_intersection` in
    `Fraction` arithmetic, its verdict from `reference_classify_lambda`, and
    the intersection-level conditions (a), (b), (c)/(c') checked against it."""
    det = lattice._meet_det(s1, s2)
    if det == 0:
        raise NoIntersectionError(f"{s1} and {s2} do not intersect")
    cond_b = ((s1.m + s1.n - s2.m - s2.n) % det == 0
              and (s1.m + s1.n) != 0 and (s2.m + s2.n) != 0)
    center = s1.is_extended_center() or s2.is_extended_center()

    def _side(sa: Surface, sb: Surface, det_ab: int):
        lam = None if sa.is_whole_surface_abelian() else lambda_of_intersection(sa, sb)
        verdict = reference_classify_lambda(sa, lam)
        cond_a = (sa.m * (sa.n - sb.n)) % det_ab == 0
        if (cond_a or cond_b or center) != verdict.is_abelian:
            raise CrossCheckError(f"intersection conditions disagree on {sa}")
        return lam, verdict

    return _side(s1, s2, det), _side(s2, s1, -det)


@st.composite
def intersecting_pairs(draw):
    """(s1, s2) meeting in a line, |m|, |n| <= 10**6: two random surfaces, or
    s2 realizing on s1 an integer lambda or a cross-cancellation member (s1
    then has |m+n| <= 30, so its families are cheap), or s2 a whole surface or
    an extended center; the pair in either order."""
    big = st.integers(-10**6, 10**6)
    kind = draw(st.sampled_from(["random", "integer", "member", "special"]))
    m = draw(big)
    n = draw(st.integers(-30, 30)) - m if kind == "member" else draw(big)
    assume((m, n) != (0, 0))
    s1 = Surface(m, n)
    if kind == "random":
        mn = (draw(big), draw(big))
        assume(mn != (0, 0))
        s2 = Surface(*mn)
    elif kind == "special":
        k = draw(big.filter(bool))
        s2 = Surface(*draw(st.sampled_from([(0, k), (k, 0), (1, -1), (-1, 1)])))
    else:
        assume(m and n)
        if kind == "integer":
            lam = F(draw(st.integers(-10**6, 10**6)))
        else:
            fams = solve_condition2(s1) if m + n else []
            assume(fams)
            fam = draw(st.sampled_from(fams))
            lam = reference_lambda_pair(fam, draw(st.integers(-4, 4))).lam
        assume(lam not in (0, 1))
        s2 = realize_line_as_intersections(s1, LambdaPair.from_lambda(lam), 1)[0]
    assume(intersect_surfaces(s1, s2) is not None)
    return (s2, s1) if draw(st.booleans()) else (s1, s2)


@st.composite
def lines_on_wide_surfaces(draw):
    """(s, lam) with |m|, |n| <= 40: lambda in {0, 1}, an integer, a
    rational a/b, or a member k = -4..4 of a cross-cancellation family."""
    s = draw(st.tuples(st.integers(-40, 40), st.integers(-40, 40))
             .filter(lambda t: t != (0, 0)).map(lambda t: Surface(*t)))
    kind = draw(st.sampled_from(["unit", "integer", "rational", "member"]))
    if kind == "unit":
        lam = F(draw(st.sampled_from([0, 1])))
    elif kind == "integer":
        lam = F(draw(st.integers(-90, 90)))
    elif kind == "rational":
        lam = F(draw(st.integers(-200, 200)), draw(st.integers(1, 90)))
    else:
        assume(s.m and s.n and s.m + s.n)
        fams = solve_condition2(s)
        assume(fams)
        fam = draw(st.sampled_from(fams))
        lam = reference_lambda_pair(fam, draw(st.integers(-4, 4))).lam
    return s, LambdaPair.from_lambda(lam)


# ---------------------------------------------------------------------------
# reference realization constructions: closed-form sub-families of the
# lattice line that realize_line_as_intersections walks
# ---------------------------------------------------------------------------

def _realizes(s: Surface, cand: Surface, lam: LambdaPair) -> bool:
    try:
        return lambda_of_intersection(s, cand) == lam
    except (NoIntersectionError, DegenerateParametrizationError):
        return False


def bezout_realizations(s: Surface, lam: LambdaPair, k_values):
    """Integer-lambda realization family m' = m(l0 + k lam*), n' = n(l0' - k lam)
    with l0 lam + l0' lam* = 1.  Yields only verified candidates; k values
    hitting the degenerate member (the surface s itself, or a zero
    determinant) are skipped.
    """
    lam_i, lams_i = lam.lam, lam.lam_star
    if lam_i.denominator != 1 or lams_i.denominator != 1 or lam_i == 0 or lams_i == 0:
        raise ConstructionFailedError("requires non-vanishing integer lambda")
    lam_i, lams_i = int(lam_i), int(lams_i)
    l0, l0p = _bezout_min_second(lam_i, lams_i)
    for k in k_values:
        ell, ellp = l0 + k * lams_i, l0p - k * lam_i
        mp, np_ = s.m * ell, s.n * ellp
        if mp == 0 and np_ == 0:
            continue
        cand = Surface(mp, np_)
        if _realizes(s, cand, lam):
            yield cand


def cross_cancellation_realizations(s: Surface, lam: LambdaPair, u_values):
    """Condition-2 realization family m' = m - (b/g)u, n' = n + (a/g)u where
    lambda/m = a/d, lambda*/n = b/d in lowest terms and g = gcd(a, b)."""
    d = _condition2_reduced(s.m, s.n, *lam.over(s.m, s.n))
    if d is None:
        raise ConstructionFailedError("line does not satisfy condition 2")
    a, _, b, _ = lam.over(s.m, s.n)
    gab = math.gcd(a, b)
    for u in u_values:
        if u == 0:
            continue
        cand = Surface(s.m - (b // gab) * u, s.n + (a // gab) * u)
        if _realizes(s, cand, lam):
            yield cand


def anchor_realization(s: Surface, lam: LambdaPair) -> tuple[Surface, bool]:
    """Single verified anchor surface for a generic rational lambda.

    Tries m' = (a+1)m + d, n' = (a+1)n first (with lambda/m = a/d in lowest
    terms); direct substitution shows that variant lands on -a/d, so on
    verification failure the sign-corrected m' = (1-a)m + d, n' = (1-a)n is
    used.  Returns (surface, used_sign_corrected).  Raises
    ConstructionFailedError when neither candidate verifies.
    """
    if s.m == 0 or s.n == 0:
        raise DegenerateParametrizationError(f"{s} has no lambda coordinate")
    a, d, _, _ = lam.over(s.m, s.n)
    for corrected, (mp, np_) in (
        (False, ((a + 1) * s.m + d, (a + 1) * s.n)),
        (True, ((1 - a) * s.m + d, (1 - a) * s.n)),
    ):
        if mp == 0 and np_ == 0:
            continue
        cand = Surface(mp, np_)
        if _realizes(s, cand, lam):
            return cand, corrected
    raise ConstructionFailedError(
        f"no anchor realization for lambda={lam.lam} on {s}")


class TestIntersect:
    def test_worked_example(self):
        lp = intersect_surfaces(Surface(3, 6), Surface(2, 5))
        assert (lp.e_p, lp.e_pstar, lp.c_over_N) == (F(1, 3), F(-1, 3), F(2, 3))

    def test_equal_exponents_example(self):
        lp = intersect_surfaces(Surface(1, 2), Surface(2, 1))
        assert (lp.e_p, lp.e_pstar, lp.c_over_N) == (F(-1, 3), F(-1, 3), F(0))

    def test_no_intersection_same_m(self):
        assert intersect_surfaces(Surface(1, 2), Surface(1, 5)) is None

    def test_no_intersection_same_surface(self):
        assert intersect_surfaces(Surface(3, 6), Surface(3, 6)) is None

    def test_zero_determinant(self):
        assert intersect_surfaces(Surface(1, 2), Surface(2, 4)) is None

    @given(surfaces, surfaces)
    def test_symmetry_and_central_charge(self, s1, s2):
        lp = intersect_surfaces(s1, s2)
        if lp is None:
            assert intersect_surfaces(s2, s1) is None
            return
        assert intersect_surfaces(s2, s1) == lp
        assert lp.c_over_N == lp.e_p - lp.e_pstar

    @given(st.integers(-8, 8).filter(bool), st.integers(-8, 8).filter(bool))
    def test_antidiagonal_surfaces_never_intersect(self, m, n):
        if m != n:
            assert intersect_surfaces(Surface(m, -m), Surface(n, -n)) is None

    def test_surface_origin_rejected(self):
        with pytest.raises(ValueError):
            Surface(0, 0)


class TestLambdaOfIntersection:
    def test_worked_example(self):
        lam = lambda_of_intersection(Surface(3, 6), Surface(2, 5))
        assert (lam.lam, lam.lam_star) == (F(-1), F(2))

    def test_rational_example(self):
        lam = lambda_of_intersection(Surface(1, 2), Surface(2, 1))
        assert (lam.lam, lam.lam_star) == (F(1, 3), F(2, 3))

    def test_identical_surfaces_rejected(self):
        with pytest.raises(NoIntersectionError):
            lambda_of_intersection(Surface(2, 5), Surface(2, 5))

    def test_degenerate_side(self):
        with pytest.raises(DegenerateParametrizationError):
            lambda_of_intersection(Surface(0, 3), Surface(2, 5))

    @given(surfaces, surfaces)
    def test_sum_is_one(self, s1, s2):
        if s1.m == 0 or s1.n == 0 or intersect_surfaces(s1, s2) is None:
            return
        lam = lambda_of_intersection(s1, s2)
        assert lam.lam + lam.lam_star == 1

    @given(surfaces, surfaces)
    def test_consistent_with_line_params(self, s1, s2):
        lp = intersect_surfaces(s1, s2)
        if lp is None or s1.m == 0 or s1.n == 0:
            return
        lam = lambda_of_intersection(s1, s2)
        assert lp.e_p == -lam.lam / s1.m
        assert lp.e_pstar == -lam.lam_star / s1.n


class TestSurfacesThroughLine:
    def test_forward_window(self):
        out = surfaces_through_line(Surface(3, 6), Surface(2, 5), range(0, 3))
        assert [(w.m, w.n) for w in out] == [(2, 5), (3, 6), (4, 7)]

    def test_t_zero_returns_second_surface(self):
        out = surfaces_through_line(Surface(1, 2), Surface(2, 1), [0])
        assert [(w.m, w.n) for w in out] == [(2, 1)]

    def test_backward_window(self):
        out = surfaces_through_line(Surface(3, 6), Surface(2, 5), range(-2, 0))
        assert [(w.m, w.n) for w in out] == [(0, 3), (1, 4)]
        line = intersect_surfaces(Surface(3, 6), Surface(2, 5))
        for w in out:
            assert intersect_surfaces(Surface(3, 6), w) == line

    def test_no_intersection_propagates(self):
        with pytest.raises(NoIntersectionError):
            surfaces_through_line(Surface(1, 2), Surface(1, 5), range(3))

    @given(surfaces, surfaces, st.integers(-6, 6), st.integers(0, 6))
    def test_collinearity_ratio(self, s1, s2, lo, width):
        if intersect_surfaces(s1, s2) is None:
            return
        out = surfaces_through_line(s1, s2, range(lo, lo + width + 1))
        for w1, w2, w3 in zip(out, out[1:], out[2:]):
            # (m'-m)/(n'-n) == (m''-m')/(n''-n'), cross-multiplied
            assert (w2.m - w1.m) * (w3.n - w2.n) == (w3.m - w2.m) * (w2.n - w1.n)

    @given(surfaces, surfaces,
           st.sampled_from(["on", "off", "same_m", "same_n", "parallel"]),
           st.integers(-40, 40), st.integers(-3, 3))
    @settings(max_examples=300)
    def test_walk_accepts_exactly_the_intersections_carrying_the_line(
            self, s1, s2, kind, t, c):
        """The integer re-verification of `_walk_line` accepts a surface w
        exactly when `intersect_surfaces(o, w) == line` (o = s1, or s2 when
        w is s1): w on the line, one step off it, sharing m or n with s1,
        or parallel to s1 (zero determinant)."""
        line = intersect_surfaces(s1, s2)
        assume(line is not None)
        dm, dn = s1.m - s2.m, s1.n - s2.n
        g0 = math.gcd(dm, dn)
        on = (s2.m + t * dm // g0, s2.n + t * dn // g0)
        wm, wn = {"on": on, "off": (on[0], on[1] + 1), "same_m": (s1.m, t),
                  "same_n": (t, s1.n), "parallel": (c * s1.m, c * s1.n)}[kind]
        assume((wm, wn) != (0, 0))
        w = Surface(wm, wn)
        expected = intersect_surfaces(s2 if w == s1 else s1, w) == line
        try:
            walked = lattice._walk_line(line, s1, s2, (wm - s2.m, wn - s2.n), [1])
        except CrossCheckError as exc:
            assert "fails to reproduce the line" in str(exc)
            walked = None
        assert (walked == [(wm, wn)]) == expected
        if kind == "on":
            assert expected

    @pytest.mark.parametrize("w", [(4, 6), (3, 7)], ids=["same n", "same m"])
    def test_walk_rejects_a_surface_sharing_one_coordinate_with_s1(self, w):
        """s1 is the only surface of the line with m = s1.m, so `_walk_line`
        checks every other w against s1: a w that shares only n, or only m,
        with s1 is off the line and raises."""
        s1, s2 = Surface(3, 6), Surface(2, 5)
        with pytest.raises(CrossCheckError,
                           match=rf"S_\{{{w[0]},{w[1]}\}} fails to reproduce the line"):
            lattice._walk_line(intersect_surfaces(s1, s2), s1, s2,
                               (w[0] - s2.m, w[1] - s2.n), [1])

    @pytest.mark.parametrize("s1,s2", [((3, 6), (2, 5)), ((1, 2), (2, 1)),
                                       ((5, -7), (-3, 4))])
    @pytest.mark.parametrize("wrong", [lambda dm, dn: (dm, dn + 1),
                                       lambda dm, dn: (dm + 1, dn),
                                       lambda dm, dn: (-dn, dm)])
    def test_walk_with_a_wrong_step_is_caught(self, s1, s2, wrong):
        s1, s2 = Surface(*s1), Surface(*s2)
        dm, dn = s1.m - s2.m, s1.n - s2.n
        g0 = math.gcd(dm, dn)
        with pytest.raises(CrossCheckError, match="fails to reproduce the line"):
            lattice._walk_line(intersect_surfaces(s1, s2), s1, s2,
                               wrong(dm // g0, dn // g0), range(-2, 3))

    @pytest.mark.parametrize("wrong", [lambda dm, dn: (dm, dn + 1),
                                       lambda dm, dn: (-dn, dm)])
    def test_both_walks_are_reverified(self, monkeypatch, wrong):
        """A walk handed a non-collinear step fails, in `surfaces_through_line`
        and in `realize_line_as_intersections` alike."""
        real = lattice._walk_line

        def mutated(line, s1, s2, step, t_values):
            return real(line, s1, s2, wrong(*step), t_values)

        monkeypatch.setattr(lattice, "_walk_line", mutated)
        with pytest.raises(CrossCheckError, match="fails to reproduce the line"):
            surfaces_through_line(Surface(3, 6), Surface(2, 5), range(-2, 3))
        with pytest.raises(CrossCheckError, match="fails to reproduce the line"):
            realize_line_as_intersections(Surface(1, 2),
                                          LambdaPair.from_lambda(F(1, 3)), 2)


class TestClassifyLambda:
    def test_integer_lambda(self):
        v = classify_lambda(Surface(3, 6), LambdaPair.from_lambda(-1))
        assert v.tag is Verdict.INTEGER_LAMBDA and v.is_abelian

    def test_condition2_with_witness(self):
        v = classify_lambda(Surface(1, 2), LambdaPair.from_lambda(F(1, 3)))
        assert v.tag is Verdict.CONDITION2
        assert v.witnesses.d == 3
        assert v.witnesses.gamma == 1
        assert v.witnesses.gamma_prime == 0
        assert v.witnesses.g == 1

    def test_not_abelian(self):
        v = classify_lambda(Surface(2, 5), LambdaPair.from_lambda(F(-2, 3)))
        assert v.tag is Verdict.NOT_ABELIAN and not v.is_abelian

    def test_whole_surface(self):
        for s in (Surface(0, 3), Surface(-4, 0)):
            v = classify_lambda(s, LambdaPair.from_lambda(F(1, 2)))
            assert v.tag is Verdict.WHOLE_SURFACE

    def test_extended_center(self):
        for s in (Surface(1, -1), Surface(-1, 1)):
            assert classify_lambda(s, LambdaPair.from_lambda(F(7, 5))).tag \
                is Verdict.EXTENDED_CENTER

    def test_zero_lambda_not_abelian(self):
        assert classify_lambda(Surface(2, 5), LambdaPair.from_lambda(0)).tag \
            is Verdict.NOT_ABELIAN
        assert classify_lambda(Surface(3, 1), LambdaPair.from_lambda(1)).tag \
            is Verdict.NOT_ABELIAN

    def test_condition2_witness_solves_bezout_equation(self):
        s = Surface(5, 2)
        v = classify_lambda(s, LambdaPair.from_lambda(F(15, 7)))
        assert v.tag is Verdict.CONDITION2
        w = v.witnesses
        assert w.gamma_prime * w.g + w.gamma * ((s.m + s.n) // w.d) == 1


class TestIntegerLayer:
    """The integer forms of the exact checks against their Fraction statements."""

    @given(surfaces, st.integers(-60, 60), st.integers(1, 40))
    @settings(max_examples=400)
    def test_condition2_d_matches_raw_predicate(self, s, num, den):
        if s.m == 0 or s.n == 0:
            return
        lam = F(num, den)
        d = _condition2_reduced(s.m, s.n, *LambdaPair.from_lambda(lam).over(s.m, s.n))
        assert (None if d == 1 else d) == raw_condition2(s, lam)

    @given(surfaces, st.integers(-60, 60), st.integers(1, 40))
    @settings(max_examples=200)
    def test_over_is_lowest_terms(self, s, num, den):
        if s.m == 0 or s.n == 0:
            return
        pair = LambdaPair.from_lambda(F(num, den))
        a, d, b, dp = pair.over(s.m, s.n)
        assert F(a, d) == pair.lam / s.m and d == (pair.lam / s.m).denominator
        assert F(b, dp) == pair.lam_star / s.n and dp == (pair.lam_star / s.n).denominator

    @given(lines_on_wide_surfaces())
    @settings(max_examples=500, deadline=None)
    def test_integer_core_matches_fraction_path(self, line):
        """classify_lambda on (a, d, b, d') gives the Fraction path's
        verdict and witnesses."""
        s, lam = line
        assert classify_lambda(s, lam) == reference_classify_lambda(s, lam)

    def test_invariants_still_checked(self):
        """c/N = e_p - e_pstar and lambda* = 1 - lambda hold by construction:
        each is computed, and passing it is a TypeError."""
        assert LineParams(F(1, 3), F(-1, 3)).c_over_N == F(2, 3)
        assert LambdaPair(F(-5, 6)).lam_star == F(11, 6)
        assert LambdaPair(F(-5, 6)) == LambdaPair.from_lambda("-5/6")
        with pytest.raises(TypeError):
            LineParams(F(1, 3), F(-1, 3), F(2, 3))
        with pytest.raises(TypeError):
            LambdaPair(F(1, 2), F(1, 2))
        with pytest.raises(ValueError):
            dataclasses.replace(LambdaPair(F(1, 2)), lam_star=F(1, 2))
        assert dataclasses.replace(LineParams(F(1, 3), F(-1, 3)), e_p=F(1)).c_over_N == F(4, 3)

    def test_lambda_pair_stores_an_int_as_a_fraction(self):
        pair = LambdaPair(3)
        assert type(pair.lam) is F and type(pair.lam_star) is F
        assert pair == LambdaPair(F(3)) and pair.lam_star == -2
        assert classify_lambda(Surface(1, 2), pair) == \
            classify_lambda(Surface(1, 2), LambdaPair(F(3)))

    @pytest.mark.parametrize("lam,convertible", [(0.5, True), ("1/2", True),
                                                 (Decimal("0.5"), True), (1j, False),
                                                 (None, False)])
    def test_lambda_pair_refuses_other_types(self, lam, convertible):
        """Any type but int and Fraction is a ValueError naming the converting
        constructor, and what that converts classifies like 1/2."""
        with pytest.raises(ValueError, match=r"LambdaPair\.from_lambda"):
            LambdaPair(lam)
        if convertible:
            pair = LambdaPair.from_lambda(lam)
            assert pair == LambdaPair(F(1, 2))
            assert classify_lambda(Surface(1, 2), pair).tag is Verdict.NOT_ABELIAN

    def test_algebra_valid_needs_both_exponents_positive(self):
        """|s| < 1 and |s*| < 1 need e_p > 0 and e_pstar > 0 strictly: a zero
        exponent is |p| = 1 or |p*| = 1."""
        assert LineParams(F(1, 2), F(1, 3)).algebra_valid
        assert not LineParams(F(0), F(1, 2)).algebra_valid
        assert not LineParams(F(1, 2), F(0)).algebra_valid
        assert not LineParams(F(-1, 2), F(1, 2)).algebra_valid

    def test_lambda_required_off_whole_surfaces(self):
        assert classify_lambda(Surface(0, 3), None).tag is Verdict.WHOLE_SURFACE
        with pytest.raises(DegenerateParametrizationError):
            classify_lambda(Surface(2, 5), None)


class TestClassifyIntersection:
    def test_asymmetric_type_a_witness(self):
        v1, v2 = classify_intersection(Surface(3, 6), Surface(2, 5))
        assert v1.tag is Verdict.INTEGER_LAMBDA
        assert v2.tag is Verdict.NOT_ABELIAN

    def test_symmetric_type_b(self):
        v1, v2 = classify_intersection(Surface(1, 2), Surface(2, 1))
        assert v1.tag is Verdict.CONDITION2 and v1.witnesses.d == 3
        assert v2.tag is Verdict.CONDITION2 and v2.witnesses.d == 3

    def test_extended_center_pair(self):
        v1, v2 = classify_intersection(Surface(5, 2), Surface(1, -1))
        assert v1.is_abelian and v1.tag is Verdict.CONDITION2
        assert v2.tag is Verdict.EXTENDED_CENTER

    def test_no_intersection_propagates(self):
        with pytest.raises(NoIntersectionError):
            classify_intersection(Surface(1, 2), Surface(1, 5))

    @given(st.tuples(st.integers(-20, 20), st.integers(-20, 20))
           .filter(lambda t: t != (0, 0)).map(lambda t: Surface(*t)),
           st.tuples(st.integers(-20, 20), st.integers(-20, 20))
           .filter(lambda t: t != (0, 0)).map(lambda t: Surface(*t)))
    @settings(max_examples=200)
    def test_wide_box_three_way_consistency(self, s1, s2):
        from abelianity import exchange_exponents, is_abelian
        if intersect_surfaces(s1, s2) is None:
            return
        v1, v2 = classify_intersection(s1, s2)  # internal theorem cross-check
        for sa, sb, v in ((s1, s2, v1), (s2, s1, v2)):
            lam = None if (sa.m == 0 or sa.n == 0) \
                else lambda_of_intersection(sa, sb)
            assert is_abelian(exchange_exponents(sa, lam)) == v.is_abelian

    @given(intersecting_pairs())
    @settings(max_examples=400, deadline=None)
    def test_sides_match_the_fraction_reference(self, pair):
        """The integer core gives each side the lambda, tag and witnesses
        of the `Fraction` path, on surfaces up to 10**6."""
        s1, s2 = pair
        assert intersection_sides(s1, s2) == reference_intersection_sides(s1, s2)

    def test_wrong_c_over_n_is_caught(self, monkeypatch):
        """On S_{1,2} cap S_{2,1}, c/N = 0 is the only reduction of a zero
        numerator; reducing it to 1 instead trips the c/N = e_p - e_pstar
        check before anything is classified."""
        real = lattice._lowest
        monkeypatch.setattr(lattice, "_lowest",
                            lambda num, den: (1, 1) if num == 0 else real(num, den))
        with pytest.raises(CrossCheckError, match="c/N"):
            intersection_sides(Surface(1, 2), Surface(2, 1))

    def test_wrong_determinant_is_caught(self, monkeypatch):
        """With the determinant doubled every line still has c/N = e_p -
        e_pstar, but lambda + lambda* = 1/2 on the first side."""
        real = lattice._meet_det
        monkeypatch.setattr(lattice, "_meet_det", lambda s1, s2: 2 * real(s1, s2))
        with pytest.raises(CrossCheckError, match=r"lambda \+ lambda\* != 1"):
            intersection_sides(Surface(3, 6), Surface(2, 5))

    def test_sides_carry_coordinate_and_verdict(self):
        box = 3
        surfs = [Surface(m, n) for m in range(-box, box + 1)
                 for n in range(-box, box + 1) if (m, n) != (0, 0)]
        for i, s1 in enumerate(surfs):
            for s2 in surfs[i + 1:]:
                if intersect_surfaces(s1, s2) is None:
                    with pytest.raises(NoIntersectionError):
                        intersection_sides(s1, s2)
                    continue
                sides = intersection_sides(s1, s2)
                assert tuple(v for _, v in sides) == classify_intersection(s1, s2)
                for (sa, sb), (lam, v) in zip(((s1, s2), (s2, s1)), sides):
                    if sa.m == 0 or sa.n == 0:
                        assert lam is None
                    else:
                        assert lam == lambda_of_intersection(sa, sb)
                    assert v == classify_lambda(sa, lam)

    def test_small_box_equivalence_and_symmetry(self):
        """Intersection-level conditions agree with the per-side verdicts,
        and cross-cancellation verdicts are always mutual."""
        box = 4
        surfs = [Surface(m, n) for m in range(-box, box + 1)
                 for n in range(-box, box + 1) if (m, n) != (0, 0)]
        checked = 0
        for i, s1 in enumerate(surfs):
            for s2 in surfs[i + 1:]:
                if intersect_surfaces(s1, s2) is None:
                    continue
                v1, v2 = classify_intersection(s1, s2)  # raises on mismatch
                if v1.tag is Verdict.CONDITION2:
                    assert v2.is_abelian
                if v2.tag is Verdict.CONDITION2:
                    assert v1.is_abelian
                checked += 1
        assert checked > 1000


class TestSolveCondition2:
    def test_families_on_1_2(self):
        fams = solve_condition2(Surface(1, 2))
        assert {(f.d, f.gamma) for f in fams} == {(3, 1), (3, 2)}
        lambdas = {reference_lambda_pair(f, 0).lam for f in fams}
        assert F(1, 3) in lambdas

    def test_extended_center_surface_rejected(self):
        with pytest.raises(ValueError):
            solve_condition2(Surface(1, -1))

    def test_whole_surface_rejected(self):
        with pytest.raises(DegenerateParametrizationError):
            solve_condition2(Surface(0, 3))

    @pytest.mark.parametrize("mn,error", [((1, -1), ValueError),
                                          ((0, 3), DegenerateParametrizationError),
                                          ((-4, 0), DegenerateParametrizationError)])
    def test_divisor_generator_checks_on_the_call(self, mn, error):
        """The arguments are checked before the iterator is returned, so a
        caller can reject a surface before it writes anything."""
        with pytest.raises(error):
            lattice._families_by_divisor(Surface(*mn))

    @pytest.mark.parametrize("mn", [(1, 2519), (-9, -3), (5, 7), (2, 4), (3, -2), (6, 10)])
    def test_divisor_generator_groups_solve_condition2(self, mn):
        """One non-empty list per admissible divisor, increasing in d, whose
        concatenation is `solve_condition2`."""
        m, n = mn
        g, total = math.gcd(m, n), abs(m + n)
        admissible = [d for d in range(2, total + 1)
                      if total % d == 0 and math.gcd((m + n) // d, g) == 1]
        groups = list(lattice._families_by_divisor(Surface(m, n)))
        assert [fams[0].d for fams in groups] == admissible
        assert all(f.d == fams[0].d for fams in groups for f in fams)
        assert [f for fams in groups for f in fams] == solve_condition2(Surface(*mn))

    def test_families_on_2_2(self):
        fams = solve_condition2(Surface(2, 2))
        assert {(f.d, f.gamma) for f in fams} == {(4, 1), (4, 3)}
        assert all(not f.integer_degenerate for f in fams)

    def test_integer_degenerate_family(self):
        # d = gcd(m,n) divides m: every member has integer lambda
        fams = solve_condition2(Surface(2, 4))
        degenerate = [f for f in fams if f.integer_degenerate]
        assert degenerate
        for f in degenerate:
            for k in range(-2, 3):
                pair = reference_lambda_pair(f, k)
                assert pair.lam.denominator == 1
                assert classify_lambda(Surface(2, 4), pair).tag \
                    is Verdict.INTEGER_LAMBDA

    @pytest.mark.parametrize("mn", [(1, 2), (2, 2), (3, 4), (5, 4), (2, 4),
                                    (4, 6), (1, 5), (3, 6)])
    def test_against_brute_force_enumeration(self, mn):
        """Every rational in a window satisfying the raw predicate belongs to
        exactly the enumerated families, and vice versa."""
        s = Surface(*mn)
        fams = solve_condition2(s)

        def in_some_family(lam):
            for f in fams:
                (_, _, (a, d, _, _)), = f._integers([0])
                diff = lam / s.m - F(a, d)
                if diff % F(s.n, f.g) == 0:
                    return True
            return False

        for den in range(1, 13):
            for num in range(-40, 41):
                lam = F(num, den)
                if lam in (0, 1):
                    continue
                d = raw_condition2(s, lam)
                if d is not None:
                    assert in_some_family(lam), (s, lam, d)

        for f in fams:
            for k in range(-3, 4):
                pair = reference_lambda_pair(f, k)
                assert raw_condition2(s, pair.lam) == f.d

    @given(st.integers(-40, 40).filter(bool), st.integers(-40, 40).filter(bool))
    @settings(max_examples=150, deadline=None)
    def test_members_match_fraction_formula(self, m, n):
        """The integer member formula against lambda/m = gamma'*ell +
        gamma/d + k*n/g in Fraction arithmetic, for every family; `member(k)`
        gives lambda in lowest terms and the tag of the Fraction path, for
        the five checked members and beyond them."""
        assume(m + n != 0)
        s = Surface(m, n)
        for f in solve_condition2(s):
            assert len(f.checked) == 5
            for k in range(-6, 7):
                over_m = f.gamma_prime * f.ell + F(f.gamma, f.d) + k * F(n, f.g)
                pair = reference_lambda_pair(f, k)
                num, den, tag = f.member(k)
                assert (num, den) == (pair.lam.numerator, pair.lam.denominator)
                assert tag is reference_classify_lambda(s, pair).tag
                (_, _, (a, d, b, dp)), = f._integers([k])
                assert (a, d) == (over_m.numerator, over_m.denominator)
                over_n = pair.lam_star / n
                assert (b, dp) == (over_n.numerator, over_n.denominator)
                assert (pair.lam, pair.lam_star) == (m * over_m, 1 - m * over_m)
                assert pair.lam_star / n == \
                    f.gamma_prime * f.ell_prime + F(f.gamma, f.d) - k * F(m, f.g)

    @pytest.mark.parametrize("mn", [(2, 1), (1, 2), (5, 4), (2, 4)])
    def test_wrong_gamma_prime_is_caught(self, mn):
        """Each computed value of every family solves its defining equation:
        g = gcd(m, n), gamma'*g + gamma*(m+n)/d = 1, ell*m/g + ell'*n/g = 1
        with 0 <= ell' < |m/g|, and integer_degenerate is d | m.  On S_{2,1}
        ell = 0, so the members do not depend on gamma' and only this test
        would see a wrong one."""
        s = Surface(*mn)
        m, n = mn
        for fam in solve_condition2(s):
            assert fam.g == math.gcd(m, n)
            assert fam.gamma_prime * fam.g + fam.gamma * ((m + n) // fam.d) == 1
            assert fam.ell * (m // fam.g) + fam.ell_prime * (n // fam.g) == 1
            assert 0 <= fam.ell_prime < abs(m // fam.g)
            assert fam.integer_degenerate == (m % fam.d == 0)

    @pytest.mark.parametrize("mn", [(2, 1), (1, 2), (5, 4), (2, 4)])
    @pytest.mark.parametrize("name,delta", [("d", 1), ("d", -1), ("gamma", 1),
                                            ("gamma", -1), ("g", 1), ("g", -1),
                                            ("gamma_prime", 2), ("ell", 1),
                                            ("ell", -1), ("ell_prime", 1),
                                            ("ell_prime", -1)])
    def test_perturbed_family_is_caught(self, mn, name, delta):
        """A family is its (surface, d, gamma).  With d or gamma off by one it
        is a CrossCheckError or another family of the surface.  The computed
        g, gamma', ell and ell' cannot be perturbed at all: passing one is a
        TypeError, and `dataclasses.replace` of one is a ValueError."""
        s = Surface(*mn)
        families = solve_condition2(s)
        for fam in families:
            wrong = getattr(fam, name) + delta
            if name in ("d", "gamma"):
                try:
                    other = dataclasses.replace(fam, **{name: wrong})
                except CrossCheckError:
                    continue
                assert other in families and other != fam
                continue
            with pytest.raises(TypeError):
                LambdaFamily(s, fam.d, fam.gamma, **{name: wrong})
            with pytest.raises(ValueError, match="init=False"):
                dataclasses.replace(fam, **{name: wrong})

    def test_families_are_closed_over_box_6(self):
        """Every family of every surface in box 6 is `LambdaFamily(s, d,
        gamma)` of its own d and gamma, and every other (d, gamma) with
        d | m+n, 1 <= gamma < d, raises CrossCheckError, on a whole surface
        (which has no families) too."""
        for m in range(-6, 7):
            for n in range(-6, 7):
                if (m, n) == (0, 0):
                    continue
                s = Surface(m, n)
                families = {(fam.d, fam.gamma): fam for fam in
                            (solve_condition2(s) if m and n and m + n else [])}
                for fam in families.values():
                    assert LambdaFamily(s, fam.d, fam.gamma) == fam
                for d in range(2, abs(m + n) + 1):
                    if (m + n) % d:
                        continue
                    for gamma in range(1, d):
                        if (d, gamma) not in families:
                            with pytest.raises(CrossCheckError):
                                LambdaFamily(s, d, gamma)

    @pytest.mark.parametrize("mn", [(1, 239), (-7, -233), (13, 707), (1, 2519)])
    def test_divisor_pass_gives_the_constructed_families(self, mn):
        """`solve_condition2` builds each family from one pass over its
        divisor's gammas, without __init__; each equals `LambdaFamily(s, d,
        gamma)`, which runs the pass on its one gamma, field for field in
        field order, `checked` (compare=False) included."""
        s = Surface(*mn)
        families = solve_condition2(s)
        assert len(families) == abs(s.m + s.n) - 1  # gcd(m, n) = 1
        for fam in families:
            built = LambdaFamily(s, fam.d, fam.gamma)
            assert type(fam) is LambdaFamily and fam == built and fam.checked == built.checked
            assert list(vars(fam).items()) == list(vars(built).items())

    def test_wrong_verdict_mid_divisor_names_the_family(self, monkeypatch):
        """S_{5,7} has the divisors 2, 3, 4, 6 and 12, and divisor 12 the
        families gamma = 1, 5, 7, 11.  A verdict core wrong only for member
        k = 0 of (12, 7) stops the pass there with the family and k named;
        the divisors before 12 come out whole."""
        real = lattice._classify_reduced
        calls = []

        def wrong(s, reduced):
            verdict = real(s, reduced)
            if verdict[1] and verdict[1][:2] == (12, 7):
                calls.append(reduced)
                if len(calls) == 3:  # members k = -2, -1, 0
                    return Verdict.NOT_ABELIAN, None
            return verdict

        monkeypatch.setattr(lattice, "_classify_reduced", wrong)
        groups = lattice._families_by_divisor(Surface(5, 7))
        assert [next(groups)[0].d for _ in range(4)] == [2, 3, 4, 6]
        with pytest.raises(CrossCheckError, match=r"^family \(d, gamma\) = \(12, 7\) "
                                                  r"on S_\{5,7\} member k=0: verdict "):
            next(groups)
        assert len(calls) == 3

    def test_degenerate_condition2_retest_is_live(self, monkeypatch):
        """Members of an integer-degenerate family get IntegerLambda before
        the verdict core reaches condition 2, so the family re-tests
        condition 2 itself: a predicate that gives d + 1 is caught on
        S_{2,4}, whose family d = 2 is integer-degenerate.  Its other
        families still classify as Condition2 with witness d, because the
        core only asks whether the predicate holds."""
        real = lattice._condition2_reduced
        monkeypatch.setattr(lattice, "_condition2_reduced", lambda *args: real(*args) + 1)
        with pytest.raises(CrossCheckError, match="fails condition 2"):
            solve_condition2(Surface(2, 4))

    @pytest.mark.parametrize("degenerate", [False, True])
    def test_extended_center_family_is_caught(self, degenerate):
        """On S_{1,-1} the family d = 2, gamma = 1 passes every input check
        (m + n = 0; gamma' = 1, g = 1, ell = 1, ell' = 0) and each of its
        members satisfies condition 2 with d = 2; only the surface
        precedence of the verdict core (ExtendedCenter) refuses it.  Its
        integer_degenerate (False) is computed: passing either value is a
        TypeError."""
        with pytest.raises(CrossCheckError, match="EXTENDED_CENTER"):
            LambdaFamily(Surface(1, -1), 2, 1)
        with pytest.raises(TypeError):
            LambdaFamily(Surface(1, -1), 2, 1, integer_degenerate=degenerate)


class TestSuperAbelianity:
    def test_passing_example(self):
        v = super_abelianity_check(3, 2)
        assert v.super_abelian and (v.beta0, v.beta0_prime) == (1, 1)

    def test_even_m_fails_first_condition(self):
        v = super_abelianity_check(2, 1)
        assert not v.super_abelian and v.failed_condition == 1

    def test_condition3_failure(self):
        v = super_abelianity_check(9, 4)
        assert not v.super_abelian and v.failed_condition == 3
        assert v.beta0_prime == 2  # beta0'+1 = 3 shares a factor with 9

    def test_no_bezout_reported(self):
        v = super_abelianity_check(9, 6)
        assert not v.super_abelian and v.failed_condition == 2

    def test_zero_m_rejected(self):
        with pytest.raises(ValueError, match="m must be nonzero"):
            super_abelianity_check(0, 1)

    def test_negative_m_reduction(self):
        v = super_abelianity_check(-9, 4)
        assert v.m_reduced_from == -9 and v.failed_condition == 3

    def test_m_one_is_critical_level(self):
        """On m = +-1 the general test passes for every lambda, with the
        Bezout pair beta0' = 0, beta0 = 1."""
        for m in (1, -1):
            for lam in range(-50, 51):
                assert super_abelianity_check(m, lam) == SuperAbelianityVerdict(
                    failed_condition=None, beta0=1, beta0_prime=0,
                    m_reduced_from=None if m == 1 else -1)

    def test_super_abelian_is_computed(self):
        """super_abelian is failed_condition is None, the first field, so
        `dataclasses.asdict` keeps its key order; passing it is a TypeError."""
        assert SuperAbelianityVerdict().super_abelian
        assert not SuperAbelianityVerdict(failed_condition=2).super_abelian
        assert list(dataclasses.asdict(super_abelianity_check(9, 4))) == [
            "super_abelian", "failed_condition", "beta0", "beta0_prime", "m_reduced_from"]
        with pytest.raises(TypeError):
            SuperAbelianityVerdict(True)
        with pytest.raises(TypeError):
            SuperAbelianityVerdict(super_abelian=False, failed_condition=1)

    def test_canonical_bezout_range(self):
        for m in range(3, 16, 2):
            for lam in range(-15, 16):
                v = super_abelianity_check(m, lam)
                if v.beta0_prime is not None and m > 1:
                    assert 1 <= v.beta0_prime <= m - 1
                    assert v.beta0 * m - v.beta0_prime * lam == 1

    @staticmethod
    def _matching_exists(m, lam):
        """Backtracking search for a permutation matching the numerator and
        denominator shift factors up to whole periods."""
        cands = {k: [j for j in range(1, m + 1)
                     if (lam * j - (lam - 1) * k) % m == 0]
                 for k in range(1, m + 1)}
        used = [False] * (m + 1)

        def place(k):
            if k > m:
                return True
            for j in cands[k]:
                if not used[j]:
                    used[j] = True
                    if place(k + 1):
                        return True
                    used[j] = False
            return False

        return place(1)

    def test_against_permutation_matching_oracle(self):
        for m in range(1, 16, 2):
            for lam in range(-15, 16):
                assert super_abelianity_check(m, lam).super_abelian == \
                    self._matching_exists(m, lam), (m, lam)


class TestRealizeLine:
    def test_integer_lambda_example(self):
        out = realize_line_as_intersections(Surface(3, 6),
                                            LambdaPair.from_lambda(-1), 2)
        assert [(w.m, w.n) for w in out] == [(2, 5), (1, 4)]
        assert all(w.n - w.m == 3 for w in out)

    def test_condition2_example(self):
        out = realize_line_as_intersections(Surface(1, 2),
                                            LambdaPair.from_lambda(F(1, 3)), 1)
        assert [(w.m, w.n) for w in out] == [(2, 1)]
        lam = lambda_of_intersection(Surface(1, 2), out[0])
        assert lam.lam / 1 - lam.lam_star / 2 == 0

    def test_zero_lambda_rejected(self):
        with pytest.raises(ConstructionFailedError):
            realize_line_as_intersections(Surface(2, 3),
                                          LambdaPair.from_lambda(0), 1)

    def test_whole_surface_rejected(self):
        with pytest.raises(DegenerateParametrizationError, match="no lambda coordinate"):
            realize_line_as_intersections(Surface(0, 3),
                                          LambdaPair.from_lambda(F(1, 3)), 1)

    @staticmethod
    def _brute_solutions(s, lam, box=8):
        """All surfaces |m'|,|n'| <= box with m'n lam + n'm lam* = mn."""
        out = []
        for mp in range(-box, box + 1):
            for np_ in range(-box, box + 1):
                if (mp, np_) == (0, 0):
                    continue
                if mp * s.n * lam.lam + np_ * s.m * lam.lam_star == s.m * s.n:
                    try:
                        if lambda_of_intersection(s, Surface(mp, np_)) == lam:
                            out.append((mp, np_))
                    except NoIntersectionError:
                        pass
        return set(out)

    @pytest.mark.parametrize("mn,lam", [
        ((3, 6), F(-1)), ((1, 2), F(1, 3)), ((2, 2), F(1, 2)),
        ((5, 2), F(15, 7)), ((4, 3), F(2)),
    ])
    def test_matches_brute_force(self, mn, lam):
        s = Surface(*mn)
        pair = LambdaPair.from_lambda(lam)
        brute = self._brute_solutions(s, pair)
        got = realize_line_as_intersections(s, pair, 3)
        for w in got:
            if abs(w.m) <= 8 and abs(w.n) <= 8:
                assert (w.m, w.n) in brute
            assert lambda_of_intersection(s, w) == pair

    @given(surfaces, st.integers(-9, 9), st.integers(1, 8))
    @settings(max_examples=60)
    def test_every_realization_verifies(self, s, num, den):
        if s.m == 0 or s.n == 0:
            return
        lam = LambdaPair.from_lambda(F(num, den))
        if lam.lam in (0, 1):
            return
        out = realize_line_as_intersections(s, lam, 4)
        assert len({(w.m, w.n) for w in out}) == 4
        for w in out:
            assert lambda_of_intersection(s, w) == lam


class TestRealizationConstructions:
    def test_bezout_family_members_verify(self):
        s = Surface(3, 6)
        lam = LambdaPair.from_lambda(-1)
        got = list(bezout_realizations(s, lam, range(-3, 4)))
        assert Surface(-3, 0) in got and Surface(9, 12) in got
        for w in got:
            assert lambda_of_intersection(s, w) == lam
            # lies on the primitive realization line n' - m' = 3
            assert w.n - w.m == 3

    def test_bezout_requires_integer_lambda(self):
        with pytest.raises(ConstructionFailedError):
            list(bezout_realizations(Surface(1, 2),
                                     LambdaPair.from_lambda(F(1, 3)), [0]))

    def test_cross_cancellation_family(self):
        s = Surface(1, 2)
        lam = LambdaPair.from_lambda(F(1, 3))
        got = list(cross_cancellation_realizations(s, lam, range(-3, 4)))
        assert Surface(2, 1) in got
        for w in got:
            assert lambda_of_intersection(s, w) == lam

    def test_anchor_sign_gate(self):
        # generic rational line: the uncorrected variant lands on -a/d and is
        # rejected by the verification gate, the corrected one passes
        s = Surface(2, 5)
        lam = LambdaPair.from_lambda(F(-2, 3))
        anchor, corrected = anchor_realization(s, lam)
        assert corrected
        assert anchor == Surface(7, 10)
        assert lambda_of_intersection(s, anchor) == lam

    def test_uncorrected_variant_misses_sign(self):
        s = Surface(2, 5)
        lam = LambdaPair.from_lambda(F(-2, 3))
        frac = lam.lam / s.m
        a, d = frac.numerator, frac.denominator
        cand = Surface((a + 1) * s.m + d, (a + 1) * s.n)
        got = lambda_of_intersection(s, cand)
        assert got.lam / s.m == -frac  # sign flip, hence the gate


@st.composite
def abelian_lines(draw):
    """An abelian line (s, lam) with |m|, |n| <= 8, m, n != 0 and lam not in
    {0, 1}: an integer lambda or a member of a cross-cancellation family."""
    s = Surface(draw(st.integers(-8, 8).filter(bool)),
                draw(st.integers(-8, 8).filter(bool)))
    lams = [F(v) for v in range(-9, 10) if v not in (0, 1)]
    if s.m + s.n != 0:
        lams += [reference_lambda_pair(fam, k).lam for fam in solve_condition2(s)
                 for k in range(-2, 3)]
    lam = LambdaPair.from_lambda(draw(st.sampled_from(lams)))
    assume(lam.lam not in (0, 1) and classify_lambda(s, lam).is_abelian)
    return s, lam


class TestReferenceConstructionsOnWalk:
    @given(abelian_lines())
    @settings(max_examples=300)
    def test_constructions_lie_on_the_walked_line(self, line):
        s, lam = line
        walked = realize_line_as_intersections(s, lam, 3)
        dm, dn = walked[0].m - s.m, walked[0].n - s.n
        for i, w in enumerate(walked, 1):
            assert (w.m - s.m, w.n - s.n) == (i * dm, i * dn)
        refs = [anchor_realization(s, lam)[0]]
        if lam.lam.denominator == 1:
            ks = range(-3, 4)
            got = list(bezout_realizations(s, lam, ks))
            assert len(got) >= len(ks) - 1  # only s itself is skipped
            refs += got
        if _condition2_reduced(s.m, s.n, *lam.over(s.m, s.n)) is not None:
            us = [u for u in range(-3, 4) if u]
            got = list(cross_cancellation_realizations(s, lam, us))
            assert len(got) == len(us)
            refs += got
        for w in refs:
            # collinear with the walk's step through s, and realizing lam
            assert (w.m - s.m) * dn == (w.n - s.n) * dm
            assert lambda_of_intersection(s, w) == lam


def reference_egcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: (g, x, y) with x*a + y*b = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        qt = old_r // r
        old_r, r = r, old_r - qt * r
        old_x, x = x, old_x - qt * x
        old_y, y = y, old_y - qt * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def reference_bezout_min_second(a: int, b: int) -> tuple[int, int]:
    """The egcd pair moved to 0 <= y < |a| along (x + k b, y - k a)."""
    g, x, y = reference_egcd(a, b)
    if g != 1:
        raise ValueError(f"arguments not coprime: gcd({a},{b})={g}")
    y0 = y % abs(a)
    return x + (y - y0) // a * b, y0


class TestBezoutPair:
    @given(st.integers(-60, 60).filter(bool), st.integers(-60, 60))
    @settings(max_examples=500)
    def test_matches_egcd_reference(self, a, b):
        if math.gcd(a, b) != 1:
            with pytest.raises(ValueError, match="not coprime"):
                _bezout_min_second(a, b)
            return
        x, y = _bezout_min_second(a, b)
        assert (x, y) == reference_bezout_min_second(a, b)
        assert x * a + y * b == 1 and 0 <= y < abs(a)
