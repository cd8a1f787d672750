"""Poisson structure function tests: the dual-nome log-derivative against
the nome series, the table-driven routes against the per-type reference
formulas, route equivalence (near q = 1 too), antisymmetry,
finite-difference oracles, the case overlap, and the multi-index bracket."""

import cmath
import math
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from abelianity import (
    DomainError,
    EllipticContext,
    LambdaPair,
    PoleError,
    PoissonParamsA,
    PoissonParamsB,
    Surface,
    f_compact,
    f_kk,
    f_series,
    params_for_line,
    theta_logderiv_series,
    solve_condition2,
    ufunc_a,
    verification_grid,
)
from abelianity.elliptic import _DualNome
from reference_family import reference_lambda_pair

CTX = EllipticContext(N=3, q=0.6)

# acceptance lines plus cases exercising every term of the assemblies:
# (5,2) lam=2 has distinct nomes and a nonvanishing f; (5,4) lam=-25/3 has
# mu=2, so the shifted k-sum contributes
PA_FLAT = PoissonParamsA.from_line(Surface(3, 6), -1)    # f identically 0 at N=3
PA = PoissonParamsA.from_line(Surface(5, 2), 2)
PB = PoissonParamsB.from_line(Surface(1, 2), F(1, 3))
PB2 = PoissonParamsB.from_line(Surface(5, 4), F(-25, 3))


def rel_err(a, b):
    return abs(a - b) / (1.0 + abs(a))


# Reference: the four per-type formulas and the double loop of the
# multi-index bracket, each written out on its own.  The table-driven
# routes must reproduce them.  Every Lambert pair takes the log of its
# point, so each shifted or squared argument is a sum of logs.


def _ref_nome(ctx, ell):
    return _DualNome(-2.0 * ctx.N * math.log(ctx.q) / ell)


def _ref_u_logderiv(ctx, nome, lny):
    """x d/dx ln U_a at y = e^lny: 2 (D(y^2) - D(q^2 y^2) + D(q^2/y^2) - D(1/y^2))."""
    ln_q2, ln_y2 = 2.0 * math.log(ctx.q), 2.0 * lny
    D = nome.logderiv
    return 2.0 * (D(ln_y2) - D(ln_q2 + ln_y2) + D(ln_q2 - ln_y2) - D(-ln_y2))


def _ref_second_difference(fn, ctx, lnx):
    """2 fn(x) - fn(qx) - fn(x/q), each point given by its log."""
    lnq = math.log(ctx.q)
    return 2.0 * fn(lnx) - fn(lnx + lnq) - fn(lnx - lnq)


def reference_f_type_a(ctx, params, x):
    """f(x) = -N lambda ln(q) x d/dx [ (m/l) ln U_{q^{2N/l}}(x)
                                     + (n/l*) ln U_{q^{2N/l*}}(x) ]."""
    a1, a2 = _ref_nome(ctx, params.ell), _ref_nome(ctx, params.ell_star)
    lnx = cmath.log(x)
    bracket = (params.surface.m / params.ell) * _ref_u_logderiv(ctx, a1, lnx) \
        + (params.surface.n / params.ell_star) * _ref_u_logderiv(ctx, a2, lnx)
    return -ctx.N * params.lam * math.log(ctx.q) * bracket


def reference_f_type_a_series(ctx, params, x):
    """f = -2 N lambda ln(q) (2I(x) - I(qx) - I(x/q)), I the weighted pair
    of Lambert sums in x^2."""
    D1 = _ref_nome(ctx, params.ell).logderiv
    D2 = _ref_nome(ctx, params.ell_star).logderiv

    def I(lny):
        return (params.surface.m / params.ell) * D1(2.0 * lny) \
            + (params.surface.n / params.ell_star) * D2(2.0 * lny)

    return -2.0 * ctx.N * params.lam * math.log(ctx.q) \
        * _ref_second_difference(I, ctx, cmath.log(x))


def reference_f_type_b(ctx, params, x):
    """f(x) = -N lambda ln(q) ((m+n)/d) x d/dx [
          (1 + mu^2/(mn)) ln U_{q^{2N/d}}(x) - (d mu/(mn)) ln U_{q^{2N}}(x)
        + (d/(mn)) sum_{k=1}^{mu-1} (k - mu) ln(U_{q^{2N}}(s^k x) U_{q^{2N}}(s^-k x)) ]
    with s = q^{-N lambda/m}, so ln s^k = -k N (lambda/m) ln q."""
    m, n = params.surface.m, params.surface.n
    d, mu = params.d, params.mu
    a_d, a_full = _ref_nome(ctx, d), _ref_nome(ctx, 1)
    ln_s = -ctx.N * float(params.lam / m) * math.log(ctx.q)
    lnx = cmath.log(x)
    bracket = (1.0 + mu * mu / (m * n)) * _ref_u_logderiv(ctx, a_d, lnx)
    bracket -= (d * mu / (m * n)) * _ref_u_logderiv(ctx, a_full, lnx)
    for k in range(1, mu):
        term = _ref_u_logderiv(ctx, a_full, lnx + k * ln_s) \
            + _ref_u_logderiv(ctx, a_full, lnx - k * ln_s)
        bracket += (d / (m * n)) * (k - mu) * term
    pref = -ctx.N * float(params.lam) * math.log(ctx.q) * (m + n) / d
    return pref * bracket


def reference_f_type_b_series(ctx, params, x):
    """The triple Lambert sum with weights (1 + mu^2/mn), d mu/mn and
    (d/mn)(k - mu) over k = 0..mu-1, combined as
    f = -2 N lambda ln(q) ((m+n)/d) (2I(x) - I(qx) - I(x/q)); the shift
    p = q^{-2N lambda/m} enters as ln p^k = -2 k N (lambda/m) ln q."""
    m, n = params.surface.m, params.surface.n
    d, mu = params.d, params.mu
    D_d, D_full = _ref_nome(ctx, d).logderiv, _ref_nome(ctx, 1).logderiv
    ln_p = -2.0 * ctx.N * float(params.lam / m) * math.log(ctx.q)

    def I(lny):
        total = (1.0 + mu * mu / (m * n)) * D_d(2.0 * lny)
        total += (d * mu / (m * n)) * D_full(2.0 * lny)
        for k in range(mu):
            total += (d / (m * n)) * (k - mu) * (D_full(k * ln_p + 2.0 * lny)
                                                 - D_full(k * ln_p - 2.0 * lny))
        return total

    pref = -2.0 * ctx.N * float(params.lam) * math.log(ctx.q) * (m + n) / d
    return pref * _ref_second_difference(I, ctx, cmath.log(x))


REFERENCE = {
    (PoissonParamsA, f_compact): reference_f_type_a,
    (PoissonParamsA, f_series): reference_f_type_a_series,
    (PoissonParamsB, f_compact): reference_f_type_b,
    (PoissonParamsB, f_series): reference_f_type_b_series,
}


def reference_f_kk(ctx, params, k, kp, x, route=f_compact):
    """sum_i sum_j f(q^{i-j} x) over the half-integer index ranges, term by term."""
    if not (1 <= k <= ctx.N and 1 <= kp <= ctx.N):
        raise DomainError(f"k, k' must lie in 1..N={ctx.N}")
    total = 0.0 + 0.0j
    for i in [F(1 - k, 2) + r for r in range(k)]:
        for j in [F(1 - kp, 2) + r for r in range(kp)]:
            total += route(ctx, params, ctx.q ** float(i - j) * x)
    return total


def outcome(fn, *args):
    """The value of fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except (DomainError, PoleError) as exc:
        return type(exc), str(exc)


def assert_same_outcome(got, expect, tol):
    if isinstance(expect, tuple):
        assert got == expect
    else:
        assert not isinstance(got, tuple), got
        assert abs(got - expect) <= tol * (1.0 + abs(expect))


# Reference: the Lambert pair summed term by term in the nome a itself.  It
# needs ln(1e16)/ln(1/a) terms, so it raises instead of returning a partial
# sum once that exceeds its cap.
_MAX_TERMS = 20000


def _geom_sum(a: float, w: complex, eps: float, *, start: int = 0) -> complex:
    """sum_{s>=start} w a^s / (1 - w a^s), truncated by the geometric tail."""
    total = 0.0 + 0.0j
    an = a ** start
    scale = max(abs(w), 1.0)
    for _ in range(_MAX_TERMS):
        wa = w * an
        denom = 1.0 - wa
        if abs(denom) < 1e-9:
            raise PoleError(f"series pole: w a^s within 1e-9 of 1 (w={w})")
        total += wa / denom
        an *= a
        if abs(w) * an < eps / scale:
            return total
    raise AssertionError(f"reference series needs more than {_MAX_TERMS} "
                         f"terms at a={a}")


def reference_logderiv(a: float, x: complex) -> complex:
    return _geom_sum(a, x, 1e-16) - _geom_sum(a, 1.0 / x, 1e-16, start=1)


def zero_distance(a: float, x: complex) -> float:
    """|ln x - ln a^k| for the zero a^k of theta_a nearest x."""
    T = -math.log(a)
    lnx = cmath.log(x)
    return abs(lnx + round(-lnx.real / T) * T)


def rounding_spread(D, a: float, x: complex) -> float:
    """Ten units of the rounding of ln x and T = ln(1/a), u (1 + |ln x| + T)
    in ln x, times |dD/d ln x| from a central difference.  Any evaluation at
    float arguments inherits this error.  |dD/d ln x| grows like 1/T^2 and
    is largest on the positive real axis near the zeros a^k of theta_a:
    there both the nome series and the dual nome are off by up to about
    2e-11 from 50-digit sums at a = 0.95."""
    T = -math.log(a)
    h = 1e-3 * min(T, 1.0, zero_distance(a, x))
    slope = abs(D(a, x * math.exp(h)) - D(a, x * math.exp(-h))) / (2 * h)
    return 2.2e-15 * (1.0 + abs(cmath.log(x)) + T) * slope


class TestThetaLogDerivative:
    def test_against_finite_difference(self):
        a, x = 0.3, 0.5
        h = 1e-6
        fd = -(cmath.log(theta_like(a, x * (1 + h)))
               - cmath.log(theta_like(a, x * (1 - h)))) / (2 * h)
        assert abs(theta_logderiv_series(a, x) - fd) < 1e-8

    def test_inversion_constant(self):
        a, x = 0.3, 0.5
        total = theta_logderiv_series(a, x) + theta_logderiv_series(a, 1 / x)
        assert abs(total + 1.0) < 1e-10

    def test_small_nome_limit(self):
        x = 0.5
        assert abs(theta_logderiv_series(1e-15, x) - x / (1 - x)) < 1e-12

    def test_pole_rejected(self):
        from abelianity import PoleError
        with pytest.raises(PoleError):
            theta_logderiv_series(0.3, 1.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            theta_logderiv_series(1.2, 0.5)

    @pytest.mark.parametrize("x", [complex(math.inf, 0), complex(1, math.nan),
                                   (1e200 + 0j) * (1e200 + 0j)])
    def test_non_finite_argument(self, x):
        with pytest.raises(DomainError):
            theta_logderiv_series(0.3, x)

    def test_reference_refuses_partial_sums(self):
        with pytest.raises(AssertionError):
            reference_logderiv(0.999, 1.3)

    @settings(max_examples=300, deadline=None)
    @given(a=st.floats(0.0, 0.95, exclude_min=True), log10_r=st.floats(-3, 3),
           phi=st.one_of(st.floats(-math.pi, math.pi),
                         st.sampled_from([0.0, math.pi, -math.pi / 2])))
    def test_matches_nome_series(self, a, log10_r, phi):
        x = 10.0 ** log10_r * cmath.exp(1j * phi)
        try:
            ref = reference_logderiv(a, x)
        except PoleError:
            with pytest.raises(PoleError):
                theta_logderiv_series(a, x)
            return
        try:
            val = theta_logderiv_series(a, x)
        except PoleError:
            # both pole tests stop at about 1e-9 from a zero
            assert zero_distance(a, x) < 1.1e-9
            return
        assert abs(val - ref) <= 1e-12 * (1.0 + abs(ref)) \
            + rounding_spread(reference_logderiv, a, x)

    @settings(max_examples=200, deadline=None)
    @given(log10_t=st.floats(-5, 1), log10_r=st.floats(-3, 3),
           phi=st.one_of(st.floats(-math.pi, math.pi),
                         st.sampled_from([0.0, math.pi, math.pi / 2])))
    def test_inversion_near_unit_nome(self, log10_t, log10_r, phi):
        # a = exp(-T) from 0.99999 down to exp(-10)
        a = math.exp(-10.0 ** log10_t)
        x = 10.0 ** log10_r * cmath.exp(1j * phi)
        try:
            d = theta_logderiv_series(a, x)
        except PoleError:
            with pytest.raises(PoleError):
                theta_logderiv_series(a, 1 / x)
            return
        total = d + theta_logderiv_series(a, 1 / x)
        assert abs(total + 1.0) <= 1e-12 * (1.0 + abs(d)) \
            + rounding_spread(theta_logderiv_series, a, x)

    @pytest.mark.parametrize("a", [1e-6, 0.3, 0.9, 0.999, 0.99999])
    @pytest.mark.parametrize("k", [-3, 0, 2, 50])
    def test_pole_at_nome_powers(self, a, k):
        with pytest.raises(PoleError):
            theta_logderiv_series(a, a ** k * (1 + 1e-12))
        assert cmath.isfinite(theta_logderiv_series(a, a ** k * (1 + 1e-6)))

    def test_takes_no_truncation_keyword(self):
        with pytest.raises(TypeError):
            theta_logderiv_series(0.3, 0.5, eps=1e-16)

    @pytest.mark.parametrize("T", [800.0, 5000.0])
    def test_kernel_below_float_nome(self, T):
        # a = e^-T underflows; built from T the kernel still gives the
        # small-nome limit D_a(x) = x/(1 - x) + O(a)
        D = _DualNome(T).logderiv
        for x in (0.5, -0.3 + 0.4j, 2.5j):
            assert abs(D(cmath.log(x)) - x / (1 - x)) <= 1e-12 * (1 + abs(x / (1 - x)))

    def test_pole_beyond_float_range_named_by_its_log(self):
        # the zero x = a^-1 = e^800 of theta_a overflows a float as a point,
        # but not as a log
        with pytest.raises(PoleError, match=r"\(x=exp\(\(800\+0j\)\)\)$"):
            _DualNome(800.0).logderiv(800.0 + 0j)

    @settings(max_examples=300, deadline=None)
    @given(log10_t=st.floats(-1, 3), re=st.floats(-20, 20),
           im=st.floats(-math.pi, math.pi), k=st.integers(-3, 3))
    def test_kernel_takes_any_branch_of_the_log(self, log10_t, re, im, k):
        # ln x + 2 pi i k names the same point x; the kernel reduces it.
        # Within 1e-2 of a zero x = a^j the rounding of im + 2 pi k moves D
        # by more than 1e-12 of its size, so those points are left out.
        T = 10.0 ** log10_t
        assume(abs(complex(re + round(-re / T) * T, im)) > 1e-2)
        D = _DualNome(T).logderiv
        base = D(complex(re, im))
        shifted = D(complex(re, im + 2.0 * math.pi * k))
        assert abs(shifted - base) <= 1e-12 * (1.0 + abs(base))

    @pytest.mark.parametrize("delta", [1e-7, -1e-6, 3e-8j])
    def test_accurate_next_to_zero_at_one(self, delta):
        # 1 - x is exact here, so the nome series is accurate; the dual
        # must form 1 - X without cancellation to match it
        x = 1 + delta
        ref = reference_logderiv(0.5, x)
        assert abs(theta_logderiv_series(0.5, x) - ref) <= 1e-12 * abs(ref)


def theta_like(a, z):
    from abelianity import theta
    return theta(a, z)


class TestParams:
    def test_type_a_reduced_denominators(self):
        assert (PA_FLAT.w, PA_FLAT.w_star) == (1, 2)
        assert (PA_FLAT.ell, PA_FLAT.ell_star) == (3, 3)
        assert (PA.ell, PA.ell_star) == (5, 2)

    def test_type_a_negative_surface_signs(self):
        p = PoissonParamsA.from_line(Surface(-3, -6), 2)
        assert p.ell > 0 and p.ell_star > 0

    def test_type_a_rejects_vanishing(self):
        with pytest.raises(DomainError):
            PoissonParamsA.from_line(Surface(3, 6), 0)
        with pytest.raises(DomainError):
            PoissonParamsA.from_line(Surface(3, 6), 1)

    def test_type_b_witnesses(self):
        assert (PB.d, PB.mu) == (3, 1)
        assert (PB2.d, PB2.mu) == (3, 2)

    def test_type_a_matches_gcd_definition(self):
        # w = gcd(lambda, m) with the sign of m, l = m/w the reduced
        # denominator of lambda/m (likewise w*, l* for lambda*, n)
        for m in range(-7, 8):
            for n in range(-7, 8):
                for lam in range(-6, 7):
                    if m == 0 or n == 0 or lam in (0, 1):
                        continue
                    p = PoissonParamsA.from_line(Surface(m, n), lam)
                    w = math.copysign(math.gcd(lam, m), m)
                    w_star = math.copysign(math.gcd(1 - lam, n), n)
                    assert (p.w, p.w_star) == (w, w_star)
                    assert p.ell == F(lam, m).denominator == m // w
                    assert p.ell_star == F(1 - lam, n).denominator == n // w_star

    def test_type_b_matches_raw_condition(self):
        for m in range(-7, 8):
            for n in range(-7, 8):
                for lam in {F(a, b) for a in range(-12, 13) for b in range(1, 7)}:
                    if m == 0 or n == 0:
                        continue
                    lm, ln = lam / m, (1 - lam) / n
                    d = lm.denominator
                    ok = ((lm - ln).denominator == 1 and ln.denominator == d
                          and (m + n) % d == 0)
                    if not ok:
                        with pytest.raises(DomainError):
                            PoissonParamsB.from_line(Surface(m, n), lam)
                        continue
                    p = PoissonParamsB.from_line(Surface(m, n), lam)
                    assert (p.d, p.mu) == (d, m % d)

    def test_type_b_rejects_off_line(self):
        with pytest.raises(DomainError):
            PoissonParamsB.from_line(Surface(2, 5), F(-2, 3))

    def test_dispatch(self):
        from abelianity import LambdaPair
        assert isinstance(params_for_line(Surface(5, 2), LambdaPair.from_lambda(2)),
                          PoissonParamsA)
        assert isinstance(params_for_line(Surface(1, 2),
                                          LambdaPair.from_lambda(F(1, 3))),
                          PoissonParamsB)


@st.composite
def poisson_lines(draw):
    """Params of a type (a) or type (b) line on S(m, n), |m|, |n| <= 12."""
    m = draw(st.integers(-12, 12).filter(bool))
    n = draw(st.integers(-12, 12).filter(bool))
    s = Surface(m, n)
    families = solve_condition2(s) if m + n else []
    if families and draw(st.booleans()):
        family = draw(st.sampled_from(families))
        lam = reference_lambda_pair(family, draw(st.integers(-2, 2))).lam
        return PoissonParamsB.from_line(s, lam)
    return PoissonParamsA.from_line(s, draw(st.integers(-6, 6).filter(
        lambda v: v not in (0, 1))))


nomes = st.floats(-6.0, math.log10(0.99)).map(lambda e: 10.0 ** e)


class TestTablesMatchReference:
    @settings(max_examples=250, deadline=None)
    @given(params=poisson_lines(), q=nomes, N=st.sampled_from([2, 3, 4]),
           route=st.sampled_from([f_compact, f_series]))
    def test_route_matches_per_type_formula(self, params, q, N, route):
        ctx = EllipticContext(N=N, q=q)
        reference = REFERENCE[type(params), route]
        for x in verification_grid():
            assert_same_outcome(outcome(route, ctx, params, x),
                                outcome(reference, ctx, params, x), 1e-12)

    def test_lines_with_long_shift_sums(self):
        # mu >= 3 puts at least two shifted pairs into each table
        lines = [(Surface(-9, 1), F(-9, 4)), (Surface(-12, 3), F(-8, 3)),
                 (Surface(-10, 1), F(-10, 9))]
        mus = []
        for s, lam in lines:
            params = params_for_line(s, LambdaPair.from_lambda(lam))
            mus.append(params.mu)
            for route in (f_compact, f_series):
                for x in verification_grid():
                    assert_same_outcome(outcome(route, CTX, params, x),
                                        outcome(REFERENCE[type(params), route],
                                                CTX, params, x), 1e-12)
        assert min(mus) >= 3

    @settings(max_examples=120, deadline=None)
    @given(params=poisson_lines(), q=nomes, N=st.sampled_from([2, 3, 4]),
           route=st.sampled_from([f_compact, f_series]), data=st.data())
    def test_multi_index_matches_double_loop(self, params, q, N, route, data):
        ctx = EllipticContext(N=N, q=q)
        k = data.draw(st.integers(1, N))
        kp = data.draw(st.integers(1, N))
        for x in verification_grid(count=6):
            got = outcome(f_kk, ctx, params, k, kp, x, route)
            expect = outcome(reference_f_kk, ctx, params, k, kp, x, route)
            if isinstance(expect, tuple):
                assert got == expect
            else:
                # the sum can cancel far below its terms (to 1e-10 from terms
                # of 1e6), so the two summation orders agree to the rounding
                # of the terms: bound by 1 + sum of |f(q^{i-j} x)|
                size = reference_f_kk(ctx, params, k, kp, x,
                                      lambda c, p, y: abs(route(c, p, y))).real
                assert abs(got - expect) <= 1e-12 * (1.0 + size)
            if (k, kp) == (1, 1):
                assert outcome(f_kk, ctx, params, 1, 1, x, route) \
                    == outcome(route, ctx, params, x)


class TestRouteEquivalence:
    # S(p,1) with lambda = 2 has l = p: weight nomes q^(6/p) as close as
    # 6e-6 to 1, where a nome series needs up to 6e6 terms; (5,9) with
    # lambda = -65/7 is type (b) with d = 7, mu = 5
    @pytest.mark.parametrize("q", [0.9, 0.99, 0.999])
    @pytest.mark.parametrize("surface,lam", [
        (Surface(2, 1), 2), (Surface(97, 1), 2), (Surface(997, 1), 2),
        (Surface(1000, 1), 2), (Surface(5, 9), F(-65, 7)),
    ], ids=["2,1:2", "97,1:2", "997,1:2", "1000,1:2", "5,9:-65/7"])
    def test_near_unit_q(self, surface, lam, q):
        ctx = EllipticContext(N=3, q=q)
        params = params_for_line(surface, LambdaPair.from_lambda(lam))
        if surface.m == 5:
            assert isinstance(params, PoissonParamsB) and params.d >= 7
        for x in verification_grid(count=8):
            fc = f_compact(ctx, params, x)
            assert rel_err(fc, f_series(ctx, params, x)) <= 1e-8

    # q^6 is 1e-360 and 1e-600 here, below float range: the nomes are taken
    # as T = 2N ln(1/q)/l and never formed
    @pytest.mark.parametrize("q", [1e-60, 1e-100])
    @pytest.mark.parametrize("p", [1, 7])
    def test_nome_below_float_range(self, p, q):
        ctx = EllipticContext(N=3, q=q)
        params = params_for_line(Surface(p, 1), LambdaPair.from_lambda(2))
        for x in verification_grid(count=8):
            fc, fs = f_compact(ctx, params, x), f_series(ctx, params, x)
            assert cmath.isfinite(fc) and cmath.isfinite(fs)
            assert rel_err(fc, fs) <= 1e-10

    def test_near_unit_nome_taken_from_log(self):
        # S(997,1), lambda = 2, q = 0.99: f(0.8) sits close to a pole, so it
        # moves by 1.7e-6 when T comes from the rounded float q^(6/997)
        # (8e-13 off), and by 6.4e-10 when the compact route squares 0.8 in
        # floats instead of doubling ln 0.8; 40-digit mpmath of the same sums
        # with T = 6 ln(1/q)/997 gives the reference
        ctx = EllipticContext(N=3, q=0.99)
        params = params_for_line(Surface(997, 1), LambdaPair.from_lambda(2))
        for f in (f_compact, f_series):
            assert rel_err(f(ctx, params, 0.8), 517540.902858901711) <= 1e-10

    # 50-digit mpmath sums of the series route in the nome itself, with q
    # taken as its exact float value: y^2 = 0.64 q^2 underflows and
    # (s^5 0.8)^2 = 0.64e400 overflows a float, but not their logs
    @pytest.mark.parametrize("surface,lam,q,expect", [
        (Surface(1, 2), F(1, 3), 1e-200, -6293.732587517060),
        (Surface(6, 3), F(8, 3), 1e-30, -7552.479105020472),
    ], ids=["1,2:1/3", "6,3:8/3"])
    def test_arguments_outside_float_range(self, surface, lam, q, expect):
        ctx = EllipticContext(N=3, q=q)
        params = params_for_line(surface, LambdaPair.from_lambda(lam))
        for f in (f_compact, f_series):
            assert abs(f(ctx, params, 0.8) - expect) <= 1e-12 * abs(expect)

    def test_small_q_value_unchanged(self):
        # f at x = 0.8 on S(1,1), lambda = 2, q = 1e-20, as printed by the
        # float-nome evaluation (q^6 = 1e-120 was still in range there)
        ctx = EllipticContext(N=3, q=1e-20)
        params = params_for_line(Surface(1, 1), LambdaPair.from_lambda(2))
        for f in (f_compact, f_series):
            assert rel_err(f(ctx, params, 0.8), 5034.9860700136478) <= 1e-12

    @pytest.mark.parametrize("params", [PA_FLAT, PA], ids=["3,6:-1", "5,2:2"])
    def test_type_a(self, params):
        for x in verification_grid():
            fa = f_compact(CTX, params, x)
            fs = f_series(CTX, params, x)
            assert rel_err(fa, fs) < 1e-8

    @pytest.mark.parametrize("params", [PB, PB2], ids=["1,2:1/3", "5,4:-25/3"])
    def test_type_b(self, params):
        for x in verification_grid():
            fb = f_compact(CTX, params, x)
            fs = f_series(CTX, params, x)
            assert rel_err(fb, fs) < 1e-8

    def test_nonvanishing_case(self):
        # (3,6) at N=3 has ell = N, where U_{q^2} is constant and f == 0;
        # keep a case with structure
        assert abs(f_compact(CTX, PA, 1.31)) > 1e-3
        assert abs(f_compact(CTX, PB, 1.31)) > 1e-3


class TestAntisymmetry:
    @pytest.mark.parametrize("fn,params", [
        (f_compact, PA), (f_compact, PA_FLAT), (f_compact, PB), (f_compact, PB2),
    ], ids=["a", "a-flat", "b", "b-mu2"])
    def test_f_inversion(self, fn, params):
        for x in (1.31, 0.8 + 0.3j, 1.1 - 0.6j):
            assert abs(fn(CTX, params, x) + fn(CTX, params, 1 / x)) < 1e-9


class TestSeriesStructure:
    def test_mu_one_k_sum_merges(self):
        # mu=1: the k-sum in the compact form is empty; the series form
        # carries only k=0, which merges with the -d mu/(mn) weight
        for x in (1.31, 0.9 + 0.2j):
            assert rel_err(f_compact(CTX, PB, x), f_series(CTX, PB, x)) < 1e-10

    def test_valid_at_unit_m(self):
        # formulas remain valid when |m| = 1
        val = f_compact(CTX, PB, 1.31)
        assert cmath.isfinite(val)

    def test_zero_lambda_prefactor(self):
        params = PoissonParamsA(Surface(3, 6), 0, w=1, w_star=2, ell=3, ell_star=3)
        assert f_series(CTX, params, 1.31) == 0


class TestOverlap:
    def test_both_types_coincide(self):
        """(2,4) with lambda=-1: integer lambda with l = l* = d and mu = 0,
        where both formulas literally apply and must agree."""
        pa = PoissonParamsA.from_line(Surface(2, 4), -1)
        pb = PoissonParamsB.from_line(Surface(2, 4), F(-1))
        assert (pa.ell, pa.ell_star, pb.d, pb.mu) == (2, 2, 2, 0)
        for x in verification_grid():
            assert rel_err(f_compact(CTX, pa, x), f_compact(CTX, pb, x)) < 1e-8


class TestFiniteDifferenceAssembly:
    H = 1e-6

    def _fd_log_derivative(self, logP, x):
        return (logP(x * math.exp(self.H)) - logP(x * math.exp(-self.H))) \
            / (2 * self.H)

    def test_type_a_bracket(self):
        params = PA
        a1 = CTX.q ** (2 * CTX.N / params.ell)
        a2 = CTX.q ** (2 * CTX.N / params.ell_star)

        def logP(y):
            return params.w * cmath.log(ufunc_a(CTX, a1, y)) \
                + params.w_star * cmath.log(ufunc_a(CTX, a2, y))

        x = 1.31
        fd = self._fd_log_derivative(logP, x)
        analytic = f_compact(CTX, params, x) / (-CTX.N * params.lam * math.log(CTX.q))
        assert abs(fd - analytic) / (1 + abs(analytic)) < 1e-6

    def test_type_b_bracket(self):
        params = PB2
        m, n, d, mu = 5, 4, params.d, params.mu
        a_d = CTX.q ** (2 * CTX.N / d)
        a_full = CTX.q ** (2 * CTX.N)
        s = CTX.q ** (-CTX.N * float(params.lam / m))

        def logP(y):
            total = (1 + mu * mu / (m * n)) * cmath.log(ufunc_a(CTX, a_d, y))
            total -= (d * mu / (m * n)) * cmath.log(ufunc_a(CTX, a_full, y))
            for k in range(1, mu):
                total += (d / (m * n)) * (k - mu) * (
                    cmath.log(ufunc_a(CTX, a_full, s ** k * y))
                    + cmath.log(ufunc_a(CTX, a_full, s ** (-k) * y)))
            return total

        x = 1.31
        fd = self._fd_log_derivative(logP, x)
        pref = -CTX.N * float(params.lam) * math.log(CTX.q) * (m + n) / d
        analytic = f_compact(CTX, params, x) / pref
        assert abs(fd - analytic) / (1 + abs(analytic)) < 1e-6


class TestMultiIndex:
    def test_rank_one_is_f(self):
        assert f_kk(CTX, PA, 1, 1, 1.31) == f_compact(CTX, PA, 1.31)

    def test_rank_two_expansion(self):
        x = 1.31
        got = f_kk(CTX, PA, 2, 2, x)
        expect = 2 * f_compact(CTX, PA, x) + f_compact(CTX, PA, CTX.q * x) \
            + f_compact(CTX, PA, x / CTX.q)
        assert abs(got - expect) < 1e-12 * max(1.0, abs(expect))

    def test_bracket_antisymmetry(self):
        x = 1.31
        for k, kp in ((1, 2), (2, 3), (3, 1)):
            total = f_kk(CTX, PA, k, kp, x) + f_kk(CTX, PA, kp, k, 1 / x)
            assert abs(total) < 1e-9

    def test_rank_bounds(self):
        with pytest.raises(DomainError):
            f_kk(CTX, PA, 0, 1, 1.31)

    @pytest.mark.parametrize("k,kp", [(2, 3), (3, 2), (3, 3)])
    def test_pole_named_as_in_double_loop(self, k, kp):
        # at x = 1 several shifts q^u x sit on poles; the error names the
        # one the double sum reaches first
        got = outcome(f_kk, CTX, PA, k, kp, 1.0)
        assert got[0] is PoleError
        assert got == outcome(reference_f_kk, CTX, PA, k, kp, 1.0)


class TestSignConventions:
    def test_simultaneous_sign_flip_invariance(self):
        """Flipping (lambda, lambda*, m, n) together flips both the
        prefactor and the weights m/l, n/l* while l, l* stay positive, so
        the assembled f is unchanged."""
        params = PA
        flipped = PoissonParamsA(Surface(-params.surface.m, -params.surface.n),
                                 -params.lam, w=-params.w, w_star=-params.w_star,
                                 ell=params.ell, ell_star=params.ell_star)
        for x in (1.31, 0.8 + 0.3j):
            f0 = f_compact(CTX, params, x)
            assert abs(f_compact(CTX, flipped, x) - f0) < 1e-10 * max(1.0, abs(f0))


class TestPrefactorScaling:
    def test_lambda_linearity(self):
        # (5,5): lambda = 2 and 4 share (l, l*) = (5, 5), so f scales by 2
        p2 = PoissonParamsA.from_line(Surface(5, 5), 2)
        p4 = PoissonParamsA.from_line(Surface(5, 5), 4)
        assert (p2.ell, p2.ell_star) == (p4.ell, p4.ell_star) == (5, 5)
        x = 1.31
        f2 = f_compact(CTX, p2, x)
        assert abs(f2) > 1e-6
        assert abs(f_compact(CTX, p4, x) - 2 * f2) < 1e-10 * abs(f2)
