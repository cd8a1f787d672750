"""Numeric tests of the theta building block and the structure functions.

Random grids use a fixed seed; tolerances follow the identity being
tested: exact functional equations at 1e-12, derived periodicity at 1e-10,
and product cancellations at 1e-9.
"""

import cmath
import math
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abelianity import (
    DegenerateParametrizationError,
    DomainError,
    EllipticContext,
    LambdaPair,
    PoleError,
    Surface,
    centrality_plan,
    centrality_ratio,
    exchange_plan,
    theta,
    ufunc_a,
    verification_grid,
    yfunc,
)
from abelianity.elliptic import u_zero_pole_adjacent
from reference_u import half_nome_roots, ufunc, whole_surface_product

CTX = EllipticContext(N=3, q=0.6)


def theta_unreduced(a, z, n_max=600):
    """Plain truncated product, no argument reduction (test oracle only)."""
    prod = 1.0 + 0.0j
    an = 1.0
    for _ in range(n_max):
        prod *= (1 - z * an) * (1 - a * an / z)
        an *= a
    return prod


def u_reference(ctx, a, z):
    """U_a from its four-theta product definition (test oracle only)."""
    w = z * z
    q2 = ctx.q * ctx.q
    num = theta(a, q2 * w) * theta(a, q2 / w)
    den = theta(a, w) * theta(a, 1 / w)
    return ctx.q ** (2.0 / ctx.N - 2.0) * num / den


def calF(ctx, s_exponent, a, x):
    """Shift product F_a(x) with half-nome s = q^{N * s_exponent} (reference):

        prod_{l=0}^{a-1} U(s^l x)        for a > 0,
        1                                 for a = 0,
        prod_{l=1}^{|a|} U(s^{-l} x)^-1   for a < 0.
    """
    if a == 0:
        return 1.0 + 0.0j
    s = ctx.q ** (ctx.N * float(s_exponent))
    val = 1.0 + 0.0j
    if a > 0:
        for ell in range(a):
            val *= ufunc(ctx, s ** ell * x)
    else:
        for ell in range(1, -a + 1):
            val /= ufunc(ctx, s ** (-ell) * x)
    return val


def exchange_factor(ctx, s, lam, k, kp, x):
    """Exchange factor between rank-k and rank-k' generators (reference):
    prod over i, j of Y(q^{i-j} x), with i and j running over the
    half-integer ranges (1-k)/2, ..., (k-1)/2 and (1-k')/2, ..., (k'-1)/2."""
    if not (1 <= k <= ctx.N and 1 <= kp <= ctx.N):
        raise DomainError(f"k, k' must lie in 1..N={ctx.N}")
    plan = exchange_plan(ctx, s, lam)
    val = 1.0 + 0.0j
    for i in range(k):
        for j in range(kp):
            val *= plan(ctx.q ** ((kp - k) / 2 + i - j) * x)
    return val


class TestTheta:
    def test_zero_at_one(self):
        assert abs(theta(0.3, 1.0)) < 1e-15

    def test_zero_at_nome(self):
        # (a/z; a) has the factor (1 - a/a) at n=0
        assert abs(theta(0.3, 0.3)) < 1e-15

    def test_shift_equation_reference_point(self):
        a = 0.25
        z = 0.5
        lhs = theta(a, a * z)
        rhs = -theta(a, z) / z
        assert abs(lhs - rhs) < 1e-12 * abs(rhs)

    def test_double_shift(self):
        a, z = 0.25, 0.5
        lhs = theta(a, a * a * z)
        rhs = theta(a, z) / (a * z * z)
        assert abs(lhs - rhs) < 1e-12 * abs(rhs)

    def test_functional_equations_random_grid(self):
        rng = random.Random(7)
        for _ in range(100):
            a = rng.uniform(0.05, 0.9)     # nome a^2 of the identities
            r = rng.uniform(0.3, 3.0)
            phi = rng.uniform(0, 2 * math.pi)
            z = r * cmath.exp(1j * phi)
            a2 = a * a
            v = theta(a2, z)
            assert abs(theta(a2, a2 * z) + v / z) <= 1e-12 * max(1.0, abs(v / z))
            assert abs(theta(a2, a * z) - theta(a2, a / z)) \
                <= 1e-12 * max(1.0, abs(theta(a2, a * z)))

    def test_inversion_equation(self):
        a, z = 0.4, 1.7 + 0.3j
        assert abs(theta(a, 1 / z) + theta(a, z) / z) < 1e-13 * abs(theta(a, z) / z)

    @pytest.mark.parametrize("scale", [1.0, 37.0, 1e3])
    def test_reduction_matches_unreduced(self, scale):
        a = 0.3
        for z in (0.77 * scale, (0.5 + 0.4j) / scale):
            direct = theta_unreduced(a, z)
            assert abs(theta(a, z) - direct) < 1e-11 * max(1.0, abs(direct))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            theta(1.5, 1.0 + 0j)
        with pytest.raises(DomainError):
            theta(0.3, 0)

    @pytest.mark.parametrize("z", [1e300, 1e-300, 1e200 + 1e200j, float("inf")])
    def test_out_of_range_is_domain_error(self, z):
        with pytest.raises(DomainError):
            theta(0.3, z)


class TestU:
    def test_inversion_symmetry(self):
        assert abs(ufunc(CTX, 1.7) - ufunc(CTX, 1 / 1.7)) < 1e-12

    def test_periodicity(self):
        z = 1.3 + 0.2j
        shifted = ufunc(CTX, CTX.q ** CTX.N * z)
        assert abs(shifted - ufunc(CTX, z)) < 1e-10

    def test_even_in_z(self):
        z = 1.3 + 0.2j
        assert ufunc(CTX, -z) == ufunc(CTX, z)

    def test_ufunc_a_definitional_coincidence(self):
        ctx = EllipticContext(N=3, q=0.5)
        assert abs(ufunc_a(ctx, ctx.q ** 6, 0.9) - ufunc(ctx, 0.9)) < 1e-13

    def test_ufunc_a_inversion(self):
        assert abs(ufunc_a(CTX, 0.3, 2.1) - ufunc_a(CTX, 0.3, 1 / 2.1)) < 1e-12

    def test_ufunc_a_large_argument(self):
        # the internal theta reduction keeps huge arguments exact
        val = ufunc_a(CTX, 0.3, 850.0)
        assert abs(val - ufunc_a(CTX, 0.3, 1 / 850.0)) < 1e-9 * abs(val)

    def test_pole_detection(self):
        with pytest.raises(PoleError):
            ufunc(CTX, 1.0)  # z^2 = 1 = nome^0
        with pytest.raises(PoleError):
            ufunc(CTX, math.sqrt(CTX.q ** (2 * CTX.N)))

    def test_zero_detection(self):
        # zeros at q^2 z^{+-2} on the nome lattice (CTX: N = 3, q = 0.6): U
        # raises there, as every exchange factor does, instead of returning a
        # value near 0, and names the point
        for z in (1 / 0.6, 0.6, -1 / 0.6):
            with pytest.raises(PoleError, match=re.escape(f"at x={z}") + "$"):
                ufunc(CTX, z)

    def test_plan_pole_message_names_x(self):
        # the k = 3 factor of the m = 3 ratio is U(x) itself, a pole at x = 1
        with pytest.raises(PoleError, match=r"at x=1\.0$"):
            centrality_plan(CTX, 3, 2)(1.0)

    def test_full_cycle_product_is_one(self):
        """prod_{j=0}^{N-1} U(q^j x) is identically 1: the combined theta
        nome equals the internal q^2 shift and all constants cancel."""
        for N in (2, 3, 4):
            for q in (0.45, 0.7):
                ctx = EllipticContext(N=N, q=q)
                for x in (0.83, 1.4 + 0.3j):
                    prod = 1.0 + 0.0j
                    for j in range(N):
                        prod *= ufunc(ctx, q ** j * x)
                    assert abs(prod - 1.0) < 1e-12


class TestUDualNome:
    """The dual-nome kernel against the four-theta product and U's symmetries."""

    @pytest.mark.parametrize("N", [2, 3, 4, 6])
    @pytest.mark.parametrize("q", [0.1, 0.35, 0.6, 0.8, 0.9])
    def test_matches_four_theta_product(self, N, q):
        ctx = EllipticContext(N=N, q=q)
        worst = 0.0
        for a in (None, 0.02, 0.3, 0.7):
            for r in (0.31, 0.77, 1.0, 1.9, 4.3):
                for phi in (0.0, 0.4, 1.3, math.pi / 2, 2.2, 3.0, -0.9, math.pi):
                    z = r * cmath.exp(1j * phi)
                    nome = ctx.q ** (2 * ctx.N) if a is None else a
                    if u_zero_pole_adjacent(ctx, nome, z):
                        continue
                    got = ufunc(ctx, z) if a is None else ufunc_a(ctx, a, z)
                    ref = u_reference(ctx, nome, z)
                    worst = max(worst, abs(got - ref) / abs(ref))
        assert worst <= 1e-12

    def test_conjugation(self):
        rng = random.Random(5)
        for _ in range(50):
            z = rng.uniform(0.2, 5.0) * cmath.exp(1j * rng.uniform(-3.1, 3.1))
            for a in (CTX.q ** (2 * CTX.N), 0.3):
                u = ufunc_a(CTX, a, z)
                assert abs(ufunc_a(CTX, a, z.conjugate()) - u.conjugate()) \
                    <= 1e-15 * abs(u)

    def test_even_general_nome(self):
        z = 0.7 - 1.9j
        assert ufunc_a(CTX, 0.3, -z) == ufunc_a(CTX, 0.3, z)

    @pytest.mark.parametrize("z", [1.3, -0.45, 2.2j, -0.9j, 1e40, 3e-17j])
    def test_exactly_real_on_real_z_squared(self, z):
        assert ufunc(CTX, z).imag == 0.0
        assert ufunc_a(CTX, 0.3, z).imag == 0.0

    def test_huge_and_tiny_arguments_reduce_exactly(self):
        ctx = EllipticContext(3, 0.6)
        big = ufunc(ctx, 1e25)
        assert math.isfinite(big.real)
        assert abs(big - ufunc(ctx, 1e25 * 0.6 ** 3)) <= 1e-12 * abs(big)
        assert abs(ufunc(ctx, 1e-25) - big) <= 1e-12 * abs(big)
        val = ufunc(ctx, 1e200 + 1e200j)
        assert math.isfinite(val.real) and math.isfinite(val.imag)

    def test_general_nome_with_huge_constant(self):
        # q^{2/N} e^{4L^2/T} is about 1e250 here; the product route overflowed
        val = ufunc_a(EllipticContext(2, 0.3), 0.99, -1.9775 - 1.3032j)
        assert math.isfinite(val.real) and math.isfinite(val.imag)
        with pytest.raises(DomainError):
            ufunc_a(EllipticContext(2, 0.05), 0.9999, 1.3 + 0.2j)

    def test_argument_domain(self):
        for z in (0, float("inf"), complex(float("nan"), 1.0)):
            with pytest.raises(DomainError):
                ufunc(CTX, z)
            with pytest.raises(DomainError):
                u_zero_pole_adjacent(CTX, 0.3, z)

    @settings(max_examples=300, deadline=None)
    @given(q=st.floats(0.1, 0.95), N=st.integers(2, 5),
           a=st.one_of(st.none(), st.floats(0.05, 0.95)), k=st.integers(-3, 3),
           site=st.sampled_from([0, -2, 2]), near=st.booleans(),
           arg=st.floats(-math.pi, math.pi), sign=st.sampled_from([1, -1]))
    def test_adjacent_exactly_where_ufunc_a_raises(self, q, N, a, k, site, near,
                                                   arg, sign):
        """Points z^2 = q^site a^k (1 + delta) through a pole (site 0) or a
        zero (site -2 or 2): within 1e-12 of it U_a raises PoleError, 1e-6
        away it does not, and u_zero_pole_adjacent says which."""
        ctx = EllipticContext(N=N, q=q)
        nome = q ** (2 * N) if a is None else a
        w = q ** site * nome ** k
        z = sign * cmath.sqrt(w * (1 + (1e-12 if near else 1e-6) * cmath.exp(1j * arg)))
        evaluations = [lambda: ufunc_a(ctx, nome, z)]
        if a is None:
            evaluations.append(lambda: ufunc(ctx, z))
        for evaluate in evaluations:
            try:
                evaluate()
                raised = False
            except PoleError:
                raised = True
            assert raised is near
        assert u_zero_pole_adjacent(ctx, nome, z) is near

    @settings(max_examples=300, deadline=None)
    @given(log10_r=st.floats(-300, 300), phi=st.one_of(
               st.floats(-math.pi, math.pi),
               st.sampled_from([0.0, math.pi / 2, math.pi, -math.pi / 2])),
           q=st.floats(0.05, 0.999), N=st.integers(2, 6),
           a=st.one_of(st.none(), st.floats(0.0, 1.0, exclude_min=True,
                                            exclude_max=True)))
    def test_finite_or_declared_error(self, log10_r, phi, q, N, a):
        ctx = EllipticContext(N=N, q=q)
        z = 10.0 ** log10_r * cmath.exp(1j * phi)
        try:
            val = ufunc(ctx, z) if a is None else ufunc_a(ctx, a, z)
        except (PoleError, DomainError):
            return
        assert math.isfinite(val.real) and math.isfinite(val.imag)

    @settings(max_examples=200, deadline=None)
    @given(log10_r=st.floats(-300, 300), phi=st.floats(-math.pi, math.pi),
           a=st.floats(0.01, 0.95))
    def test_theta_finite_or_domain_error(self, log10_r, phi, a):
        try:
            val = theta(a, 10.0 ** log10_r * cmath.exp(1j * phi))
        except DomainError:
            return
        assert math.isfinite(val.real) and math.isfinite(val.imag)


class TestFloatRange:
    """No non-finite value passes: a value outside float range raises."""

    @settings(max_examples=60, deadline=None)
    @given(log10_q=st.floats(-300, math.log10(0.999)), N=st.integers(2, 6),
           log10_r=st.floats(-2, 2), phi=st.floats(-math.pi, math.pi))
    def test_finite_or_declared_error(self, log10_q, N, log10_r, phi):
        ctx = EllipticContext(N=N, q=10.0 ** log10_q)
        x = 10.0 ** log10_r * cmath.exp(1j * phi)
        evaluations = [
            exchange_plan(ctx, Surface(2, 1), LambdaPair.from_lambda(2)),
            exchange_plan(ctx, Surface(2, 5), LambdaPair.from_lambda(F(-2, 3))),
            lambda z: ufunc(ctx, z),
        ]
        for evaluate in evaluations:
            try:
                val = evaluate(x)
            except (PoleError, DomainError):
                continue
            assert math.isfinite(val.real) and math.isfinite(val.imag)

    @pytest.mark.parametrize("s,lam,q", [
        (Surface(2, 1), 2, 1e-300), (Surface(1, 2), F(1, 3), 1e-250),
    ])
    def test_exchange_outside_float_range(self, s, lam, q):
        plan = exchange_plan(EllipticContext(N=3, q=q), s, LambdaPair.from_lambda(lam))
        with pytest.raises(DomainError, match="outside float range"):
            plan(0.8)

    def test_ufunc_outside_float_range(self):
        with pytest.raises(DomainError, match="outside float range"):
            ufunc(EllipticContext(N=3, q=1e-250), 0.8)

    def test_context_has_no_tolerance_fields(self):
        import dataclasses
        assert [f.name for f in dataclasses.fields(EllipticContext)] == ["N", "q"]
        with pytest.raises(TypeError):
            theta(0.3, 0.5, eps=1e-16)

    @pytest.mark.parametrize("call,error,match", [
        (lambda: EllipticContext(1, 0.5), DomainError, "N must be >= 2, got 1"),
        (lambda: EllipticContext(3, 1.0), DomainError, r"q must lie in \(0,1\), got 1.0"),
        (lambda: centrality_plan(CTX, 0, 1), DomainError, "m must be positive"),
        # |x| overflows a float although x itself is finite
        (lambda: yfunc(CTX, Surface(1, 2), LambdaPair(F(1, 3)), complex(1.5e308, 1.5e308)),
         DomainError, "U argument must be finite and nonzero"),
        (lambda: exchange_plan(CTX, Surface(1, 2), None), DegenerateParametrizationError,
         "requires a lambda coordinate"),
    ], ids=["rank", "nome", "centrality-m", "abs-overflow", "no-lambda"])
    def test_input_errors(self, call, error, match):
        with pytest.raises(error, match=match):
            call()


class TestCalF:
    def test_empty_product(self):
        assert calF(CTX, F(1, 3), 0, 1.4) == 1.0

    def test_single_factor(self):
        assert abs(calF(CTX, F(1, 3), 1, 1.4) - ufunc(CTX, 1.4)) < 1e-14

    def test_negative_index_inverse(self):
        s = CTX.q ** (CTX.N * float(F(1, 3)))
        prod = calF(CTX, F(1, 3), -1, 1.4) * ufunc(CTX, 1.4 / s)
        assert abs(prod - 1.0) < 1e-12


class TestY:
    def test_abelian_line(self):
        y = yfunc(CTX, Surface(1, 2), LambdaPair.from_lambda(F(1, 3)), 1.37)
        assert abs(y - 1.0) < 1e-10

    def test_whole_surface_all_roots(self):
        for root in half_nome_roots(CTX, 3):
            y = whole_surface_product(CTX, 3, root, 0.8 + 0.1j)
            assert abs(y - 1.0) < 1e-10

    def test_whole_surfaces_on_every_half_nome_root(self):
        """At every root s of s^k = q^-N the exchange function of S_{0,k},
        0 < |k| <= 12, and its reciprocal on S_{k,0} are 1 to 1e-9 on the
        default grid at N = 2, 3, 4 and q = 1e-4, 0.6, 0.95: 2,808 (surface,
        root, N, q) cases, each with at least one point off the poles.  Each
        value is the defining product over s^l x, one U per factor; the
        package's plans take only the real root."""
        grid = verification_grid()
        cases, failed = 0, []
        for k in [v for v in range(-12, 13) if v]:
            for N in (2, 3, 4):
                for q in (1e-4, 0.6, 0.95):
                    ctx = EllipticContext(N=N, q=q)
                    for j, root in enumerate(half_nome_roots(ctx, k)):
                        values = []
                        for x in grid:
                            try:
                                values.append(whole_surface_product(ctx, k, root, x))
                            except PoleError:
                                pass
                        # S_{0,k} is the product, S_{k,0} its reciprocal
                        for s, devs in ((Surface(0, k), [abs(v - 1.0) for v in values]),
                                        (Surface(k, 0), [abs(1.0 / v - 1.0) for v in values])):
                            cases += 1
                            if not devs or max(devs) >= 1e-9:
                                failed.append((s, N, q, j, devs))
        assert cases == 2808
        assert not failed

    def test_whole_surface_negative_n(self):
        y = yfunc(CTX, Surface(0, -3), None, 1.1 + 0.2j)
        assert abs(y - 1.0) < 1e-10
        y = yfunc(CTX, Surface(4, 0), None, 0.9)
        assert abs(y - 1.0) < 1e-10

    @pytest.mark.parametrize("s", [Surface(0, 3), Surface(0, -4), Surface(5, 0)])
    def test_whole_surface_plan_matches_direct_product(self, s):
        """The shift plan against the defining product over s^l x, with the
        four-theta U, at the real root s of s^n = q^-N."""
        n = s.n if s.m == 0 else s.m
        x, root = 0.9 + 0.35j, half_nome_roots(CTX, n)[0]
        direct = 1.0 + 0.0j
        for ell in range(abs(n)):
            direct *= u_reference(CTX, CTX.q ** (2 * CTX.N), root ** ell * x)
        for ell in range(1, abs(n) + 1):
            direct /= u_reference(CTX, CTX.q ** (2 * CTX.N), root ** (-ell) * x)
        if s.n == 0:
            direct = 1 / direct  # the exponent lists of S_{m,0} are inverted
        got = exchange_plan(CTX, s, None)(x)
        assert abs(got - direct) <= 1e-12 * abs(direct)

    def test_plan_matches_direct_product(self):
        s = Surface(2, 5)
        lam = LambdaPair.from_lambda(F(-2, 3))
        plan = exchange_plan(CTX, s, lam)
        q, N, m, n = CTX.q, CTX.N, s.m, s.n
        lm, ln = lam.lam / m, lam.lam_star / n
        num = [ell * lm for ell in range(1, m + 1)] + [-ell * ln for ell in range(1, n)]
        den = [-ell * lm for ell in range(1, m)] + [ell * ln for ell in range(1, n + 1)]
        for x in (1.37, 0.8 + 0.3j, -1.1 - 0.6j):
            direct = 1.0 + 0.0j
            for t in num:
                direct *= u_reference(CTX, CTX.q ** (2 * CTX.N), q ** (N * float(t)) * x)
            for t in den:
                direct /= u_reference(CTX, CTX.q ** (2 * CTX.N), q ** (N * float(t)) * x)
            assert abs(plan(x) - direct) <= 1e-11 * abs(direct)

    @pytest.mark.parametrize("q", [0.6, 1e-2, 1e-4])
    @pytest.mark.parametrize("s", [Surface(0, 3), Surface(0, -4), Surface(5, 0)])
    def test_every_half_nome_root_accepted_at_small_q(self, s, q):
        """The defining product is 1 at every root of s^n = q^-N down to
        q = 1e-4, where |s|^|n| = 1e12, and not 1 a quarter step off a root
        (half a step off, s^2 is a root of (s^2)^n = q^-2N, and U is even)."""
        ctx = EllipticContext(N=3, q=q)
        n = s.n if s.m == 0 else s.m
        roots = half_nome_roots(ctx, n)
        for root in roots:
            y = whole_surface_product(ctx, n, root, 0.9 + 0.35j)
            assert abs(y - 1.0) < 1e-12
        off = roots[0] * cmath.exp(0.5j * math.pi / abs(n))
        assert abs(whole_surface_product(ctx, n, off, 0.9 + 0.35j) - 1.0) > 1.0

    def test_perturbed_line_detected(self):
        lam = LambdaPair.from_lambda(F(-2, 3) + F(1, 100))
        worst = 0.0
        for x in verification_grid():
            try:
                worst = max(worst, abs(yfunc(CTX, Surface(2, 5), lam, x) - 1.0))
            except PoleError:
                continue
        assert worst > 1e-3

    def test_non_abelian_line_detected(self):
        lam = LambdaPair.from_lambda(F(-2, 3))
        vals = [abs(yfunc(CTX, Surface(2, 5), lam, x) - 1.0)
                for x in verification_grid()]
        assert max(vals) > 1e-4


class TestExchangeFactor:
    LINE = (Surface(1, 2), LambdaPair.from_lambda(F(1, 3)))

    def test_rank_one_is_y(self):
        s, lam = self.LINE
        lam2 = LambdaPair.from_lambda(F(-2, 3))
        got = exchange_factor(CTX, s, lam2, 1, 1, 1.37)
        assert abs(got - yfunc(CTX, s, lam2, 1.37)) < 1e-14

    def test_rank_two_expansion(self):
        s = Surface(2, 5)
        lam = LambdaPair.from_lambda(F(-2, 3))
        x = 1.37
        got = exchange_factor(CTX, s, lam, 2, 1, x)
        sq = math.sqrt(CTX.q)
        expect = yfunc(CTX, s, lam, sq * x) * yfunc(CTX, s, lam, x / sq)
        assert abs(got - expect) < 1e-12 * abs(expect)

    def test_unity_on_abelianity_line(self):
        s, lam = self.LINE
        rng = random.Random(11)
        for _ in range(10):
            x = rng.uniform(0.7, 1.4) * cmath.exp(1j * rng.uniform(0.1, 3.0))
            for k in (1, 2, 3):
                for kp in (1, 2, 3):
                    got = exchange_factor(CTX, s, lam, k, kp, x)
                    assert abs(got - 1.0) < 1e-9

    def test_rank_bounds(self):
        with pytest.raises(DomainError):
            exchange_factor(CTX, *self.LINE, 0, 1, 1.3)
        with pytest.raises(DomainError):
            exchange_factor(CTX, *self.LINE, 1, 4, 1.3)


class TestCentralityRatio:
    CTX = EllipticContext(N=3, q=0.55)

    def test_super_line(self):
        assert abs(centrality_ratio(self.CTX, 3, 2, 1.21) - 1.0) < 1e-10

    def test_critical_level(self):
        # m=1, lambda=1: s* = 1, the ratio is U(x)/U(q^N x) = 1
        assert abs(centrality_ratio(self.CTX, 1, 1, 1.21) - 1.0) < 1e-12

    def test_non_super_collapses_at_n3_but_not_n4(self):
        """(m, lambda) = (9, 4) fails the coprimality conditions, yet at N=3
        its residual is constant on 1/3-orbits, so the ratio is identically
        1 there (full-cycle collapse).  N=4 separates it."""
        assert abs(centrality_ratio(self.CTX, 9, 4, 1.21) - 1.0) < 1e-10
        ctx4 = EllipticContext(N=4, q=0.55)
        vals = [abs(centrality_ratio(ctx4, 9, 4, x) - 1.0)
                for x in verification_grid()]
        assert max(vals) > 1e-3

    def test_non_super_detected_generic(self):
        # m=2, lambda=1 has residual {0:+1, 1/2:-1}: no collapse at any N
        vals = [abs(centrality_ratio(self.CTX, 2, 1, x) - 1.0)
                for x in verification_grid()]
        assert max(vals) > 1e-3


class TestGrid:
    def test_two_radii(self):
        pts = verification_grid()
        assert len(pts) == 20
        radii = {round(abs(p), 10) for p in pts}
        assert radii == {0.8, 1.25}

    def test_custom(self):
        pts = verification_grid(0.5, 2.0, 8)
        assert len(pts) == 8
