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
from abelianity.elliptic import ShiftPlan, _DualNome, u_zero_pole_adjacent
from abelianity.oracle import _exchange_residues
from reference_u import ufunc

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


def admissible_half_nome_roots(ctx, n):
    """The |n| complex solutions of s^n = q^{-N}, the free half-nome on
    S_{0,n} (reference helper)."""
    if n == 0:
        raise DomainError("n must be nonzero")
    base = ctx.q ** (-ctx.N / n)
    k = abs(n)
    return [base * cmath.exp(2j * cmath.pi * j / k) for j in range(k)]


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


def exchange_factor(ctx, s, lam, k, kp, x, *, half_nome=None):
    """Exchange factor between rank-k and rank-k' generators (reference):
    prod over i, j of Y(q^{i-j} x), with i and j running over the
    half-integer ranges (1-k)/2, ..., (k-1)/2 and (1-k')/2, ..., (k'-1)/2."""
    if not (1 <= k <= ctx.N and 1 <= kp <= ctx.N):
        raise DomainError(f"k, k' must lie in 1..N={ctx.N}")
    plan = exchange_plan(ctx, s, lam, half_nome=half_nome)
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
        for root in admissible_half_nome_roots(CTX, 3):
            y = yfunc(CTX, Surface(0, 3), None, 0.8 + 0.1j, half_nome=root)
            assert abs(y - 1.0) < 1e-10

    def test_whole_surfaces_on_every_half_nome_root(self):
        """Every root s of s^k = q^-N turns z^2 in its own way; at each of
        them the exchange function of S_{0,k} and S_{k,0}, 0 < |k| <= 12, is
        1 to 1e-9 on the default grid at N = 2, 3, 4 and q = 1e-4, 0.6, 0.95
        (2,808 plans, each with at least one point off the poles)."""
        grid = verification_grid()
        plans, failed = 0, []
        for k in [v for v in range(-12, 13) if v]:
            for N in (2, 3, 4):
                for q in (1e-4, 0.6, 0.95):
                    ctx = EllipticContext(N=N, q=q)
                    for j, root in enumerate(admissible_half_nome_roots(ctx, k)):
                        for s in (Surface(0, k), Surface(k, 0)):
                            plan = exchange_plan(ctx, s, None, half_nome=root)
                            devs = []
                            for x in grid:
                                try:
                                    devs.append(abs(plan(x) - 1.0))
                                except PoleError:
                                    pass
                            plans += 1
                            if not devs or max(devs) >= 1e-9:
                                failed.append((s, N, q, j, devs))
        assert plans == 2808
        assert not failed

    def test_whole_surface_negative_n(self):
        y = yfunc(CTX, Surface(0, -3), None, 1.1 + 0.2j)
        assert abs(y - 1.0) < 1e-10
        y = yfunc(CTX, Surface(4, 0), None, 0.9)
        assert abs(y - 1.0) < 1e-10

    @pytest.mark.parametrize("s", [Surface(0, 3), Surface(0, -4), Surface(5, 0)])
    def test_whole_surface_plan_matches_direct_product(self, s):
        """The shift plan against the defining product over s^l x, at every
        root s of s^n = q^-N (non-principal roots move |Y|)."""
        n = s.n if s.m == 0 else s.m
        x = 0.9 + 0.35j
        for root in admissible_half_nome_roots(CTX, n):
            direct = 1.0 + 0.0j
            for ell in range(abs(n)):
                direct *= u_reference(CTX, CTX.q ** (2 * CTX.N), root ** ell * x)
            for ell in range(1, abs(n) + 1):
                direct /= u_reference(CTX, CTX.q ** (2 * CTX.N), root ** (-ell) * x)
            if s.n == 0:
                direct = 1 / direct  # the exponent lists of S_{m,0} are inverted
            got = exchange_plan(CTX, s, None, half_nome=root)(x)
            assert abs(got - direct) <= 1e-12 * abs(direct)

    @pytest.mark.parametrize("n", [3, -4, 5])
    def test_half_nome_turns_each_factor(self, n):
        """Each half of a whole-surface plan on its own, against its defining
        product over s^l x at every root s: the halves are not 1, so a wrong
        point turn cannot cancel out."""
        modulus, fwd, back = _exchange_residues(Surface(0, n), None)
        dual, nome, x = _DualNome.for_u(CTX), CTX.q ** (2 * CTX.N), 0.9 + 0.35j
        for j, root in enumerate(admissible_half_nome_roots(CTX, n)):
            for ks, ells in ((fwd, range(abs(n))), (back, range(-1, -abs(n) - 1, -1))):
                got = ShiftPlan(dual, modulus, ks, [], phase=-2 * j * (1 if n > 0 else -1))(x)
                direct = math.prod(u_reference(CTX, nome, root ** ell * x) for ell in ells)
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

    def test_bad_half_nome_rejected(self):
        with pytest.raises(DomainError):
            yfunc(CTX, Surface(0, 3), None, 0.8, half_nome=1.23)

    @pytest.mark.parametrize("q", [0.6, 1e-2, 1e-4])
    @pytest.mark.parametrize("s", [Surface(0, 3), Surface(0, -4), Surface(5, 0)])
    def test_every_half_nome_root_accepted_at_small_q(self, s, q):
        # s^n = q^-N is checked in log form: an absolute tolerance on s^n
        # refused the non-real roots at q = 0.01 and every root at 1e-4
        ctx = EllipticContext(N=3, q=q)
        n = s.n if s.m == 0 else s.m
        roots = admissible_half_nome_roots(ctx, n)
        for root in roots:
            y = exchange_plan(ctx, s, None, half_nome=root)(0.9 + 0.35j)
            assert abs(y - 1.0) < 1e-12
        off = roots[0] * cmath.exp(1j * math.pi / abs(n))  # half a step off
        with pytest.raises(DomainError):
            exchange_plan(ctx, s, None, half_nome=off)

    @pytest.mark.parametrize("half_nome", [0, 1e300, complex(math.inf, 0)])
    def test_half_nome_at_tiny_q_is_a_domain_error(self, half_nome):
        # q^-N = 1e900 overflows a float, so the root check must not form
        # it; 1e300 is the real root, whose U values lie outside float range
        ctx = EllipticContext(N=3, q=1e-300)
        with pytest.raises(DomainError):
            yfunc(ctx, Surface(0, 3), None, 0.8, half_nome=half_nome)

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
