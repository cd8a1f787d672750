"""Multiset cancellation oracle tests, including the equivalence with the
integer classification and the full-cycle collapse detector."""

import cmath
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from abelianity import (
    DegenerateParametrizationError,
    EllipticContext,
    ExponentMultiset,
    LambdaPair,
    Surface,
    centrality_exponents,
    centrality_plan,
    classify_lambda,
    cycle_collapses,
    exchange_exponents,
    exchange_plan,
    is_abelian,
    super_abelianity_check,
)
from abelianity.oracle import _cycle_remainder, _exchange_residues


def _exchange_lists(s, lam):
    """Numerator/denominator exponent lists of the exchange function on s,
    in Fraction arithmetic (reference for `_exchange_residues`).

    For m, n != 0 the four products contribute
      numerator:   t = lambda l/m (l=1..|m|),  t = -lambda* l/n (l=1..|n|-1)
      denominator: t = -lambda l/m (l=1..|m|-1),  t = lambda* l/n (l=1..|n|).
    On m=0 (resp. n=0) surfaces the free half-nome obeys s*^n = q^{-N}
    (resp. s^m = q^{-N}) and the un-cancelled product form is used directly.
    """
    m, n = s.m, s.n
    if m == 0:
        e = F(-1, n)  # s* = q^{N e}, from s*^n = q^{-N}
        num = [ell * e for ell in range(abs(n))]
        den = [-ell * e for ell in range(1, abs(n) + 1)]
        return num, den
    if n == 0:
        e = F(-1, m)
        num = [-ell * e for ell in range(1, abs(m) + 1)]
        den = [ell * e for ell in range(abs(m))]
        return num, den
    if lam is None:
        raise DegenerateParametrizationError(f"{s} requires a lambda coordinate")
    lm = lam.lam / m
    ln = lam.lam_star / n
    num = [ell * lm for ell in range(1, abs(m) + 1)]
    num += [-ell * ln for ell in range(1, abs(n))]
    den = [-ell * lm for ell in range(1, abs(m))]
    den += [ell * ln for ell in range(1, abs(n) + 1)]
    return num, den


def reduced_form(s, lam):
    """Step-1 reduced products after stripping full q^N-cycles (reference).

    With lambda/m = a/d, lambda*/n = b/d' in lowest terms, |m| = d s + mu,
    |n| = d' s' + mu' and mubar = min(mu, d - mu):
      numerator:   {a j/d : j=1..mubar}  u  {b j'/d' : j'=d'-mubar'+1..d'-1}
      denominator: {a j/d : j=d-mubar+1..d-1}  u  {b j'/d' : j'=1..mubar'}
    (`_cycle_remainder` on each product pair).  Degenerates to empty lists
    for integer lambda, where the residue-0 terms of the two pairs cancel.
    Exponents are reduced mod 1; after cross-cancellation the lists
    reproduce exchange_exponents.
    """
    if s.m == 0 or s.n == 0:
        raise DegenerateParametrizationError(f"{s} has no lambda coordinate")
    if lam.lam.denominator == 1:
        return [], []  # integer-lambda shortcut: everything cancels in step 1
    a, d, b, dp = lam.over(s.m, s.n)
    num_m, den_m = _cycle_remainder(d, abs(s.m))
    den_n, num_n = _cycle_remainder(dp, abs(s.n))
    return ([F(a * j % d, d) for j in num_m] + [F(b * j % dp, dp) for j in num_n],
            [F(a * j % d, d) for j in den_m] + [F(b * j % dp, dp) for j in den_n])


class TestExchangeExponents:
    def test_cancelling_line(self):
        mset = exchange_exponents(Surface(1, 2), LambdaPair.from_lambda(F(1, 3)))
        assert is_abelian(mset)

    def test_whole_surface(self):
        """A whole surface gives the empty multiset, with or without lambda."""
        pairs = [None] + [LambdaPair.from_lambda(v) for v in (F(2, 5), 0, 1, -7)]
        for k in (1, -1, 3, -3, 4, -4, 12, -300):
            for s in (Surface(0, k), Surface(k, 0)):
                for pair in pairs:
                    assert exchange_exponents(s, pair) == ExponentMultiset(1, ())

    def test_lambda_required_off_whole_surfaces(self):
        with pytest.raises(DegenerateParametrizationError, match="requires a lambda"):
            exchange_exponents(Surface(1, 2), None)

    def test_residual_multiset(self):
        mset = exchange_exponents(Surface(2, 5), LambdaPair.from_lambda(F(-2, 3)))
        assert dict(mset.entries) == {F(1, 3): -1, F(2, 3): 1}

    def test_integer_lambda_cancels(self):
        mset = exchange_exponents(Surface(3, 6), LambdaPair.from_lambda(-1))
        assert is_abelian(mset)

    def test_extended_center_cancels_for_any_lambda(self):
        for lam in (F(3, 7), F(-5, 2), F(4)):
            assert is_abelian(exchange_exponents(Surface(1, -1), LambdaPair.from_lambda(lam)))
            assert is_abelian(exchange_exponents(Surface(-1, 1), LambdaPair.from_lambda(lam)))

    @given(st.integers(-6, 6).filter(bool), st.integers(-6, 6).filter(bool),
           st.integers(-15, 15), st.integers(1, 12))
    @settings(max_examples=300)
    def test_keys_reduced_mod_one(self, m, n, num, den):
        mset = exchange_exponents(Surface(m, n), LambdaPair.from_lambda(F(num, den)))
        for t, mult in mset.entries:
            assert 0 <= t < 1
            assert mult != 0


class TestIsAbelian:
    def test_empty(self):
        assert is_abelian(ExponentMultiset.build([], []))

    def test_single_entry(self):
        assert not is_abelian(ExponentMultiset.build([F(1, 3)], []))

    def test_matches_classification_on_example(self):
        assert is_abelian(exchange_exponents(Surface(3, 6),
                                             LambdaPair.from_lambda(-1)))

    @given(st.integers(-6, 6).filter(bool), st.integers(-6, 6).filter(bool),
           st.integers(-15, 15), st.integers(1, 12))
    @settings(max_examples=500)
    def test_equivalence_with_classification(self, m, n, num, den):
        """Multiset emptiness iff the verdict is abelian, away from the
        lambda in {0,1} moduli-space boundary."""
        lam = F(num, den)
        if lam in (0, 1):
            return
        s = Surface(m, n)
        pair = LambdaPair.from_lambda(lam)
        assert is_abelian(exchange_exponents(s, pair)) == \
            classify_lambda(s, pair).is_abelian

    def test_zero_lambda_is_the_only_mismatch(self):
        # the ratio cancels identically at lambda = 0, but p = 1 leaves the
        # moduli space, so the verdict stays NotAbelian by convention
        s = Surface(2, 5)
        pair = LambdaPair.from_lambda(0)
        assert is_abelian(exchange_exponents(s, pair))
        assert not classify_lambda(s, pair).is_abelian


class TestReducedForm:
    def test_matching_lists(self):
        num, den = reduced_form(Surface(1, 2), LambdaPair.from_lambda(F(1, 3)))
        assert num == [F(1, 3)] and den == [F(1, 3)]

    def test_integer_shortcut(self):
        assert reduced_form(Surface(3, 6), LambdaPair.from_lambda(-1)) == ([], [])

    def test_non_matching_lists(self):
        num, den = reduced_form(Surface(2, 5), LambdaPair.from_lambda(F(-2, 3)))
        assert num == [F(2, 3)] and den == [F(1, 3)]

    def test_balanced_lengths(self):
        num, den = reduced_form(Surface(5, 4), LambdaPair.from_lambda(F(-25, 3)))
        assert len(num) == len(den)

    @given(st.integers(-6, 6).filter(bool), st.integers(-6, 6).filter(bool),
           st.integers(-15, 15), st.integers(1, 12))
    @settings(max_examples=300)
    def test_reproduces_exchange_exponents(self, m, n, num, den):
        lam = F(num, den)
        s = Surface(m, n)
        pair = LambdaPair.from_lambda(lam)
        rnum, rden = reduced_form(s, pair)
        assert ExponentMultiset.build(rnum, rden) == exchange_exponents(s, pair)


def _nonzero(lo, hi):
    return st.integers(lo, hi).filter(bool)


class TestClosedForm:
    """The residue-counting closed forms against the explicit product lists."""

    @given(_nonzero(-10**4, 10**4), _nonzero(-10**4, 10**4),
           st.integers(-60, 60), st.integers(1, 12))
    @settings(max_examples=30, deadline=None)
    def test_exchange_matches_explicit_lists_large_surfaces(self, m, n, num, den):
        s, pair = Surface(m, n), LambdaPair.from_lambda(F(num, den))
        assert exchange_exponents(s, pair) == \
            ExponentMultiset.build(*_exchange_lists(s, pair))

    @given(_nonzero(-40, 40), _nonzero(-40, 40),
           st.integers(-200, 200), st.integers(1, 30))
    @settings(max_examples=400, deadline=None)
    def test_exchange_matches_explicit_lists(self, m, n, num, den):
        s, pair = Surface(m, n), LambdaPair.from_lambda(F(num, den))
        mset = exchange_exponents(s, pair)
        assert mset == ExponentMultiset.build(*_exchange_lists(s, pair))
        assert dict(mset.entries) == \
            dict(ExponentMultiset.build(*_exchange_lists(s, pair)).entries)

    @given(_nonzero(-2000, 2000), _nonzero(-2000, 2000), st.sampled_from([0, 1]))
    @settings(max_examples=20, deadline=None)
    def test_boundary_lambda(self, m, n, lam):
        # lambda = 0 and lambda* = 0 cancel identically in both forms
        s, pair = Surface(m, n), LambdaPair.from_lambda(lam)
        mset = exchange_exponents(s, pair)
        assert mset == ExponentMultiset.build(*_exchange_lists(s, pair))
        assert is_abelian(mset)

    @given(st.integers(-300, 300), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_whole_surface_matches_explicit_lists(self, k, on_n):
        if k == 0:
            return
        s = Surface(0, k) if on_n else Surface(k, 0)
        assert exchange_exponents(s) == \
            ExponentMultiset.build(*_exchange_lists(s, None))

    def test_whole_surface_lists_cancel(self):
        """The lists of `_exchange_residues` cancel mod L on every S_{0,k} and
        S_{k,0}, 1 <= |k| <= 300: the fact `_exchange_counts` states there
        instead of counting."""
        for k in range(1, 301):
            for s in (Surface(0, k), Surface(0, -k), Surface(k, 0), Surface(-k, 0)):
                modulus, num, den = _exchange_residues(s, None)
                assert len(num) == len(den) == k
                assert sorted(t % modulus for t in num) == \
                    sorted(t % modulus for t in den)

    @given(st.integers(1, 400), st.integers(-1000, 1000))
    @settings(max_examples=200, deadline=None)
    def test_centrality_matches_explicit_lists(self, m, lam):
        num = [F((lam - 1) * k, m) for k in range(1, m + 1)]
        den = [F(lam * k, m) for k in range(1, m + 1)]
        assert centrality_exponents(m, lam) == ExponentMultiset.build(num, den)

    def test_entries_are_exact_fractions(self):
        mset = exchange_exponents(Surface(2, 5), LambdaPair.from_lambda(F(-2, 3)))
        assert mset.modulus == 3 and mset.residues == ((1, -1), (2, 1))
        assert mset.entries == ((F(1, 3), -1), (F(2, 3), 1))

    def test_equal_multisets_share_a_modulus(self):
        # keys over a larger common denominator reduce to the smallest one
        assert ExponentMultiset.build([F(1, 2), F(1, 3)], [F(1, 3)]) == \
            ExponentMultiset.build([F(3, 6)], [])


class TestCentralityExponents:
    def test_super_line(self):
        assert is_abelian(centrality_exponents(3, 2))

    def test_non_super_line(self):
        mset = centrality_exponents(9, 4)
        assert not is_abelian(mset)
        assert set(dict(mset.entries)) == {F(0), F(1, 3), F(2, 3), F(1, 9), F(2, 9),
                                       F(4, 9), F(5, 9), F(7, 9), F(8, 9)}

    def test_super_line_large_m(self):
        assert is_abelian(centrality_exponents(9, 2))

    def test_requires_positive_m(self):
        with pytest.raises(ValueError):
            centrality_exponents(-3, 2)

    def test_agrees_with_super_abelianity_check(self):
        for m in range(1, 16, 2):
            for lam in range(-15, 16):
                assert is_abelian(centrality_exponents(m, lam)) == \
                    super_abelianity_check(m, lam).super_abelian, (m, lam)

    def test_even_m_never_empty(self):
        for m in range(2, 16, 2):
            for lam in range(-5, 6):
                assert not is_abelian(centrality_exponents(m, lam))


class TestCycleCollapse:
    def test_empty_collapses_trivially(self):
        assert cycle_collapses(ExponentMultiset.build([], []), 3)

    def test_known_collapse_at_n3(self):
        # residual orbits {0,1/3,2/3} (x2) and two complete 1/3-orbits on
        # the ninths: the ratio is identically 1 at N=3 despite the
        # non-empty multiset (product over a full shift cycle collapses)
        mset = centrality_exponents(9, 4)
        assert cycle_collapses(mset, 3)
        assert not cycle_collapses(mset, 4)
        assert not cycle_collapses(mset, 16)

    def test_generic_residual_does_not_collapse(self):
        mset = exchange_exponents(Surface(2, 5), LambdaPair.from_lambda(F(-2, 3)))
        assert not cycle_collapses(mset, 3)

    def test_no_collapses_in_small_cross_cancellation_sweep(self):
        """Exchange-function residuals in the small box never collapse at
        N=3 (verified exhaustively at box 6 by the acceptance suite)."""
        from abelianity import intersect_surfaces, lambda_of_intersection
        box = 4
        surfs = [Surface(m, n) for m in range(-box, box + 1)
                 for n in range(-box, box + 1) if (m, n) != (0, 0)]
        for i, s1 in enumerate(surfs):
            for s2 in surfs[i + 1:]:
                if intersect_surfaces(s1, s2) is None:
                    continue
                for sa, sb in ((s1, s2), (s2, s1)):
                    if sa.m == 0 or sa.n == 0:
                        continue
                    mset = exchange_exponents(
                        sa, lambda_of_intersection(sa, sb))
                    if not is_abelian(mset):
                        assert not cycle_collapses(mset, 3)


def _bits(values):
    """Exact bit patterns of floats and complexes, so -0.0 != 0.0."""
    return [(v.real.hex(), v.imag.hex()) if isinstance(v, complex) else v.hex()
            for v in values]


def _assert_plan_matches(plan, numerator, denominator):
    """A shift plan against its Fraction exponents (reference for the
    residue-built `ShiftPlan`): the distinct t mod 1 are its slots in order
    of first appearance, each with the rotation e^{-2 pi i t} and its
    conjugate, bit for bit."""
    order = list(dict.fromkeys(t % 1 for t in (*numerator, *denominator)))
    assert plan._num == [order.index(t % 1) for t in numerator]
    assert plan._den == [order.index(t % 1) for t in denominator]
    rot = [cmath.exp(-2j * math.pi * float(t)) for t in order]
    assert _bits(plan._rot) == _bits(rot)
    assert _bits(plan._rot_inv) == _bits([r.conjugate() for r in rot])


class TestResiduePlan:
    """Shift plans built from integer residues against the Fraction lists:
    the same slots in the same order and bit-identical rotations."""

    @given(st.integers(-12, 12), st.integers(-12, 12),
           st.integers(-60, 60), st.integers(1, 30))
    @settings(max_examples=300, deadline=None)
    def test_residues_are_the_exponent_lists(self, m, n, num, den):
        if (m, n) == (0, 0):
            return
        s = Surface(m, n)
        pair = None if s.is_whole_surface_abelian() else \
            LambdaPair.from_lambda(F(num, den))
        modulus, rnum, rden = _exchange_residues(s, pair)
        ref_num, ref_den = _exchange_lists(s, pair)
        assert [F(k, modulus) for k in rnum] == ref_num
        assert [F(k, modulus) for k in rden] == ref_den

    @given(st.integers(-12, 12).filter(bool), st.integers(-12, 12).filter(bool),
           st.integers(-60, 60), st.integers(1, 30),
           st.sampled_from([(2, 0.3), (3, 0.6), (4, 0.9)]))
    @settings(max_examples=300, deadline=None)
    def test_exchange_plan_slots(self, m, n, num, den, nq):
        ctx = EllipticContext(*nq)
        s, pair = Surface(m, n), LambdaPair.from_lambda(F(num, den))
        _assert_plan_matches(exchange_plan(ctx, s, pair), *_exchange_lists(s, pair))

    @pytest.mark.parametrize("N, q", [(2, 0.3), (3, 0.6), (5, 0.95)])
    def test_whole_surface_plan_slots_at_every_root(self, N, q):
        """The plan of every S_{0,k} and S_{k,0}, 0 < |k| <= 12, which takes
        the real root of s^k = q^-N; every root is checked through the
        defining product in tests/test_elliptic.py."""
        ctx = EllipticContext(N=N, q=q)
        for k in [v for v in range(-12, 13) if v]:
            for s in (Surface(0, k), Surface(k, 0)):
                _assert_plan_matches(exchange_plan(ctx, s, None), *_exchange_lists(s, None))

    @given(st.integers(1, 60), st.integers(-200, 200))
    @settings(max_examples=200, deadline=None)
    def test_centrality_plan_slots(self, m, lam):
        _assert_plan_matches(
            centrality_plan(EllipticContext(N=3, q=0.6), m, lam),
            [F((lam - 1) * k, m) for k in range(1, m + 1)],
            [F(lam * k, m) for k in range(1, m + 1)])
