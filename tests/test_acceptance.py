"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
report.  The numeric thresholds are pinned here and nowhere else:
soundness 1e-9, completeness 1e-4, theta identities 1e-12, periodicity
1e-10, Poisson route agreement 1e-8, finite differences 1e-6.
"""

import math
import random
import time
from fractions import Fraction as F

import pytest

from abelianity import (
    EllipticContext,
    LambdaPair,
    PoissonParamsA,
    PoissonParamsB,
    PoleError,
    Surface,
    Verdict,
    centrality_exponents,
    centrality_ratio,
    classify_intersection,
    classify_lambda,
    exchange_exponents,
    f_compact,
    f_series,
    intersect_surfaces,
    is_abelian,
    lambda_of_intersection,
    realize_line_as_intersections,
    solve_condition2,
    super_abelianity_check,
    surfaces_through_line,
    theta,
    verification_grid,
    yfunc,
)
from reference_family import reference_lambda_pair
from reference_u import half_nome_roots, ufunc, whole_surface_product

BOX = 6
N = 3


def report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail else ""))
    assert ok, f"{name} failed: {detail}"


def _box_surfaces(box):
    return [Surface(m, n) for m in range(-box, box + 1)
            for n in range(-box, box + 1) if (m, n) != (0, 0)]


@pytest.fixture(scope="module")
def sweep():
    """All valid intersections in the box-6 sweep with per-side verdicts,
    lambda coordinates and oracle emptiness.  Shared by criteria 2 and 3."""
    sides = []
    surfs = _box_surfaces(BOX)
    t0 = time.perf_counter()
    for i, s1 in enumerate(surfs):
        for s2 in surfs[i + 1:]:
            if intersect_surfaces(s1, s2) is None:
                continue
            v1, v2 = classify_intersection(s1, s2)
            for sa, sb, v in ((s1, s2, v1), (s2, s1, v2)):
                lam = None
                if sa.m != 0 and sa.n != 0:
                    lam = lambda_of_intersection(sa, sb)
                sides.append((sa, lam, v, is_abelian(exchange_exponents(sa, lam))))
    elapsed = time.perf_counter() - t0
    return sides, elapsed


def test_criterion_1_worked_example():
    expected = (Verdict.INTEGER_LAMBDA, Verdict.NOT_ABELIAN)
    v1, v2 = classify_intersection(Surface(3, 6), Surface(2, 5))
    ok = (v1.tag, v2.tag) == expected and v1.is_abelian and not v2.is_abelian
    best = min(
        (lambda t0: (classify_intersection(Surface(3, 6), Surface(2, 5)),
                     time.perf_counter() - t0)[1])(time.perf_counter())
        for _ in range(5))
    report("criterion 1 (worked intersection example)",
           ok and best < 1e-3,
           f"verdicts=({v1.tag.value},{v2.tag.value}), best runtime {best*1e3:.3f} ms")


def test_criterion_2_three_way_equivalence(sweep):
    sides, elapsed = sweep
    mismatches = [(sa, lam) for sa, lam, v, oracle_ok in sides
                  if v.is_abelian != oracle_ok]
    # classify_intersection already cross-checks the intersection-level
    # conditions against the per-side classification internally
    report("criterion 2 (three-way equivalence, box 6, N=3)",
           not mismatches and elapsed < 30.0,
           f"{len(sides)} sides checked, {len(mismatches)} mismatches, "
           f"{elapsed:.1f} s")


def _grid_max(ctx, sa, lam, *, early_exit_above=None):
    worst, used = 0.0, 0
    for x in verification_grid():
        try:
            val = yfunc(ctx, sa, lam, x)
        except PoleError:
            continue
        used += 1
        worst = max(worst, abs(val - 1.0))
        if early_exit_above is not None and worst > early_exit_above:
            break
    return worst, used


def test_criterion_3_numeric_soundness_and_completeness(sweep):
    sides, _ = sweep
    t0 = time.perf_counter()
    seen = set()
    abelian, non_abelian = [], []
    for sa, lam, v, oracle_ok in sides:
        key = (sa.m, sa.n, None if lam is None else lam.lam)
        if key in seen:
            continue
        seen.add(key)
        (abelian if v.is_abelian else non_abelian).append((sa, lam))
    rng = random.Random(20260809)
    abelian = rng.sample(abelian, min(200, len(abelian)))
    non_abelian = rng.sample(non_abelian, min(200, len(non_abelian)))

    worst_sound = 0.0
    for q in (0.5, 0.7):
        ctx = EllipticContext(N=N, q=q)
        for sa, lam in abelian:
            worst, used = _grid_max(ctx, sa, lam)
            assert used >= 10, f"too many pole-adjacent points for {sa}"
            worst_sound = max(worst_sound, worst)
    sound_ok = worst_sound < 1e-9

    min_complete = math.inf
    for q in (0.5, 0.7):
        ctx = EllipticContext(N=N, q=q)
        for sa, lam in non_abelian:
            worst, _ = _grid_max(ctx, sa, lam, early_exit_above=1e-4)
            min_complete = min(min_complete, worst)
    complete_ok = min_complete > 1e-4
    elapsed = time.perf_counter() - t0
    report("criterion 3 (numeric soundness/completeness, 200+200 lines)",
           sound_ok and complete_ok and elapsed < 120.0,
           f"abelian max |Y-1| = {worst_sound:.2e}, non-abelian min of max "
           f"= {min_complete:.2e}, {elapsed:.1f} s")


def test_criterion_4_whole_surface_and_witnesses():
    # S_{0,3}'s exchange function as its defining product at each root s
    # of s^3 = q^-N
    ctx = EllipticContext(N=N, q=0.6)
    roots = half_nome_roots(ctx, 3)
    combos = [(roots[0], 0.8 + 0.1j), (roots[1], 0.8 + 0.1j),
              (roots[2], 0.8 + 0.1j), (roots[0], 1.3 - 0.4j),
              (roots[2], 0.75 + 0.6j)]
    worst = max(abs(whole_surface_product(ctx, 3, r, x) - 1.0) for r, x in combos)

    tags = []
    for k in (2, 3):
        w = Surface((1 - k) * 3, k * 3 + 1)
        v_w, v_0n = classify_intersection(w, Surface(0, 3))
        tags.append((v_w.tag, v_0n.tag))
    witness_ok = all(t == (Verdict.NOT_ABELIAN, Verdict.WHOLE_SURFACE)
                     for t in tags)
    report("criterion 4 (whole-surface identity and non-abelian witnesses)",
           worst < 1e-10 and witness_ok,
           f"max |Y-1| = {worst:.2e} over 5 admissible half-nome choices, "
           f"witness verdicts ok={witness_ok}")


def test_criterion_5_super_abelianity():
    # exact agreement between the coprimality test and the multiset oracle
    disagreements = []
    for m in range(1, 16, 2):
        for lam in range(-15, 16):
            if super_abelianity_check(m, lam).super_abelian \
                    != is_abelian(centrality_exponents(m, lam)):
                disagreements.append((m, lam))

    family_ok = True
    for m in (3, 5, 7, 9, 11):
        v = super_abelianity_check(m, (m + 1) // 2)
        family_ok &= v.super_abelian and v.beta0 == (m - 1) // 2 \
            and v.beta0_prime == m - 2

    v94 = super_abelianity_check(9, 4)
    case94_ok = (not v94.super_abelian) and v94.failed_condition == 3

    # Numeric confirmation.  At N=3 several non-super residuals (e.g. m=9,
    # lambda=4) are constant on 1/3-orbits and the ratio collapses to 1
    # identically, so N=3 cannot separate them; N=16 exceeds every residual
    # denominator (m <= 15), where no full-cycle collapse is possible.
    ctx = EllipticContext(N=16, q=0.55)
    points = [1.21 + 0.37j, 0.83 + 0.29j, 1.05 - 0.51j]
    worst_super = 0.0
    min_non = math.inf
    for m in range(1, 16, 2):
        for lam in range(-15, 16):
            vals = []
            for x in points:
                try:
                    vals.append(abs(centrality_ratio(ctx, m, lam, x) - 1.0))
                except PoleError:
                    continue
            assert vals, f"all points pole-adjacent for m={m}, lambda={lam}"
            if super_abelianity_check(m, lam).super_abelian:
                worst_super = max(worst_super, max(vals))
            else:
                min_non = min(min_non, max(vals))
    numeric_ok = worst_super < 1e-9 and min_non > 1e-4
    report("criterion 5 (super-abelianity, odd m<=15, |lambda|<=15)",
           not disagreements and family_ok and case94_ok and numeric_ok,
           f"oracle disagreements={len(disagreements)}, family ok={family_ok}, "
           f"(9,4) ok={case94_ok}, numeric super max={worst_super:.2e}, "
           f"non-super min={min_non:.2e} (N=16)")


def test_criterion_6_countable_family():
    s1, s2 = Surface(3, 6), Surface(2, 5)
    line = intersect_surfaces(s1, s2)
    out = surfaces_through_line(s1, s2, range(-5, 6))
    count_ok = len(out) == 11
    reproduce_ok = all(
        intersect_surfaces(s2 if w == s1 else s1, w) == line for w in out)
    ratio_ok = all(
        (w2.m - w1.m) * (w3.n - w2.n) == (w3.m - w2.m) * (w2.n - w1.n)
        for w1, w2, w3 in zip(out, out[1:], out[2:]))
    report("criterion 6 (countable surface family through one line)",
           count_ok and reproduce_ok and ratio_ok,
           f"{len(out)} surfaces, identical line params={reproduce_ok}, "
           f"collinearity={ratio_ok}")


def test_criterion_7_poisson_routes():
    t0 = time.perf_counter()
    ctx = EllipticContext(N=N, q=0.6)
    pa = PoissonParamsA.from_line(Surface(3, 6), -1)
    pb = PoissonParamsB.from_line(Surface(1, 2), F(1, 3))

    worst_route = 0.0
    worst_anti = 0.0
    for x in verification_grid():
        fa, fas = f_compact(ctx, pa, x), f_series(ctx, pa, x)
        fb, fbs = f_compact(ctx, pb, x), f_series(ctx, pb, x)
        worst_route = max(worst_route,
                          abs(fa - fas) / (1 + abs(fa)),
                          abs(fb - fbs) / (1 + abs(fb)))
        worst_anti = max(worst_anti,
                         abs(f_compact(ctx, pa, x) + f_compact(ctx, pa, 1 / x)),
                         abs(f_compact(ctx, pb, x) + f_compact(ctx, pb, 1 / x)))

    # finite differences against the log of the product form (type b; the
    # type-a line (3,6) has ell = N where the bracket is identically zero)
    import cmath
    from abelianity import ufunc_a
    m, n, d, mu = 1, 2, pb.d, pb.mu
    a_d = ctx.q ** (2 * ctx.N / d)

    def logP(y):
        total = (1 + mu * mu / (m * n)) * cmath.log(ufunc_a(ctx, a_d, y))
        total -= (d * mu / (m * n)) * cmath.log(ufunc_a(ctx, ctx.q ** (2 * ctx.N), y))
        return total

    x0, h = 1.31, 1e-6
    fd = (logP(x0 * math.exp(h)) - logP(x0 * math.exp(-h))) / (2 * h)
    pref = -ctx.N * float(pb.lam) * math.log(ctx.q) * (m + n) / d
    fd_err = abs(fd - f_compact(ctx, pb, x0) / pref) / (1 + abs(fd))

    pao = PoissonParamsA.from_line(Surface(2, 4), -1)
    pbo = PoissonParamsB.from_line(Surface(2, 4), F(-1))
    worst_overlap = max(
        abs(f_compact(ctx, pao, x) - f_compact(ctx, pbo, x))
        / (1 + abs(f_compact(ctx, pao, x))) for x in verification_grid())
    elapsed = time.perf_counter() - t0
    report("criterion 7 (Poisson route equivalence)",
           worst_route < 1e-8 and worst_anti < 1e-9 and fd_err < 1e-6
           and worst_overlap < 1e-8 and elapsed < 30.0,
           f"routes {worst_route:.2e}, antisym {worst_anti:.2e}, "
           f"fd {fd_err:.2e}, overlap {worst_overlap:.2e}, {elapsed:.1f} s")


def test_criterion_8_theta_identity_suite():
    t0 = time.perf_counter()
    rng = random.Random(31415)
    import cmath
    worst_theta = 0.0
    for _ in range(100):
        a = rng.uniform(0.05, 0.9)
        z = rng.uniform(0.3, 3.0) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        a2 = a * a
        v = theta(a2, z)
        worst_theta = max(
            worst_theta,
            abs(theta(a2, a2 * z) + v / z) / max(1.0, abs(v / z)),
            abs(theta(a2, a * z) - theta(a2, a / z))
            / max(1.0, abs(theta(a2, a * z))))
    worst_u = 0.0
    for _ in range(100):
        q = rng.uniform(0.3, 0.8)
        ctx = EllipticContext(N=N, q=q)
        z = rng.uniform(0.5, 2.0) * cmath.exp(1j * rng.uniform(0.05, 3.1))
        try:
            worst_u = max(worst_u,
                          abs(ufunc(ctx, q ** N * z) - ufunc(ctx, z)))
        except PoleError:
            continue
    elapsed = time.perf_counter() - t0
    report("criterion 8 (theta/U identity suite, 100 random points)",
           worst_theta < 1e-12 and worst_u < 1e-10 and elapsed < 5.0,
           f"theta {worst_theta:.2e}, U periodicity {worst_u:.2e}, "
           f"{elapsed:.2f} s")


def test_criterion_9_realizations():
    rng = random.Random(271828)
    lines = []
    while len(lines) < 20:
        m = rng.choice([v for v in range(-6, 7) if v != 0])
        n = rng.choice([v for v in range(-6, 7) if v != 0])
        s = Surface(m, n)
        if rng.random() < 0.5:
            lam = F(rng.choice([v for v in range(-8, 9) if v not in (0, 1)]))
        else:
            if m + n == 0:
                continue
            fams = solve_condition2(s)
            if not fams:
                continue
            fam = rng.choice(fams)
            lam = reference_lambda_pair(fam, rng.randint(-2, 2)).lam
            if lam.denominator > 8 or lam in (0, 1):
                continue
        pair = LambdaPair.from_lambda(lam)
        if not classify_lambda(s, pair).is_abelian:
            continue
        lines.append((s, pair))

    ok = True
    for s, pair in lines:
        got = realize_line_as_intersections(s, pair, 3)
        distinct = len({(w.m, w.n) for w in got}) == 3
        verified = all(lambda_of_intersection(s, w) == pair for w in got)
        ok &= distinct and verified
    report("criterion 9 (line realizations, 20 random abelian lines)",
           ok, "3 verified realizations each")
