"""Seeded workload inputs for the sweep benchmark.

The generator works out intersections, line coordinates and line types
with plain integer arithmetic and never imports `abelianity`, so its
labels are an independent check on the package.  A *round* is one list of
commands.  Every round of a workload has the same classes of input in the
same numbers, drawn afresh from the seed, so a run's mix does not depend
on how many rounds it makes.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

N = 3
SCAN_BOX = 4
LINE_BOX = 6            # box the verify/poisson/families lines are drawn from
VERIFY_Q = (0.5, 0.6, 0.7, 0.8, 0.9, 0.95)
LARGE_Q = (0.6, 0.7, 0.8, 0.9)
POISSON_Q = (0.5, 0.7, 0.9, 0.95, 0.99)
NEAR1_Q = (0.95, 0.99)
VERIFY_GRID = (0.8, 1.25, 20)   # the CLI's default verification grid
VERIFY_GRID_ARG = "--grid={},{},{}".format(*VERIFY_GRID)
POISSON_GRID = (0.8, 1.25, 4)
THROUGH_T = (500, 1000)

# properties whose share of a round is reported (see README)
HIGH_Q = 0.9
LARGE_SURFACE = 20
# the Lambert series in `poisson` stop after this many terms; a nome that
# needs more to reach 1e-16 is the near-1 regime
SERIES_TERM_CAP = 20000

EXPECTED_PATH = Path(__file__).with_name("expected.json")

# enumerate-lines surfaces by |m+n| class.  Every entry has gcd(m, n) = 1,
# so each has |m+n| - 1 families and entries of one class cost about the
# same; their output digests are recorded in expected.json.
FAMILY_POOL = {
    "tiny": [(1, 11), (5, 7), (-1, 13), (-5, -7), (7, 5), (13, -1)],
    "small": [(1, 239), (7, 233), (-1, 241), (-7, -233), (13, 227), (-11, 251)],
    "medium": [(1, 719), (7, 713), (-1, 721), (-7, -713), (13, 707), (-11, 731)],
    "large": [(1, 2519), (17, 2503), (-1, 2521), (-17, -2503), (19, 2501),
              (23, 2497)],
}
FAMILY_MIX = {"tiny": 2, "small": 4, "medium": 2, "large": 2}
PROPERTIES = ("high_q", "large_surface", "near1", *FAMILY_POOL)


# ---------------------------------------------------------------------------
# integer arithmetic on surfaces and lines
# ---------------------------------------------------------------------------

def frac(num: int, den: int) -> tuple[int, int]:
    """num/den in lowest terms with a positive denominator."""
    if den == 0:
        raise ZeroDivisionError("zero denominator")
    g = math.gcd(num, den)
    if den < 0:
        g = -g
    return num // g, den // g


def frac_str(v: tuple[int, int]) -> str:
    return str(v[0]) if v[1] == 1 else f"{v[0]}/{v[1]}"


def box_surfaces(box: int) -> list[tuple[int, int]]:
    """Surfaces of the box in the order `scan` walks them."""
    return [(m, n) for m in range(-box, box + 1) for n in range(-box, box + 1)
            if (m, n) != (0, 0)]


def intersects(s1, s2) -> bool:
    (m, n), (mp, np_) = s1, s2
    return m != mp and n != np_ and mp * n - m * np_ != 0


def line_lambda(s1, s2) -> tuple[int, int]:
    """lambda = m(n - n')/(m'n - mn') of the line s1 cap s2, seen on s1."""
    (m, n), (mp, np_) = s1, s2
    return frac(m * (n - np_), mp * n - m * np_)


def condition2_d(s, lam) -> int | None:
    """Divisor witness d of the cross-cancellation condition, or None."""
    m, n = s
    a, b = lam
    lm = frac(a, b * m)
    ln = frac(b - a, b * n)
    d = lm[1]
    if ln[1] != d or (lm[0] - ln[0]) % d or (m + n) % d:
        return None
    return d


def classify(s, lam) -> str:
    """Line type by the classification precedence, as a verdict tag."""
    m, n = s
    if m == 0 or n == 0:
        return "WholeSurface"
    if (m, n) in ((1, -1), (-1, 1)):
        return "ExtendedCenter"
    a, b = lam
    if a == 0 or a == b:
        return "NotAbelian"
    if b == 1:
        return "IntegerLambda"
    return "Condition2" if condition2_d(s, lam) is not None else "NotAbelian"


def super_abelian(m: int, lam: int) -> bool:
    """S_{m,-m} line is super-abelian iff the residues (lam-1)k and lam k
    mod |m|, k = 1..|m|, form the same multiset."""
    m = abs(m)
    return (Counter((lam - 1) * k % m for k in range(1, m + 1))
            == Counter(lam * k % m for k in range(1, m + 1)))


def scan_line_count(box: int) -> int:
    """Number of intersecting unordered surface pairs in the box."""
    surfs = box_surfaces(box)
    return sum(intersects(s1, s2)
               for i, s1 in enumerate(surfs) for s2 in surfs[i + 1:])


def box_lines(box: int) -> dict[str, list]:
    """Intersection lines (s1, s2, lambda) with s1 generic (m, n != 0 and not
    the extended center), grouped by their type on s1."""
    out: dict[str, list] = {}
    surfs = box_surfaces(box)
    for s1 in surfs:
        if s1[0] == 0 or s1[1] == 0 or s1 in ((1, -1), (-1, 1)):
            continue
        for s2 in surfs:
            if intersects(s1, s2):
                lam = line_lambda(s1, s2)
                out.setdefault(classify(s1, lam), []).append((s1, s2, lam))
    return out


def poisson_denominator(s, lam) -> int:
    """Largest nome denominator L of the line: the nomes are q^(2N/L')
    for the type (a) weights l, l* or the type (b) divisor d and 1."""
    m, n = s
    a, b = lam
    if b == 1:
        return max(abs(m) // math.gcd(a, m), abs(n) // math.gcd(1 - a, n))
    return condition2_d(s, lam)


def series_terms(q: float, denom: int) -> float:
    """Terms a Lambert series in nome q^(2N/denom) needs to reach 1e-16."""
    return math.log(1e16) / (2 * N / denom * -math.log(q))


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------

@dataclass
class Item:
    """One CLI command plus what its output must satisfy.

    Items sharing a `group` are checked together (the two routes of one
    Poisson line, or the two mirrored multi-index commands).
    """

    argv: tuple[str, ...]
    kind: str
    expect: dict = field(default_factory=dict)
    group: int = -1
    props: frozenset = frozenset()


def _surface_arg(flag: str, s) -> str:
    return f"--{flag}={s[0]},{s[1]}"


def _props(q: float | None = None, surface=None, denom: int | None = None):
    props = set()
    if q is not None and q >= HIGH_Q:
        props.add("high_q")
    if surface is not None and max(map(abs, surface)) >= LARGE_SURFACE:
        props.add("large_surface")
    if denom is not None and series_terms(q, denom) > SERIES_TERM_CAP:
        props.add("near1")
    return frozenset(props)


class Pools:
    """Inputs every round draws from, worked out once per run."""

    def __init__(self, rng: random.Random) -> None:
        self.expected = json.loads(EXPECTED_PATH.read_text())
        self._family_counts: dict = {}
        # each class of the families pool in a seeded order, cycled through
        self.family_order = {cls: rng.sample(pool, len(pool))
                             for cls, pool in FAMILY_POOL.items()}

    @cached_property
    def scan_lines(self) -> int:
        return scan_line_count(SCAN_BOX)

    @cached_property
    def lines(self) -> dict[str, list]:
        return box_lines(LINE_BOX)

    @cached_property
    def every_line(self) -> list:
        return [ln for group in self.lines.values() for ln in group]

    @cached_property
    def poisson_a(self) -> list:
        """Type (a) lines whose largest weight denominator is 3."""
        return sorted({(s, lam) for s, _, lam in self.lines["IntegerLambda"]
                       if poisson_denominator(s, lam) == 3})

    @cached_property
    def poisson_b(self) -> list:
        """Type (b) lines with d = 3 and mu = 2."""
        return sorted({(s, lam) for s, _, lam in self.lines["Condition2"]
                       if condition2_d(s, lam) == 3 and s[0] % 3 == 2})

    @cached_property
    def near1_primes(self) -> list[int]:
        return [p for p in range(900, 1000) if all(p % f for f in range(2, 32))]

    def family_count(self, s) -> int:
        if s not in self._family_counts:
            self._family_counts[s] = family_count(s)
        return self._family_counts[s]


def scan_round(rng: random.Random, pools: Pools, r: int) -> list[Item]:
    """One `scan` of the acceptance box; its input does not depend on the seed."""
    return [Item(("scan", f"--box={SCAN_BOX}"), "scan",
                 {"lines": pools.scan_lines,
                  "sha256": pools.expected["scan"][str(SCAN_BOX)]})]


def verify_round(rng: random.Random, pools: Pools, r: int) -> list[Item]:
    """46 commands.  Box lines, 6 abelian and 24 not (the box's natural
    1:4 mix), one abelian and four other lines per q of VERIFY_Q.  Four
    lines on surfaces with |m|, |n| in 36..40 and no coinciding exponents,
    at LARGE_Q.  One whole-surface
    line and one super-abelianity line per q of VERIFY_Q."""
    lines = pools.lines
    abelian = lines["IntegerLambda"] + lines["Condition2"]
    picked = list(zip(rng.sample(abelian, len(VERIFY_Q)), VERIFY_Q))
    picked += zip(rng.sample(lines["NotAbelian"], 4 * len(VERIFY_Q)), VERIFY_Q * 4)
    for q in LARGE_Q:
        big = tuple(rng.choice((-1, 1)) * rng.randint(36, 40) for _ in range(2))
        s2 = rng.choice([s for s in box_surfaces(3)
                         if intersects(big, s) and _all_exponents_distinct(big, s)])
        picked.append(((big, s2, line_lambda(big, s2)), q))
    items = [Item(("verify-y", _surface_arg("surface", s1),
                   f"--lambda={frac_str(lam)}", f"--q={q}", f"--N={N}",
                   VERIFY_GRID_ARG),
                  "verify-y", {"tag": classify(s1, lam)}, props=_props(q, s1))
             for (s1, _, lam), q in picked]
    for q in VERIFY_Q:
        k = rng.choice((-1, 1)) * rng.randint(4, 7)
        s = rng.choice(((0, k), (k, 0)))
        items.append(Item(("verify-y", _surface_arg("surface", s), f"--q={q}",
                           f"--N={N}", VERIFY_GRID_ARG),
                          "verify-y", {"tag": "WholeSurface"}, props=_props(q, s)))
        m = rng.choice((-1, 1)) * rng.randint(5, 11)
        lam = rng.choice([v for v in range(-6, 7) if v not in (0, 1)])
        items.append(Item(("verify-super", f"--m={m}", f"--lambda={lam}",
                           f"--q={q}", f"--N={N}", VERIFY_GRID_ARG),
                          "verify-super", {"super_abelian": super_abelian(m, lam)},
                          props=_props(q)))
    rng.shuffle(items)
    return items


def _all_exponents_distinct(s1, s2) -> bool:
    """True when lambda/m and lambda*/n of the line have reduced denominators
    above |m| and |n|, so no two exchange exponents coincide mod 1 and the
    cost of a command follows from |m| + |n| alone."""
    (m, n), (a, b) = s1, line_lambda(s1, s2)
    return frac(a, b * m)[1] > abs(m) and frac(b - a, b * n)[1] > abs(n)


def _poisson_args(s, lam, q, route=None, kk=None, grid=POISSON_GRID):
    argv = ["poisson", _surface_arg("surface", s), f"--lambda={frac_str(lam)}",
            f"--q={q}", f"--N={N}", "--grid={},{},{}".format(*grid)]
    if route:
        argv.append(f"--route={route}")
    if kk:
        argv.append(f"--kk={kk[0]},{kk[1]}")
    return tuple(argv)


def poisson_round(rng: random.Random, pools: Pools, r: int) -> list[Item]:
    """26 commands.  One type (a) line with largest weight denominator 3
    and one type (b) line with d = 3, mu = 2 per q of POISSON_Q, each on
    both routes.  Two mirrored multi-index pairs, (2,3) at q = 0.6 and
    (3,3) at q = 0.8.  One large-l line S(p,1), lambda = 2, with p a prime
    in 900..999, on both routes, at the q of NEAR1_Q that rounds take in
    turn."""
    type_a, type_b = pools.poisson_a, pools.poisson_b
    cases = list(zip(rng.sample(type_a, len(POISSON_Q)), POISSON_Q))
    cases += zip(rng.sample(type_b, len(POISSON_Q)), POISSON_Q)
    prime = rng.choice(pools.near1_primes)
    cases.append((((prime, 1), (2, 1)), NEAR1_Q[r % len(NEAR1_Q)]))
    groups = []
    for (s, lam), q in cases:
        props = _props(q, denom=poisson_denominator(s, lam))
        groups.append([Item(_poisson_args(s, lam, q, route=r), "poisson",
                            {"route": r}, props=props)
                       for r in ("compact", "series")])
    # f^(k,k')(1/x) = -f^(k',k)(x) and f(conj x) = conj f(x), so the (k,k')
    # values on the radius-swapped grid are -conj of the (k',k) values on
    # the plain grid
    swapped = (POISSON_GRID[1], POISSON_GRID[0], POISSON_GRID[2])
    for (k, kp), q in (((2, 3), 0.6), ((3, 3), 0.8)):
        s, lam = rng.choice(type_a + type_b)
        props = _props(q, denom=poisson_denominator(s, lam))
        groups.append([
            Item(_poisson_args(s, lam, q, kk=(k, kp), grid=swapped), "kk",
                 props=props),
            Item(_poisson_args(s, lam, q, kk=(kp, k)), "kk", props=props)])
    return _flatten_groups(rng, groups)


def through_surfaces(s1, s2, t_min: int, t_max: int) -> dict:
    """Expected `surfaces-through` document, from the lattice line itself."""
    (m, n), (mp, np_) = s1, s2
    det = mp * n - m * np_
    e_p, e_ps = frac(np_ - n, det), frac(m - mp, det)
    dm, dn = m - mp, n - np_
    g0 = math.gcd(dm, dn)
    dm, dn = dm // g0, dn // g0
    return {"s1": {"m": m, "n": n}, "s2": {"m": mp, "n": np_},
            "line": {"e_p": frac_str(e_p), "e_pstar": frac_str(e_ps),
                     "c_over_N": frac_str(frac(mp + np_ - m - n, det)),
                     "algebra_valid": e_p[0] > 0 and e_ps[0] > 0},
            "surfaces": [{"m": mp + t * dm, "n": np_ + t * dn}
                         for t in range(t_min, t_max + 1)]}


def family_count(s) -> int:
    """Number of (d, gamma) cross-cancellation families on s."""
    m, n = s
    g, total = math.gcd(m, n), m + n
    count = 0
    for d in range(2, abs(total) + 1):
        if total % d or math.gcd(abs(total // d), g) != 1:
            continue
        quot = total // d
        count += sum(1 for gamma in range(1, d)
                     if math.gcd(gamma, d) == 1 and (1 - gamma * quot) % g == 0)
    return count


def families_round(rng: random.Random, pools: Pools, r: int) -> list[Item]:
    """12 commands.  enumerate-lines on FAMILY_MIX surfaces, taken in turn
    from each class of FAMILY_POOL so that every three rounds run each pool
    surface equally often, and one surfaces-through per t range of
    THROUGH_T."""
    items = []
    for cls, count in FAMILY_MIX.items():
        order = pools.family_order[cls]
        for j in range(count):
            s = order[(r * count + j) % len(order)]
            rec = pools.expected["families"][f"{s[0]},{s[1]}"]
            items.append(Item(("enumerate-lines", _surface_arg("surface", s),
                               f"--N={N}"), "enumerate",
                              {"families": pools.family_count(s),
                               "sha256": rec["sha256"],
                               "recorded_families": rec["families"]},
                              props=frozenset({cls})))
    for t in THROUGH_T:
        s1, s2, _ = rng.choice(pools.every_line)
        items.append(Item(("surfaces-through", _surface_arg("s1", s1),
                           _surface_arg("s2", s2), f"--t-min={-t}", f"--t-max={t}"),
                          "through", {"through": (s1, s2, -t, t)}))
    rng.shuffle(items)
    return items


def _flatten_groups(rng: random.Random, groups: list[list[Item]]) -> list[Item]:
    rng.shuffle(groups)
    out = []
    for gid, group in enumerate(groups):
        for item in group:
            item.group = gid
            out.append(item)
    return out


# Rounds every run makes at least.  Counts are taken over these rounds, so
# they repeat exactly.  The tail percentile is the one that leaves 10
# commands above it in this many rounds, whatever the run length; the
# numbers put it inside one class of each round (the q = 0.8 large
# surfaces on verify, the near-1 lines on poisson, the |m+n| = 2520
# surfaces on families).  Families makes a multiple of three rounds, so that
# each pool surface runs equally often.
MIN_ROUNDS = {"scan": 30, "verify": 6, "poisson": 10, "families": 9}
# Rounds generated in set-up; a run that needs more starts over.
ROUNDS_PER_RUN = 48

ROUNDS = {"scan": scan_round, "verify": verify_round,
          "poisson": poisson_round, "families": families_round}


def make_rounds(workload: str, seed: int, count: int = ROUNDS_PER_RUN) -> list[list[Item]]:
    """The seeded command lists of a run's rounds; each round has the same
    classes of input in the same numbers, drawn afresh."""
    pools = Pools(random.Random(f"{workload}:{seed}"))
    build = ROUNDS[workload]
    return [build(random.Random(f"{workload}:{seed}:{r}"), pools, r)
            for r in range(count)]
