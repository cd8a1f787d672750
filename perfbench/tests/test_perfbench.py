"""Tests of the benchmark itself: seeded inputs, independent labels, sink
bookkeeping and exactly repeatable work counts.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import gen  # noqa: E402
import run  # noqa: E402
from abelianity import lattice  # noqa: E402
from abelianity.lattice import LambdaPair, Surface  # noqa: E402

WORKLOADS = sorted(gen.ROUNDS)


def _snapshot(rounds):
    return [[(i.argv, i.kind, i.expect, i.group, i.props) for i in items]
            for items in rounds]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_rounds_are_deterministic_for_a_seed(workload):
    assert _snapshot(gen.make_rounds(workload, 7, 3)) == \
        _snapshot(gen.make_rounds(workload, 7, 3))


@pytest.mark.parametrize("workload", ["verify", "poisson", "families"])
def test_seed_and_round_change_the_inputs_but_not_the_mix(workload):
    rounds = [items for seed in range(3) for items in gen.make_rounds(workload, seed, 2)]
    assert len({tuple(i.argv for i in items) for items in rounds}) == len(rounds)
    mixes = {tuple(sorted((i.kind, *sorted(i.props)) for i in items)) for items in rounds}
    assert len({len(items) for items in rounds}) == 1
    assert len(mixes) == 1


def test_labels_match_classify_lambda_over_a_small_box():
    checked = 0
    for s1 in gen.box_surfaces(3):
        for s2 in gen.box_surfaces(3):
            surf1, surf2 = Surface(*s1), Surface(*s2)
            meets = lattice.intersect_surfaces(surf1, surf2) is not None
            assert gen.intersects(s1, s2) == meets
            if not meets:
                continue
            lam = gen.line_lambda(s1, s2)
            pair = LambdaPair.from_lambda(Fraction(*lam))
            if not surf1.is_whole_surface_abelian():
                assert lattice.lambda_of_intersection(surf1, surf2) == pair
            assert gen.classify(s1, lam) == lattice.classify_lambda(surf1, pair).tag.value
            checked += 1
    assert checked > 1000


def test_super_abelian_label_matches_lattice():
    for m in [v for v in range(-15, 16) if v]:
        for lam in range(-6, 7):
            assert gen.super_abelian(m, lam) == \
                lattice.super_abelianity_check(m, lam).super_abelian, (m, lam)


@pytest.mark.parametrize("s", [(1, 11), (6, 14), (4, -10), (9, 15), (-3, 21)])
def test_family_count_matches_solve_condition2(s):
    assert gen.family_count(s) == len(lattice.solve_condition2(Surface(*s)))


def test_through_document_matches_surfaces_through_line():
    s1, s2 = (3, 5), (-2, 7)
    doc = gen.through_surfaces(s1, s2, -4, 4)
    got = lattice.surfaces_through_line(Surface(*s1), Surface(*s2), range(-4, 5))
    assert doc["surfaces"] == [{"m": w.m, "n": w.n} for w in got]


def test_sink_counts_flags_split_across_writes():
    line = '{"s1": [1, 2], "oracle_agree": true}\n'
    bad = '{"s1": [2, 3], "oracle_agree": false}\n'
    text = line * 50 + bad + line * 20
    rng = random.Random(3)
    sink = run.Sink(keep=False)
    pos = 0
    while pos < len(text):
        step = rng.randint(1, 9)
        sink.write(text[pos:pos + step])
        pos += step
    assert (sink.lines, sink.agree, sink.disagree) == (71, 70, 1)
    assert sink.nbytes == len(text)


def test_tail_leaves_ten_samples_above_at_the_floor():
    assert run.tail([3.0, 1.0, 2.0], 1) == (3.0, "max of 3")
    samples = [float(v) for v in range(100)]
    assert run.tail(samples, 100) == (89.0, "p90.0 of 100")
    assert run.tail(samples + samples, 100) == (89.0, "p90.0 of 200")


def test_nearest_stays_inside_and_centres_when_it_can():
    samples = list(range(12))
    assert run.nearest(samples, 0, 5) == [0, 1, 2, 3, 4]
    assert run.nearest(samples, 6, 5) == [4, 5, 6, 7, 8]
    assert run.nearest(samples, 11, 5) == [7, 8, 9, 10, 11]
    assert run.nearest(samples[:5], 2, 5) == samples[:5]


def test_host_factor_scales_to_the_reference_time():
    assert run.host_factor([2 * run.REF_S] * 3) == pytest.approx(0.5)
    assert run.host_factor([run.REF_S, 9.0, run.REF_S / 2]) == pytest.approx(1.0)


COUNT_SUFFIXES = (".calls", ".errors", "output_bytes", "families_found",
                  "exponent_terms", "multiset_entries", "grid_points_used_ratio")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_work_counts_repeat_exactly(workload, monkeypatch):
    monkeypatch.setitem(gen.MIN_ROUNDS, workload, 1)
    first, second = (run.run(workload, 11, 0, trace=True) for _ in range(2))
    counts = [{k: v for k, v in r["per_layer"].items() if k.endswith(COUNT_SUFFIXES)}
              for r in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["cli.main.calls"] == first["provenance"]["commands_per_round"]
    assert first["correct"] and second["correct"]
