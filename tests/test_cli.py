"""CLI surface tests: exact JSON/CSV output, determinism, exit codes."""

import cmath
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import abelianity
from abelianity import (Surface, Verdict, classify_lambda, exchange_exponents,
                        intersect_surfaces, is_abelian, lambda_of_intersection,
                        lattice, solve_condition2)
from abelianity.cli import main
from abelianity.elliptic import PoleError
from reference_family import reference_enumerate_document, reference_lambda_pair

# sha256 of the `scan --box=6` output, recorded before the exact layer moved
# from Fraction to integer residues; the sweep must stay byte-identical
SCAN_BOX6_SHA256 = "641505d737a2072758bcb86026da36794f78c8d64d69dbded21471c7f316580c"
# sha256 of `enumerate-lines --k-min=-6 --k-max=6` on two surfaces of the
# benchmark's families pool, recorded before each divisor's families were
# formed in one pass; k = -6..6 also reads the members beyond the checked ones
ENUMERATE_K6_SHA256 = {
    "7,233": "80cfc0aa6687128d20f2e32d16794af9352617a8c3014a89b23d0b5b514dcf27",
    "-1,721": "714ff13741caa8736ad9be583940ffdd309e7833682b5a4246cf62ea818d21eb",
}
ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def assert_same_text(actual: str, expected: str) -> None:
    """actual == expected, reported at the first differing character:
    pytest's own diff of two long one-line documents runs for minutes."""
    if actual != expected:
        i = len(os.path.commonprefix([actual, expected]))
        pytest.fail(f"texts differ at character {i} of {len(actual)}/{len(expected)}: "
                    f"{actual[i - 30:i + 30]!r} != {expected[i - 30:i + 30]!r}")


def assert_routes_agree(capsys, argv):
    """argv exits 0 on both --route values (one of them is argv itself),
    with finite rows at the same points that agree to 1e-10 (1 + |f|)."""
    base = [a for a in argv if not a.startswith("--route=")]
    rows = []
    for route in ("compact", "series"):
        rc = main(base + [f"--route={route}"])
        captured = capsys.readouterr()
        assert rc == 0, captured.err
        rows.append([[float(v) for v in r.split(",")]
                     for r in captured.out.strip().split("\n")[1:]])
    compact, series = rows
    assert compact and [r[:2] for r in compact] == [r[:2] for r in series]
    for c, s in zip(compact, series):
        fc, fs = complex(*c[2:]), complex(*s[2:])
        assert cmath.isfinite(fc) and cmath.isfinite(fs)
        assert abs(fc - fs) <= 1e-10 * (1 + abs(fc))


class TestIntersect:
    def test_worked_example(self, capsys):
        rc, out = run(capsys, "intersect", "--s1", "3,6", "--s2", "2,5", "--N", "3")
        assert rc == 0
        doc = json.loads(out)
        assert doc["intersection"] == {"e_p": "1/3", "e_pstar": "-1/3",
                                       "c_over_N": "2/3", "algebra_valid": False}
        assert doc["lambda_s1"] == {"lambda": "-1", "lambda_star": "2"}
        assert doc["verdict_s1"]["tag"] == "IntegerLambda"
        assert doc["verdict_s2"]["tag"] == "NotAbelian"

    def test_no_intersection(self, capsys):
        rc, out = run(capsys, "intersect", "--s1", "1,2", "--s2", "1,5")
        assert rc == 0
        assert json.loads(out)["intersection"] is None

    def test_deterministic_bytes(self, capsys):
        _, out1 = run(capsys, "intersect", "--s1", "3,6", "--s2", "2,5")
        _, out2 = run(capsys, "intersect", "--s1", "3,6", "--s2", "2,5")
        assert out1 == out2

    def test_bad_surface_is_exit_2(self, capsys):
        rc, _ = run(capsys, "intersect", "--s1", "3", "--s2", "2,5")
        assert rc == 2


class TestRationalSerialization:
    def test_normalized_sign(self, capsys):
        _, out = run(capsys, "intersect", "--s1", "3,6", "--s2", "2,5")
        doc = json.loads(out)
        assert doc["intersection"]["e_pstar"] == "-1/3"

    def test_round_trip(self, capsys):
        _, out = run(capsys, "intersect", "--s1", "3,6", "--s2", "2,5")
        doc = json.loads(out)
        for key in ("e_p", "e_pstar", "c_over_N"):
            text = doc["intersection"][key]
            assert str(F(text)) in (text, text.rstrip("/1"))
            assert F(str(F(text))) == F(text)


class TestClassify:
    def test_condition2(self, capsys):
        rc, out = run(capsys, "classify", "--surface", "1,2", "--lambda", "1/3")
        assert rc == 0
        doc = json.loads(out)
        assert doc["verdict"]["tag"] == "Condition2"
        assert doc["verdict"]["witnesses"]["d"] == 3
        assert doc["oracle_abelian"] is True and doc["consistent"] is True

    def test_zero_lambda_documented_exclusion(self, capsys):
        rc, out = run(capsys, "classify", "--surface", "2,5", "--lambda", "0")
        assert rc == 0
        doc = json.loads(out)
        assert doc["verdict"]["tag"] == "NotAbelian"
        assert doc["oracle_abelian"] is True
        assert doc["zero_lambda_exclusion"] is True


class TestNCaveat:
    def test_n2_caveat_flag(self, capsys):
        """The verdict does not depend on N; the CLI marks N = 2, where the
        conditions are only sufficient, with "n_caveat" on every verdict."""
        for N, caveat in ((2, True), (3, False)):
            _, out = run(capsys, "intersect", "--s1=3,6", "--s2=2,5", f"--N={N}")
            doc = json.loads(out)
            assert doc["verdict_s1"]["n_caveat"] is doc["verdict_s2"]["n_caveat"] is caveat
            for argv in (["classify", "--lambda=-2/3"], ["verify-y", "--lambda=-2/3"]):
                rc, out = run(capsys, *argv, "--surface=2,5", f"--N={N}")
                verdict = json.loads(out)["verdict"]
                assert rc == 0 and verdict["tag"] == "NotAbelian"
                assert verdict["n_caveat"] is caveat


class TestEnumerateLines:
    def test_families(self, capsys):
        rc, out = run(capsys, "enumerate-lines", "--surface", "2,2")
        assert rc == 0
        doc = json.loads(out)
        assert [f["d"] for f in doc["families"]] == [4, 4]
        member = doc["families"][0]["members"][2]
        assert member == {"k": 0, "lambda": "1/2", "lambda_star": "1/2",
                          "tag": "Condition2"}

    def test_extended_center_rejected(self, capsys):
        rc, _ = run(capsys, "enumerate-lines", "--surface", "1,-1")
        assert rc == 2

    @pytest.mark.parametrize("surface", ["2,2", "2,4", "5,4", "-3,7", "6,-1",
                                         "-9,-3", "12,5", "3,-2"])
    @pytest.mark.parametrize("extra", [("--N=2",), ("--k-min=-6", "--k-max=6"), (),
                                       ("--k-min=4", "--k-max=4")],
                             ids=["N2", "k6", "default", "k4"])
    def test_members_match_lambda_pair_and_classify(self, capsys, surface, extra):
        """The command writes its document as text, which must be
        `json.dumps` of the dict tree built from the same families; each
        printed member is member k of the family formula
        (`reference_lambda_pair`) and its classify_lambda tag, although the
        command classifies it only once, on integers.  S(2,4) is
        integer-degenerate, S(-9,-3) has g = 3, S(3,-2) has no family, and
        k = 4 is a single member outside the self-checked k = -2..2."""
        rc, out = run(capsys, "enumerate-lines", f"--surface={surface}", *extra)
        assert rc == 0
        opts = dict(arg[2:].split("=") for arg in extra)
        ks = range(int(opts.get("k-min", -2)), int(opts.get("k-max", 2)) + 1)
        N = int(opts.get("N", 3))
        s = Surface(*(int(v) for v in surface.split(",")))
        assert_same_text(out, json.dumps(reference_enumerate_document(s, ks, N)) + "\n")
        doc = json.loads(out)
        fams = solve_condition2(s)
        assert len(doc["families"]) == len(fams)
        for printed, fam in zip(doc["families"], fams):
            assert (printed["d"], printed["gamma"]) == (fam.d, fam.gamma)
            assert [m["k"] for m in printed["members"]] == list(ks)
            for member in printed["members"]:
                pair = reference_lambda_pair(fam, member["k"])
                assert member == {
                    "k": member["k"], "lambda": str(pair.lam),
                    "lambda_star": str(pair.lam_star),
                    "tag": classify_lambda(s, pair).tag.value}

    @settings(max_examples=60, deadline=None)
    @given(st.integers(-40, 40), st.integers(-40, 40), st.integers(-6, 6),
           st.integers(0, 4), st.integers(2, 5))
    def test_bytes_match_the_reference_property(self, m, n, k_min, width, N):
        assume(m and n and m + n)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = main(["enumerate-lines", f"--surface={m},{n}", f"--N={N}",
                       f"--k-min={k_min}", f"--k-max={k_min + width}"])
        assert rc == 0
        expected = reference_enumerate_document(
            Surface(m, n), range(k_min, k_min + width + 1), N)
        assert_same_text(out.getvalue(), json.dumps(expected) + "\n")

    @pytest.mark.parametrize("surface", ["1,2", "2,4", "-9,-3", "12,5", "1,2519"])
    def test_classification_core_runs_once_per_member(self, capsys, monkeypatch, surface):
        """`solve_condition2` classifies each of the five checked members of
        each family exactly once, and `enumerate-lines` over the default k
        range classifies nothing more; each member outside k = -2..2 costs
        one more classification."""
        calls = []
        real = lattice._classify_reduced

        def counting(s, reduced):
            calls.append(reduced)
            return real(s, reduced)

        monkeypatch.setattr(lattice, "_classify_reduced", counting)
        s = Surface(*(int(v) for v in surface.split(",")))
        families = len(solve_condition2(s))
        assert families and len(calls) == 5 * families
        for extra, per_family in (((), 5), (("--k-min=-6", "--k-max=6"), 13)):
            calls.clear()
            rc, _ = run(capsys, "enumerate-lines", f"--surface={surface}", *extra)
            assert rc == 0
            assert len(calls) == per_family * families

    @pytest.mark.parametrize("surface", sorted(ENUMERATE_K6_SHA256))
    def test_wide_k_range_bytes_unchanged(self, capsys, surface):
        rc, out = run(capsys, "enumerate-lines", f"--surface={surface}",
                      "--k-min=-6", "--k-max=6")
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == ENUMERATE_K6_SHA256[surface]

    def test_recorded_family_digests(self, capsys):
        """The output of every surface of the benchmark's families pool
        matches the digest that perfbench/expected.json records for it."""
        recorded = json.loads((ROOT / "perfbench" / "expected.json").read_text())["families"]
        assert len(recorded) == 24
        mismatched = []
        for surface, rec in recorded.items():
            rc, out = run(capsys, "enumerate-lines", f"--surface={surface}", "--N=3")
            if rc != 0 or hashlib.sha256(out.encode()).hexdigest() != rec["sha256"]:
                mismatched.append((surface, rc))
        assert not mismatched

    def test_every_box_12_surface_checks_its_families(self, capsys):
        """Every surface with |m|, |n| <= 12 and m, n, m+n != 0 exits 0 at k =
        -6..6: each family checks its members k = -2..2 when it is built, and
        the members beyond them are classified too."""
        failed = []
        runs = 0
        for m in [v for v in range(-12, 13) if v]:
            for n in [v for v in range(-12, 13) if v and v != -m]:
                rc = main(["enumerate-lines", f"--surface={m},{n}", "--k-min=-6", "--k-max=6"])
                err = capsys.readouterr().err
                runs += 1
                if rc != 0:
                    failed.append((m, n, rc, err))
        assert runs == 552 and not failed

    def test_reversed_k_range_is_exit_2(self, capsys):
        rc = main(["enumerate-lines", "--surface=2,2", "--k-min=3", "--k-max=1"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "error: --k-min 3 exceeds --k-max 1" in captured.err

    @pytest.mark.parametrize("surface", ["1,-1", "0,5"])
    def test_invalid_surface_writes_nothing(self, capsys, tmp_path, surface):
        """The surface is checked before any byte is written, and before
        --out is opened."""
        path = tmp_path / "fam.json"
        rc = main(["enumerate-lines", f"--surface={surface}", f"--out={path}"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == "" and not path.exists()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("surface,divisors", [("1,2519", 47), ("3,-2", 0), ("-9,-3", 3)])
    def test_streams_one_write_per_divisor(self, capsys, monkeypatch, surface, divisors):
        """The head goes out with the first divisor's families, then one write
        per divisor and one that closes the document.  Every prefix of whole
        writes, closed with "]}", is the document cut after a divisor."""
        writes = []
        real_write = sys.stdout.write
        monkeypatch.setattr(sys.stdout, "write",
                            lambda text: writes.append(text) or real_write(text))
        assert main(["enumerate-lines", f"--surface={surface}"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(writes) == divisors + 1
        ds = sorted({fam["d"] for fam in doc["families"]})
        assert len(ds) == divisors
        for i, d in enumerate(ds, 1):
            cut = json.loads("".join(writes[:i]) + "]}")
            assert cut["families"] == [fam for fam in doc["families"] if fam["d"] <= d]
        assert writes[-1] == ("]}\n" if divisors else "".join(writes))
        m, n = surface.split(",")
        head = f'{{"surface": {{"m": {m}, "n": {n}}}, "N": 3, "families": ['
        assert writes[0].startswith(head + (f'{{"d": {ds[0]}, ' if divisors else "]}"))

    @pytest.mark.parametrize("surface,bad_d", [("5,7", 6), ("5,7", 12), ("-9,-3", 6)])
    def test_mismatch_cuts_the_document_after_the_last_whole_divisor(
            self, capsys, monkeypatch, tmp_path, surface, bad_d):
        """A member of divisor bad_d given the wrong verdict fails its family's
        self-check: exit 1 with a `verification mismatch:` line, and stdout
        (and --out) hold the document up to the end of the divisor before."""
        s = Surface(*(int(v) for v in surface.split(",")))
        reference = reference_enumerate_document(s, range(-2, 3), 3)
        full = json.dumps(reference) + "\n"
        reference["families"] = [f for f in reference["families"] if f["d"] < bad_d]
        cut = json.dumps(reference)[:-2]  # the closing "]}" is never written
        assert reference["families"] and len(cut) < len(full) and full.startswith(cut)
        real = lattice._classify_reduced
        failed = []

        def wrong_once(s, reduced):
            verdict = real(s, reduced)
            if not failed and verdict[1] and verdict[1][0] == bad_d:
                failed.append(reduced)
                return Verdict.NOT_ABELIAN, None
            return verdict

        monkeypatch.setattr(lattice, "_classify_reduced", wrong_once)
        path = tmp_path / "fam.json"
        rc = main(["enumerate-lines", f"--surface={surface}", f"--out={path}"])
        captured = capsys.readouterr()
        assert rc == 1 and failed
        assert captured.err.startswith("verification mismatch: ")
        assert captured.err.count("\n") == 1
        assert captured.out == cut and path.read_text() == cut

    def test_closed_pipe_is_quiet(self):
        env = dict(os.environ,
                   PYTHONPATH=str(Path(abelianity.__file__).resolve().parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "abelianity", "enumerate-lines", "--surface=1,2519"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        first = proc.stdout.read(64)
        proc.stdout.close()  # like `| head -c64`: the reader goes away
        err = proc.stderr.read()
        proc.stderr.close()
        rc = proc.wait(timeout=120)
        assert first.startswith(b'{"surface": {"m": 1, "n": 2519}, "N": 3, "families": [')
        assert b"Traceback" not in err and b"Error" not in err
        assert rc == 0


def perfbench_gen():
    """perfbench/gen.py, the benchmark's input generator, loaded from its
    path; it registers in sys.modules because it defines dataclasses."""
    if "perfbench_gen" not in sys.modules:
        spec = importlib.util.spec_from_file_location("perfbench_gen",
                                                      ROOT / "perfbench" / "gen.py")
        module = sys.modules["perfbench_gen"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules["perfbench_gen"]


def reference_through_document(s1: Surface, s2: Surface, ts) -> dict:
    """The `surfaces-through` document over t in ts as a dict tree, from
    `intersect_surfaces` and `surfaces_through_line`; `json.dumps` of it is
    the command's output."""
    line = intersect_surfaces(s1, s2)
    return {"s1": {"m": s1.m, "n": s1.n}, "s2": {"m": s2.m, "n": s2.n},
            "line": {"e_p": str(line.e_p), "e_pstar": str(line.e_pstar),
                     "c_over_N": str(line.c_over_N),
                     "algebra_valid": line.algebra_valid},
            "surfaces": [{"m": w.m, "n": w.n}
                         for w in lattice.surfaces_through_line(s1, s2, ts)]}


class TestSurfacesThrough:
    @pytest.mark.parametrize("s1,s2,t_min,t_max", [
        ((3, 6), (2, 5), -2, 2), ((1, 2), (2, 1), -1000, 1000), ((-5, 4), (3, -1), 0, 0),
        ((0, 3), (4, 0), -7, 9), ((1, -1), (2, 5), -3, 3), ((7, -3), (1, 5), 40, 45)])
    def test_bytes_match_the_dict_reference(self, capsys, s1, s2, t_min, t_max):
        """The command writes its document as text, which must be
        `json.dumps` of the dict tree of the public functions: whole and
        extended-center surfaces, a one-surface window, algebra_valid true
        and false, and the +-1000 walk of the benchmark."""
        rc, out = run(capsys, "surfaces-through", f"--s1={s1[0]},{s1[1]}",
                      f"--s2={s2[0]},{s2[1]}", f"--t-min={t_min}", f"--t-max={t_max}")
        assert rc == 0
        expected = reference_through_document(Surface(*s1), Surface(*s2),
                                              range(t_min, t_max + 1))
        assert_same_text(out, json.dumps(expected) + "\n")

    @pytest.mark.parametrize("s1,s2", [((3, 6), (2, 5)), ((1, 2), (2, 1)),
                                       ((-5, 4), (3, -1))])
    def test_walk_matches_the_benchmark_generator(self, capsys, s1, s2):
        """The +-1000 walk of a box line equals the document that
        perfbench/gen.py builds from the lattice line itself."""
        gen = perfbench_gen()
        assert any((a, b) == (s1, s2) for lines in gen.box_lines(gen.LINE_BOX).values()
                   for a, b, _ in lines), "not a box line"
        rc, out = run(capsys, "surfaces-through", f"--s1={s1[0]},{s1[1]}",
                      f"--s2={s2[0]},{s2[1]}", "--t-min=-1000", "--t-max=1000")
        assert rc == 0
        assert json.loads(out) == gen.through_surfaces(s1, s2, -1000, 1000)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(-30, 30), st.integers(-30, 30), st.integers(-30, 30),
           st.integers(-30, 30), st.integers(-50, 50), st.integers(0, 20))
    def test_bytes_match_the_reference_property(self, m1, n1, m2, n2, t_min, width):
        assume((m1, n1) != (0, 0) and (m2, n2) != (0, 0))
        s1, s2 = Surface(m1, n1), Surface(m2, n2)
        assume(intersect_surfaces(s1, s2) is not None)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = main(["surfaces-through", f"--s1={m1},{n1}", f"--s2={m2},{n2}",
                       f"--t-min={t_min}", f"--t-max={t_min + width}"])
        assert rc == 0
        expected = reference_through_document(s1, s2, range(t_min, t_min + width + 1))
        assert_same_text(out.getvalue(), json.dumps(expected) + "\n")

    def test_window(self, capsys):
        rc, out = run(capsys, "surfaces-through", "--s1", "3,6", "--s2", "2,5",
                      "--t-min=-2", "--t-max", "2")
        assert rc == 0
        doc = json.loads(out)
        assert doc["surfaces"] == [{"m": 0, "n": 3}, {"m": 1, "n": 4},
                                   {"m": 2, "n": 5}, {"m": 3, "n": 6},
                                   {"m": 4, "n": 7}]

    def test_reversed_t_range_is_exit_2(self, capsys):
        rc = main(["surfaces-through", "--s1", "3,6", "--s2", "2,5",
                   "--t-min=3", "--t-max=1"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "error: --t-min 3 exceeds --t-max 1" in captured.err


class TestVerify:
    def test_verify_super_pass(self, capsys):
        rc, out = run(capsys, "verify-super", "--m", "3", "--lambda", "2",
                      "--N", "3", "--q", "0.55")
        assert rc == 0
        doc = json.loads(out)
        assert doc["verdict"]["super_abelian"] is True
        assert doc["max_abs_ratio_minus_1"] < 1e-10
        assert doc["consistent"] is True

    def test_verify_super_fail_case_consistent(self, capsys):
        rc, out = run(capsys, "verify-super", "--m", "2", "--lambda", "1",
                      "--q", "0.55")
        assert rc == 0
        doc = json.loads(out)
        assert doc["verdict"]["failed_condition"] == 1
        assert doc["max_abs_ratio_minus_1"] > 1e-4

    def test_verify_super_n2_claims_no_completeness(self, capsys):
        """N = 2 is the sufficient-only regime, as in verify-y: a non-super-
        abelian line whose ratio is numerically 1 (6.7e-15) is no mismatch."""
        rc, out = run(capsys, "verify-super", "--m=38", "--lambda=6", "--N=2", "--q=0.8")
        assert rc == 0
        doc = json.loads(out)
        assert doc["verdict"]["super_abelian"] is False and doc["oracle_empty"] is False
        assert doc["max_abs_ratio_minus_1"] < 1e-4
        assert doc["consistent"] is True

    @pytest.mark.parametrize("N,rc", [(2, 0), (3, 1), (4, 1)])
    def test_verify_super_completeness_from_n3(self, capsys, monkeypatch, N, rc):
        """From N = 3 a non-super-abelian line must still deviate somewhere:
        a grid on which its ratio is 1 is a mismatch."""
        from abelianity import cli

        monkeypatch.setattr(cli, "_grid_max_deviation", lambda evaluate, grid: (0.0, 20))
        got, out = run(capsys, "verify-super", "--m=2", "--lambda=1", f"--N={N}")
        doc = json.loads(out)
        assert doc["verdict"]["super_abelian"] is False and doc["cycle_collapse"] is False
        assert got == rc and doc["consistent"] is (rc == 0)

    def test_verify_super_cycle_collapse_reported(self, capsys):
        rc, out = run(capsys, "verify-super", "--m", "9", "--lambda", "4",
                      "--N", "3", "--q", "0.55")
        assert rc == 0
        doc = json.loads(out)
        assert doc["cycle_collapse"] is True
        assert doc["max_abs_ratio_minus_1"] < 1e-9

    def test_verify_y_abelian(self, capsys):
        rc, out = run(capsys, "verify-y", "--surface", "1,2", "--lambda", "1/3",
                      "--q", "0.6")
        assert rc == 0
        doc = json.loads(out)
        assert doc["max_abs_y_minus_1"] < 1e-9
        assert doc["numeric_consistent"] and doc["classification_consistent"]

    def test_verify_y_whole_surface(self, capsys):
        rc, out = run(capsys, "verify-y", "--surface", "0,3", "--q", "0.6")
        assert rc == 0
        assert json.loads(out)["verdict"]["tag"] == "WholeSurface"

    def test_whole_surfaces_at_sweep_scale(self, capsys):
        """S_{0,k} and S_{k,0}, 0 < |k| <= 12, at N = 2, 3, 4 and q = 1e-4,
        0.6, 0.95: each of the 432 commands exits 0, oracle-abelian and
        numerically consistent."""
        argvs = [["verify-y", f"--surface={m},{n}", f"--N={N}", f"--q={q}"]
                 for k in range(-12, 13) if k for m, n in ((0, k), (k, 0))
                 for N in (2, 3, 4) for q in ("1e-4", "0.6", "0.95")]
        assert len(argvs) == 432
        failed = []
        for argv in argvs:
            rc, out = run(capsys, *argv)
            doc = json.loads(out) if rc == 0 else {}
            if not (doc.get("oracle_abelian") and doc.get("numeric_consistent")):
                failed.append((" ".join(argv), rc))
        assert not failed

    def test_no_point_evaluated_is_not_consistent(self, capsys, monkeypatch):
        from abelianity import elliptic

        def all_poles(*args, **kwargs):
            def evaluate(x):
                raise PoleError("every grid point is a pole")
            return evaluate

        monkeypatch.setattr(elliptic, "exchange_plan", all_poles)
        monkeypatch.setattr(elliptic, "centrality_plan", all_poles)
        rc, out = run(capsys, "verify-y", "--surface", "1,2", "--lambda", "1/3")
        doc = json.loads(out)
        assert rc == 1
        assert doc["points_evaluated"] == 0
        assert doc["numeric_consistent"] is False
        assert doc["classification_consistent"] is True
        rc, out = run(capsys, "verify-super", "--m", "3", "--lambda", "2")
        doc = json.loads(out)
        assert rc == 1
        assert doc["points_evaluated"] == 0 and doc["consistent"] is False

    @pytest.mark.parametrize("bad", [float("nan"), complex(float("inf"), 0.0)],
                             ids=["nan", "inf"])
    def test_non_finite_value_is_exit_2(self, capsys, monkeypatch, bad):
        # a non-finite grid value raises; it is never folded into max()
        from abelianity import elliptic

        def one_bad_point(*args, **kwargs):
            def evaluate(x):
                return bad if x.imag > 0 else 1.0 + 0j
            return evaluate

        monkeypatch.setattr(elliptic, "exchange_plan", one_bad_point)
        monkeypatch.setattr(elliptic, "centrality_plan", one_bad_point)
        for argv in (["verify-y", "--surface", "1,2", "--lambda", "1/3"],
                     ["verify-super", "--m", "3", "--lambda", "2"]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: value ")
            assert "is not finite" in captured.err

    @pytest.mark.parametrize("argv", [
        ("--surface=2,1", "--lambda=2", "--q=1e-300"),
        ("--surface=1,2", "--lambda=1/3", "--q=1e-250"),
    ])
    def test_value_outside_float_range_is_exit_2(self, capsys, argv):
        # the exchange factors overflow; no deviation is computed from them
        assert main(["verify-y", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "outside float range" in captured.err

    def test_verify_y_non_abelian(self, capsys):
        rc, out = run(capsys, "verify-y", "--surface", "2,5", "--lambda=-2/3",
                      "--q", "0.6")
        assert rc == 0
        doc = json.loads(out)
        assert doc["max_abs_y_minus_1"] > 1e-4
        assert doc["numeric_consistent"]


def verify_commands(count=200, seed=16):
    """A fixed, seeded list of `verify-y` and `verify-super` commands: lines
    through box intersections and random lambdas, whole surfaces, N = 2..5,
    q from 1e-4 to 0.99 and a few custom grids."""
    rng = random.Random(seed)
    qs = ["1e-4", "0.01", "0.3", "0.55", "0.6", "0.8", "0.95", "0.99"]
    grids = [None, None, None, "0.5,2,7", "0.9,1.1,12", "0.3,3.5,5"]
    cmds = []
    for i in range(count):
        tail = [f"--N={rng.randint(2, 5)}", f"--q={rng.choice(qs)}"]
        grid = rng.choice(grids)
        if grid:
            tail.append(f"--grid={grid}")
        if i % 4 == 3:
            cmds.append(["verify-super", f"--m={rng.randint(-40, 40) or 1}",
                         f"--lambda={rng.randint(-20, 20)}", *tail])
            continue
        kind = rng.random()
        if kind < 0.2:
            k = rng.choice([v for v in range(-12, 13) if v])
            cmds.append(["verify-y", f"--surface=0,{k}" if rng.random() < 0.5
                         else f"--surface={k},0", *tail])
            continue
        m, n = rng.randint(-12, 12) or 1, rng.randint(-12, 12) or -1
        s = Surface(m, n)
        lam = F(rng.randint(-30, 30), rng.randint(1, 12))
        if kind < 0.7:
            other = Surface(rng.randint(-6, 6) or 2, rng.randint(-6, 6) or 3)
            if intersect_surfaces(s, other) is not None:
                lam = lambda_of_intersection(s, other).lam
        cmds.append(["verify-y", f"--surface={m},{n}", f"--lambda={lam}",
                     *tail])
    return cmds


# sha256 over every command of `verify_commands()`: its argv, exit code,
# stdout and stderr, recorded before `ufunc`, `ufunc_a` and the shift plans
# were folded into one U evaluator; the outputs must stay byte-identical.
# Re-recorded when verify-super stopped claiming completeness at N = 2, which
# changed one command: `verify-super --m=38 --lambda=6 --N=2 --q=0.8` now
# exits 0 with "consistent": true
VERIFY_COMMANDS_SHA256 = "b2434a31ccb8795a5ea67919b4270224e5ca3f504683807a12e53f259b6e1b46"


def test_verify_commands_bytes_unchanged(capsys):
    cmds = verify_commands()
    assert len(cmds) == 200
    assert any("--N=2" in c for c in cmds)
    # whole surfaces: verify-y without --lambda
    assert any(c[0] == "verify-y" and not c[2].startswith("--lambda") for c in cmds)
    digest = hashlib.sha256()
    for argv in cmds:
        rc = main(argv)
        captured = capsys.readouterr()
        digest.update(f"{' '.join(argv)}\n{rc}\n{captured.out}{captured.err}".encode())
    assert digest.hexdigest() == VERIFY_COMMANDS_SHA256


def exact_commands(count=150, seed=19):
    """A fixed, seeded list of `intersect` and `classify` commands: box-3
    surface pairs, and lambdas on box-3 surfaces (random, or the coordinate of
    an intersection line), at N = 2, 3 and 4.  The box holds the whole
    surfaces (m = 0 or n = 0) and the extended center (1,-1), (-1,1)."""
    rng = random.Random(seed)
    box = [Surface(m, n) for m in range(-3, 4) for n in range(-3, 4) if (m, n) != (0, 0)]
    cmds = []
    for i in range(count):
        rank = f"--N={2 + i % 3}"
        if i % 2:
            s1, s2 = rng.sample(box, 2)
            cmds.append(["intersect", f"--s1={s1.m},{s1.n}", f"--s2={s2.m},{s2.n}", rank])
            continue
        s, other = rng.sample(box, 2)
        lam = F(rng.randint(-12, 12), rng.randint(1, 6))
        if rng.random() < 0.5 and not s.is_whole_surface_abelian() \
                and intersect_surfaces(s, other) is not None:
            lam = lambda_of_intersection(s, other).lam
        cmds.append(["classify", f"--surface={s.m},{s.n}", f"--lambda={lam}", rank])
    return cmds


# sha256 over every command of `exact_commands()`: its argv, exit code, stdout
# and stderr, recorded before N left the exact layer (the N = 2 caveat is now
# decided in the CLI alone); the outputs must stay byte-identical
EXACT_COMMANDS_SHA256 = "366695282cfc83ded29f555f374eb4812dcf10589891266bbb13ed9763c563dd"


def test_exact_commands_bytes_unchanged(capsys):
    cmds = exact_commands()
    assert len(cmds) == 150
    assert {c[-1] for c in cmds} == {"--N=2", "--N=3", "--N=4"}
    surfaces = {a.split("=")[1] for c in cmds for a in c[1:3] if a.startswith("--s")}
    assert {"1,-1", "-1,1"} <= surfaces
    assert any(s.startswith("0,") or s.endswith(",0") for s in surfaces)
    digest = hashlib.sha256()
    for argv in cmds:
        rc = main(argv)
        captured = capsys.readouterr()
        digest.update(f"{' '.join(argv)}\n{rc}\n{captured.out}{captured.err}".encode())
    assert digest.hexdigest() == EXACT_COMMANDS_SHA256


class TestPoissonCommand:
    @pytest.mark.parametrize("surface,lam", [("0,3", "1/2"), ("0,3", "2"), ("-4,0", "0")])
    def test_whole_surface_has_no_lambda_coordinate(self, capsys, surface, lam):
        """A whole surface is abelian, so it passes the abelianity gate, and
        is refused (exit 2) because it has no lambda coordinate."""
        assert main(["poisson", f"--surface={surface}", f"--lambda={lam}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: S_{{{surface}}} has no lambda coordinate\n"

    def test_off_line_is_refused(self, capsys):
        assert main(["poisson", "--surface=2,5", "--lambda=1/7"]) == 2
        assert capsys.readouterr().err == \
            "error: no Poisson structure off abelianity lines (verdict NotAbelian)\n"

    def test_csv_shape(self, capsys):
        rc, out = run(capsys, "poisson", "--surface", "1,2", "--lambda", "1/3",
                      "--grid", "0.8,1.25,6")
        assert rc == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x_re,x_im,f_re,f_im"
        assert len(lines) == 7
        for row in lines[1:]:
            assert len(row.split(",")) == 4

    def test_routes_agree(self, capsys):
        _, out_c = run(capsys, "poisson", "--surface", "1,2", "--lambda", "1/3",
                       "--grid", "0.8,1.25,4", "--route", "compact")
        _, out_s = run(capsys, "poisson", "--surface", "1,2", "--lambda", "1/3",
                       "--grid", "0.8,1.25,4", "--route", "series")
        rows_c = [r.split(",") for r in out_c.strip().split("\n")[1:]]
        rows_s = [r.split(",") for r in out_s.strip().split("\n")[1:]]
        for rc_, rs in zip(rows_c, rows_s):
            assert abs(float(rc_[2]) - float(rs[2])) < 1e-8

    def test_multi_index_takes_the_route(self, capsys):
        from abelianity import (EllipticContext, LambdaPair, f_kk, f_series,
                                params_for_line)
        argv = ["poisson", "--surface=1,2", "--lambda=1/3", "--q=0.6", "--kk=2,3"]
        rows = {}
        for route in ("compact", "series"):
            rc, out = run(capsys, *argv, f"--route={route}")
            assert rc == 0
            rows[route] = [[float(v) for v in r.split(",")]
                           for r in out.strip().split("\n")[1:]]
        ctx = EllipticContext(N=3, q=0.6)
        params = params_for_line(Surface(1, 2), LambdaPair.from_lambda(F(1, 3)))
        assert len(rows["series"]) == 20
        for c, s in zip(rows["compact"], rows["series"]):
            expect = f_kk(ctx, params, 2, 3, complex(*s[:2]), f_series)
            assert complex(*s[2:]) == expect
            assert abs(complex(*c[2:]) - expect) <= 1e-8 * (1 + abs(expect))
        assert rows["compact"] != rows["series"]

    @pytest.mark.parametrize("surface", ["1,1", "7,1"])
    def test_nome_below_float_range(self, capsys, surface):
        # the nome q^6 = 1e-360 underflows; it is taken as T = 6 ln(1/q)
        rows = {}
        for route in ("compact", "series"):
            rc, out = run(capsys, "poisson", f"--surface={surface}", "--lambda=2",
                          "--q=1e-60", f"--route={route}")
            assert rc == 0
            rows[route] = [[float(v) for v in r.split(",")]
                           for r in out.strip().split("\n")[1:]]
        assert len(rows["compact"]) == 20
        for c, s in zip(rows["compact"], rows["series"]):
            assert c[:2] == s[:2]
            fc, fs = complex(*c[2:]), complex(*s[2:])
            assert cmath.isfinite(fc) and abs(fc - fs) <= 1e-8 * (1 + abs(fc))

    @pytest.mark.parametrize("argv", [
        ("--surface=6,3", "--lambda=8/3", "--q=1e-30", "--route=series"),
        ("--surface=-1,5", "--lambda=-11/4", "--q=1e-50", "--N=4"),
        ("--surface=-1,5", "--lambda=-11/4", "--q=1e-50", "--N=4",
         "--route=series"),
    ])
    def test_type_b_shift_outside_float_range(self, capsys, argv):
        # the argument shift s^k = q^(-N lambda k/m) overflows a float; it
        # enters every Lambert pair as k ln s, so the command answers
        assert_routes_agree(capsys, ["poisson", *argv])

    @pytest.mark.parametrize("argv", [
        ("--surface=1,1", "--lambda=3/2", "--q=1e-200", "--N=2", "--route=series"),
        ("--surface=6,3", "--lambda=8/3", "--q=1e-30"),
    ])
    def test_squared_argument_outside_float_range(self, capsys, argv):
        # q^2 x^2 underflows (series) or (s^5 x)^2 overflows (compact) as a
        # float; as a log it is 2 ln q + 2 ln x, so the command answers
        assert_routes_agree(capsys, ["poisson", *argv])

    @pytest.mark.parametrize("argv", [
        ("--surface=997,1", "--lambda=2", "--q=0.999"),
        ("--surface=1,1", "--lambda=2", "--q=1e-60"),
        ("--surface=5,4", "--lambda=-25/3", "--q=0.99"),
        ("--surface=1,2", "--lambda=1/3", "--q=0.6", "--kk=2,3"),
        ("--surface=7,1", "--lambda=2", "--q=1e-200"),
        ("--surface=6,3", "--lambda=8/3", "--q=1e-30"),
        ("--surface=-1,5", "--lambda=-11/4", "--q=1e-50", "--N=4"),
    ], ids=" ".join)
    def test_routes_agree_across_regimes(self, capsys, argv):
        """On the 4-point grid: a near-1 line, a nome below float range,
        shifted type-(b) lines, a multi-index pair, and squared and shifted
        arguments outside float range."""
        assert_routes_agree(capsys, ["poisson", *argv, "--grid=0.8,1.25,4"])

    def test_kk_shift_outside_float_range(self, capsys):
        # q^-2 = 1e400: the one float shift left, named in the reason
        assert main(["poisson", "--surface=1,1", "--lambda=2", "--q=1e-200",
                     "--kk=3,3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: shifted argument q^-2 x at x=(0.8+0j) "
                                "lies outside float range\n")

    def test_off_line_rejected(self, capsys):
        rc, _ = run(capsys, "poisson", "--surface", "2,5", "--lambda=-2/3")
        assert rc == 2

    @staticmethod
    def _poles_at(monkeypatch, points):
        from abelianity import poisson

        def evaluate(ctx, params, x):
            if x in points:
                raise PoleError(f"pole at {x}")
            return 0j

        monkeypatch.setattr(poisson, "f_compact", evaluate)

    def test_skipped_point_named(self, capsys, monkeypatch):
        grid = abelianity.verification_grid(0.8, 1.25, 4)
        self._poles_at(monkeypatch, grid[1:2])
        rc = main(["poisson", "--surface", "1,2", "--lambda", "1/3",
                   "--grid", "0.8,1.25,4"])
        captured = capsys.readouterr()
        assert rc == 0
        assert len(captured.out.strip().split("\n")) == 1 + 3
        skipped = captured.err.strip().split("\n")
        assert len(skipped) == 1
        assert f"{grid[1].real:.17g},{grid[1].imag:.17g}" in skipped[0]

    @pytest.mark.parametrize("bad", [complex(float("nan"), 0.0),
                                     complex(0.0, float("-inf"))],
                             ids=["nan", "inf"])
    def test_non_finite_row_is_exit_2(self, capsys, monkeypatch, bad):
        # a non-finite value raises; it is never printed as a row
        from abelianity import poisson
        grid = abelianity.verification_grid(0.8, 1.25, 4)
        monkeypatch.setattr(poisson, "f_compact",
                            lambda ctx, params, x: bad if x == grid[2] else 0j)
        rc = main(["poisson", "--surface", "1,2", "--lambda", "1/3",
                   "--grid", "0.8,1.25,4"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("error: value ")
        assert "is not finite" in captured.err

    def test_all_pole_grid_is_exit_1(self, capsys, monkeypatch):
        grid = abelianity.verification_grid(0.8, 1.25, 3)
        self._poles_at(monkeypatch, grid)
        rc = main(["poisson", "--surface", "1,2", "--lambda", "1/3",
                   "--grid", "0.8,1.25,3"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == "x_re,x_im,f_re,f_im\n"
        for x in grid:
            assert f"skipped x = {x.real:.17g},{x.imag:.17g}" in captured.err
        assert "no grid point could be evaluated" in captured.err


class TestScan:
    @staticmethod
    def _expected_pairs(box):
        surfs = [Surface(m, n) for m in range(-box, box + 1)
                 for n in range(-box, box + 1) if (m, n) != (0, 0)]
        count = 0
        for i, s1 in enumerate(surfs):
            for s2 in surfs[i + 1:]:
                if intersect_surfaces(s1, s2) is not None:
                    count += 1
        return count

    @staticmethod
    def _reference_text(box, oracle_abelian):
        """`scan --box` output rebuilt one pair at a time from
        `intersect_surfaces`, `lambda_of_intersection` and `classify_lambda`,
        each row a dict written by `json.dumps`; oracle_abelian(s, lam) gives
        each side's oracle verdict."""
        surfs = [Surface(m, n) for m in range(-box, box + 1)
                 for n in range(-box, box + 1) if (m, n) != (0, 0)]
        rows = []
        for i, s1 in enumerate(surfs):
            for s2 in surfs[i + 1:]:
                line = intersect_surfaces(s1, s2)
                if line is None:
                    continue
                lams = [None if s.m == 0 or s.n == 0 else lambda_of_intersection(s, o)
                        for s, o in ((s1, s2), (s2, s1))]
                verdicts = [classify_lambda(s, lam) for s, lam in zip((s1, s2), lams)]
                agree = all(v.is_abelian == oracle_abelian(s, lam)
                            for s, lam, v in zip((s1, s2), lams, verdicts))
                rows.append({
                    "s1": [s1.m, s1.n], "s2": [s2.m, s2.n],
                    "e_p": str(line.e_p), "e_pstar": str(line.e_pstar),
                    "c_over_N": str(line.c_over_N),
                    "lambda_s1": lams[0] and str(lams[0].lam),
                    "lambda_s2": lams[1] and str(lams[1].lam),
                    "tag_s1": verdicts[0].tag.value, "tag_s2": verdicts[1].tag.value,
                    "oracle_agree": agree})
        return "\n".join(json.dumps(row) for row in rows) + "\n"

    def test_count_matches_brute_force(self, capsys):
        rc, out = run(capsys, "scan", "--box", "3")
        assert rc == 0
        lines = out.strip().split("\n")
        assert len(lines) == self._expected_pairs(3)

    def test_sorted_and_consistent(self, capsys):
        _, out = run(capsys, "scan", "--box", "2")
        docs = [json.loads(line) for line in out.strip().split("\n")]
        keys = [tuple(d["s1"]) + tuple(d["s2"]) for d in docs]
        assert keys == sorted(keys)
        assert all(d["oracle_agree"] for d in docs)

    def test_disagreement_is_exit_1_with_summary(self, capsys, monkeypatch):
        from abelianity import oracle
        monkeypatch.setattr(oracle, "_exchange_counts", lambda *reduced: ({0: 1}, 1))
        rc = main(["scan", "--box", "2"])
        captured = capsys.readouterr()
        docs = [json.loads(line) for line in captured.out.strip().split("\n")]
        bad = sum(not d["oracle_agree"] for d in docs)
        assert rc == 1
        assert bad > 0
        # every side's oracle now says "does not cancel"
        assert_same_text(captured.out, self._reference_text(2, lambda s, lam: False))
        assert captured.err.strip() == (f"scan: {len(docs)} intersecting pairs, "
                                        f"{bad} with oracle_agree false")

    @pytest.mark.parametrize("target,fake", [
        ("_classify_reduced", lambda s, reduced: (Verdict.NOT_ABELIAN, None)),
        ("_meet_det", lambda s1, s2: 2 * (s2.m * s1.n - s1.m * s2.n)
         if s1.m != s2.m and s1.n != s2.n else 0),
    ])
    def test_broken_core_is_a_verification_mismatch(self, capsys, monkeypatch,
                                                    target, fake):
        """A tag forced to NotAbelian on abelian sides fails the intersection
        conditions; a doubled determinant fails lambda + lambda* = 1."""
        monkeypatch.setattr(lattice, target, fake)
        rc = main(["scan", "--box", "2"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("verification mismatch: ")

    def test_rows_match_the_public_api(self, capsys):
        """Every `scan --box=5` row, byte for byte, against the reference
        whose oracle verdicts come from `exchange_exponents` and `is_abelian`."""
        rc, out = run(capsys, "scan", "--box=5")
        assert rc == 0
        assert_same_text(out, self._reference_text(
            5, lambda s, lam: is_abelian(exchange_exponents(s, lam))))

    def test_agreement_is_silent(self, capsys):
        rc = main(["scan", "--box", "2"])
        assert rc == 0
        assert capsys.readouterr().err == ""

    def test_box6_bytes_unchanged(self, capsys):
        """Box 6 against its digest here, and box 4 against the digest that
        perfbench/expected.json records for the benchmark."""
        recorded = json.loads((ROOT / "perfbench" / "expected.json").read_text())["scan"]
        for box, digest in (("4", recorded["4"]), ("6", SCAN_BOX6_SHA256)):
            rc, out = run(capsys, "scan", f"--box={box}")
            assert rc == 0
            assert hashlib.sha256(out.encode()).hexdigest() == digest, f"box {box}"

    def test_streams_one_write_per_outer_surface(self, capsys, monkeypatch):
        writes = []
        real_write = sys.stdout.write
        monkeypatch.setattr(sys.stdout, "write",
                            lambda text: writes.append(text) or real_write(text))
        assert main(["scan", "--box=2"]) == 0
        surfs = [Surface(m, n) for m in range(-2, 3) for n in range(-2, 3)
                 if (m, n) != (0, 0)]
        rows = sum(any(intersect_surfaces(s1, s2) for s2 in surfs[i + 1:])
                   for i, s1 in enumerate(surfs))
        assert len(writes) == rows
        assert all(w.endswith("\n") and not w.endswith("\n\n") for w in writes)

    def test_out_copies_the_stream(self, capsys, tmp_path):
        path = tmp_path / "sweep.jsonl"
        rc, out = run(capsys, "scan", "--box=2", "--out", str(path))
        assert rc == 0
        assert path.read_text() == out

    def test_empty_box_is_one_blank_line(self, capsys, tmp_path):
        path = tmp_path / "sweep.jsonl"
        rc, out = run(capsys, "scan", "--box=0", "--out", str(path))
        assert rc == 0
        assert out == "\n" and path.read_text() == "\n"

    def test_negative_box_is_exit_2(self, capsys):
        rc = main(["scan", "--box=-1"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "--box" in captured.err

    def test_closed_pipe_is_quiet(self):
        env = dict(os.environ,
                   PYTHONPATH=str(Path(abelianity.__file__).resolve().parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "abelianity", "scan", "--box=6"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        first = proc.stdout.readline()
        proc.stdout.close()  # like `| head -n1`: the reader goes away
        err = proc.stderr.read()
        proc.stderr.close()
        rc = proc.wait(timeout=120)
        assert json.loads(first)["s1"] == [-6, -6]
        assert b"Traceback" not in err and b"Error" not in err
        assert rc == 0


class TestOutFile:
    def test_bytes_identical(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        rc, out = run(capsys, "intersect", "--s1", "3,6", "--s2", "2,5",
                      "--out", str(path))
        assert rc == 0
        assert path.read_text() == out

    def test_enumerate_lines_bytes_identical(self, capsys, tmp_path):
        path = tmp_path / "fam.json"
        rc, out = run(capsys, "enumerate-lines", "--surface=-9,-3", "--N=2",
                      "--k-min=-6", "--k-max=6", "--out", str(path))
        assert rc == 0
        assert path.read_bytes() == out.encode()

    @pytest.mark.parametrize("argv", [
        ["classify", "--surface=2,5", "--lambda=1/3"],
        ["scan", "--box=1"],
        ["enumerate-lines", "--surface=1,2519"],
    ], ids=" ".join)
    def test_unwritable_path_is_exit_2(self, capsys, tmp_path, argv):
        path = tmp_path / "missing" / "x.json"
        assert main(argv + [f"--out={path}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert str(path) in captured.err


class TestCanonicalJson:
    """Every JSON document (every line of `scan`) is in `json.dumps`'
    default form, so a writer that formats its text directly cannot drift
    from it unnoticed."""

    @pytest.mark.parametrize("argv", [
        ["intersect", "--s1=3,6", "--s2=2,5"],
        ["intersect", "--s1=1,2", "--s2=1,5"],
        ["classify", "--surface=2,2", "--lambda=1/2"],
        ["enumerate-lines", "--surface=-9,-3", "--N=2", "--k-min=-6", "--k-max=6"],
        ["enumerate-lines", "--surface=2,4"],
        ["enumerate-lines", "--surface=3,-2"],
        ["surfaces-through", "--s1=3,6", "--s2=2,5"],
        ["verify-y", "--surface=2,2", "--lambda=1/2"],
        ["verify-y", "--surface=5,4", "--lambda=1/3"],
        ["verify-super", "--m=3", "--lambda=2"],
        ["scan", "--box=2"],
        ["scan", "--box=6"],
    ], ids=" ".join)
    def test_round_trip(self, capsys, argv):
        rc, out = run(capsys, *argv)
        assert rc == 0
        assert out.endswith("\n")
        lines = out[:-1].split("\n")
        assert lines[0]
        for text in lines:
            assert_same_text(text, json.dumps(json.loads(text)))

    def test_tag_text_lookup_does_not_hash_the_verdict(self, capsys, monkeypatch):
        """`scan` and `enumerate-lines` find each tag's text without hashing
        the `Verdict`: `Enum.__hash__` runs in Python, once per member and
        twice per row."""
        def unhashable(self):
            raise TypeError("Verdict hashed")

        monkeypatch.setattr(Verdict, "__hash__", unhashable)
        for argv in (["scan", "--box=2"],
                     ["enumerate-lines", "--surface=2,4", "--k-min=-4", "--k-max=4"]):
            rc, out = run(capsys, *argv)
            assert rc == 0 and out.strip()


class TestExitCodes:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_bad_rational(self, capsys):
        rc, _ = run(capsys, "classify", "--surface", "1,2", "--lambda", "x/y")
        assert rc == 2

    def test_zero_denominator_is_exit_2(self, capsys):
        for argv in (["classify", "--surface", "1,2", "--lambda=1/0"],
                     ["verify-y", "--surface", "1,2", "--lambda=1/0"],
                     ["poisson", "--surface", "1,2", "--lambda=-3/0"]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "argument --lambda" in captured.err

    def test_empty_grid_is_exit_2(self, capsys):
        for count in ("0", "-3"):
            rc, out = run(capsys, "verify-y", "--surface", "1,2", "--lambda",
                          "1/3", f"--grid=0.8,1.25,{count}")
            assert rc == 2 and out == ""

    @pytest.mark.parametrize("error,code", [
        (lattice.NoIntersectionError, 2), (lattice.DegenerateParametrizationError, 2),
        (lattice.ConstructionFailedError, 2), (lattice.CrossCheckError, 1)])
    def test_lattice_error_exit_codes(self, capsys, monkeypatch, error, code):
        """The lattice's input errors are ValueErrors, so `main` makes each
        exit 2 as it does every input error; a CrossCheckError is a
        verification mismatch, exit 1, and stays outside ValueError."""
        assert issubclass(error, ValueError) == (code == 2)

        def fail(*args):
            raise error("raised by the test")

        monkeypatch.setattr(lattice, "classify_lambda", fail)
        assert main(["classify", "--surface=1,2", "--lambda=1/3"]) == code
        assert "raised by the test" in capsys.readouterr().err

    def test_surface_origin(self, capsys):
        rc, _ = run(capsys, "classify", "--surface", "0,0", "--lambda", "1/3")
        assert rc == 2

    @pytest.mark.parametrize("argv,reason", [
        (["classify", "--surface", "1,2", "--lambda=1/0"],
         "argument --lambda: zero denominator in '1/0'"),
        (["classify", "--surface=3", "--lambda", "1/3"],
         "argument --surface: surface must be 'm,n', got '3'"),
        (["verify-y", "--surface", "1,2", "--lambda", "1/3",
          "--grid=0.8,1.25,0"],
         "argument --grid: grid count must be at least 1, got 0"),
        (["verify-y", "--surface", "1,2", "--lambda", "1/3", "--grid=0.8,1.25"],
         "argument --grid: grid must be 'r1,r2,count', got '0.8,1.25'"),
        (["verify-y", "--surface", "1,2", "--lambda", "1/3", "--grid=a,b,c"],
         "argument --grid: could not convert string to float: 'a'"),
        (["verify-y", "--surface=1,2"],
         "error: --lambda is required unless m=0 or n=0"),
    ], ids=["frac", "surface", "grid", "grid-two-parts", "grid-not-numbers",
            "lambda-required"])
    def test_parser_reason_on_stderr(self, capsys, argv, reason):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert reason in err
        assert "invalid" not in err


class TestUsageErrors:
    POISSON = ["poisson", "--surface", "1,2", "--lambda", "1/3"]

    @pytest.mark.parametrize("grid,reason", [
        ("inf,1.25,2", "argument --grid: grid radii must be finite and nonzero, got inf"),
        ("nan,1.25,2", "argument --grid: grid radii must be finite and nonzero, got nan"),
        ("0.8,0,2", "argument --grid: grid radii must be finite and nonzero, got 0.0"),
    ], ids=["inf", "nan", "zero"])
    def test_non_finite_or_zero_radius(self, capsys, grid, reason):
        assert main(self.POISSON + [f"--grid={grid}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert reason in captured.err

    def test_overflowing_radius(self, capsys):
        # x^2 overflows a float, but 2 ln x does not: finite rows, no NaN
        assert_routes_agree(capsys, self.POISSON + ["--grid=1e200,1.25,2"])

    @pytest.mark.parametrize("kk", ["a,b", "1", "1,2,3"])
    def test_kk_needs_two_integers(self, capsys, kk):
        assert main(self.POISSON + [f"--kk={kk}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (f"argument --kk: multi-index must be two integers 'k,kp', "
                f"got '{kk}'") in captured.err

    @pytest.mark.parametrize("argv", [
        ["classify", "--surface", "1,2", "--lambda", "1/3"],
        ["intersect", "--s1", "3,6", "--s2", "2,5"],
        ["enumerate-lines", "--surface", "2,2"],
        ["verify-y", "--surface", "1,2", "--lambda", "1/3"],
        ["verify-super", "--m", "3", "--lambda", "2"],
        ["poisson", "--surface", "1,2", "--lambda", "1/3"],
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("N", ["-4", "1"])
    def test_rank_below_two(self, capsys, argv, N):
        assert main(argv + [f"--N={N}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --N: N must be >= 2, got {N}" in captured.err

    @pytest.mark.parametrize("argv", [
        ["surfaces-through", "--s1", "3,6", "--s2", "2,5"],
        ["scan", "--box=1"],
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("N", ["-4", "1", "9"])
    def test_rank_is_not_an_option(self, capsys, argv, N):
        # neither output depends on N, so --N is a usage error, not ignored
        assert main(argv + [f"--N={N}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: --N={N}" in captured.err

    def test_rank_not_an_integer(self, capsys):
        assert main(["classify", "--surface=1,2", "--lambda=1/3", "--N=x"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --N: invalid int value: 'x'" in captured.err

    def test_rank_two_accepted(self, capsys):
        rc, out = run(capsys, "classify", "--surface", "1,2", "--lambda", "1/3",
                      "--N=2")
        assert rc == 0 and json.loads(out)["N"] == 2
