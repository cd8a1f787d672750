#!/usr/bin/env python3
"""Sweep benchmark for abelianity: one closed-loop client per workload.

Run from the repository root:

    python3 perfbench/run.py --workload scan --seed 1 --seconds 25 --trace 0

The client calls `abelianity.cli.main(argv)` in-process, one command after
another, with stdout replaced by a sink that counts bytes, stamps the first
byte and hashes the output.  Every command's output is checked.  Times
are scaled by the host factor of a reference loop timed between commands
(see HostClock).  With `--trace 1` wrappers around the package's public
functions record spans, and the per-layer metrics are derived from them.
The last line of stdout is one JSON object: {"correct", "attempted",
"failed", "metrics"}.  See README.md in this directory for the metrics and
workloads.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = "abelianity"
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from spans import SPANNED, Tracer  # noqa: E402

SETUP_REPS = 5
ROUTE_TOL = 1e-8        # Poisson route agreement of the acceptance suite
TAIL_BEYOND = 10        # samples the tail percentile must leave above it
REF_S = 2e-3            # nominal time of one reference pass (see HostClock)
REF_EVERY = 0.05        # seconds between reference passes, at least
REF_NEAR = 4            # passes around a moment that set its host factor

END_TO_END = {
    "setup_s": "s", "items_per_s": "1/s", "cmd_p50_ms": "ms",
    "cmd_tail_ms": "ms", "first_output_s": "s", "peak_rss_mb": "MB",
    "pass_frac": "ratio",
}
PER_LAYER = {
    **{f"{mod}.{fn}.calls": "count/round" for mod, fn in SPANNED},
    **{f"{mod}.{fn}.self_s": "s/round" for mod, fn in SPANNED},
    "elliptic.yfunc.errors": "count/round",
    "cli.output_bytes": "bytes/round",
    "lattice.families_found": "count/round",
    "oracle.exponent_terms": "count/round",
    "oracle.multiset_entries": "count/round",
    "elliptic.grid_points_used_ratio": "ratio",
    "poisson.route_max_rel_err": "ratio",
    "traced_items_per_s": "1/s",
}

AGREE = '"oracle_agree": true'
DISAGREE = '"oracle_agree": false'


class Sink(io.TextIOBase):
    """stdout replacement: counts bytes, stamps the first byte, hashes.

    With keep=False the text is not retained; newlines and `oracle_agree`
    flags are counted as the text passes, so the sink holds no more than
    the program itself does.
    """

    def __init__(self, keep: bool = True) -> None:
        super().__init__()
        self.keep = keep
        self.parts: list[str] = []
        self.nbytes = 0
        self.first: float | None = None
        self.sha = hashlib.sha256()
        self.lines = self.agree = self.disagree = 0
        self._tail = ""

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        if self.first is None and text:
            self.first = time.perf_counter()
        for i in range(0, len(text), 1 << 16):
            data = text[i:i + (1 << 16)].encode()
            self.nbytes += len(data)
            self.sha.update(data)
        if self.keep:
            self.parts.append(text)
        else:
            self.lines += text.count("\n")
            self.agree += self._count(AGREE, text)
            self.disagree += self._count(DISAGREE, text)
            width = len(DISAGREE) - 1
            self._tail = (self._tail + text)[-width:] if len(text) < width \
                else text[-width:]
        return len(text)

    def _count(self, token: str, text: str) -> int:
        # a token split across two writes lies wholly in the joint of the
        # previous write's last len-1 characters and this one's first
        width = len(token) - 1
        joint = self._tail[-width:] + text[:width]
        return text.count(token) + joint.count(token)

    def text(self) -> str:
        return "".join(self.parts)


class Round(NamedTuple):
    """One round's passed items and raw per-command times."""
    passed: int
    starts: list[float]
    latencies: list[float]
    firsts: list[float]


class Outcome:
    __slots__ = ("rc", "start", "latency", "first", "out", "error")

    def __init__(self, rc, start, latency, first, out, error=None):
        self.rc, self.start, self.latency, self.first = rc, start, latency, first
        self.out, self.error = out, error


def execute(cli, argv, keep: bool) -> Outcome:
    """Run one CLI command in-process with stdout and stderr captured."""
    out, err = Sink(keep), Sink()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except Exception as exc:  # a stray exception fails the item, not the run
        rc, error = None, f"{type(exc).__name__}: {exc}"
    else:
        error = err.text().strip() or None
    end = time.perf_counter()
    first = (out.first if out.first is not None else end) - start
    return Outcome(rc, start, end - start, first, out, error)


def _reference_work() -> None:
    """Fixed pure-Python work that never touches the package: integer
    gcds, dict updates and string formatting, then small tuples indexed by
    a dict and sorted."""
    acc: dict[int, int] = {}
    parts = []
    for i in range(1, 2500):
        g = math.gcd(i * 7919, 2520)
        acc[g] = acc.get(g, 0) + i
        parts.append(f"{i}/{g}")
    ",".join(parts)
    sorted(acc.values())
    rows = [(i, str(i), [i]) for i in range(2000)]
    index = {row[1]: row for row in rows}
    sorted(index, key=len)


def reference_pass() -> float:
    """Seconds the reference work takes: the shorter of two runs, so that
    an interrupt in one does not count."""
    took = []
    for _ in range(2):
        start = time.perf_counter()
        _reference_work()
        took.append(time.perf_counter() - start)
    return min(took)


def host_factor(samples: list[float]) -> float:
    """REF_S over the median of these reference passes."""
    return REF_S / statistics.median(samples)


def nearest(samples: list, at: int, count: int) -> list:
    """The `count` samples centred on index `at`, shifted to stay inside."""
    low = min(max(0, at - count // 2), len(samples) - count)
    return samples[low:low + count]


class HostClock:
    """Reference passes taken through a run, and the host factor they give
    each moment of it.

    A shared host runs the same work up to 1.7x slower in spells of tens of
    seconds, and the program slows down with the reference.  A time
    multiplied by the host factor of its moment is the time it would take
    on a host where one reference pass takes REF_S.  So the spell drops
    out, while a change to the program still shows in full.
    """

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            took = reference_pass()
            self.at.append(time.perf_counter())
            self.took.append(took)

    def tick(self) -> None:
        """Take a pass if REF_EVERY has gone by since the last one."""
        if not self.at or time.perf_counter() - self.at[-1] >= REF_EVERY:
            self.sample()

    def factor(self, start: float, took: float) -> float:
        """Host factor of the REF_NEAR passes nearest the middle of an
        interval that began at `start` and lasted `took` seconds."""
        at = bisect.bisect(self.at, start + took / 2)
        return host_factor(nearest(self.took, at, REF_NEAR))


# ---------------------------------------------------------------------------
# correctness checks
# ---------------------------------------------------------------------------

def _csv_rows(text: str) -> list[tuple[str, complex]]:
    lines = text.strip().split("\n")
    if lines[0] != "x_re,x_im,f_re,f_im":
        raise ValueError("unexpected CSV header")
    rows = []
    for line in lines[1:]:
        xr, xi, fr, fi = line.split(",")
        rows.append((f"{xr},{xi}", complex(float(fr), float(fi))))
    return rows


def _passes(check, *args) -> bool:
    """Run one check; output the check cannot parse fails the item."""
    try:
        return bool(check(*args))
    except (ValueError, KeyError, TypeError, IndexError):
        return False


class Checker:
    """Checks outcomes item by item and keeps the output-derived counters."""

    def __init__(self) -> None:
        self.route_max_rel_err = 0.0
        self.grid_points = 0
        self.grid_used = 0

    def check_round(self, items, outcomes) -> list[bool]:
        ok = [o.rc == 0 for o in outcomes]
        groups: dict[int, list[int]] = {}
        for idx, (item, outcome) in enumerate(zip(items, outcomes)):
            if item.group >= 0:
                groups.setdefault(item.group, []).append(idx)
            elif ok[idx]:
                ok[idx] = _passes(self._check_single, item, outcome)
        for members in groups.values():
            passed = all(ok[i] for i in members) and _passes(
                self._check_group, [items[i] for i in members],
                [outcomes[i] for i in members])
            for i in members:
                ok[i] = passed
        return ok

    def window_metrics(self) -> dict[str, float]:
        used = self.grid_used / self.grid_points if self.grid_points else 1.0
        return {"elliptic.grid_points_used_ratio": used,
                "poisson.route_max_rel_err": self.route_max_rel_err}

    def _check_single(self, item, outcome) -> bool:
        exp, out = item.expect, outcome.out
        if item.kind == "scan":
            return (out.lines == exp["lines"] == out.agree
                    and out.disagree == 0 and out.sha.hexdigest() == exp["sha256"])
        text = out.text()
        if item.kind == "enumerate":
            return (text.count('{"d": ') == exp["families"] == exp["recorded_families"]
                    and out.sha.hexdigest() == exp["sha256"])
        doc = json.loads(text)
        if item.kind == "through":
            return doc == gen.through_surfaces(*exp["through"])
        self.grid_points += gen.VERIFY_GRID[2]
        self.grid_used += doc["points_evaluated"]
        if item.kind == "verify-y":
            return (doc["numeric_consistent"] and doc["classification_consistent"]
                    and doc["verdict"]["tag"] == exp["tag"])
        return (doc["consistent"]
                and doc["verdict"]["super_abelian"] == exp["super_abelian"])

    def _check_group(self, items, outcomes) -> bool:
        first, second = (_csv_rows(o.out.text()) for o in outcomes)
        if not first or len(first) != len(second):
            return False
        if items[0].kind == "kk":
            # mirrored multi-index pair: f(k,k') on the swapped grid equals
            # -conj f(k',k) on the plain grid, point by point
            return all(abs(a + b.conjugate()) <= ROUTE_TOL * (1 + abs(b))
                       for (_, a), (_, b) in zip(first, second))
        if [x for x, _ in first] != [x for x, _ in second]:
            return False
        worst = max(abs(a - b) / (1 + abs(a)) for (_, a), (_, b) in zip(first, second))
        self.route_max_rel_err = max(self.route_max_rel_err, worst)
        return worst <= ROUTE_TOL


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def import_package():
    """Import abelianity from this checkout's src/, freshly each call."""
    for key in [k for k in sys.modules
                if k == PACKAGE or k.startswith(PACKAGE + ".")]:
        del sys.modules[key]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module(PACKAGE)
    importlib.import_module(PACKAGE + ".cli")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"{PACKAGE} imported from {pkg.__file__}, not {SRC}")
    return pkg


def tail(values: list[float], floor: int) -> tuple[float, str]:
    """Latency at the highest percentile that leaves TAIL_BEYOND samples
    above it when there are `floor` samples, with its label.  Fixing the
    percentile by the run's minimum sample count keeps it the same however
    many rounds a run makes.  With `floor` too small it is the maximum."""
    ordered = sorted(values)
    n = len(ordered)
    if floor <= TAIL_BEYOND:
        return ordered[-1], f"max of {n}"
    share = (floor - TAIL_BEYOND) / floor
    return ordered[math.ceil(share * n) - 1], f"p{100 * share:.1f} of {n}"


def git_commit() -> str:
    """HEAD commit read from .git without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_sha256() -> str:
    sha = hashlib.sha256()
    for path in sorted((SRC / PACKAGE).glob("*.py")):
        sha.update(path.name.encode() + b"\0" + path.read_bytes())
    return sha.hexdigest()


def run(workload: str, seed: int, seconds: float, trace: bool,
        spans_out: str | None = None) -> dict:
    setup, setup_raw = [], []
    clock = HostClock()
    for _ in range(SETUP_REPS):
        clock.sample(REF_NEAR // 2)
        start = time.perf_counter()
        pkg = import_package()
        plan = gen.make_rounds(workload, seed)
        setup_raw.append(time.perf_counter() - start)
        clock.sample(REF_NEAR // 2)
        setup.append(setup_raw[-1] * clock.factor(start, setup_raw[-1]))
    cli = sys.modules[PACKAGE + ".cli"]
    window = gen.MIN_ROUNDS[workload]
    per_round = len(plan[0])
    tracer = Tracer(window * per_round) if trace else None
    if tracer:
        tracer.install(pkg)
    keep = workload != "scan"
    checker = Checker()
    failures = []
    attempted = unexpected = rounds = 0
    counts = Counter()          # over the first `window` rounds only
    done: list[Round] = []
    clock = HostClock()
    clock.sample(REF_NEAR)
    begin = time.perf_counter()
    try:
        while rounds < window or time.perf_counter() - begin < seconds:
            items = plan[rounds % len(plan)]
            outcomes = []
            for idx, item in enumerate(items):
                if tracer:
                    tracer.item = rounds * per_round + idx
                clock.tick()
                outcomes.append(execute(cli, item.argv, keep))
            passed = 0
            for item, outcome, ok in zip(items, outcomes,
                                         checker.check_round(items, outcomes)):
                size = item.expect.get("lines", 1)
                attempted += size
                if rounds < window:
                    counts["cli.output_bytes"] += outcome.out.nbytes
                    counts.update(item.props)
                if ok:
                    passed += size
                    continue
                known = "near1" in item.props
                unexpected += not known
                if len(failures) < 20:
                    failures.append({"argv": list(item.argv), "rc": outcome.rc,
                                     "error": outcome.error, "near1": known})
            done.append(Round(passed, [o.start for o in outcomes],
                              [o.latency for o in outcomes],
                              [o.first for o in outcomes]))
            rounds += 1
            if rounds == window:
                counts.update(checker.window_metrics())
    finally:
        if tracer:
            tracer.uninstall()
    wall = time.perf_counter() - begin
    clock.sample(REF_NEAR)

    factors = [[clock.factor(start, took) for start, took in zip(d.starts, d.latencies)]
               for d in done]
    scaled = [[t * f for t, f in zip(d.latencies, fs)] for d, fs in zip(done, factors)]
    latencies = [x for round_ in scaled for x in round_]
    raw_latencies = [x for d in done for x in d.latencies]
    firsts = [t * f for d, fs in zip(done, factors) for t, f in zip(d.firsts, fs)]
    window_factor = statistics.median(f for fs in factors[:window] for f in fs)
    passed = sum(d.passed for d in done)
    failed = attempted - passed
    items_per_s = passed / sum(latencies)
    tail_ms, tail_label = tail(latencies, window * per_round)
    result = {
        "correct": unexpected == 0,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": {
            "setup_s": statistics.median(setup),
            "items_per_s": items_per_s,
            "cmd_p50_ms": 1000 * statistics.median(latencies),
            "cmd_tail_ms": 1000 * tail_ms,
            "first_output_s": statistics.median(firsts),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "pass_frac": passed / attempted,
        },
        "details": {
            "failed_frac": failed / attempted,
            "cmd_tail_percentile": tail_label,
            "commands": len(latencies),
            "wall_s": wall,
            "host_factor_median": statistics.median(f for fs in factors for f in fs),
            "raw_items_per_s": passed / sum(raw_latencies),
            "raw_cmd_p50_ms": 1000 * statistics.median(raw_latencies),
            "round_busy_s": [sum(round_) for round_ in scaled],
            "setup_runs_s": setup,
            "raw_setup_runs_s": setup_raw,
            "property_share": {p: counts[p] / (window * per_round)
                               for p in gen.PROPERTIES if counts[p]},
            "failures": failures,
        },
        "provenance": {
            "workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "rounds": rounds, "count_rounds": window,
            "commands_per_round": per_round,
            "items_per_round": sum(i.expect.get("lines", 1) for i in plan[0]),
            "git_commit": git_commit(), "source_sha256": source_sha256(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
        },
    }
    if tracer:
        result["per_layer"] = per_layer(tracer, counts, window, items_per_s,
                                        window_factor)
        if spans_out:
            tracer.dump(spans_out)
    return result


def per_layer(tracer: Tracer, counts: Counter, window: int,
              items_per_s: float, factor: float) -> dict:
    """Per-layer metrics over the first `window` rounds, per round; self
    times are scaled by the median host factor of those rounds."""
    summary = tracer.summary()
    layer = {}
    for mod, fn in SPANNED:
        rec = summary[f"{mod}.{fn}"]
        layer[f"{mod}.{fn}.calls"] = rec["calls"] / window
        layer[f"{mod}.{fn}.self_s"] = rec["self_s"] * factor / window
    layer["elliptic.yfunc.errors"] = summary["elliptic.yfunc"]["errors"] / window
    layer["cli.output_bytes"] = counts["cli.output_bytes"] / window
    for key in ("lattice.families_found", "oracle.exponent_terms",
                "oracle.multiset_entries"):
        layer[key] = tracer.counts[key] / window
    for key in ("elliptic.grid_points_used_ratio", "poisson.route_max_rel_err"):
        layer[key] = counts[key]
    layer["traced_items_per_s"] = items_per_s
    return layer


def report(result: dict, trace: bool) -> None:
    """Print a readable summary, then the one-line JSON result last."""
    prov = result["provenance"]
    print(f"workload {prov['workload']} seed {prov['seed']}: {prov['rounds']} rounds "
          f"of {prov['commands_per_round']} commands, trace {int(trace)}")
    names = PER_LAYER if trace else END_TO_END
    values = result["per_layer"] if trace else result["end_to_end"]
    for name, unit in names.items():
        print(f"  {name:42s} {values[name]:>14.6g} {unit}")
    details = result["details"]
    print(f"  {'failed_frac':42s} {details['failed_frac']:>14.6g} ratio "
          f"({result['failed']} of {result['attempted']} items)")
    print(f"  cmd_tail_ms is the {details['cmd_tail_percentile']} commands")
    print("details " + json.dumps(details))
    print("provenance " + json.dumps(prov))
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in names.items()}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(gen.ROUNDS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="with --trace 1, write the spans here")
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                     args.spans)
    except (ImportError, OSError) as exc:
        print(f"error: cannot run the benchmark here: {exc}", file=sys.stderr)
        return 2
    report(result, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
