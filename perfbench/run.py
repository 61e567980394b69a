"""Benchmark for gridperms: membership, sweep and codec workloads.

Run from the repository root:

    python3 perfbench/run.py --workload membership --seed 1 --seconds 20 --trace 0

Each workload is a closed loop: one client sends one request at a time, in
one process with no threads, and sends the next only when the previous one
has returned.  A request is the in-process form of one CLI call
(``gridperms member``, ``count``, ``encode``/``decode``); the CLI itself is a
one-call wrapper and timing it as a subprocess would mostly time
interpreter start-up.

    membership  find_gridding on members and planted non-members
    sweep       counting_sequence, cross-checked by enumerate_via_words
    codec       encode, text round trip, decode, re-encode and contains

This script generates the seed's inputs (inputs.py), times set-up in fresh
processes, starts the timed process (worker.py) and turns what it reports
into metrics.  Op times are reported in units of a fixed reference kernel
(``ref``: one brute-force membership test in oracle.py) timed between ops in
the same process, because a shared host can change speed by up to 2x within
a minute (seen on a 2-vCPU cloud VM, in wall and CPU time alike); the
wall-clock figures are printed above the result line.
Set-up is timed in fresh processes before and after the timed run, in
seconds.  Every answer is checked with the benchmark's own code
(oracle.py); a wrong or raising op counts as failed.  The last line printed
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics from a traced run with ``--trace 1``.  Spans and inputs are written
under ``.perfbench/`` in the repository root.
"""
from __future__ import annotations

import argparse
from bisect import bisect_left, bisect_right
import json
import math
import os
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
import inputs  # noqa: E402
import oracle  # noqa: E402
import spec  # noqa: E402

SETUP_PROBES = 8  # before the timed run, and as many again after it
WORKER_TIMEOUT_S = 150


def worker(*args, timeout: float) -> str:
    """Run worker.py to completion and return the last line it printed."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(SRC), *map(str, args)],
        cwd=ROOT, env=dict(os.environ, PYTHONHASHSEED="0"),
        capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    return proc.stdout.strip().splitlines()[-1]


def setup_probes(workload: str, warm: bool) -> list[float]:
    """Set-up times of fresh processes.  With ``warm``, one untimed process
    first writes the bytecode cache so that every timed one finds it."""
    if warm:
        worker(workload, timeout=60)
    return [float(worker(workload, timeout=60)) for _ in range(SETUP_PROBES)]


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    return ordered[n - 11], 100.0 * (n - 10) / n


def ops_per_s(ops: list) -> float:
    """Correct ops per second of time spent inside ops; the benchmark's own
    input preparation and answer checks between ops are not counted."""
    return sum(1 for op in ops if op[2]) / (sum(op[1] for op in ops) / 1e9)


def in_refs(ops: list, refs: list) -> tuple[list[float], list[float]]:
    """Each op's latency without the reference samples that paused it, in
    ns and as a multiple of the reference kernel's time around the op: the
    harmonic mean of the samples that ended from two sampling intervals
    before the op began to two after it ended.

    Samples are evenly spaced in time, so their harmonic mean is the
    kernel's time at the op's mean speed; a change in the host's speed moves
    the kernel with the ops, and a run's share of slow and fast spells
    barely moves these ratios.
    """
    ends = [end for end, _ in refs]
    paused = [0]
    for _, duration in refs:
        paused.append(paused[-1] + duration)
    margin = 2 * spec.REFERENCE_EVERY_S * 1e9
    net, latencies = [], []
    for _, ns, _, _, began, ended in ops:
        ns -= paused[bisect_right(ends, ended)] - paused[bisect_right(ends, began)]
        first = bisect_left(ends, began - margin)
        last = max(bisect_right(ends, ended + margin), first + 1)
        net.append(ns)
        latencies.append(ns / statistics.harmonic_mean(d for _, d in refs[first:last]))
    return net, latencies


def end_to_end(report: dict, setup: list[float]) -> tuple[dict, list[str]]:
    ops, refs = report["ops"], report["refs"]
    net, latencies = in_refs(ops, refs)
    correct = sum(1 for op in ops if op[2])
    tail_ref, percentile = tail(latencies)
    metrics = {
        "ops_per_kref": (1000 * correct / sum(latencies), "1/kref"),
        "op_p50_ref": (statistics.median(latencies), "ref"),
        "op_tail_ref": (tail_ref, "ref"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (report["peak_rss_kb"] / 1024, "MB"),
    }
    ms = [ns / 1e6 for ns in net]
    notes = [
        f"op_tail_ref is p{percentile:.2f} of {len(ops)} op latencies",
        f"reference kernel: {len(refs)} samples, quartiles "
        f"{' / '.join(f'{q / 1e6:.4f}' for q in statistics.quantiles([d for _, d in refs], n=4))} ms",
        f"wall clock: ops_per_s={1000 * correct / sum(ms):.6g} op_p50_ms={statistics.median(ms):.6g} "
        f"op_tail_ms={tail(ms)[0]:.6g}",
    ]
    return metrics, notes


def per_layer(spans: list, ops: list) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced passes' spans.

    A span's self time is its duration minus its children's; busy_s sums
    self time over a layer call's spans.
    """
    children = [0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            children[parent] += end - start
    by_name = defaultdict(list)
    for index, (name, start, end, _, op, note) in enumerate(spans):
        by_name[name].append((end - start - children[index], end - start, spans[op][5], note))

    metrics = {}

    def layer(name: str) -> list:
        calls = by_name[name]
        metrics[f"{name}.calls"] = (len(calls), "count")
        metrics[f"{name}.busy_s"] = (sum(s[0] for s in calls) / 1e9, "s")
        return calls

    def p50_ms(durations) -> float:
        return statistics.median(durations) / 1e6 if durations else 0.0

    def ratio(name: str, part: int, whole: int) -> None:
        metrics[name] = (part / whole if whole else 0.0, "ratio")

    find = layer("gridding.find_gridding")
    found = sum(1 for s in find if s[3] is True)
    metrics["gridding.find_gridding.member_p50_ms"] = (
        p50_ms([s[1] for s in find if s[2]["kind"] == "member"]), "ms")
    metrics["gridding.find_gridding.nonmember_p50_ms"] = (
        p50_ms([s[1] for s in find if s[2]["kind"] == "nonmember"]), "ms")
    metrics["gridding.find_gridding.found"] = (found, "count")
    ratio("gridding.find_gridding.found_ratio", found, len(find))

    layer("gridding.GriddedPermutation")
    layer("gridding.Gridding.parse")
    layer("codec.encode")
    layer("codec.decode")
    contains = layer("perms.contains")
    metrics["perms.contains.p50_ms"] = (p50_ms([s[1] for s in contains]), "ms")
    layer("perms.Permutation.parse")

    sweeps = layer("enumeration.enumerate_class")
    members = sum(s[3][1] for s in sweeps)
    candidates = sum(math.factorial(s[3][0]) for s in sweeps)
    metrics["enumeration.enumerate_class.members"] = (members, "count")
    metrics["enumeration.enumerate_class.candidates"] = (candidates, "count")
    ratio("enumeration.enumerate_class.members_per_candidate", members, candidates)

    images = layer("enumeration.enumerate_via_words")
    letters = {name: len(oracle.Matrix(text).letters) for name, text in spec.MATRICES.items()}
    distinct = sum(s[3][1] for s in images)
    words = sum(letters[s[2]["matrix"]] ** s[3][0] for s in images)
    metrics["enumeration.enumerate_via_words.distinct_perms"] = (distinct, "count")
    metrics["enumeration.enumerate_via_words.words"] = (words, "count")
    ratio("enumeration.enumerate_via_words.distinct_perms_per_word", distinct, words)

    layer("graphs.find_signs")
    layer("matrices.GridMatrix.parse")
    metrics["bench.op.self_s"] = (sum(s[0] for s in by_name["op"]) / 1e9, "s")

    rates = {traced: ops_per_s([op for op in ops if op[3] == traced]) for traced in (False, True)}
    metrics["trace.untraced_ops_per_s"] = (rates[False], "1/s")
    metrics["trace.traced_ops_per_s"] = (rates[True], "1/s")
    metrics["trace.overhead_ratio"] = (rates[True] / rates[False], "ratio")

    notes = [f"find_gridding found {found} of {len(find)}",
             f"enumerate_class kept {members} of {candidates} candidates",
             f"enumerate_via_words gave {distinct} distinct permutations from {words} words"]
    errors = [f"{name} raised {s[3]['error']}" for name, calls in by_name.items()
              for s in calls if isinstance(s[3], dict) and "error" in s[3]]
    return metrics, notes + errors[:5]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOAD_MATRICES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gridperms" / "__init__.py").is_file():
        print(f"error: no gridperms sources under {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    inputs_path = OUT / f"inputs-{tag}.jsonl"
    trace_path = OUT / f"spans-{tag}.json"
    try:
        inputs.write(args.workload, args.seed, inputs_path)
        setup = setup_probes(args.workload, warm=True) if not args.trace else []
        report = json.loads(worker(args.workload, inputs_path, args.seconds, args.trace,
                                   trace_path, timeout=WORKER_TIMEOUT_S))
        setup += setup_probes(args.workload, warm=False) if not args.trace else []
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        inputs_path.unlink(missing_ok=True)

    if args.trace:
        metrics, notes = per_layer(json.loads(trace_path.read_text()), report["ops"])
        notes.append(f"spans written to {trace_path.relative_to(ROOT)}")
    else:
        metrics, notes = end_to_end(report, setup)
    attempted = len(report["ops"])
    failed = sum(1 for op in report["ops"] if not op[2])
    print(f"workload={args.workload} seed={args.seed} passes={report['passes']} "
          f"ops={attempted} failed={failed} repeated_ops={report['repeats']}")
    for line in notes + report["failures"] + ([] if report["setup_ok"] else
                                              ["find_signs disagrees with the oracle"]):
        print(line)
    print(json.dumps({
        "correct": failed == 0 and report["setup_ok"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
