"""Benchmark of the tclass package, end to end and per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload verify_pruefer --seed 1 --seconds 10 --trace 0

Workloads (see `workloads.py`): verify_pruefer, verify_valuation,
classify_stream, oracle_audit.  One process drives the package through its
public functions as a closed loop with a single caller: each unit call
starts when the previous one and its correctness gate are done.

`--trace 0` times the workload with tracing off for `--seconds` of wall
time, in whole rounds, and prints the end-to-end metrics: throughput_per_s,
latency_p50_ms, latency_tail_ms, success_ratio (1 - failed_ratio),
setup_s and peak_rss_mb.  `--trace 1` runs the workload's fixed first
rounds twice, untraced and then traced (see `tracing.py`), and prints the
per-layer metrics, including the tracing overhead.  Either way the last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics, and a detailed record goes to
`.bench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import deque
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 11
END_TO_END = {"throughput_per_s": "1/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
              "success_ratio": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}
# Per-layer metrics of the traced run that do not come from the tracer.
TRACE_METRICS = {"trace.throughput_per_s": ("1/s", "higher"),
                 "trace.overhead_ratio": ("ratio", "higher")}

SETUP_CHILD = """\
import json, sys
sys.path.insert(0, "src")
import tclass.cli as cli
for spec in json.loads(sys.argv[1]):
    cli.load_model(spec)
"""


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(workload: str, seed: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
    }


def tail(samples: list, cap: float) -> tuple:
    """(percentile, value, samples beyond it): the highest percentile that
    leaves at least ten samples beyond it, capped at the workload's `cap`
    (see `workloads.Workload.tail_cap`)."""
    xs = sorted(samples)
    beyond = max(10, math.ceil(len(xs) * (100 - cap) / 100))
    if len(xs) <= beyond:
        raise RuntimeError(f"{len(xs)} unit calls leave no percentile with ten samples beyond it")
    return 100 * (len(xs) - beyond) / len(xs), xs[-beyond - 1], beyond


def _kernel() -> int:
    # Fixed pure-Python work in two halves of about equal time.  The first
    # has the package's instruction mix (Fraction arithmetic, tuple
    # comparison, small dicts) and slows more than the package in the
    # host's slow phases; the second (small-int gcd and bit operations)
    # slows less.  Timed together they slow as the package does: over about
    # 450 samples of calls from each workload on a shared 2-vCPU VM, the log
    # of a call's time followed the log of this kernel's time with a slope
    # of 0.9 to 1.0, where the first half alone gave 0.7.
    acc = Fraction(0)
    seen = {}
    for i in range(1, 120):
        f = Fraction(i % 13 - 6, i % 7 + 1)
        acc += f * f
        seen[(f, i % 5)] = (f, acc) < (acc, f)
    bits = acc.numerator
    for i in range(1, 3000):
        bits += math.gcd(i * 7919, 104729 + i) ^ (i << 3)
    return bits


class HostSpeed:
    """Scales measured times to a reference host speed.

    Shared hosts have slow phases, lasting from seconds to minutes, in which
    the same pure-Python work takes up to about 1.8 times as long.  A fixed
    kernel that shares nothing with the package is timed between unit calls
    (at most every 50 ms); a time measured next to it is multiplied by
    REFERENCE_S over the median of the last five kernel times.  The scaled
    time is what the call would take on a host where the kernel takes
    REFERENCE_S, its time on an idle 2-vCPU x86-64 VM with CPython 3.11."""

    REFERENCE_S = 0.0012
    INTERVAL_S = 0.05

    def __init__(self):
        self._recent = deque(maxlen=5)
        self._last = -math.inf
        self.factors: list = []

    def factor(self) -> float:
        if time.perf_counter() - self._last >= self.INTERVAL_S:
            runs = []
            for _ in range(3):
                t0 = time.perf_counter()
                _kernel()
                runs.append(time.perf_counter() - t0)
            self._recent.append(statistics.median(runs))
            self._last = time.perf_counter()
            self.factors.append(self.REFERENCE_S / statistics.median(self._recent))
        return self.factors[-1]

    def median(self) -> float:
        return statistics.median(self.factors)


def time_interpreter(args: list, repeats: int, speed: HostSpeed) -> list:
    """Wall times, in seconds at reference speed, of fresh interpreters run
    with `args`."""
    times = []
    for _ in range(repeats):
        factor = speed.factor()
        t0 = time.perf_counter()
        # No timeout: waiting with one polls in sleeps of up to 50 ms.
        subprocess.run([sys.executable, *args], cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append((time.perf_counter() - t0) * factor)
    return times


class Pass:
    """One pass over rounds of calls: per-call times at reference speed,
    units, failures and the digest of the reports of the first
    `digest_rounds` rounds."""

    def __init__(self):
        self.speed = HostSpeed()
        self.raw_busy = 0.0
        self.latencies = array("d")
        self.by_label: dict = {}
        self.busy = 0.0
        self.units = 0
        self.failed = 0
        self.problems: list = []
        self.rounds = 0
        self.reports = 0
        self._digest = hashlib.sha256()

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()

    @property
    def throughput(self) -> float:
        """Units completed per busy second."""
        return self.units / self.busy

    def summary(self) -> dict:
        return {"units": self.units, "calls": len(self.latencies), "rounds": self.rounds,
                "busy_s": self.busy, "raw_busy_s": self.raw_busy,
                "host_speed_factor": self.speed.median(), "failed": self.failed,
                "by_label": {k: dict(zip(("calls", "units", "busy_s"), v))
                             for k, v in self.by_label.items()}}

    def run(self, rounds, seconds: float, min_rounds: int, digest_rounds: int,
            gate: bool = True, tracer=None) -> "Pass":
        start = time.perf_counter()
        for calls in rounds:
            for call in calls:
                factor = self.speed.factor()
                t0 = time.perf_counter()
                try:
                    out = call.run() if tracer is None else tracer.unit(call.label, call.run)
                except Exception as e:  # a unit that raises counts as failed
                    dt = time.perf_counter() - t0
                    out, problems = None, [f"raised {type(e).__name__}: {e}"]
                else:
                    dt = time.perf_counter() - t0
                    problems = call.gate(out) if gate else []
                self.raw_busy += dt
                dt *= factor
                self.busy += dt
                self.units += call.units
                self.latencies.append(dt)
                stats = self.by_label.setdefault(call.label, [0, 0, 0.0])
                stats[0] += 1
                stats[1] += call.units
                stats[2] += dt
                if problems:
                    self.failed += call.units
                    self.problems.extend(f"{call.label}: {p}" for p in problems[:3])
                if self.rounds < digest_rounds:
                    text = json.dumps(out, sort_keys=True, indent=2) + "\n"
                    self._digest.update(text.encode())
                    self.reports += 1
            self.rounds += 1
            if self.rounds >= min_rounds and time.perf_counter() - start >= seconds:
                break
        return self


def write_record(name: str, record: dict) -> None:
    OUT.mkdir(exist_ok=True)
    (OUT / name).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tclass" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'tclass'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    from tclass import cli
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    prov = provenance(w.name, args.seed)
    models = [cli.load_model(s) for s in w.specs]

    def make(r):
        return w.make_round(models, random.Random(f"{w.name}:{args.seed}:{r}"))

    print(f"workload: {w.name}  seed: {args.seed}  trace: {args.trace}")
    print(f"provenance: {json.dumps(prov, sort_keys=True)}")

    if args.trace == 0:
        setup_args = ["-c", SETUP_CHILD, json.dumps(list(w.specs))]
        speed = HostSpeed()
        setup = time_interpreter(setup_args, SETUP_REPEATS // 2, speed)
        for call in make("warmup")[:1]:
            call.run()
        p = Pass().run((make(r) for r in itertools.count()), args.seconds,
                       max(w.min_rounds, w.digest_rounds), w.digest_rounds)
        # Half of the set-up runs before and half after the timed loop, so
        # their median spans the run rather than one moment of it.
        setup += time_interpreter(setup_args, SETUP_REPEATS - len(setup), speed)
        bare = statistics.median(time_interpreter(["-c", "pass"], 3, speed))
        ms = sorted(1000 * x for x in p.latencies)
        tail_p, tail_ms, beyond = tail(ms, w.tail_cap)
        values = {
            "throughput_per_s": p.throughput,
            "latency_p50_ms": statistics.median(ms),
            "latency_tail_ms": tail_ms,
            "success_ratio": 1 - p.failed / p.units,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {n: (values[n], unit) for n, unit in END_TO_END.items()}
        notes = {
            "latency_tail_ms": f"p{tail_p:.4g} of {len(ms)} unit calls, {beyond} beyond it",
            "setup_s": f"median of {SETUP_REPEATS} fresh interpreters; bare interpreter {bare:.4f} s",
        }
        extra = {"tail_percentile": tail_p, "tail_beyond": beyond, "setup_runs_s": setup,
                 "bare_interpreter_s": bare}
        passes = {"timed": p}
    else:
        rounds = [make(r) for r in range(w.digest_rounds)]
        plain = Pass().run(rounds, 0, len(rounds), len(rounds))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            for spec in w.specs:
                cli.load_model(spec)
            traced = Pass().run(rounds, 0, len(rounds), len(rounds), gate=False, tracer=tracer)
        finally:
            tracer.uninstall()
        # Layer times scale to reference speed like every other time.
        metrics = {n: (v * traced.speed.median() if u == "ms" else v, u)
                   for n, (v, u) in tracing.layer_metrics(tracer).items()}
        values = {"trace.throughput_per_s": traced.throughput,
                  "trace.overhead_ratio": traced.throughput / plain.throughput}
        metrics.update({n: (values[n], unit) for n, (unit, _) in TRACE_METRICS.items()})
        notes = {"semigroups.table.triples": "computed as m^3 per saturated closure table",
                 "trace.overhead_ratio": f"traced over untraced throughput "
                                         f"({plain.throughput:.4g} 1/s untraced)"}
        if traced.digest != plain.digest:
            traced.failed = traced.units
            traced.problems.append("traced reports differ from the untraced ones")
        extra = {"untraced_throughput_per_s": plain.throughput,
                 "edges": tracer.edge_table(),
                 "unit_spans": [{"label": l, "start_s": a - tracer.spans[0][1], "ms": 1000 * (b - a)}
                                for l, a, b in tracer.spans]}
        passes = {"untraced": plain, "traced": traced}

    first = next(iter(passes.values()))
    attempted = sum(v.units for v in passes.values())
    failed = sum(v.failed for v in passes.values())
    problems = [m for v in passes.values() for m in v.problems]
    print(f"report_sha256: {first.digest} ({first.reports} reports from the first "
          f"{w.digest_rounds} rounds, sorted-key --json form)")
    print(f"units: {attempted}  failed: {failed}  failed_ratio: {failed / attempted:.6g}")
    for msg in problems[:10]:
        print(f"  problem: {msg}")
    for k, v in passes.items():
        print(f"host speed ({k}): times scaled by a median factor of {v.speed.median():.4g} "
              f"to reference speed; {v.raw_busy:.4g} s measured busy")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name}: {value:.6g} {unit}{note}")

    result = {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}
    write_record(f"{w.name}-seed{args.seed}-trace{args.trace}.json", {
        "provenance": prov,
        "report_sha256": first.digest,
        "failed_ratio": failed / attempted,
        "metrics": result,
        "notes": notes,
        "problems": problems,
        "passes": {k: v.summary() for k, v in passes.items()},
        **extra,
    })
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
