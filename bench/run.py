#!/usr/bin/env python3
"""privcalc benchmark: one closed-loop client, one process per workload.

    python3 bench/run.py --workload rbac-audit --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --seed 1            # every workload, one table

Workloads (each item-2 mechanism of ROADMAP.md dominates one and is
bypassed by another):

  rbac-audit     compile once, query many. An imported RBAC org (40 roles
                 with a hierarchy, 30 users, 6 terminals, 90 sessions
                 ``user * terminal``), an atomic 12 x 150 = 1,800-element
                 arrangement, the trivial fact family. Ops: 70% compliant,
                 20% whole-session pulse, 10% session-vs-session
                 structural_eq. Dominated by normal_form over a big basis;
                 setup by the O(n^2) arrangement check.
  guarded-trace  conditioned policies under --merge-conditions union:
                 witness conditions, compliance guards three deep, a family
                 closed from 10 singleton generators (1,024 facts), a
                 160-element atomic basis. Ops: 60% trace along a
                 three-fact walk, 30% pulse, 10% structural_eq over the
                 whole family. Dominated by guard evaluation recomputing
                 normal forms; setup by close_family.
  policy-load    compile many, query once: each op is one in-process
                 ``pal`` command (check, eval, comply, pulse, trace --facts,
                 import-rbac) on policy files of 8-52 KB with a 72-element
                 function-level arrangement. Dominated by tokenize, parse,
                 load_program and dispatch; the bypass workload for any
                 compile-once cache or index. After the timed phase it runs
                 a hostile slice of untrusted inputs once.

Times are scaled to a reference CPU speed. On a shared host the CPU's
speed can drift by half over tens of seconds as other tenants load the
same cores; on a 2-core Xeon VM that moved raw medians by 25% between
identical runs. So before every op, and between set-ups, the benchmark
times a fixed pure-Python calibration loop that does not touch
privcalc, and scales each time by REFERENCE_CAL_S over the median
calibration time in a window around it (for set-ups, the whole set-up
phase). A change to privcalc moves the
scaled times fully; a slower or busier host moves them little. Raw
medians are printed beside the scaled ones.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` it reports per-layer metrics from a traced run of a fixed
number of ops, the tracing overhead against the same ops untraced, and
the scaling sweep. Every answer is checked against ``referee.py``;
referee time is outside every timing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
NAMES = ("rbac-audit", "guarded-trace", "policy-load")
SETUP_REPEATS = 7
WARMUP_OPS = 3
MIN_SAMPLES = 200  # p95 then has at least ten samples beyond it
TRACE_OPS = 60
REFERENCE_CAL_S = 0.00065  # the calibration loop takes this on an idle 2.1 GHz Xeon core
CAL_WINDOW = 8  # calibration samples used on each side of an op
E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "peak_rss_mb": "MB",
}


def import_library() -> None:
    """Import privcalc from this checkout's ``src`` and nowhere else."""
    init = SRC / "privcalc" / "__init__.py"
    if not init.is_file():
        sys.exit(f"bench: {init} not found; run from a privcalc checkout")
    sys.path.insert(0, str(SRC))
    import privcalc

    if Path(privcalc.__file__).resolve() != init.resolve():
        sys.exit(f"bench: imported privcalc from {privcalc.__file__}, not {init}")


def source_lines() -> int:
    """``wc -l src/privcalc/*.py`` total: informational, never gated."""
    return sum(p.read_bytes().count(b"\n") for p in sorted((SRC / "privcalc").glob("*.py")))


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


_CAL_SETS = [frozenset(range(i % 17, i % 17 + 6)) for i in range(60)]


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b


def calibration_sample() -> float:
    """Seconds one fixed loop takes: set algebra, small objects, dict
    and attribute access, as in the library's hot paths. The collector
    is off meanwhile, so the sample never pays for a collection of the
    library's heap; everything it allocates is freed before it ends."""
    gc.disable()
    t0 = time.perf_counter()
    acc = 0
    for i, s in enumerate(_CAL_SETS):
        for j, t in enumerate(_CAL_SETS[:25]):
            common = s & t
            if common and i < j:
                acc += len(common)
    table = {}
    for i in range(1500):
        pair = _Pair(i, i % 13)
        table[(pair.a % 97, pair.b)] = pair
    acc += sum(p.a for p in table.values() if p.b & 1)
    elapsed = time.perf_counter() - t0
    gc.enable()
    return elapsed


def speed_scale(samples: list[float]) -> float:
    """Factor taking a raw time to reference speed."""
    return REFERENCE_CAL_S / statistics.median(samples)


def timed_setup(workload, repeats: int):
    """Median scaled time of ``repeats`` fresh set-ups, and the last
    set-up's state. A set-up lasts longer than the speed seen by a few
    samples just around it holds, so calibration samples run before,
    between and after the set-ups, and all of them scale the median."""
    times, state = [], None
    cal = [calibration_sample() for _ in range(2 * CAL_WINDOW)]
    for _ in range(repeats):
        state = None  # let the previous state go before building the next
        gc.collect()
        t0 = time.perf_counter()
        state = workload.setup()
        times.append(time.perf_counter() - t0)
        cal += [calibration_sample() for _ in range(2 * CAL_WINDOW)]
    return statistics.median(times) * speed_scale(cal), state


def run_ops(workload, state, seconds: float | None, count: int | None):
    """Closed loop over the op stream, cycling it. Runs until ``seconds``
    have passed and at least MIN_SAMPLES ops completed, or for exactly
    ``count`` ops. Returns (scaled latencies, raw latencies, failed)."""
    ops = workload.ops
    prepared = [workload.prepare(state, op) for op in ops]
    for k in range(WARMUP_OPS):
        workload.run(state, ops[k], prepared[k])
    raw: list[float] = []
    cal: list[float] = [calibration_sample() for _ in range(CAL_WINDOW)]
    failed = 0
    perf = time.perf_counter
    deadline = perf() + seconds if seconds is not None else None
    i = 0
    while True:
        if count is not None and i >= count:
            break
        if deadline is not None and perf() >= deadline and i >= MIN_SAMPLES:
            break
        op, args = ops[i % len(ops)], prepared[i % len(ops)]
        i += 1
        cal.append(calibration_sample())
        t0 = perf()
        try:
            answer = workload.run(state, op, args)
        except Exception as exc:  # any escaped exception is a failed op
            raw.append(perf() - t0)
            failed += 1
            print(f"op {i} {op[:2]} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            continue
        raw.append(perf() - t0)
        if not workload.check(op, answer):
            failed += 1
            print(f"op {i} {op[:2]} disagrees with the referee", file=sys.stderr)
    cal += [calibration_sample() for _ in range(CAL_WINDOW)]
    # op k ran after cal[CAL_WINDOW + k]; scale it by the samples around it
    scaled = [t * speed_scale(cal[k + 1 : k + 2 * CAL_WINDOW + 1]) for k, t in enumerate(raw)]
    return scaled, raw, failed


def run_phase(workload, setups: int, seconds: float | None, count: int | None):
    """Set up ``setups`` times, then run the ops on the last state.
    Returns (set-up time, scaled latencies, raw latencies, failed)."""
    setup_s, state = timed_setup(workload, setups)
    return (setup_s, *run_ops(workload, state, seconds, count))


def summarize(setup_s: float, latencies: list[float], failed: int) -> dict[str, float]:
    busy = sum(latencies)
    return {
        "setup_s": setup_s,
        "ops_per_s": (len(latencies) - failed) / busy,
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p95_ms": percentile(latencies, 95) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def hostile_slice(workload) -> dict[str, tuple[float, str]]:
    """Run policy-load's untrusted inputs once, untraced and untimed."""
    if not hasattr(workload, "run_hostile"):
        return {"cli.hostile_failures": (0, "count")}
    outcomes = workload.run_hostile()
    crashed = [(label, o) for label, o in outcomes if o not in ("ok", "wrong")]
    wrong = [label for label, o in outcomes if o == "wrong"]
    failures = len(crashed) + len(wrong)
    print(
        f"hostile slice: {failures} of {len(outcomes)} inputs mishandled"
        f" (share {failures / len(outcomes):.4f}); {len(crashed)} crashed"
        f" ({', '.join(f'{label}: {o}' for label, o in crashed) or 'none'}),"
        f" {len(wrong)} gave a wrong outcome ({', '.join(wrong) or 'none'});"
        f" recursion limit {sys.getrecursionlimit()}"
    )
    return {"cli.hostile_failures": (failures, "count")}


def measure(workload, seconds: int) -> dict:
    setup_s, latencies, raw, failed = run_phase(workload, SETUP_REPEATS, seconds, None)
    metrics = summarize(setup_s, latencies, failed)
    hostile_slice(workload)
    attempted = len(latencies)
    print(f"workload {workload.name}: {attempted} ops in {sum(raw):.2f} s busy (raw)")
    for name, value in metrics.items():
        print(f"  {name:<16} {value:12.4f} {E2E_UNITS[name]}")
    print(f"  raw latency p50 {statistics.median(raw) * 1e3:.4f} ms,"
          f" p95 {percentile(raw, 95) * 1e3:.4f} ms (unscaled)")
    print(f"  {'error_rate':<16} {failed / attempted:12.4f} ({failed} of {attempted} failed)")
    print(f"  samples {attempted}; setup median of {SETUP_REPEATS}")
    print(f"source lines (wc -l src/privcalc/*.py): {source_lines()} (informational)")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()},
    }


def measure_traced(workload, seed: int) -> dict:
    import tracing

    per_layer = tracing.scaling_sweep(seed)
    per_layer.update(hostile_slice(workload))
    setup_plain, plain, _, failed_plain = run_phase(workload, 1, None, TRACE_OPS)
    tracer = tracing.Tracer()
    with tracer.installed():
        setup_traced, traced, _, failed = run_phase(workload, 1, None, TRACE_OPS)
    per_layer.update(tracer.metrics())
    per_layer.update({
        "tracing.overhead_setup_s": (setup_traced - setup_plain, "s"),
        "tracing.overhead_latency_p50_ms": (
            (statistics.median(traced) - statistics.median(plain)) * 1e3, "ms"),
        "tracing.overhead_share": (sum(traced) / sum(plain) - 1, "ratio"),
    })
    print(f"workload {workload.name}, traced: {TRACE_OPS} ops traced and untraced")
    for name, (value, unit) in per_layer.items():
        print(f"  {name:<40} {value:14.6g} {unit}")
    print(f"source lines (wc -l src/privcalc/*.py): {source_lines()} (informational)")
    failed += failed_plain
    return {
        "correct": failed == 0,
        "attempted": 2 * TRACE_OPS,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()},
    }


def run_all(args) -> int:
    """Each workload in its own process, then one table."""
    rows = {}
    for name in NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            return proc.returncode
        print(proc.stdout, end="")
        rows[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    if not args.trace:
        print(f"\n{'metric':<18}" + "".join(f"{n:>16}" for n in NAMES))
        for metric, unit in E2E_UNITS.items():
            cells = "".join(f"{rows[n]['metrics'][metric]['value']:16.4f}" for n in NAMES)
            print(f"{metric + ' (' + unit + ')':<18}{cells}")
        rates = "".join(f"{rows[n]['failed'] / rows[n]['attempted']:16.4f}" for n in NAMES)
        print(f"{'error_rate':<18}{rates}")
    print(json.dumps(rows))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_library()
    if args.workload == "all":
        return run_all(args)
    if args.trace and os.environ.get("PYTHONHASHSEED") != "0":
        # Set iteration order decides how far condition checks short-cut;
        # a fixed hash seed makes the traced counts repeat exactly.
        env = dict(os.environ, PYTHONHASHSEED="0")
        cmd = [sys.executable, __file__, *sys.argv[1:]]
        return subprocess.run(cmd, env=env, timeout=900).returncode

    import workloads

    with tempfile.TemporaryDirectory(prefix=".work-", dir=Path(__file__).parent) as tmp:
        workload = workloads.WORKLOADS[args.workload](args.seed, Path(tmp))
        if args.trace:
            result = measure_traced(workload, args.seed)
        else:
            result = measure(workload, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
