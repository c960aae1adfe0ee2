"""rescert benchmark: one workload per run, or every workload with --all.

    python3 perfbench/run.py --workload certify-large --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --all [--smoke] [--trace 1]

A run imports rescert from src/ next to this directory, builds the
workload's inputs from --seed, then repeats passes over the workload's
ops for --seconds (always at least one pass).  Every op's output is
checked.  Times are reported at reference machine speed (speed.py).
Metric lines go to stdout, and the last line is one JSON object with the
keys correct, attempted, failed and metrics.  --trace 0 reports the
end-to-end metrics named in BENCHMARK.json; --trace 1 spends half the
time untraced and half with span recorders around the layers, and
reports the per-layer metrics, among them the measured (unscaled) times
of the untraced half.  Exit codes: 0 all checks passed, 1 a check
failed, 2 the package or an argument is missing or set-up failed (no
result is printed).
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools to one thread before numpy loads, identically on
# every commit: all load comes from this one thread, which the speed
# sampler (speed.py) also runs on.
_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = _THREADS

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
LAYERS = ("cli", "ntcore", "resonator", "moments", "bump", "dirichlet", "oracle")
SETUP_PROBES = 5

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

class MissingPackage(RuntimeError):
    pass


def load_package(fresh: bool) -> SimpleNamespace:
    """Import rescert from src/; with fresh=True drop every module first,
    so module-level caches start cold as in a new CLI process."""
    if not os.path.isfile(os.path.join(SRC, "rescert", "__init__.py")):
        raise MissingPackage(f"no rescert package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    if fresh:
        for name in [m for m in sys.modules if m == "rescert" or m.startswith("rescert.")]:
            del sys.modules[name]
    pkg = SimpleNamespace(**{name: importlib.import_module(f"rescert.{name}") for name in LAYERS})
    if not os.path.abspath(pkg.cli.__file__).startswith(SRC + os.sep):
        raise MissingPackage(f"rescert imported from {pkg.cli.__file__}, not {SRC}")
    return pkg


def load_references() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def load_benchmark() -> dict:
    with open(BENCHMARK) as fh:
        return json.load(fh)


def clock() -> float:
    # System-wide monotonic clock, comparable across processes.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# ---------------------------------------------------------------------------
# Set-up.


def setup_probe(args) -> None:
    """Fresh-interpreter set-up: import rescert, build the seeded inputs,
    then print the monotonic time at which the first op could start."""
    pkg = load_package(fresh=False)
    workloads.WORKLOADS[args.workload](pkg, args.seed, args.smoke)
    load_references()
    print(repr(clock()))


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Time SETUP_PROBES fresh interpreters from spawn to first-op
    readiness: (times at reference speed, measured times).  The speed
    probes run right before and after each interpreter, not during it, so
    they do not compete with it."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)] + (["--smoke"] if args.smoke else [])
    samples, raw_samples = [], []
    for _ in range(1 if args.smoke else SETUP_PROBES):
        probes = [speed.probe() for _ in range(5)]
        start = clock()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        raw = float(proc.stdout.strip().splitlines()[-1]) - start
        probes += [speed.probe() for _ in range(5)]
        samples.append(raw * speed.REFERENCE_S * len(probes) / math.fsum(probes))
        raw_samples.append(raw)
    return samples, raw_samples


# ---------------------------------------------------------------------------
# Timed passes.


class Phase:
    """Op timings (at reference speed, and as measured) and check outcomes
    of one phase."""

    def __init__(self):
        self.pass_times: dict[int, float] = {}
        self.raw_pass_times: dict[int, float] = {}
        self.op_times: list[float] = []
        self.raw_op_times: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.grid_points = 0.0
        self.grid_seconds = 0.0


def run_phase(wl, pkg, refs: dict, seconds: float, tracer=None, first_pass: int = 0) -> Phase:
    """Repeat passes over the workload's ops until `seconds` have passed."""
    phase = Phase()
    timed = []  # (pass, start, end, grid points)
    if tracer is not None and not wl.cold:
        tracer.install(pkg)
    with speed.SpeedSampler() as sampler:
        start = time.perf_counter()
        pass_idx = first_pass
        while pass_idx == first_pass or time.perf_counter() - start < seconds:
            for op in wl.ops():
                if wl.cold:
                    pkg = load_package(fresh=True)
                    if tracer is not None:
                        tracer.install(pkg)
                phase.attempted += 1
                root = tracer.begin_op(pass_idx) if tracer is not None else None
                t0 = time.perf_counter()
                try:
                    output = op.call(pkg)
                    error = None
                except (Exception, SystemExit) as exc:
                    output, error = None, "".join(traceback.format_exception_only(exc)).strip()
                t1 = time.perf_counter()
                if root is not None:
                    tracer.end_op(root)
                points = 0.0
                if error is None:
                    try:
                        values, error = op.check(output)
                        if error is None and op.ref_key is not None:
                            error = workloads.compare(values, refs.get(op.ref_key), op.exact)
                        if error is None and op.grid_points:
                            points = workloads.grid_point_count(output)
                    except (ValueError, KeyError, TypeError) as exc:
                        error = f"unreadable output: {exc!r}"
                if error is not None:
                    phase.failures.append(f"{op.label}: {error}")
                timed.append((pass_idx, t0, t1, points))
            pass_idx += 1

    for p, t0, t1, points in timed:
        scaled = sampler.scaled(t0, t1)
        phase.op_times.append(scaled)
        phase.raw_op_times.append(t1 - t0)
        phase.pass_times[p] = phase.pass_times.get(p, 0.0) + scaled
        phase.raw_pass_times[p] = phase.raw_pass_times.get(p, 0.0) + (t1 - t0)
        if points:
            phase.grid_points += points
            phase.grid_seconds += scaled
    return phase


def support_counts(pkg, certified) -> dict[str, float]:
    """Support sizes at X and at z = min(N, X), and the ordered coprime
    support pairs <= z, summed over the certified (resonator, N) pairs."""
    support = pkg.resonator.support_elements
    support = getattr(support, "__wrapped__", support)  # not the traced wrapper
    out = {"resonator.support_x": 0.0, "resonator.support_z": 0.0, "moments.coprime_pairs": 0.0}
    for res, n_max in certified:
        out["resonator.support_x"] += len(support(res, res.x))
        elems = support(res, min(float(n_max), res.x))
        out["resonator.support_z"] += len(elems)
        idx = res.prime_index()
        masks = [sum(1 << idx[p] for p in e.primes) for e in elems]
        out["moments.coprime_pairs"] += sum(1 for a in masks for b in masks if not a & b)
    return out


def op_metrics(pass_times: dict[int, float], op_times: list[float]) -> dict[str, float]:
    return {
        "wall_s": statistics.median(pass_times.values()),
        "op_p50_s": statistics.median(op_times),
        "op_p90_s": percentile(op_times, 0.9),
    }


def run_workload(args) -> tuple[dict, list[Phase], list[str]]:
    """(metrics as name -> value, timed phases, lines for the reader)."""
    pkg = load_package(fresh=False)
    probes, raw_probes = measure_setup(args)
    wl = workloads.WORKLOADS[args.workload](pkg, args.seed, args.smoke)
    refs = load_references()
    # Set-up is spawn-to-inputs (fresh-interpreter probes) plus, for warm
    # workloads, the untimed pass that fills the package's memos.  Its ops
    # are the same calls as a timed pass, so it does not count in attempted
    # (which is thus the sample count behind op_p50_s); a miss there is a
    # set-up failure.
    warm_s = raw_warm_s = 0.0
    if wl.warmup:
        warm = run_phase(wl, pkg, refs, 0.0)
        if warm.failures:
            raise RuntimeError(f"memo-filling pass failed: {warm.failures[0]}")
        warm_s, raw_warm_s = sum(warm.op_times), sum(warm.raw_op_times)
    setup_s = statistics.median(probes) + warm_s
    raw_setup_s = statistics.median(raw_probes) + raw_warm_s

    if not args.trace:
        phase = run_phase(wl, pkg, refs, args.seconds)
        metrics = {"setup_s": setup_s, **op_metrics(phase.pass_times, phase.op_times),
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        measured = {"setup_s": raw_setup_s, **op_metrics(phase.raw_pass_times, phase.raw_op_times)}
        lines = [f"# {len(phase.op_times)} timed ops in {len(phase.pass_times)} passes, "
                 f"{len(probes)} set-up probes; measured times (not in the result line, "
                 "which holds the end-to-end metrics only):"]
        lines += [f"measured.{k} {v!r} s" for k, v in measured.items()]
        return metrics, [phase], lines

    base = run_phase(wl, pkg, refs, args.seconds / 2)
    tracer = spans.Tracer()
    traced = run_phase(wl, pkg, refs, args.seconds / 2, tracer, first_pass=len(base.pass_times))
    # Span times are measured; scale them per pass to reference speed.
    scale = {p: traced.pass_times[p] / traced.raw_pass_times[p] for p in traced.pass_times}
    metrics = tracer.layer_metrics(scale)
    metrics.update(support_counts(pkg, tracer.certified))
    metrics["search_points_per_s"] = base.grid_points / base.grid_seconds if base.grid_seconds else 0.0
    untraced_wall = statistics.median(base.pass_times.values())
    traced_wall = statistics.median(traced.pass_times.values())
    metrics["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    metrics["measured.setup_s"] = raw_setup_s
    metrics.update({f"measured.{k}": v
                    for k, v in op_metrics(base.raw_pass_times, base.raw_op_times).items()})
    per_pass = {p: sum(v.values()) * scale[p] for p, v in tracer.self_times().items()}
    lines = [f"# untraced wall_s {untraced_wall:.6g} s, traced wall_s {traced_wall:.6g} s; "
             f"self times per traced pass sum to {statistics.median(per_pass.values()):.6g} s"]
    return metrics, [base, traced], lines


def print_result(metrics: dict, phases: list[Phase], lines: list[str], declared: list[dict]) -> bool:
    """Print failures to stderr, the declared metrics as lines, then the
    JSON result line; True when every check passed."""
    failures = [f for p in phases for f in p.failures]
    for line in failures[:10]:
        print(f"check failed: {line}", file=sys.stderr)
    for line in lines:
        print(line)
    result = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}
    for name, entry in result.items():
        print(f"{name} {entry['value']!r} {entry['unit']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(p.attempted for p in phases),
        "failed": len(failures),
        "metrics": result,
    }))
    return not failures


# ---------------------------------------------------------------------------
# Every workload in one command.


def run_all(args) -> int:
    seconds = args.seconds
    if seconds is None:
        seconds = load_benchmark()["run_seconds"]
    bad = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(seconds), "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit code {proc.returncode})")
            bad += 1
            continue
        status = "ok" if proc.returncode == 0 and result["correct"] else "FAILED"
        bad += status != "ok"
        print(f"{name}: {status}, {result['attempted']} ops, {result['failed']} failed")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:36s} {entry['value']:.6g} {entry['unit']}")
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="reduced sizes, one set-up probe")
    ap.add_argument("--all", action="store_true", help="run every workload, print a table")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        if args.all:
            return run_all(args)
        if args.workload is None:
            ap.error("--workload or --all is required")
        if args.setup_probe:
            setup_probe(args)
            return 0
        if args.seconds is None:
            ap.error("--seconds is required with --workload")
        declared = load_benchmark()["per_layer" if args.trace else "end_to_end"]
        result = run_workload(args)
    except (MissingPackage, OSError, RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if print_result(*result, declared) else 1


if __name__ == "__main__":
    sys.exit(main())
