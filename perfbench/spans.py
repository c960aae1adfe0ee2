"""Span recorder for the traced benchmark run.

The recorder wraps the public functions of the rescert layers from the
outside: every module of the package that binds a wrapped function gets
the wrapper, so names re-bound by ``from .x import y`` are covered too.
Each call records one span (metric, start, end, parent span, op id) in
memory; nothing is written until the run ends.  A layer's self time is
its span time minus the time covered by its direct child spans, so the
self times of one op add up to the op's root span.

Counters (transform calls, deep evaluations, sieve sizes, grid points,
refinement iterations) are recorded at the same boundaries.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import defaultdict

# (module, function, metric).  A metric of None picks the metric per call.
SPAN_FUNCTIONS = (
    ("cli", "main", "cli.self_s"),
    ("ntcore", "build_factor_table", "ntcore.sieve_s"),
    ("resonator", "build_resonator", "resonator.build_s"),
    ("resonator", "support_elements", "resonator.support_s"),
    ("resonator", "sum_r_squared", "moments.r2_sum_s"),
    ("moments", "ratio_and_bounds", "moments.report_self_s"),
    ("moments", "diagonal_sum", None),
    ("moments", "moment_main_term", "moments.pair_passes_s"),
    ("moments", "balanced_pair_bound_check", "moments.pair_passes_s"),
    ("moments", "alpha_shift_error_term", "moments.pair_passes_s"),
    ("moments", "m1_exact", "moments.exact_s"),
    ("moments", "m2_exact", "moments.exact_s"),
    ("moments", "m1_quadrature", "moments.quadrature_s"),
    ("moments", "m2_quadrature", "moments.quadrature_s"),
    ("bump", "decay_constant", "bump.decay_constant_s"),
    ("oracle", "diagonal_sum_bruteforce", "oracle.bruteforce_s"),
    ("oracle", "parametrization_bijection_check", "oracle.bijection_s"),
    ("dirichlet", "grid_sup", "dirichlet.grid_s"),
    ("dirichlet", "resonance_guided_search", "dirichlet.guided_s"),
)

# Root span of every op: the benchmark's own code around the calls.
OP_METRIC = "bench.op_s"

# Layer times: the self time of these spans.
SPAN_METRICS = tuple(sorted({metric for _, _, metric in SPAN_FUNCTIONS if metric}
                            | {"moments.diagonal_s", "moments.diagonal_dense_s", "bump.deep_s"}))
# Counters recorded at the same boundaries.
COUNT_METRICS = ("ntcore.sieve_limit", "resonator.window_primes", "bump.transform_calls",
                 "bump.deep_evals", "dirichlet.grid_points", "dirichlet.refine_iters")


class Tracer:
    """In-memory spans and counters for one traced benchmark phase."""

    def __init__(self):
        # Each span: [metric, start, end, parent index, op id].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id = -1
        self.pass_of_op: dict[int, int] = {}
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.grid_calls: list[tuple[int, int, float, float]] = []  # (pass, n, points, seconds)
        self.certified: list = []  # (resonator, n_max) certified in the first traced pass
        self.first_pass: int | None = None
        self.current_pass = 0

    # -- recording ---------------------------------------------------------

    def _open(self, metric: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([metric, time.perf_counter(), 0.0, parent, self.op_id])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> float:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self._stack.pop()
        return span[2] - span[1]

    def begin_op(self, pass_idx: int) -> int:
        if self.first_pass is None:
            self.first_pass = pass_idx
        self.op_id += 1
        self.current_pass = pass_idx
        self.pass_of_op[self.op_id] = pass_idx
        return self._open(OP_METRIC)

    def end_op(self, idx: int) -> float:
        return self._close(idx)

    def _count(self, key: str, amount: float = 1.0) -> None:
        self.counts[self.current_pass][key] += amount

    def _wrap(self, fn, metric, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = metric(args) if callable(metric) else metric
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = tracer._close(idx)
            if after is not None:
                after(args, result, elapsed)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self, pkg) -> None:
        """Wrap the layer functions of a freshly imported package."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "rescert" or name.startswith("rescert."))]
        resonator_cls = pkg.resonator.Resonator

        def diag_metric(args):
            if args and isinstance(args[0], resonator_cls):
                return "moments.diagonal_s"
            return "moments.diagonal_dense_s"

        hooks = {
            "build_factor_table": lambda a, r, dt: self._count("ntcore.sieve_limit", r.limit),
            "build_resonator": lambda a, r, dt: self._count("resonator.window_primes", len(r.primes)),
            "ratio_and_bounds": self._after_certify,
            "grid_sup": self._after_grid,
            "resonance_guided_search": lambda a, r, dt: self._count(
                "dirichlet.refine_iters", r.refinement_iterations),
        }
        for mod_name, fn_name, metric in SPAN_FUNCTIONS:
            home = getattr(pkg, mod_name, None)
            original = getattr(home, fn_name, None)
            if original is None:  # a later commit may drop or rename it
                continue
            wrapper = self._wrap(original, metric or diag_metric, hooks.get(fn_name))
            for mod in modules:
                if getattr(mod, fn_name, None) is original:
                    setattr(mod, fn_name, wrapper)

        bump_cls = pkg.bump.Bump
        deep = getattr(bump_cls, "_transform_mp", None)
        if deep is not None:
            bump_cls._transform_mp = self._wrap(
                deep, "bump.deep_s", lambda a, r, dt: self._count("bump.deep_evals"))
        transform = bump_cls.transform
        tracer = self

        @functools.wraps(transform)
        def counted_transform(b, xi, *args, **kwargs):
            if xi >= 0.0:  # negative arguments delegate to the positive one
                tracer._count("bump.transform_calls")
            return transform(b, xi, *args, **kwargs)

        bump_cls.transform = counted_transform

    def _after_certify(self, args, result, elapsed) -> None:
        if self.current_pass == self.first_pass:
            self.certified.append((args[0], args[2]))

    def _after_grid(self, args, result, elapsed) -> None:
        lo, hi = result.window
        points = (hi - lo) / result.grid_step if result.grid_step > 0 else 1.0
        n_max = args[1] if len(args) > 1 else 0
        self._count("dirichlet.grid_points", points)
        self._count("dirichlet.refine_iters", result.refinement_iterations)
        self.grid_calls.append((self.current_pass, n_max, points, elapsed))

    # -- aggregation -------------------------------------------------------

    def self_times(self) -> dict[int, dict[str, float]]:
        """pass -> metric -> summed self time of that metric's spans."""
        child = [0.0] * len(self.spans)
        for metric, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, (metric, start, end, parent, op) in enumerate(self.spans):
            out[self.pass_of_op[op]][metric] += (end - start) - child[i]
        return out

    def layer_metrics(self, scale: dict[int, float]) -> dict[str, float]:
        """Per-layer times as medians over the traced passes, each pass's
        span times multiplied by scale[pass]; counts from the first traced
        pass."""
        per_pass = self.self_times()
        out = {name: statistics.median(per_pass[p].get(name, 0.0) * scale[p] for p in scale)
               for name in SPAN_METRICS}
        out.update({name: float(self.counts[self.first_pass].get(name, 0.0)) for name in COUNT_METRICS})
        for n in (500, 5000):
            pts = sum(c[2] for c in self.grid_calls if c[1] == n)
            secs = sum(c[3] * scale[c[0]] for c in self.grid_calls if c[1] == n)
            out[f"dirichlet.grid_points_per_s-n{n}"] = pts / secs if secs > 0 else 0.0
        return out
