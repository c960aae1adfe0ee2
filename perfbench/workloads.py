"""The benchmark's workloads: seeded inputs, ops, and output checks.

An op is one user-level call: a certify, a search, or one cross-check.
Each workload builds its inputs from the seed once (that is set-up) and
returns the same list of ops for every pass.  A workload is either cold
(the package is imported afresh before every op, as a CLI user has it)
or warm (one process; with warmup set, a first untimed pass fills the
package's memos and its time counts as set-up).  Seeds are reduced modulo
POOL, the number of input sets whose outputs are recorded in
reference.json; the seed changes coefficient functions, search windows,
toy resonators and the decay exponent, never the amount of work.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

POOL = 16
REL_TOL = 1e-12  # summation-order allowance for certified values
MOMENT_TOL = 1e-6  # exact against quadrature moments (acceptance criterion 3)
CERTIFY_FIELDS = ("ratio", "diag_sum", "lower_bound")


@dataclass
class Op:
    label: str
    call: Callable[[Any], Any]  # package namespace -> raw output
    check: Callable[[Any], tuple[dict, str | None]]  # output -> (values, error)
    ref_key: str | None = None  # values must match reference.json[ref_key]
    exact: bool = False  # compare to the reference bit for bit
    grid_points: bool = False  # a certified grid scan (counts in search_points_per_s)


def run_cli(pkg, argv: list[str]) -> tuple[int, str]:
    """rescert.cli.main(argv) with its stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = pkg.cli.main(argv)
    return rc, buf.getvalue()


def _report(output) -> dict:
    rc, text = output
    if rc != 0:
        raise ValueError(f"exit code {rc}")
    return json.loads(text)["report"]


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def check_certify(require_moments: bool):
    def check(output):
        report = _report(output)
        values = {k: report[k] for k in CERTIFY_FIELDS}
        if require_moments:
            for exact, quad in (("m1_exact", "m1_quad"), ("m2_exact", "m2_quad")):
                if report[exact] is None or report[quad] is None:
                    return values, f"{exact}/{quad} not filled"
                if _rel_err(report[quad], report[exact]) > MOMENT_TOL:
                    return values, f"{exact}={report[exact]!r} vs {quad}={report[quad]!r}"
        return values, None

    return check


def check_search(output):
    report = _report(output)
    return {"t_star": report["t_star"], "value": report["value"]}, None


def grid_point_count(output) -> float:
    """Certified grid points of a search: its window over its grid step."""
    report = _report(output)
    lo, hi = report["window"]
    return (hi - lo) / report["grid_step"]


def compare(values: dict, ref: dict | None, exact: bool) -> str | None:
    """None when `values` agree with the recorded reference."""
    if ref is None:
        return "no recorded reference"
    for key, want in ref.items():
        got = values.get(key)
        if got is None:
            return f"{key} missing"
        if exact:
            if got != want:
                return f"{key}={got!r}, reference {want!r}"
        elif abs(got - want) > REL_TOL * abs(want):
            return f"{key}={got!r}, reference {want!r} (rel {_rel_err(got, want):.2e})"
    return None


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([sum(workload.encode()), seed % POOL])


# ---------------------------------------------------------------------------


class CertifyLarge:
    """`rescert certify --n 2000000 --c 3`, cold package caches per op."""

    name = "certify-large"
    cold = True
    warmup = False

    def __init__(self, pkg, seed: int, smoke: bool):
        n = 20_000 if smoke else 2_000_000
        argv = ["certify", "--n", str(n), "--c", "3", "--f", "steinhaus", "--seed", str(seed % POOL)]
        self._ops = [Op(
            label=f"certify n={n}",
            call=lambda p: run_cli(p, argv),
            check=check_certify(False),
            ref_key=f"certify n={n} c=3",
        )]

    def ops(self) -> list[Op]:
        return self._ops


class SearchGrid:
    """Certified grid scans at N = 500 and 5000, and a guided search."""

    name = "search-grid"
    cold = False
    warmup = False
    T = 500.0**4

    def __init__(self, pkg, seed: int, smoke: bool):
        rng = _rng(self.name, seed)
        idx = seed % POOL
        self._ops = []
        for n, points in ((500, 20_000 if smoke else 1_000_000), (5000, 5_000 if smoke else 100_000)):
            # Default eps = 1e-3 sqrt(N) gives grid step 2e-3 / log N.
            length = points * 2e-3 / math.log(n)
            lo = self.T / 2 + float(rng.random()) * (self.T / 2 - length)
            argv = ["search", "--n", str(n), "--t", repr(self.T), "--f", "steinhaus",
                    "--seed", str(idx), "--window-lo", repr(lo), "--window-hi", repr(lo + length)]
            self._ops.append(self._op(f"grid n={n} points={points}", argv, idx, grid=True))
        t_guided = "1e3" if smoke else "1e4"
        argv = ["search", "--guided", "--n", "500", "--t", t_guided, "--x", "4.85e8",
                "--f", "steinhaus", "--seed", str(idx)]
        self._ops.append(self._op(f"guided n=500 t={t_guided}", argv, idx, grid=False))

    @staticmethod
    def _op(label: str, argv: list[str], idx: int, grid: bool) -> Op:
        return Op(
            label=label,
            call=lambda p: run_cli(p, argv),
            check=check_search,
            ref_key=f"search {label} pool={idx}",
            exact=True,
            grid_points=grid,
        )

    def ops(self) -> list[Op]:
        return self._ops


class CrosscheckSmall:
    """Tiny certifies with exact and quadrature moments, C = 3 certifies,
    dense diagonal against brute force, and the bijection check, all in
    one warm process."""

    name = "crosscheck-small"
    cold = False
    warmup = True  # one untimed pass fills the transform memos (counted in setup_s)
    TINY = [(n, t, lx) for n in (3, 4, 12) for t in (1e3, 1e4) for lx in (20.0, 20.2)]
    C3 = (1000, 10_000, 100_000, 300_000)
    DIAG_PAIRS = ((30, 30), (30, 24), (24, 30), (27, 27))
    BIJECTION_PAIRS = ((30, 30), (30, 24), (24, 30), (27, 27), (30, 20), (20, 30))
    # 150 of the 172 ops in a pass are diagonal checks, so the median op is
    # one of them and the 90th percentile falls among the bijection and
    # small C = 3 checks; both ranks sit inside a group of ops of similar
    # cost, not at a step between groups.
    TOYS = 150

    def __init__(self, pkg, seed: int, smoke: bool):
        rng = _rng(self.name, seed)
        tiny = self.TINY[::4] if smoke else self.TINY
        c3 = self.C3[:2] if smoke else self.C3
        toys = 4 if smoke else self.TOYS
        bijections = self.BIJECTION_PAIRS[:2] if smoke else self.BIJECTION_PAIRS
        self._ops = []
        for n, t, lx in tiny:
            kind = int(rng.integers(3))
            f = (["--f", "one"], ["--f", "steinhaus", "--seed", str(int(rng.integers(1 << 30)))],
                 ["--f", "arch:1"])[kind]
            argv = ["certify", "--n", str(n), "--t", repr(t), "--x", repr(math.exp(lx))] + f
            self._ops.append(Op(
                label=f"certify n={n} t={t:g} x=e^{lx} f={f[1]}",
                call=self._cli(argv),
                check=check_certify(True),
                ref_key=f"certify n={n} t={t:g} x=e^{lx}",
            ))
        for n in c3:
            argv = ["certify", "--n", str(n), "--c", "3", "--f", "steinhaus",
                    "--seed", str(int(rng.integers(1 << 30)))]
            self._ops.append(Op(
                label=f"certify n={n}", call=self._cli(argv), check=check_certify(False),
                ref_key=f"certify n={n} c=3",
            ))
        # max_primes=10 takes every prime <= 30, so the support (and the
        # work) is the same for every seed; only the weights vary.
        for i in range(toys):
            toy = pkg.oracle.random_toy_resonator(rng, 30, max_primes=10)
            self._ops.append(Op(label=f"diagonal toy {i}", call=self._diag(toy),
                                check=self._check_diag))
        for n, x in bijections:
            self._ops.append(Op(label=f"bijection n={n} x={x}", call=self._bijection(n, x),
                                check=self._check_bijection))

    @staticmethod
    def _cli(argv):
        return lambda p: run_cli(p, argv)

    def _diag(self, toy):
        pairs = self.DIAG_PAIRS

        def call(p):
            table = p.ntcore.build_factor_table(64)
            return [
                (p.moments.diagonal_sum(toy, n, float(x), table),
                 p.oracle.diagonal_sum_bruteforce(toy, n, float(x), table))
                for n, x in pairs
            ]

        return call

    @staticmethod
    def _check_diag(output):
        worst = max(abs(got - want) / max(1.0, abs(want)) for got, want in output)
        return {}, (None if worst <= REL_TOL else f"diagonal off brute force by {worst:.2e}")

    @staticmethod
    def _bijection(n, x):
        return lambda p: p.oracle.parametrization_bijection_check(n, x)

    @staticmethod
    def _check_bijection(output):
        return {}, (None if output is True else "bijection check returned False")

    def ops(self) -> list[Op]:
        return self._ops


class TransformDeep:
    """decay_constant on a fresh Bump over xi = 10 * 2^k; xi = 2560 takes
    the 50-digit path."""

    name = "transform-deep"
    cold = False
    warmup = False

    def __init__(self, pkg, seed: int, smoke: bool):
        grid = tuple(10.0 * 2**k for k in range(8 if smoke else 9))
        nu = 2 + seed % POOL % 3

        def call(p):
            b = p.bump.Bump()
            # The decay constant is set by the float points of the grid, so
            # the 50-digit value at the last point is checked on its own
            # (a memo hit, no extra work).
            return p.bump.decay_constant(b, nu, grid), b.transform(grid[-1], deep=True)

        self._ops = [Op(
            label=f"decay nu={nu}",
            call=call,
            check=self._check,
            ref_key=f"decay nu={nu} xi=10..{grid[-1]:g} with transform",
        )]

    @staticmethod
    def _check(output):
        constant, value = output
        return {"decay_constant": constant, "transform_re": value.real, "transform_im": value.imag}, None

    def ops(self) -> list[Op]:
        return self._ops


WORKLOADS = {w.name: w for w in (CertifyLarge, SearchGrid, CrosscheckSmall, TransformDeep)}
