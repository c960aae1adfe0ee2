"""Command-line interface.

Subcommands:

    certify    build the resonator for (N, T) and emit the certificate report
    search     direct grid search for the sup of |D_N| over a t-window
    resonator  print the resonator construction for an X (or an (N, T) pair)
    oracle     run the brute-force cross-checks (diag / bijection)
    sweep      certify over lists of N / seeds, one row per configuration

Exit codes: 0 success, 2 bad usage or configuration, 3 resource or
quadrature budget exhausted.  On exit 2 or 3 the last line of stderr is
one JSON object {"kind", "message", "layer"}, plus "needed" and "budget"
when the error carries them, below the human-readable line; "layer" is
the innermost rescert module in the error's traceback (rescert.cli for
usage errors).
Reports embed the package version, a hash of the fully-resolved
configuration, and a UTC timestamp; apart from the timestamp the output
is byte-deterministic for a fixed configuration.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import math
import sys
import traceback
import typing
from dataclasses import asdict, dataclass, replace
from datetime import datetime, timezone

from . import __version__
from .errors import QuadratureError, ResourceLimitError
from .dirichlet import DEFAULT_EVAL_BUDGET, grid_sup, resonance_guided_search
from .moments import (
    DEFAULT_TERM_BUDGET,
    MomentReport,
    diagonal_sum,
    ratio_and_bounds,
)
from .multfn import (
    UnimodularCMF,
    archimedean_cmf,
    constant_one,
    steinhaus_sample,
)
from .oracle import (
    ToyResonator,
    diagonal_sum_bruteforce,
    parametrization_bijection_check,
)
from .resonator import (
    MIN_X,
    Resonator,
    build_resonator,
    degenerate_resonator,
)


@dataclass
class RunConfig:
    n: int = 1
    c: float | None = None
    t: float | None = None
    delta: float = 0.5
    gamma: float = 0.5
    f: str = "one"
    seed: int = 0
    eps: float | None = None
    alpha: float | None = None
    exact: str = "auto"
    window_lo: float | None = None
    window_hi: float | None = None
    guided: bool = False
    x: float | None = None
    toy: str | None = None
    budget_terms: int = DEFAULT_TERM_BUDGET
    budget_points: int = DEFAULT_EVAL_BUDGET
    trace_stride: int = 0
    trace_out: str | None = None
    out: str | None = None
    format: str = "json"

    def validate(self) -> None:
        if self.n < 1:
            raise ValueError("N must be a positive integer")
        for name in ("c", "t", "x", "eps", "window_lo", "window_hi"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(float(value)):
                raise ValueError(f"--{name.replace('_', '-')} must be finite, got {value}")
        for name, least in (("budget_terms", 1), ("budget_points", 1), ("trace_stride", 0)):
            value = getattr(self, name)
            if value < least:
                flag = name.replace("_", "-")
                raise ValueError(f"--{flag} must be at least {least}, got {value}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        if self.alpha is not None and not 0.0 < self.alpha < 0.5:
            raise ValueError("alpha must lie in (0, 1/2)")
        if self.exact not in ("auto", "always", "never"):
            raise ValueError(f"unknown exact mode {self.exact!r}")
        if self.format not in ("json", "csv"):
            raise ValueError(f"unknown format {self.format!r}")

    def resolve_t(self) -> float:
        if (self.c is None) == (self.t is None):
            raise ValueError("exactly one of --c and --t must be given")
        if self.t is not None:
            t = float(self.t)
        else:
            try:
                t = float(self.n) ** self.c
            except OverflowError:
                raise ValueError(f"T = N^C overflows for N = {self.n}, C = {self.c}") from None
        if t < 1.0:
            raise ValueError("T must be at least 1")
        return t

    def resolve_x(self, t: float) -> float:
        if self.x is not None:
            return float(self.x)
        return t ** (1.0 - 2.0 * self.delta / 3.0)


def _parse_f(spec_str: str, seed: int) -> UnimodularCMF:
    if spec_str == "one":
        return constant_one()
    if spec_str == "steinhaus":
        return steinhaus_sample(seed)
    if spec_str.startswith("arch:"):
        return archimedean_cmf(float(spec_str.split(":", 1)[1]))
    raise ValueError(f"unknown coefficient function {spec_str!r}")


def _parse_toy(text: str) -> ToyResonator:
    values: dict[int, float] = {}
    for item in text.split(","):
        k, _, v = item.partition(":")
        n = int(k)
        if n in values:
            raise ValueError(f"--toy gives key {n} twice")
        values[n] = float(v)
    return ToyResonator(values=values)


def _resonator_for(x: float) -> Resonator:
    if x >= MIN_X:
        return build_resonator(x)
    return degenerate_resonator(x)


# Fields that route output rather than shape the computation; excluded from
# the report envelope so reruns of the same computation hash identically.
_ROUTING_FIELDS = ("out", "format", "trace_out")


def _config_dict(cfg: RunConfig) -> dict:
    d = asdict(cfg)
    for k in _ROUTING_FIELDS:
        d.pop(k, None)
    return d


def _envelope(command: str, cfg: RunConfig, report: dict) -> dict:
    blob = json.dumps(_config_dict(cfg), sort_keys=True).encode()
    return {
        "artifact": "rescert",
        "version": __version__,
        "command": command,
        "config": _config_dict(cfg),
        "config_hash": hashlib.sha256(blob).hexdigest()[:16],
        "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "report": report,
    }


def _emit(payload, cfg: RunConfig, csv_rows=None) -> None:
    if cfg.format == "csv":
        if csv_rows is None:
            raise ValueError("csv output is not available for this command")
        header, rows = csv_rows
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        for row in rows:
            writer.writerow(["" if v is None else v for v in row])
        text = buf.getvalue()
    else:
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommands.


def _certify_report(cfg: RunConfig) -> MomentReport:
    """The certificate report for one configuration (certify and sweep)."""
    t = cfg.resolve_t()
    x = cfg.resolve_x(t)
    return ratio_and_bounds(
        _resonator_for(x),
        _parse_f(cfg.f, cfg.seed),
        cfg.n,
        t,
        cfg.delta,
        cfg.gamma,
        alpha=cfg.alpha,
        budget=cfg.budget_terms,
        exact_mode=cfg.exact,
    )


def cmd_certify(cfg: RunConfig) -> int:
    report = _certify_report(cfg)
    payload = _envelope("certify", cfg, report.to_dict())
    _emit(payload, cfg, csv_rows=(report.csv_header(), [report.csv_row()]))
    return 0


def cmd_search(cfg: RunConfig) -> int:
    if cfg.guided and (cfg.trace_stride > 0 or cfg.trace_out is not None):
        raise ValueError(
            "--trace-stride and --trace-out trace the grid search; --guided writes no trace"
        )
    if cfg.trace_out is not None and cfg.trace_stride <= 0:
        raise ValueError(
            "--trace-out writes every --trace-stride-th grid point; give --trace-stride > 0"
        )
    t = cfg.resolve_t()
    f = _parse_f(cfg.f, cfg.seed)
    lo = cfg.window_lo if cfg.window_lo is not None else -t
    hi = cfg.window_hi if cfg.window_hi is not None else t
    trace_path = cfg.trace_out
    if cfg.trace_stride > 0 and trace_path is None:
        trace_path = "rescert_trace.csv"
    if cfg.guided:
        x = cfg.resolve_x(t)
        result = resonance_guided_search(
            _resonator_for(x),
            f,
            cfg.n,
            t,
            cfg.eps,
            window=(lo, hi),
            eval_budget=cfg.budget_points,
        )
    else:
        result = grid_sup(
            f,
            cfg.n,
            t,
            cfg.eps,
            window=(lo, hi),
            eval_budget=cfg.budget_points,
            trace_path=trace_path,
            trace_stride=cfg.trace_stride,
        )
    rd = result.as_dict()
    payload = _envelope("search", cfg, rd)
    _emit(payload, cfg, csv_rows=(list(rd), [list(rd.values())]))
    return 0


def cmd_resonator(cfg: RunConfig) -> int:
    if cfg.x is not None:
        x = float(cfg.x)
    else:
        x = cfg.resolve_x(cfg.resolve_t())
    res = _resonator_for(x)
    rep = res.summary()
    # is_degenerate keeps its csv column, just before alpha_default.
    alpha_default = rep.pop("alpha_default")
    r_head = [res.r_p[p] for p in res.primes[:16]]
    rep.update(
        is_degenerate=res.is_degenerate,
        alpha_default=alpha_default,
        primes_head=list(res.primes[:16]),
        r_head=r_head,
        t_head=[r / (1.0 + r * r) for r in r_head],
    )
    payload = _envelope("resonator", cfg, rep)
    _emit(payload, cfg, csv_rows=(list(rep), [list(rep.values())]))
    return 0


def cmd_oracle(cfg: RunConfig, op: str) -> int:
    if cfg.x is None:
        raise ValueError("oracle needs --x")
    x_int = math.floor(cfg.x)
    if op == "bijection":
        ok = parametrization_bijection_check(cfg.n, x_int)
        rep = {"op": "bijection", "n": cfg.n, "x": x_int, "match": bool(ok)}
    elif op == "diag":
        if cfg.toy is None:
            raise ValueError("oracle diag needs --toy (e.g. '1:1,2:1')")
        toy = _parse_toy(cfg.toy)
        held = [abs(v) for n, v in toy.values.items() if n <= x_int and v != 0.0]
        r_max = max(held, default=0.0)  # Python floats: r_max * r_max overflows to inf quietly
        size = r_max * r_max * len(held) ** 2  # N times this: moments._dense_diagonal's bound
        if size and cfg.n >= 2.0**1020 / size:  # an int N may be past the float range
            raise ValueError("toy weights can overflow the diagonal: N max r^2 |S|^2 >= 2^1020")
        brute = diagonal_sum_bruteforce(toy, cfg.n, float(x_int))
        param = diagonal_sum(toy, cfg.n, float(x_int), budget=cfg.budget_terms)
        rep = {
            "op": "diag",
            "n": cfg.n,
            "x": x_int,
            "bruteforce": brute,
            "parametrized": param,
            "match": math.isclose(brute, param, rel_tol=1e-12, abs_tol=1e-12),
        }
    else:
        raise ValueError(f"unknown oracle op {op!r}")
    payload = _envelope("oracle", cfg, rep)
    _emit(payload, cfg, csv_rows=(list(rep), [list(rep.values())]))
    return 0


def cmd_sweep(cfg: RunConfig, n_list: list[int], seed_list: list[int]) -> int:
    # Every row's configuration is validated as certify's is, before any row runs.
    configs = [replace(cfg, n=n, seed=seed) for n in n_list for seed in seed_list]
    for row_cfg in configs:
        row_cfg.validate()
    rows = []
    reports = []
    header = None
    for row_cfg in configs:
        report = _certify_report(row_cfg)
        n, seed = row_cfg.n, row_cfg.seed
        if header is None:
            header = ["n", "seed"] + report.csv_header()
        rows.append([n, seed] + report.csv_row())
        reports.append({"n": n, "seed": seed, "report": report.to_dict()})
    payload = _envelope("sweep", cfg, reports)
    _emit(payload, cfg, csv_rows=(header or [], rows))
    return 0


# ---------------------------------------------------------------------------
# Argument parsing.


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    """Add the flags every subcommand takes to its parser `p`."""
    p.add_argument("--config", help="JSON file with defaults for any flag")
    p.add_argument("--n", type=int)
    p.add_argument("--c", type=float)
    p.add_argument("--t", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--f", dest="f")
    p.add_argument("--seed", type=int)
    p.add_argument("--eps", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--exact", choices=("auto", "always", "never"))
    p.add_argument("--x", type=float)
    p.add_argument("--toy")
    p.add_argument("--window-lo", type=float)
    p.add_argument("--window-hi", type=float)
    p.add_argument("--guided", action="store_true", default=None)
    p.add_argument("--budget-terms", type=int)
    p.add_argument("--budget-points", type=int)
    p.add_argument("--trace-stride", type=int)
    p.add_argument("--trace-out")
    p.add_argument("--out")
    p.add_argument("--format", choices=("json", "csv"))


def _check_config_type(key: str, value, hint) -> None:
    """Raise ValueError unless a config-file value fits its RunConfig type:
    a bool is not an int, and an int is a float."""
    allowed = typing.get_args(hint) or (hint,)
    if value is None:
        ok = type(None) in allowed
    elif isinstance(value, bool):
        ok = bool in allowed
    else:
        ok = isinstance(value, allowed) or (isinstance(value, int) and float in allowed)
    if not ok:
        names = " or ".join("null" if t is type(None) else t.__name__ for t in allowed)
        raise ValueError(f"config key {key!r} must be {names}, got {value!r}")


def _merge_config(args: argparse.Namespace) -> RunConfig:
    base = RunConfig()
    merged = asdict(base)
    if getattr(args, "config", None):
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = set(file_cfg) - set(merged)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        hints = typing.get_type_hints(RunConfig)
        for key, value in file_cfg.items():
            _check_config_type(key, value, hints[key])
        merged.update(file_cfg)
    for key in merged:
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    return RunConfig(**merged)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise ValueError (exit 2 through main)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(f"{self.prog}: {message}")


# The subcommands, in the order the usage line lists them.
_COMMANDS = ("certify", "search", "resonator", "sweep", "oracle")


@functools.cache
def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI parser, built once per process and `command` (parsing leaves
    it unchanged).

    With `command`, one of _COMMANDS, the parser has that subcommand
    alone, which is all an argv starting with it needs; main takes it for
    such an argv, so a run builds one subparser, not five.  Its usage line
    still names every subcommand, so an unrecognized argument prints the
    same usage as the full parser.  Without, it has all five: --help,
    --version and unknown commands need them.
    """
    ap = _Parser(
        prog="rescert",
        description="resonance certificates for Dirichlet polynomial sups",
    )
    ap.add_argument("--version", action="version", version=f"rescert {__version__}")
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = ap.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in _COMMANDS if command is None else (command,):
        p = sub.add_parser(name)
        _add_common_flags(p)
        if name == "sweep":
            p.add_argument("--n-list", required=True)
            p.add_argument("--seed-list", default="0")
        elif name == "oracle":
            p.add_argument("op", choices=("diag", "bijection"))
    return ap


def _fail(exc: Exception, line: str, code: int) -> int:
    """Print `line`, then the structured error as stderr's last line; return the exit code.

    The error's layer is the module of the innermost frame of its traceback
    inside this package, so an error that a library call raises (a
    malformed config file's JSONDecodeError) names the layer that made it.
    """
    layer = __name__
    for frame, _ in traceback.walk_tb(exc.__traceback__):
        if frame.f_globals.get("__name__", "").startswith(f"{__package__}."):
            layer = frame.f_globals["__name__"]
    error = {"kind": type(exc).__name__, "message": str(exc), "layer": layer}
    for key in ("needed", "budget"):
        if getattr(exc, key, None) is not None:
            error[key] = getattr(exc, key)
    print(line, file=sys.stderr)
    print(json.dumps(error, sort_keys=True), file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        parser = build_parser(argv[0]) if argv and argv[0] in _COMMANDS else build_parser()
        args = parser.parse_args(argv)
        cfg = _merge_config(args)
        cfg.validate()
        if args.command == "certify":
            return cmd_certify(cfg)
        if args.command == "search":
            return cmd_search(cfg)
        if args.command == "resonator":
            return cmd_resonator(cfg)
        if args.command == "oracle":
            return cmd_oracle(cfg, args.op)
        if args.command == "sweep":
            n_list = [int(s) for s in args.n_list.split(",") if s]
            seed_list = [int(s) for s in args.seed_list.split(",") if s]
            return cmd_sweep(cfg, n_list, seed_list)
        raise ValueError(f"unknown command {args.command!r}")
    except (ValueError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        return _fail(exc, f"error: {exc}", 2)
    except (ResourceLimitError, QuadratureError) as exc:
        return _fail(exc, f"budget exhausted: {exc}", 3)


if __name__ == "__main__":
    sys.exit(main())
