from __future__ import annotations

import csv
import json
import math
import os
import re

import pytest

from rescert import cli
from rescert.cli import RunConfig, build_parser, main
from rescert.resonator import window_bounds


def run(tmp_path, *args, name="out.json"):
    out = os.path.join(tmp_path, name)
    code = main([*args, "--out", out])
    assert code == 0
    with open(out) as fh:
        return json.load(fh)


def test_certify_n1_trivial(tmp_path):
    payload = run(tmp_path, "certify", "--n", "1", "--t", "4")
    assert payload["artifact"] == "rescert"
    assert payload["command"] == "certify"
    report = payload["report"]
    assert report["ratio"] == pytest.approx(1.0, rel=1e-14)
    assert report["lower_bound"] == pytest.approx(1.0, rel=1e-14)


def test_certify_stdout(capsys):
    assert main(["certify", "--n", "1", "--t", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["report"]["lower_bound"] == pytest.approx(1.0)


def test_certify_growth_benchmark(tmp_path):
    # log T = 100 with delta = 1/2; the comparison growth rate evaluates
    # to about 26.98 regardless of the (tiny, empty) resonator.
    payload = run(
        tmp_path, "certify", "--n", "100", "--t", str(math.exp(100.0)), "--x", "500"
    )
    assert payload["report"]["growth_bound_t"] == pytest.approx(26.98, rel=1e-3)


def test_certify_deterministic_modulo_timestamp(tmp_path):
    args = ("certify", "--n", "60", "--t", "1e6", "--f", "steinhaus", "--seed", "5")
    a = run(tmp_path, *args, name="a.json")
    b = run(tmp_path, *args, name="b.json")
    a.pop("generated_at")
    b.pop("generated_at")
    assert a == b


def test_certify_sieves_nothing_up_to_n(tmp_path, sieve_limits):
    # At T = 1e4, exact="auto" could run the exact moments, but N * |support|
    # is far too large for them, so N = 1e7 is never sieved (and the prime
    # window of X = T^(2/3) is empty); the report is the one exact="never" gives.
    argv = ["certify", "--n", "10000000", "--t", "1e4"]
    auto = run(tmp_path, *argv, name="auto.json")
    assert sieve_limits == []
    assert auto["report"]["m2_exact"] is None
    never = run(tmp_path, *argv, "--exact", "never", name="never.json")
    assert never["report"] == auto["report"]


def test_guided_search_names_the_support_budget(capsys, sieve_limits):
    # The prime window of X = 1e30 ends at 3171; its support below X leaves
    # the int64 range, and the error says so, from the resonator layer.
    # The support fails before D_N's terms are built, so N is never sieved.
    argv = ["search", "--guided", "--n", "25", "--t", "20", "--x", "1e30", "--eps", "0.2"]
    assert main(argv) == 3
    error = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert error["layer"] == "rescert.resonator"
    assert error["needed"] == 1000000000000000019884624838656
    assert error["budget"] == 9223372036854775807
    assert "int64" in error["message"]
    _, hi = window_bounds(1e30)
    assert sieve_limits == [("rescert.resonator", math.ceil(hi))]


SEARCH_500 = ["search", "--n", "500", "--t", "1e4", "--window-lo", "10", "--window-hi", "11"]


@pytest.mark.parametrize("f", ["one", "arch:1"])
def test_closed_form_search_sieves_nothing(tmp_path, sieve_limits, f):
    # f = one and n^{i*alpha} have closed forms: D_N's terms need no sieve.
    run(tmp_path, *SEARCH_500, "--f", f)
    assert sieve_limits == []


def test_steinhaus_search_sieves_n_once(tmp_path, sieve_limits):
    run(tmp_path, *SEARCH_500, "--f", "steinhaus")
    assert sieve_limits == [("rescert.multfn", 500)]


# The sieve's 32-bit cap holds N for every f, sieved or not, before any work.
N_CAP_ERROR = (
    '{"budget": 4294967295, "kind": "ResourceLimitError", "layer": "rescert.ntcore", '
    '"message": "sieve limit 4294967296 exceeds 32-bit entry cap 4294967295", '
    '"needed": 4294967296}'
)


@pytest.mark.parametrize(
    "extra", [["--f", "one"], ["--f", "arch:1"], ["--f", "steinhaus"], ["--guided"]]
)
def test_search_refuses_n_past_the_sieve_cap(capsys, extra):
    argv = ["search", "--n", "4294967296", "--t", "1e12", "--window-lo", "1e6",
            "--window-hi", "1e6", *extra]
    assert main(argv) == 3
    assert capsys.readouterr().err.splitlines()[-1] == N_CAP_ERROR


def test_config_hash_ignores_output_routing(tmp_path):
    a = run(tmp_path, "certify", "--n", "1", "--t", "4", name="first.json")
    b = run(tmp_path, "certify", "--n", "1", "--t", "4", name="second.json")
    assert a["config_hash"] == b["config_hash"]
    assert "out" not in a["config"]
    assert len(a["config_hash"]) == 16


def test_search_constant_one(tmp_path):
    payload = run(tmp_path, "search", "--n", "4", "--t", "10", "--eps", "0.05")
    report = payload["report"]
    assert report["t_star"] == 0.0
    assert report["value"] == pytest.approx(2.0, rel=1e-12)
    assert report["certified_slack"] <= 0.05 + 1e-15


def test_search_window_flags(tmp_path):
    payload = run(
        tmp_path,
        "search", "--n", "1", "--t", "10",
        "--window-lo", "2", "--window-hi", "7",
    )
    assert payload["report"]["t_star"] == 2.0
    assert payload["report"]["value"] == 1.0


def test_search_guided(tmp_path):
    payload = run(
        tmp_path,
        "search", "--guided", "--n", "25", "--t", "20",
        "--x", str(math.exp(20.0)), "--eps", "0.2",
    )
    report = payload["report"]
    assert abs(report["t_star"]) <= 1e-6
    assert report["value"] == pytest.approx(5.0, rel=1e-9)
    assert report["certified_slack"] is None


def test_search_n1_writes_the_trace_header(tmp_path):
    # N = 1 has no grid, so its trace is the header alone, as an empty grid's is; the report
    # is the one the search gives without a trace.
    path = os.path.join(tmp_path, "t.csv")
    for args in (["--n", "1", "--t", "10"],
                 ["--n", "30", "--t", "1e4", "--window-lo", "5", "--window-hi", "5"]):
        traced = run(tmp_path, "search", *args, "--trace-stride", "2", "--trace-out", path)
        assert traced["report"] == run(tmp_path, "search", *args, name="plain.json")["report"]
        with open(path) as fh:
            assert fh.read() == "t,abs_dn\n"
        os.remove(path)


@pytest.mark.parametrize(
    "trace_args, file_cfg",
    [
        (["--trace-stride", "5"], {}),
        (["--trace-out", "trace.csv"], {}),
        (["--trace-stride", "5", "--trace-out", "trace.csv"], {}),
        ([], {"trace_stride": 5}),
        ([], {"trace_out": "trace.csv"}),
        ([], {"guided": True, "trace_stride": 5}),
    ],
)
def test_search_guided_rejects_trace(tmp_path, monkeypatch, capsys, trace_args, file_cfg):
    # The guided search writes no trace, so asking it for one is a usage error.
    monkeypatch.chdir(tmp_path)
    cfg_path = os.path.join(tmp_path, "cfg.json")
    with open(cfg_path, "w") as fh:
        json.dump(file_cfg, fh)
    guided = [] if file_cfg.get("guided") else ["--guided"]
    argv = ["search", *guided, "--n", "20", "--t", "100", "--config", cfg_path, *trace_args]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--guided writes no trace" in captured.err
    assert os.listdir(tmp_path) == ["cfg.json"]


@pytest.mark.parametrize(
    "trace_args, file_cfg",
    [
        (["--trace-out", "trace.csv"], {}),
        (["--trace-out", "trace.csv", "--trace-stride", "0"], {}),
        ([], {"trace_out": "trace.csv"}),
        ([], {"trace_out": "trace.csv", "trace_stride": 0}),
    ],
)
def test_search_trace_out_needs_stride(tmp_path, monkeypatch, capsys, trace_args, file_cfg):
    # With stride 0 the grid search writes no trace, so a trace path is a usage error.
    monkeypatch.chdir(tmp_path)
    cfg_path = os.path.join(tmp_path, "cfg.json")
    with open(cfg_path, "w") as fh:
        json.dump(file_cfg, fh)
    argv = ["search", "--n", "20", "--t", "100", "--config", cfg_path, *trace_args]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "give --trace-stride > 0" in captured.err
    assert os.listdir(tmp_path) == ["cfg.json"]


def test_guided_trace_config_does_not_block_certify(tmp_path):
    # Only the search traces, so a config shared with it still certifies.
    cfg_path = os.path.join(tmp_path, "cfg.json")
    with open(cfg_path, "w") as fh:
        json.dump({"guided": True, "trace_stride": 5, "trace_out": "trace.csv"}, fh)
    payload = run(tmp_path, "certify", "--n", "1", "--t", "4", "--config", cfg_path)
    assert payload["command"] == "certify"
    assert main(["certify", "--guided", "--trace-stride", "5", "--n", "1", "--t", "4"]) == 0


def test_search_csv_format(tmp_path):
    out = os.path.join(tmp_path, "search.csv")
    code = main([
        "search", "--n", "4", "--t", "10", "--eps", "0.05",
        "--format", "csv", "--out", out,
    ])
    assert code == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "t_star"
    assert float(rows[1][0]) == 0.0


def test_sweep_ratio_is_seed_free(tmp_path):
    out = os.path.join(tmp_path, "sweep.csv")
    code = main([
        "sweep", "--n-list", "50,60", "--seed-list", "1,2,3",
        "--c", "3", "--f", "steinhaus", "--format", "csv", "--out", out,
    ])
    assert code == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6
    for n in ("50", "60"):
        ratios = {row["ratio"] for row in rows if row["n"] == n}
        assert len(ratios) == 1


def test_sweep_json_rows(tmp_path):
    payload = run(
        tmp_path, "sweep", "--n-list", "50", "--seed-list", "0,1",
        "--c", "3", "--f", "steinhaus",
    )
    rows = payload["report"]
    assert [r["seed"] for r in rows] == [0, 1]
    assert rows[0]["report"]["ratio"] == rows[1]["report"]["ratio"]


def test_oracle_diag(tmp_path):
    payload = run(
        tmp_path, "oracle", "diag", "--n", "2", "--x", "2", "--toy", "1:1,2:1"
    )
    report = payload["report"]
    assert report["bruteforce"] == pytest.approx(6.0)
    assert report["parametrized"] == pytest.approx(6.0)
    assert report["match"] is True


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_oracle_diag_overflow_is_no_match(tmp_path):
    # Both sums overflow to inf, and inf == inf is no evidence that they agree.
    payload = run(tmp_path, "oracle", "diag", "--n", "2", "--x", "2", "--toy", "1:1,2:1e200")
    report = payload["report"]
    assert report["bruteforce"] == report["parametrized"] == math.inf
    assert report["match"] is False


def test_oracle_bijection(tmp_path):
    payload = run(tmp_path, "oracle", "bijection", "--n", "2", "--x", "2")
    assert payload["report"]["match"] is True


@pytest.mark.parametrize("x", ["-5", "0.5"])
def test_oracle_bijection_rejects_x_below_one(capsys, x):
    assert main(["oracle", "bijection", "--n", "3", "--x", x]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err.splitlines()[-1])
    assert error == {"kind": "ValueError", "message": "N and X must be >= 1",
                     "layer": "rescert.oracle"}


@pytest.mark.parametrize(
    "toy, layer, message",
    [
        ("1:1,2:nan", "rescert.oracle", "toy resonator value at 2 must be finite, got nan"),
        ("1:1,2:inf,3:-inf", "rescert.oracle", "toy resonator value at 2 must be finite, got inf"),
        ("1:1,2:1,2:5", "rescert.cli", "--toy gives key 2 twice"),
    ],
)
def test_oracle_diag_rejects_bad_toy_weights(capsys, toy, layer, message):
    assert main(["oracle", "diag", "--n", "3", "--x", "3", "--toy", toy]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err.splitlines()[-1])
    assert error == {"kind": "ValueError", "message": message, "layer": layer}


def test_oracle_diag_builds_no_factor_table(tmp_path, sieve_limits):
    # Neither the brute force nor the parametrized sum of a toy reads a factor table.
    payload = run(tmp_path, "oracle", "diag", "--n", "2", "--x", "2", "--toy", "1:1,2:1")
    assert payload["report"]["match"] is True
    assert sieve_limits == []


def test_resonator_summary(tmp_path):
    payload = run(tmp_path, "resonator", "--x", str(math.exp(20.0)))
    report = payload["report"]
    assert report["prime_count"] == 1
    assert report["primes_head"] == [61]
    assert report["lam"] == pytest.approx(7.740455120409899, rel=1e-12)
    assert not report["is_degenerate"]


def test_resonator_summary_sieves_only_the_prime_window(tmp_path, sieve_limits):
    # The summary evaluates no f(n): the resonator sieves its prime window
    # of X, up to its upper end, and nothing sieves the integers up to N = 1e8.
    report = run(tmp_path, "resonator", "--n", "100000000", "--c", "3")["report"]
    _, hi = window_bounds(report["x"])
    assert report["window_hi"] == hi
    assert sieve_limits == [("rescert.resonator", math.ceil(hi))]


def test_config_file_merge_and_override(tmp_path):
    cfg_path = os.path.join(tmp_path, "cfg.json")
    with open(cfg_path, "w") as fh:
        json.dump({"n": 4, "t": 10.0, "eps": 0.05}, fh)
    payload = run(tmp_path, "search", "--config", cfg_path)
    assert payload["report"]["value"] == pytest.approx(2.0, rel=1e-12)
    # A flag beats the file value for the same key.
    payload = run(tmp_path, "search", "--config", cfg_path, "--n", "9", name="b.json")
    assert payload["config"]["n"] == 9
    assert payload["report"]["value"] == pytest.approx(3.0, rel=1e-12)


def test_usage_errors_exit_2(tmp_path, capsys):
    assert main(["certify", "--n", "4", "--c", "3", "--t", "100"]) == 2
    assert main(["certify", "--n", "4"]) == 2
    assert main(["certify", "--n", "4", "--t", "100", "--delta", "1.5"]) == 2
    assert main(["oracle", "diag", "--n", "2"]) == 2  # missing --x
    assert main(["oracle", "diag", "--n", "2", "--x", "2"]) == 2  # missing --toy
    cfg_path = os.path.join(tmp_path, "bad.json")
    with open(cfg_path, "w") as fh:
        json.dump({"n": 4, "t": 10.0, "bogus_key": 1}, fh)
    assert main(["search", "--config", cfg_path]) == 2
    with open(cfg_path, "w") as fh:
        fh.write("{not json")
    assert main(["search", "--config", cfg_path]) == 2
    # json raised it, but the layer named is the one that read the file.
    error = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert (error["kind"], error["layer"]) == ("JSONDecodeError", "rescert.cli")


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "--n", "4", "--t", "100"],
        ["search", "--n", "4", "--t", "100"],
        ["resonator", "--x", "4.85e8"],
        ["oracle", "bijection", "--n", "5", "--x", "5"],
        ["sweep", "--n-list", "50", "--c", "3"],
    ],
)
def test_config_exact_mode_is_validated(tmp_path, capsys, argv):
    # A config file's "exact" takes the --exact choices only, as "format" takes --format's:
    # anything else is a usage error of the CLI for every subcommand, before any work.
    cfg_path = os.path.join(tmp_path, "cfg.json")
    with open(cfg_path, "w") as fh:
        json.dump({"exact": "bogus"}, fh)
    assert main([*argv, "--config", cfg_path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err.splitlines()[-1])
    assert (error["kind"], error["layer"]) == ("ValueError", "rescert.cli")
    assert "bogus" in error["message"]


def test_nu_is_gone(tmp_path, capsys):
    # The off-diagonal bound has a fixed decay exponent, 2; the flag and the
    # config key that chose a fitted one are usage errors now.
    assert main(["certify", "--n", "1000", "--c", "3", "--nu", "3"]) == 2
    cfg_path = os.path.join(tmp_path, "cfg.json")
    with open(cfg_path, "w") as fh:
        json.dump({"n": 1000, "c": 3.0, "nu": 3}, fh)
    assert main(["certify", "--config", cfg_path]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "--n", "10", "--t", "100", "--x", "nan"],
        ["certify", "--n", "10", "--t", "nan"],
        ["certify", "--n", "10", "--c", "nan"],
        ["certify", "--n", "10", "--t", "inf"],
        ["search", "--n", "10", "--t", "inf"],
        ["search", "--n", "10", "--t", "100", "--eps", "inf"],
        ["certify", "--n", "10", "--c", "1e6"],  # N^C overflows
        ["search", "--n", "10", "--t", "100", "--window-hi", "inf"],
        ["search", "--n", "10", "--t", "100", "--window-lo=-inf"],
        ["search", "--guided", "--n", "10", "--t", "100", "--window-lo=-inf"],
        ["search", "--guided", "--n", "10", "--t", "100", "--window-hi", "nan"],
        # Out-of-range budgets and strides are usage errors too.
        ["certify", "--n", "1000", "--c", "3", "--budget-terms", "0"],
        ["certify", "--n", "1000", "--c", "3", "--budget-terms", "-5"],
        ["search", "--n", "10", "--t", "100", "--trace-stride", "-3"],
    ],
)
def test_non_finite_inputs_exit_2(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command", ["certify", "search"])
@pytest.mark.parametrize("alpha", ["nan", "inf", "-inf"])
def test_non_finite_archimedean_alpha_exits_2(command, alpha, capsys):
    assert main([command, "--n", "50", "--t", "1e3", "--f", f"arch:{alpha}", "--eps", "0.1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "alpha must be finite" in captured.err


@pytest.mark.parametrize(
    "file_cfg, accepted",
    [
        ({"n": "100"}, False),  # a string is not an int
        ({"n": True}, False),  # nor is a bool
        ({"budget_terms": 2.5}, False),  # nor a float
        ({"guided": 1}, False),  # an int is not a bool
        ({"f": 5}, False),
        ({"n": None}, False),  # n has no None default
        ([4, 10.0], False),  # not a JSON object
        ({"t": 10}, True),  # an int is a float
        ({"eps": None, "guided": True}, True),
    ],
)
def test_config_file_value_types(tmp_path, capsys, file_cfg, accepted):
    cfg_path = os.path.join(tmp_path, "cfg.json")
    with open(cfg_path, "w") as fh:
        json.dump({"n": 4, "t": 10.0, **file_cfg} if isinstance(file_cfg, dict) else file_cfg, fh)
    code = main(["search", "--config", cfg_path, "--out", os.path.join(tmp_path, "out.json")])
    assert code == (0 if accepted else 2)
    assert ("error:" in capsys.readouterr().err) is not accepted


@pytest.mark.parametrize("budget", ["0", "-5"])
@pytest.mark.parametrize("guided", [[], ["--guided"]])
def test_search_budget_points_below_one_exit_2(budget, guided, capsys):
    assert main(["search", *guided, "--n", "10", "--t", "100", "--budget-points", budget]) == 2
    assert capsys.readouterr().out == ""


def test_budget_exhaustion_exits_3(capsys):
    code = main(["search", "--n", "1000", "--t", "1e8", "--eps", "1e-3"])
    assert code == 3
    # Exact moments need the whole support, here over the term budget.
    argv = ["certify", "--n", "4", "--t", "1e4", "--x", "1e9", "--exact", "always"]
    assert main([*argv, "--budget-terms", "2"]) == 3
    assert json.loads(capsys.readouterr().err.splitlines()[-1])["layer"] == "rescert.resonator"



@pytest.mark.parametrize(
    "argv, code, kind, budget, layer",
    [
        # Over the point budget: exit 3 with needed and budget.
        (["search", "--n", "1000", "--t", "1e8", "--budget-points", "1000"], 3,
         "ResourceLimitError", 1000, "rescert.dirichlet"),
        # eps below the grid values' float error bound at |t| = 6e10: exit 2.
        (["search", "--n", "500", "--t", "1e11", "--eps", "1e-3",
          "--window-lo", "6e10", "--window-hi", "6.0000001e10"], 2, "ValueError", None,
         "rescert.dirichlet"),
        (["search", "--n", "4", "--no-such-flag"], 2, "ValueError", None, "rescert.cli"),
    ],
)
def test_errors_end_stderr_with_one_json_object(capsys, argv, code, kind, budget, layer):
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    *lines, last = captured.err.splitlines()
    error = json.loads(last)
    assert error["kind"] == kind
    assert error["layer"] == layer  # the module that raised it
    assert lines[-1].endswith(error["message"])  # the human-readable line above it
    if budget is None:
        assert set(error) == {"kind", "message", "layer"}
    else:
        assert error["budget"] == budget and error["needed"] > budget


@pytest.mark.parametrize("command", ["certify", "search", "resonator", "sweep", "oracle"])
def test_every_subcommand_takes_the_common_flags(command):
    # The parser is built once per process, and each subcommand parses every common flag
    # to the RunConfig field of its name.
    assert build_parser() is build_parser()
    texts = {
        name: {"exact": "never", "format": "csv"}.get(name, str(i + 2))
        for i, name in enumerate(RunConfig.__dataclass_fields__)
        if name != "guided"
    }
    argv = [command, "diag"] if command == "oracle" else [command]
    argv += ["--n-list", "1"] if command == "sweep" else []
    for name, text in texts.items():
        argv += [f"--{name.replace('_', '-')}", text]
    args = vars(build_parser().parse_args(argv + ["--guided"]))
    extra = {"oracle": {"op": "diag"}, "sweep": {"n_list": "1", "seed_list": "0"}}
    assert {k: args.pop(k) for k in extra.get(command, {})} == extra.get(command, {})
    assert args.pop("command") == command
    assert args.pop("config") is None and args.pop("guided") is True
    assert {name: str(value).removesuffix(".0") for name, value in args.items()} == texts


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "--n", "1000", "--c", "3"],
        ["search", "--n", "4", "--t", "10", "--eps", "0.05"],
        ["resonator", "--x", "4.85e8"],
        ["sweep", "--n-list", "50,60", "--c", "3", "--format", "csv"],
        ["oracle", "bijection", "--n", "5", "--x", "5"],
        ["sweep", "--c", "3"],  # no --n-list
        ["oracle", "--n", "2", "--x", "2"],  # no op
        ["oracle", "bad", "--n", "2", "--x", "2"],
        ["certify", "--n", "10", "--c", "3", "--exact", "bad"],
        ["certify", "--n", "10", "--c", "3", "--format", "xml"],
        ["certify", "--n", "10", "--c", "3", "--no-such-flag"],  # the top parser's usage
        ["certify", "--c", "3", "--n"],  # a flag without its value
        ["certify", "--help"],
    ],
)
def test_one_subcommand_parser_runs_as_the_full_parser(argv, monkeypatch, capsys):
    # main parses with the invoked subcommand's parser alone; the parser with all
    # five must give the same Namespace, exit code, stdout and stderr.
    def outcome():
        try:
            code = main(argv)
        except SystemExit as exc:  # --help
            code = exc.code
        captured = capsys.readouterr()
        return code, re.sub(r'"generated_at": "[^"]*"', "", captured.out), captured.err

    one = outcome()
    full = build_parser()
    with monkeypatch.context() as mp:
        mp.setattr(cli, "build_parser", lambda command=None: full)
        assert outcome() == one
    if one[0] == 0 and "--help" not in argv:
        assert build_parser(argv[0]).parse_args(argv) == full.parse_args(argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "--n", "0"],
        ["sweep", "--n-list", "0"],
        ["sweep", "--n-list", "50,0"],  # refused before the first row runs
    ],
)
@pytest.mark.parametrize("height", [["--c", "3"], ["--t", "100"]])
def test_sweep_rows_are_validated_as_certify(argv, height, capsys):
    assert main([*argv, *height]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err.splitlines()[-1])
    assert error == {
        "kind": "ValueError",
        "message": "N must be a positive integer",
        "layer": "rescert.cli",
    }


@pytest.mark.parametrize(
    "argv", [["certify", "--n", str(2**63)], ["sweep", "--n-list", str(2**63)]]
)
def test_n_past_int64_exits_2_from_moments(argv, capsys):
    # The diagonal's int64 weights floor(N / b') hold N < 2^63; past that the certificate
    # layer refuses N with the structured error, not a traceback.
    assert main([*argv, "--t", "1e30", "--x", "1e5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err.splitlines()[-1])
    assert (error["kind"], error["layer"]) == ("ValueError", "rescert.moments")
    assert "2^63" in error["message"]
