import csv
import dataclasses
import json
import math
import operator
import os
import subprocess
import sys

import pytest

import cptinvest
from cptinvest import binomial, cli, continuous
from cptinvest.cli import main, run_sweep, solve_once, sweep_grid, write_sweep_csv
from cptinvest.config import DEFAULT_CONFIG, ConfigError, RunConfig
from cptinvest.market import Empirical, MarketModel, Normal, StudentT
from cptinvest.oracle import GridSpec
from cptinvest.preferences import ExponentialUtility, PowerUtility, PrelecWeighting

BULL = {
    "market": {"r": 0.05, "lambda": 0.01,
               "returns": {"kind": "lognormal", "mu": 0.13, "sigma": 0.20}},
    "preference": {"utility": "power", "alpha": 0.88, "beta": 0.88,
                   "loss_aversion": 2.25, "weighting": "tk",
                   "gamma": 0.61, "delta": 0.69},
    "portfolio": {"x0": 1.0, "y0": 1.0},
    "solve": {"mode": "continuous", "oracle": False},
}

BINOM = {
    "market": {"r": 0.0, "lambda": 0.02,
               "returns": {"kind": "binomial", "u": 1.5, "d": 0.95, "p": 0.55}},
    "preference": {"utility": "exponential", "eta_gain": 1.5, "eta_loss": 1.5,
                   "loss_aversion": 1.2, "weighting": "tk",
                   "gamma": 0.61, "delta": 0.69},
    "portfolio": {"x0": 1.0, "y0": 0.0},
    "solve": {"mode": "binomial", "oracle": False},
}

# an interior buy, T3.1-2b near theta 0.04, under TK and under Prelec
INTERIOR = {
    "market": {"r": 0.02, "lambda": 0.01,
               "returns": {"kind": "lognormal", "mu": 0.06, "sigma": 0.2}},
    "preference": {"utility": "power", "alpha": 0.8, "beta": 0.88,
                   "loss_aversion": 2.25, "weighting": "tk",
                   "gamma": 0.61, "delta": 0.69},
    "portfolio": {"x0": 1.0, "y0": 1.0},
}

# GridSpec fields the config accepts but the grid search cannot run
BAD_GRIDS = [
    pytest.param({"lo": -1, "hi": 10, "n_points": 41.5},
                 "n_points must be an integer, got 41.5", id="fractional-points"),
    pytest.param({"lo": -1, "hi": 10, "refinement_rounds": 1.5},
                 "refinement_rounds must be an integer, got 1.5", id="fractional-rounds"),
    pytest.param({"lo": -1, "hi": math.inf},
                 "grid bounds and span must be finite, got [-1, inf]", id="infinite-bound"),
    pytest.param({"lo": -1e308, "hi": 1e308},
                 "grid bounds and span must be finite, got [-1e+308, 1e+308]",
                 id="overflowing-span"),
]

# the buy ray's pseudo weights put it in the interior regime, but its payoff
# gap (1-lam)(u+d) - 2(1+r) rounds to exactly 0.0
ZERO_GAP = {
    **BINOM,
    "market": {"r": 0.0, "lambda": 0.10424306650568119,
               "returns": {"kind": "binomial", "u": 1.1164901313438287,
                           "d": 1.1162584248945973, "p": 0.12020121465490022}},
    "preference": {"utility": "exponential", "eta_gain": 2.9645016195189533,
                   "eta_loss": 2.9645016195189533, "loss_aversion": 7.319383484359439,
                   "weighting": "identity"},
}

# (1-lam)(u+d) rounds to 2(1+r): the buy pseudo weights, 0.5000000000000001 and
# 0.4999999999999999, are equal within the 1e-12 band, so the buy ray is flat
# (T4.1-3a) with no interior candidate; below loss aversion 1.8504 it is unbounded
KNIFE_EDGE = {
    **BINOM,
    "market": {"r": 0.0, "lambda": 0.01,
               "returns": {"kind": "binomial", "u": 1.3280978328590332,
                           "d": 0.6921041873429872, "p": 0.26253057462494217}},
    "preference": {"utility": "exponential", "eta_gain": 1.0, "eta_loss": 1.0,
                   "loss_aversion": 1.2, "weighting": "tk"},
}


class TestConfig:
    def test_defaults_fill_in(self):
        config = RunConfig.from_dict({})
        assert config.mode == "continuous"
        assert config.market.lam == DEFAULT_CONFIG["market"]["lambda"]

    def test_round_trip_reproduces_results(self):
        config = RunConfig.from_dict(BULL)
        text = config.to_json()
        reloaded = RunConfig.from_dict(json.loads(text))
        assert reloaded.data == config.data
        assert solve_once(reloaded) == solve_once(config)

    def test_all_violations_reported(self):
        bad = {
            "market": {"r": -0.1, "lambda": 1.5,
                       "returns": {"kind": "binomial", "u": 0.9, "d": 1.2, "p": 0.5}},
            "preference": {"utility": "power", "alpha": 0.9, "beta": 0.8,
                           "loss_aversion": 0.5},
            "solve": {"mode": "sideways"},
            "output": {"format": "yaml"},
        }
        with pytest.raises(ConfigError) as err:
            RunConfig.from_dict(bad)
        text = str(err.value)
        assert "u > d" in text or "market.returns" in text
        assert "alpha" in text
        assert "solve.mode" in text
        assert "output.format" in text

    def test_mode_preconditions_checked(self):
        bad = json.loads(json.dumps(BULL))
        bad["portfolio"]["y0"] = 0.0
        with pytest.raises(ConfigError, match="y0 > 0"):
            RunConfig.from_dict(bad)
        bad = json.loads(json.dumps(BINOM))
        bad["preference"] = BULL["preference"]
        with pytest.raises(ConfigError, match="exponential"):
            RunConfig.from_dict(bad)

    def test_arbitrage_checked_at_validation(self):
        bad = json.loads(json.dumps(BINOM))
        bad["market"]["returns"] = {"kind": "binomial", "u": 1.04, "d": 1.02, "p": 0.5}
        bad["market"]["r"] = 0.05
        bad["market"]["lambda"] = 0.0
        with pytest.raises(ConfigError, match="no-arbitrage"):
            RunConfig.from_dict(bad)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            RunConfig.from_dict({"market": {"mu": 0.1}})

    @pytest.mark.parametrize("grid, problem", BAD_GRIDS)
    def test_grid_counts_must_be_integers_and_bounds_finite(self, grid, problem):
        with pytest.raises(ConfigError) as err:
            RunConfig.from_dict({**BULL, "solve": {"grid": grid}})
        assert err.value.problems == [f"solve.grid: {problem}"]


# each infinite parameter: its constructor, a config that reaches it, the config problem
INFINITE_PARAMETERS = [
    pytest.param(lambda: PowerUtility(0.8, 0.88, math.inf),
                 {**INTERIOR, "preference": {**INTERIOR["preference"], "loss_aversion": math.inf}},
                 "preference utility: loss_aversion must be finite and > 1, got inf",
                 id="power-loss-aversion"),
    pytest.param(lambda: ExponentialUtility(1.5, 1.5, math.inf),
                 {**BINOM, "preference": {**BINOM["preference"], "loss_aversion": math.inf}},
                 "preference utility: loss_aversion must be finite and > 1, got inf",
                 id="exponential-loss-aversion"),
    pytest.param(lambda: ExponentialUtility(math.inf, 1.5, 1.2),
                 {**BINOM, "preference": {**BINOM["preference"], "eta_gain": math.inf}},
                 "preference utility: eta_gain must be finite and > 0, got inf", id="eta-gain"),
    pytest.param(lambda: ExponentialUtility(1.5, math.inf, 1.2),
                 {**BINOM, "preference": {**BINOM["preference"], "eta_loss": math.inf}},
                 "preference utility: eta_loss must be finite and > 0, got inf", id="eta-loss"),
    pytest.param(lambda: PrelecWeighting(0.65, math.inf, 1.0),
                 {**INTERIOR, "preference": {**INTERIOR["preference"], "weighting": "prelec",
                                             "delta_gain": math.inf}},
                 "preference weighting: delta_gain must be finite and > 0, got inf",
                 id="prelec-delta-gain"),
    pytest.param(lambda: PrelecWeighting(0.65, 1.0, math.inf),
                 {**INTERIOR, "preference": {**INTERIOR["preference"], "weighting": "prelec",
                                             "delta_loss": math.inf}},
                 "preference weighting: delta_loss must be finite and > 0, got inf",
                 id="prelec-delta-loss"),
    pytest.param(lambda: StudentT(math.inf, 0.0, 0.1),
                 {**INTERIOR, "market": {"returns": {"kind": "student-t", "nu": math.inf,
                                                     "scale": 0.1}}},
                 "market.returns: nu must be finite and > 0, got inf", id="student-t-nu"),
]


@pytest.mark.parametrize("build, payload, problem", INFINITE_PARAMETERS)
def test_infinite_parameters_are_refused(build, payload, problem, tmp_path, capsys):
    with pytest.raises(ValueError, match=problem.split(": ", 1)[1]):
        build()
    with pytest.raises(ConfigError) as err:
        RunConfig.from_dict(payload)
    assert err.value.problems == [problem]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))  # written as Infinity, as a JSON config would
    assert "Infinity" in path.read_text()
    assert main(["solve", "--config", str(path)]) == 2
    assert f"  - {problem}" in capsys.readouterr().err


# a JSON integer of 400 digits, past the float range
HUGE = int("9" * 400)


@pytest.mark.parametrize("payload, problem", [
    ({"market": {"r": HUGE}}, "market: r must fit in a float, got an integer of 400 digits"),
    ({"portfolio": {"x0": -HUGE}},
     "portfolio: x0 must fit in a float, got an integer of 400 digits"),
    ({"market": {"returns": {"kind": "empirical", "values": [0.97, HUGE]}}},
     "market.returns: every value must fit in a float, got an integer of 400 digits"),
    ({"solve": {"grid": {"lo": -1, "hi": 10, "n_points": HUGE}}},
     "solve.grid: n_points must fit in a float, got an integer of 400 digits"),
], ids=["market-r", "portfolio-x0", "empirical-value", "grid-n-points"])
def test_integers_past_the_float_range_are_refused(payload, problem, tmp_path, capsys):
    with pytest.raises(ConfigError) as err:
        RunConfig.from_dict(payload)
    assert err.value.problems == [problem]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    assert main(["solve", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: invalid configuration:\n  - {problem}\n"


# past 4 300 digits str() refuses an integer, so the count is made without it; a power of
# ten has one digit more than the integer just below it
@pytest.mark.parametrize("value, digits", [(10**5000, 5001), (10**5000 - 1, 5000),
                                           (-10**4300, 4301), (10**400, 401)],
                         ids=["1e5000", "1e5000-1", "-1e4300", "1e400"])
def test_integers_past_the_str_limit_are_refused_by_key(value, digits):
    with pytest.raises(ConfigError) as err:
        RunConfig.from_dict({"market": {"r": value}})
    assert err.value.problems == [
        f"market: r must fit in a float, got an integer of {digits} digits"]


_ZERO_INITIAL = {"portfolio": {"x0": 1.0, "y0": 0.0}, "solve": {"mode": "zero-initial"}}


@pytest.mark.parametrize("payload, expected", [
    ({"market": {"returns": {"kind": "normal", "mu": 0.002, "sigma": 0.02}}},
     ("market", MarketModel(1.3380e-05, 0.01, Normal(0.002, 0.02)))),
    ({"market": {"returns": {"kind": "empirical", "values": [1.04, 0.97, 1.01]}}},
     ("market", MarketModel(1.3380e-05, 0.01, Empirical((0.97, 1.01, 1.04))))),
    ({"preference": {"weighting": "prelec", "gamma": 0.65, "delta_gain": 0.9,
                     "delta_loss": 1.1}},
     ("preference.weighting", PrelecWeighting(0.65, 0.9, 1.1))),
    ({**_ZERO_INITIAL, "portfolio": {"x0": 1.0, "y0": 0.5}},
     "zero-initial mode requires portfolio.y0 = 0"),
    ({**_ZERO_INITIAL, "preference": {"utility": "exponential"}},
     "zero-initial mode requires the power utility"),
    ({**BINOM, "portfolio": {"x0": 1.0, "y0": 1.0}}, "binomial mode requires portfolio.y0 = 0"),
    ({**BINOM, "market": BULL["market"]}, "binomial mode requires a binomial return law"),
    ({**BINOM, "preference": {**BINOM["preference"], "eta_loss": 2.0}},
     "binomial mode requires equal gain/loss curvature"),
    ({"market": {"returns": {"kind": "pareto"}}},
     "market.returns.kind must be one of ('lognormal', 'normal', 'student-t', 'binomial', "
     "'empirical'), got 'pareto'"),
    ({"market": {"returns": {"kind": ["lognormal"]}}},
     "market.returns.kind must be one of ('lognormal', 'normal', 'student-t', 'binomial', "
     "'empirical'), got ['lognormal']"),
    ({"preference": {"weighting": 3}},
     "preference.weighting must be 'tk', 'prelec' or 'identity', got 3"),
    ({"market": {"returns": {"kind": "binomial", "u": 1.1}}},
     "market.returns: missing parameter 'd'"),
    ({"solve": {"grid": {}}},
     "solve.grid: GridSpec.__init__() missing 2 required positional arguments: 'lo' and 'hi'"),
], ids=["normal", "empirical", "prelec", "zero-initial-y0", "zero-initial-exponential",
        "binomial-y0", "binomial-law", "binomial-curvature", "unknown-kind", "list-kind",
        "unknown-weighting", "missing-parameter", "empty-grid"])
def test_config_builds_each_kind_and_names_each_mode_problem(payload, expected):
    """A parsed kind builds its domain object; a mode problem is the only one reported."""
    if isinstance(expected, str):
        with pytest.raises(ConfigError) as err:
            RunConfig.from_dict(payload)
        assert err.value.problems == [expected]
    else:
        path, built = expected
        assert operator.attrgetter(path)(RunConfig.from_dict(payload)) == built


class TestSweep:
    def test_grid_is_left_open_right_closed(self):
        grid = sweep_grid(0.0, 0.05, 5)
        assert grid[0] == pytest.approx(0.01)
        assert grid[-1] == pytest.approx(0.05)
        assert len(grid) == 5

    def test_rows_match_independent_solves(self):
        config = RunConfig.from_dict(BULL)
        grid = sweep_grid(0.0, 0.02, 4)
        rows = run_sweep(config, "lambda", grid)
        for value, row in zip(grid, rows):
            point = config.replace_values(market__lambda=value)
            summary = solve_once(point)
            assert row.case_id == summary["case_id"]
            assert row.theta_star == summary["theta_star"]
            assert row.prospect_star == summary["prospect_star"]

    def test_row_errors_recorded_not_raised(self):
        config = RunConfig.from_dict(BULL)
        # alpha sweeping above beta must fail per-row, not abort
        rows = run_sweep(config, "alpha", [0.5, 0.95])
        assert rows[0].error is None
        assert rows[1].error is not None and "alpha" in rows[1].error

    def test_row_on_an_arbitrage_market_carries_the_solver_error(self, monkeypatch):
        config = RunConfig.from_dict(BULL)
        # validation rejects arbitrage, so the bad point is built past it
        market = MarketModel(0.0, 0.0, Empirical((1.1, 1.2, 1.3)))
        bad = dataclasses.replace(config, market=market)
        with pytest.raises(ValueError, match="arbitrage") as raised:
            continuous.solve(bad.portfolio, market, bad.preference)
        monkeypatch.setattr(cli, "_axis_override", lambda config, axis, value: bad)
        [row] = run_sweep(config, "lambda", [0.01])
        assert row.error == str(raised.value)

    def test_axis_validated_per_mode(self):
        config = RunConfig.from_dict(BINOM)
        with pytest.raises(ValueError, match="axis"):
            run_sweep(config, "alpha", [0.5])
        rows = run_sweep(config, "zeta", [1.1, 1.3])
        assert all(row.error is None for row in rows)

    def test_a_zero_payoff_gap_is_a_row_error(self):
        # above the buy ray's interior threshold the buy does not trade
        rows = run_sweep(RunConfig.from_dict(ZERO_GAP), "zeta", [7.319383484359439, 8.0])
        assert "buy ray's payoff gap 0.0" in rows[0].error
        assert rows[1].error is None and rows[1].case_id == "T4.3-1"

    def test_a_binomial_row_solves_each_ray_once(self, monkeypatch):
        """A row reads its candidates from the ray optima the solve merged."""
        calls = []
        monkeypatch.setattr(binomial, "solve_ray", lambda inputs, side, _real=binomial.solve_ray:
                            calls.append(side) or _real(inputs, side))
        rows = run_sweep(RunConfig.from_dict(BINOM), "zeta", [1.1, 1.3, 4.0])
        assert [row.error for row in rows] == [None] * 3
        assert rows[0].theta_buy is not None  # an interior buy candidate
        assert calls == ["buy", "sell"] * 3

    def test_csv_round_trip_and_tokens(self, tmp_path):
        config = RunConfig.from_dict(BULL)
        rows = run_sweep(config, "lambda", sweep_grid(0.0, 0.02, 4))
        out = tmp_path / "sweep.csv"
        write_sweep_csv(str(out), config.mode, "lambda", rows)
        with open(out, newline="") as handle:
            records = list(csv.DictReader(handle))
        assert len(records) == 4
        assert records[0]["case_id"].startswith("T3.1-")
        # the bull market is ill-posed at small costs: literal tokens
        assert records[0]["theta_star"] == "+inf"
        assert records[0]["prospect_star"] == "inf"
        # numeric columns parse back and the buy ratio declines with costs
        ratios = [float(r["ratio_buy"]) for r in records]
        assert all(b <= a + 1e-9 for a, b in zip(ratios, ratios[1:]))


@pytest.mark.parametrize("payload", [
    BULL,
    {**BULL, "portfolio": {"x0": 1.0, "y0": 0.0},
     "solve": {"mode": "zero-initial", "oracle": False}},
    BINOM,
], ids=lambda payload: payload["solve"]["mode"])
def test_solve_once_prepares_inputs_once(payload, monkeypatch):
    calls = {}
    for module, name in ((continuous, "prepare_inputs"),
                         (continuous, "prepare_zero_initial_inputs"),
                         (binomial, "prepare_binomial_inputs")):
        def counted(*args, _original=getattr(module, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args)
        monkeypatch.setattr(module, name, counted)
    summary = solve_once(RunConfig.from_dict(payload))
    assert "diagnostics" in summary
    assert list(calls.values()) == [1]


class TestCommandLine:
    def _write(self, tmp_path, payload, name="config.json"):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    def test_solve_command(self, tmp_path, capsys):
        code = main(["solve", "--config", self._write(tmp_path, BINOM)])
        out = capsys.readouterr().out
        assert code == 0
        assert "case:" in out and "T4.3" in out

    def test_solve_writes_csv(self, tmp_path):
        out = tmp_path / "run.csv"
        code = main(["solve", "--config", self._write(tmp_path, BINOM),
                     "--out", str(out)])
        assert code == 0
        with open(out, newline="") as handle:
            records = {row["key"]: row["value"] for row in csv.DictReader(handle)}
        assert records["mode"] == "binomial"
        assert records["case_id"].startswith("T4.3-")

    def test_verify_command_matches(self, tmp_path, capsys):
        code = main(["verify", "--config", self._write(tmp_path, BINOM)])
        out = capsys.readouterr().out
        assert code == 0
        assert "match" in out

    @pytest.mark.parametrize("weighting, grid, spec", [
        # no solve.grid: the continuous default runs from the sell floor -y0
        ({}, None, GridSpec(-1.0, 10.0, 4001, 2)),
        # the exp-log weighting on the fixed-node grid: 41 + 41 rows
        ({"weighting": "prelec", "gamma": 0.65, "delta_gain": 1.0, "delta_loss": 1.0},
         {"lo": -1.0, "hi": 1.0, "n_points": 41, "refinement_rounds": 1},
         GridSpec(-1.0, 1.0, 41, 1)),
    ], ids=["tk-auto-grid", "prelec-config-grid"])
    def test_verify_command_on_a_continuous_config(self, tmp_path, capsys, monkeypatch,
                                                   weighting, grid, spec):
        used = []
        verify = cli.verify

        def recording_verify(sol, portfolio, market, pref, grid_spec):
            used.append(grid_spec)
            return verify(sol, portfolio, market, pref, grid_spec)

        monkeypatch.setattr(cli, "verify", recording_verify)
        payload = {**INTERIOR, "preference": {**INTERIOR["preference"], **weighting},
                   "solve": {"grid": grid}}
        code = main(["verify", "--config", self._write(tmp_path, payload)])
        out = capsys.readouterr().out
        assert code == 0
        assert "case:        T3.1-2b\n" in out
        assert "oracle:      match (grid search confirms the reported optimum)" in out
        assert used == [spec]

    @pytest.mark.parametrize("grid, problem", BAD_GRIDS)
    def test_a_grid_the_search_cannot_run_exits_with_code_2(self, tmp_path, capsys,
                                                            grid, problem):
        payload = {**BULL, "solve": {"grid": grid}}
        code = main(["verify", "--config", self._write(tmp_path, payload)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"  - solve.grid: {problem}" in captured.err

    def test_a_grid_row_that_overflows_exits_with_code_2(self, tmp_path, capsys):
        # b + s*Q overflows at theta = 4.25e307, where the objective is finite
        grid = {"lo": -1, "hi": 1.7e308, "n_points": 5, "refinement_rounds": 1}
        payload = {**INTERIOR, "solve": {"grid": grid}}
        code = main(["verify", "--config", self._write(tmp_path, payload)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == ("error: the wealth difference at theta=4.25e+307 "
                                "overflows the float range\n")

    @pytest.mark.parametrize("spec, message", [
        ("lambda=0:0.02:0", "sweep count must be >= 1, got 0"),
        ("lambda=0.02:0:5", "sweep needs stop > start, got 0.02:0.0"),
        ("lambda", "sweep must look like axis=start:stop:count, got 'lambda'"),
    ], ids=["no-points", "empty-range", "no-grid"])
    def test_a_bad_sweep_spec_exits_with_code_2(self, tmp_path, capsys, spec, message):
        code = main(["sweep", "--config", self._write(tmp_path, BULL), "--sweep", spec])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_check_arb_command(self, tmp_path, capsys):
        code = main(["check-arb", "--config", self._write(tmp_path, BINOM)])
        assert code == 0
        bad = json.loads(json.dumps(BINOM))
        bad["market"]["returns"] = {"kind": "binomial", "u": 1.04, "d": 1.02, "p": 0.5}
        bad["market"]["r"] = 0.05
        bad["market"]["lambda"] = 0.0
        code = main(["check-arb", "--config", self._write(tmp_path, bad, "bad.json")])
        assert code == 2

    def test_sweep_command(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--config", self._write(tmp_path, BINOM),
                     "--sweep", "lambda=0:0.2:8", "--out", str(out)])
        assert code == 0
        with open(out, newline="") as handle:
            records = list(csv.DictReader(handle))
        assert len(records) == 8
        assert list(records[0])[0] == "lambda"

    def test_knife_edge_sweep_has_cases_and_blank_candidates(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--config", self._write(tmp_path, KNIFE_EDGE),
                     "--sweep", "zeta=1.0:1.8:4", "--out", str(out)])
        assert code == 0
        with open(out, newline="") as handle:
            records = list(csv.DictReader(handle))
        assert [r["case_id"] for r in records] == ["T4.3-7a"] * 4
        assert all(r["theta_buy"] == r["theta_sell"] == r["error"] == "" for r in records)

    def test_zero_payoff_gap_exits_with_code_2(self, tmp_path, capsys):
        code = main(["solve", "--config", self._write(tmp_path, ZERO_GAP)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: interior buy candidate undefined: ")

    def test_invalid_config_exits_nonzero(self, tmp_path, capsys):
        code = main(["solve", "--config",
                     self._write(tmp_path, {"solve": {"mode": "nope"}})])
        assert code == 2
        assert "solve.mode" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_divergent_prospect_exits_with_code_4(self, tmp_path, capsys, command):
        # loss side: TK delta 0.69 against beta / nu = 0.9 / 1.2 = 0.75
        payload = {**BULL,
                   "market": {"r": 0.01, "lambda": 0.02,
                              "returns": {"kind": "student-t", "nu": 1.2,
                                          "loc": 0.0, "scale": 0.1}},
                   "preference": {**BULL["preference"], "alpha": 0.7, "beta": 0.9}}
        code = main([command, "--config", self._write(tmp_path, payload)])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert captured.err.startswith("error: prospect loss integral did not converge: ")

    def test_gains_certain_to_float_precision_exit_with_code_4(self, tmp_path, capsys):
        # the buy excess return's P(gain) rounds to 1 and TK gamma 0.4 leaves
        # about 1e-6 of weight past the last quantile level below 1
        payload = {**BULL,
                   "market": {"r": 0.0, "lambda": 0.0,
                              "returns": {"kind": "lognormal", "mu": 0.5, "sigma": 0.05}},
                   "preference": {**BULL["preference"], "alpha": 0.6, "beta": 0.8,
                                  "gamma": 0.4, "delta": 0.4}}
        code = main(["solve", "--config", self._write(tmp_path, payload)])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert captured.err.startswith("error: prospect gain integral did not converge: ")

    def test_lognormal_quantiles_past_the_float_range_exit_with_code_4(self, tmp_path, capsys):
        # exp(0.05 + 150 * 37) overflows deep in the gain tail: a refusal, not a traceback
        payload = {"market": {"r": 0.02, "lambda": 0.01,
                              "returns": {"kind": "lognormal", "mu": 0.05, "sigma": 150.0}},
                   "portfolio": {"x0": 1.0, "y0": 1.0}}
        code = main(["solve", "--config", self._write(tmp_path, payload)])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert captured.err == ("error: prospect gain integral did not converge: "
                                "non-finite quadrature value inf\n")

    def test_estimate_command(self, tmp_path, capsys):
        prices = tmp_path / "px.csv"
        prices.write_text(
            "date,close\n2024-01-01,100\n2024-01-03,101\n2024-01-08,102\n"
            "2024-01-12,103\n2024-01-17,104\n"
        )
        code = main(["estimate", "--prices", str(prices), "--weekly"])
        out = capsys.readouterr().out
        assert code == 0
        assert "mu:" in out and "n_obs:  2" in out


# a section, or the whole document, that is not a JSON object: one problem naming it
NON_OBJECT_SECTIONS = [
    pytest.param({"market": {"returns": [1, 2]}},
                 "market.returns must be a JSON object, got [1, 2]", id="returns-list"),
    pytest.param({"market": {"returns": "lognormal"}},
                 "market.returns must be a JSON object, got 'lognormal'", id="returns-string"),
    pytest.param({"market": 5}, "market must be a JSON object, got 5", id="market-number"),
    pytest.param({"solve": []}, "solve must be a JSON object, got []", id="solve-list"),
    pytest.param({"output": 3}, "output must be a JSON object, got 3", id="output-number"),
    pytest.param({"solve": {"grid": [1]}}, "solve.grid must be a JSON object, got [1]",
                 id="grid-list"),
    pytest.param({"preference": "tk"}, "preference must be a JSON object, got 'tk'",
                 id="preference-string"),
    pytest.param([], "the configuration must be a JSON object, got []", id="document-list"),
]


@pytest.mark.parametrize("payload, problem", NON_OBJECT_SECTIONS)
def test_a_section_that_is_not_an_object_is_one_problem(payload, problem, tmp_path, capsys):
    with pytest.raises(ConfigError) as err:
        RunConfig.from_dict(payload)
    assert err.value.problems == [problem]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    assert main(["check-arb", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: invalid configuration:\n  - {problem}\n"


@pytest.mark.parametrize("oracle", ["false", "true", 0, 1, None, []], ids=repr)
def test_solve_oracle_must_be_true_or_false(oracle, tmp_path, capsys):
    payload = {**BINOM, "solve": {"mode": "binomial", "oracle": oracle}}
    problem = f"solve.oracle must be true or false, got {oracle!r}"
    with pytest.raises(ConfigError) as err:
        RunConfig.from_dict(payload)
    assert err.value.problems == [problem]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    assert main(["solve", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: invalid configuration:\n  - {problem}\n"


@pytest.mark.parametrize("target", [1, True, ["run.csv"], {"path": "run.csv"}], ids=repr)
def test_output_csv_must_be_a_string_or_null(target):
    with pytest.raises(ConfigError) as err:
        RunConfig.from_dict({**BINOM, "output": {"csv": target}})
    assert err.value.problems == [f"output.csv must be a string or null, got {target!r}"]


def test_a_non_string_output_csv_exits_with_code_2(tmp_path):
    # in a child process: an integer path given to open() is a file descriptor, and a
    # solve that wrote its CSV there would write to and close this runner's stdout
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**BINOM, "output": {"csv": 1}}))
    src = os.path.dirname(os.path.dirname(os.path.abspath(cptinvest.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run([sys.executable, "-m", "cptinvest.cli", "solve", "--config", str(path)],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 2
    assert run.stdout == ""
    assert run.stderr == ("error: invalid configuration:\n"
                          "  - output.csv must be a string or null, got 1\n")


BINOM_OUT = (
    "mode:        binomial\n"
    "case:        T4.3-2a\n"
    "theta*:      2.544270288356109\n"
    "prospect*:   0.19457710331104786\n"
    "  pseudo_buy_up: 0.12801484230055668\n"
    "  pseudo_buy_down: 0.8719851576994433\n"
    "  pseudo_sell_up: 0.05454545454545459\n"
    "  pseudo_sell_down: 0.9454545454545454\n"
    "  threshold_buy_unbounded: 0.813893257503266\n"
    "  threshold_buy_interior: 5.54391059458746\n"
    "  threshold_sell_unbounded: 1.0564834037410353\n"
    "  threshold_sell_interior: 0.0609509656004444\n"
    "  no_trade_cost_level: 0.33333333333333337\n")


@pytest.mark.parametrize("argv, expected", [
    (["solve", "--config", "config.json"], BINOM_OUT),
    (["verify", "--config", "config.json"],
     BINOM_OUT + "oracle:      match (grid search confirms the reported optimum)\n"),
    (["estimate", "--prices", "px.csv", "--weekly"],
     "mu:     0.014635191150056613\nsigma:  0.007033280362513851\nn_obs:  2\n"),
], ids=["solve", "verify", "estimate"])
def test_discrete_and_estimate_commands_never_import_scipy_special(argv, expected, tmp_path):
    """A cold two-state run or estimate skips ``scipy.special``, about half its start-up."""
    (tmp_path / "config.json").write_text(json.dumps(BINOM))
    (tmp_path / "px.csv").write_text("date,close\n2024-01-01,100\n2024-01-03,101\n"
                                     "2024-01-08,102\n2024-01-12,103\n2024-01-17,104\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cptinvest.__file__)))
    run = subprocess.run([sys.executable, "-X", "importtime", "-m", "cptinvest.cli", *argv],
                         capture_output=True, text=True, cwd=tmp_path,
                         env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == expected
    assert "scipy.special" not in run.stderr  # the import log: one line per module loaded


# the oracle grid [-1, 0] misses INTERIOR's buy near theta 0.042, so the oracle mismatches
MISMATCH = {**INTERIOR, "solve": {"oracle": True, "grid": {"lo": -1, "hi": 0, "n_points": 41,
                                                           "refinement_rounds": 1}}}
MISMATCH_OUT = (
    "mode:        continuous\n"
    "case:        T3.1-2b\n"
    "theta*:      0.042134806988386383\n"
    "prospect*:   0.0012830603974885463\n"
    "  p_loss_buy: 0.44009230865471394\n"
    "  p_loss_sell: 0.5796455770644418\n"
    "  gain_buy: 0.1777980438367835\n"
    "  loss_buy: 0.0925508676400485\n"
    "  gain_sell: 0.10229122458925285\n"
    "  loss_sell: 0.16563533325185137\n"
    "  ratio_buy: 1.9210845707927966\n"
    "  ratio_sell: 0.6175688639676734\n"
    "  theta_buy: 0.042134806988386383\n"
    "  theta_sell: -2.9098952745609155e-08\n"
    "oracle:      mismatch (grid maximum 0 vs reported 0.001283060397 (gap -1.283e-03, "
    "worst theta 0))\n")


class TestOutputBytes:
    """Exact bytes of outputs that no other test or benchmark op reaches."""

    def _run(self, tmp_path, capsys, argv, payload=BINOM):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        code = main([argv[0], "--config", str(path), *argv[1:]])
        return code, capsys.readouterr().out

    def test_eta_sweep_sets_both_curvatures_and_prints_rows_without_out(self, tmp_path,
                                                                         capsys):
        code, out = self._run(tmp_path, capsys, ["sweep", "--sweep", "eta=-1:1:2"])
        assert code == 2
        assert out == (
            "eta=0.0 case= theta*= prospect*= ERROR: invalid configuration:;   - "
            "preference utility: eta_gain must be finite and > 0, got 0.0\n"
            "eta=1.0 case=T4.3-2a theta*=3.8164054325341636 "
            "prospect*=0.19457710331104777\n")

    def test_eta_sweep_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "eta.csv"
        code, out = self._run(tmp_path, capsys,
                              ["sweep", "--sweep", "eta=-1:1:2", "--out", str(csv_path)])
        assert code == 2
        assert out == f"wrote 2 rows to {csv_path} (1 row errors)\n"
        assert csv_path.read_bytes() == (
            b"eta,theta_buy,theta_sell,theta_star,case_id,prospect_star,boundary,error\r\n"
            b'0.0,,,,,,false,"invalid configuration:;   - preference utility: '
            b'eta_gain must be finite and > 0, got 0.0"\r\n'
            b"1.0,3.8164054325341636,,3.8164054325341636,T4.3-2a,0.19457710331104777,"
            b"false,\r\n")

    def test_continuous_sweep_columns(self, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        write_sweep_csv(str(csv_path), "continuous", "beta", [
            cli.SweepRow(0.9, 1.5, None, 0.25, -0.125, "0.25", "T3.1-2b", "0.5", True),
            cli.SweepRow(1.0, error="bad"),
        ])
        assert csv_path.read_bytes() == (
            b"beta,ratio_buy,ratio_sell,theta_buy,theta_sell,theta_star,case_id,"
            b"prospect_star,boundary,error\r\n"
            b"0.9,1.5,,0.25,-0.125,0.25,T3.1-2b,0.5,true,\r\n"
            b"1.0,,,,,,,,false,bad\r\n")

    def test_solve_csv_with_the_oracle_row(self, tmp_path, capsys):
        csv_path = tmp_path / "run.csv"
        payload = {**BINOM, "solve": {"mode": "binomial", "oracle": True}}
        code, out = self._run(tmp_path, capsys, ["solve", "--out", str(csv_path)], payload)
        assert code == 0
        assert out.endswith("  no_trade_cost_level: 0.33333333333333337\n"
                            "oracle:      match (grid search confirms the reported optimum)\n")
        assert csv_path.read_bytes() == (
            b"key,value\r\nmode,binomial\r\ncase_id,T4.3-2a\r\n"
            b"theta_star,2.544270288356109\r\nprospect_star,0.19457710331104786\r\n"
            b"boundary,false\r\n"
            b"pseudo_buy_up,0.12801484230055668\r\npseudo_buy_down,0.8719851576994433\r\n"
            b"pseudo_sell_up,0.05454545454545459\r\npseudo_sell_down,0.9454545454545454\r\n"
            b"threshold_buy_unbounded,0.813893257503266\r\n"
            b"threshold_buy_interior,5.54391059458746\r\n"
            b"threshold_sell_unbounded,1.0564834037410353\r\n"
            b"threshold_sell_interior,0.0609509656004444\r\n"
            b"no_trade_cost_level,0.33333333333333337\r\noracle_agreement,match\r\n")

    def test_solve_with_the_oracle_exits_with_code_3_on_a_mismatch(self, tmp_path, capsys):
        csv_path = tmp_path / "run.csv"
        code, out = self._run(tmp_path, capsys, ["solve", "--out", str(csv_path)], MISMATCH)
        assert code == 3
        assert out == MISMATCH_OUT
        assert csv_path.read_bytes().endswith(
            b"theta_sell,-2.9098952745609155e-08\r\noracle_agreement,mismatch\r\n")

    def test_verify_is_solve_with_the_oracle_on_and_writes_no_csv(self, tmp_path, capsys):
        named = tmp_path / "named.csv"
        for payload in (MISMATCH, {**MISMATCH, "output": {"csv": str(named)}},
                        {**MISMATCH, "solve": {**MISMATCH["solve"], "oracle": False}}):
            assert self._run(tmp_path, capsys, ["verify"], payload) == (3, MISMATCH_OUT)
        assert not named.exists()

    def test_estimate_out(self, tmp_path, capsys):
        prices = tmp_path / "px.csv"
        prices.write_text(
            "date,close\n2024-01-01,100\n2024-01-03,101\n2024-01-08,102\n"
            "2024-01-12,103\n2024-01-17,104\n"
        )
        csv_path = tmp_path / "est.csv"
        code = main(["estimate", "--prices", str(prices), "--weekly", "--out", str(csv_path)])
        assert code == 0
        assert capsys.readouterr().out == ("mu:     0.014635191150056613\n"
                                           "sigma:  0.007033280362513851\nn_obs:  2\n")
        assert csv_path.read_bytes() == (b"mu,sigma,n_obs\r\n"
                                         b"0.014635191150056613,0.007033280362513851,2\r\n")


# a numeric config value must be a JSON number: a string or a boolean is one problem
# naming its key, never a number read from it
NOT_NUMBERS = [
    pytest.param({"market": {"lambda": "0.02", "r": False}, "portfolio": {"x0": "2", "y0": True}},
                 ["market: r must be a JSON number, got False",
                  "portfolio: x0 must be a JSON number, got '2'"], id="market-and-portfolio"),
    pytest.param({"market": {"r": True}}, ["market: r must be a JSON number, got True"],
                 id="r-true"),
    pytest.param({"market": {"lambda": "0.02"}},
                 ["market: lambda must be a JSON number, got '0.02'"], id="lambda-string"),
    pytest.param({"portfolio": {"x0": 1.0, "y0": True}},
                 ["portfolio: y0 must be a JSON number, got True"], id="y0-true"),
    pytest.param({"solve": {"grid": {"lo": True, "hi": 10, "refinement_rounds": True}}},
                 ["solve.grid: lo must be a JSON number, got True"], id="grid-booleans"),
    pytest.param({"solve": {"grid": {"lo": "-1", "hi": 10}}},
                 ["solve.grid: lo must be a JSON number, got '-1'"], id="grid-string"),
    pytest.param({"solve": {"grid": {"lo": -1, "hi": 10, "n_points": True}}},
                 ["solve.grid: n_points must be a JSON number, got True"], id="grid-points"),
    pytest.param({"market": {"returns": {"kind": "empirical", "values": ["1.1", 0.9, True]}}},
                 ["market.returns: every value must be a JSON number, got '1.1'"],
                 id="empirical-values"),
    pytest.param({"market": {"returns": {"kind": "student-t", "nu": 5, "loc": "0"}}},
                 ["market.returns: loc must be a JSON number, got '0'"], id="student-t-loc"),
    pytest.param({**BINOM, "market": {**BINOM["market"], "returns": {
        "kind": "binomial", "u": 1.5, "d": 0.95, "p": None}}},
                 ["market.returns: p must be a JSON number, got None"], id="binomial-null"),
    pytest.param({"preference": {"alpha": "0.5"}},
                 ["preference utility: alpha must be a JSON number, got '0.5'"],
                 id="alpha-string"),
    pytest.param({"preference": {"weighting": "prelec", "delta_loss": False}},
                 ["preference weighting: delta_loss must be a JSON number, got False"],
                 id="prelec-delta-false"),
]


@pytest.mark.parametrize("payload, problems", NOT_NUMBERS)
def test_a_number_must_be_a_json_number(payload, problems, tmp_path, capsys):
    with pytest.raises(ConfigError) as err:
        RunConfig.from_dict(payload)
    assert err.value.problems == problems
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    assert main(["solve", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: invalid configuration:\n" + "".join(
        f"  - {problem}\n" for problem in problems)


def test_json_integers_load_as_the_floats_they_name():
    as_floats = RunConfig.from_dict({**BINOM, "market": {"r": 1.0, "lambda": 0.0, "returns": {
        "kind": "binomial", "u": 3.0, "d": 1.0, "p": 0.5}}, "solve": {
        "mode": "binomial", "grid": {"lo": -3.0, "hi": 4.0, "n_points": 11}}})
    as_ints = RunConfig.from_dict({**BINOM, "market": {"r": 1, "lambda": 0, "returns": {
        "kind": "binomial", "u": 3, "d": 1, "p": 0.5}}, "portfolio": {"x0": 1, "y0": 0},
        "solve": {"mode": "binomial", "grid": {"lo": -3, "hi": 4, "n_points": 11}}})
    assert as_ints == as_floats
    assert repr(as_ints.market) == repr(as_floats.market)
    assert solve_once(as_ints) == solve_once(as_floats)


@pytest.mark.parametrize("name", ["n_points", "refinement_rounds"])
def test_grid_counts_are_not_booleans(name):
    with pytest.raises(ValueError) as raised:
        GridSpec(-1.0, 10.0, **{name: True})
    assert str(raised.value) == f"{name} must be an integer, got True"


# r = lambda = 0 and loss aversion exactly w_TK(0.7) / w_TK(0.3), the buy ray's unbounded
# threshold: the buy ray is flat, so every buy is optimal
FLAT_BUY = {
    "market": {"r": 0.0, "lambda": 0.0,
               "returns": {"kind": "binomial", "u": 1.1, "d": 0.9, "p": 0.3}},
    "preference": {"utility": "exponential", "eta_gain": 1.0, "eta_loss": 1.0,
                   "loss_aversion": 1.6296077564369587},
    "portfolio": {"x0": 1.0, "y0": 0.0},
    "solve": {"mode": "binomial"},
}


def test_an_interval_summary_gives_its_ends():
    tk = RunConfig.from_dict(FLAT_BUY).preference.weighting
    assert tk.on_side("gain").weight(0.7) / tk.on_side("loss").weight(0.3) == 1.6296077564369587
    summary = solve_once(RunConfig.from_dict(FLAT_BUY))
    assert (summary["case_id"], summary["kind"]) == ("T4.3-4", "interval")
    assert summary["interval"] == ["0.0", "inf"]
    assert summary["boundary"] is True


# knife edges flat on the whole line: theta* is no trade, and verify samples the line
# within 10 of it.  The two-state one used to exit 2 on a grid of NaN thetas
WHOLE_LINE = [
    pytest.param({"market": {"r": 0.0, "lambda": 0.0,
                             "returns": {"kind": "binomial", "u": 1.5, "d": 0.5, "p": 0.5}},
                  "preference": {"utility": "exponential", "eta_gain": 1.0, "eta_loss": 1.0,
                                 "loss_aversion": 1.0000000000001, "weighting": "identity"},
                  "portfolio": {"x0": 1.0, "y0": 0.0}, "solve": {"mode": "binomial"}},
                 "T4.3-6", id="two-state"),
    pytest.param({"market": {"r": 0.01, "lambda": 0.0,
                             "returns": {"kind": "normal", "mu": 0.01, "sigma": 0.2}},
                  "preference": {"utility": "power", "alpha": 0.8, "beta": 0.8,
                                 "loss_aversion": 1.000000000001, "weighting": "identity"},
                  "portfolio": {"x0": 1.0, "y0": 0.0}, "solve": {"mode": "zero-initial"}},
                 "T3.4-7", id="zero-initial"),
]


@pytest.mark.parametrize("payload, case", WHOLE_LINE)
def test_a_whole_line_of_optima_reports_no_trade_and_is_verified(payload, case, tmp_path,
                                                                 capsys):
    config, csv_path = tmp_path / "config.json", tmp_path / "run.csv"
    config.write_text(json.dumps(payload))
    assert main(["solve", "--config", str(config), "--out", str(csv_path)]) == 0
    assert f"case:        {case}  [boundary]\ntheta*:      0.0\n" in capsys.readouterr().out
    assert b"\r\ntheta_star,0.0\r\n" in csv_path.read_bytes()
    assert solve_once(RunConfig.from_dict(payload))["interval"] == ["-inf", "inf"]
    assert main(["verify", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert "theta*:      0.0\n" in out
    assert out.endswith("oracle:      match (interval is flat at the reported prospect)\n")


def test_main_called_again_in_one_process_gives_the_same_bytes(tmp_path, capsys):
    """The parser is built once per process: each command's stdout and CSV match its
    first run after other commands and a usage error, and an ``--out`` given in one
    call is not carried into the next."""
    continuous_config, binomial_config = tmp_path / "bull.json", tmp_path / "binom.json"
    continuous_config.write_text(json.dumps(BULL))
    binomial_config.write_text(json.dumps(BINOM))
    solve_csv, sweep_csv = tmp_path / "solve.csv", tmp_path / "sweep.csv"
    commands = [
        ["solve", "--config", str(continuous_config), "--out", str(solve_csv)],
        ["sweep", "--config", str(binomial_config), "--sweep", "zeta=1:2:2",
         "--out", str(sweep_csv)],
        ["verify", "--config", str(binomial_config)],
        ["check-arb", "--config", str(continuous_config)],
    ]

    def run(argv):
        for path in (solve_csv, sweep_csv):
            path.unlink(missing_ok=True)
        code = main(argv)
        written = {path.name: path.read_bytes() for path in (solve_csv, sweep_csv)
                   if path.exists()}
        return code, capsys.readouterr().out, written

    first = [run(argv) for argv in commands]
    assert [code for code, _, _ in first] == [0, 0, 0, 0]
    assert [sorted(written) for _, _, written in first] == [["solve.csv"], ["sweep.csv"], [], []]
    with pytest.raises(SystemExit) as usage:
        main(["solve"])
    assert usage.value.code == 2
    assert "--config" in capsys.readouterr().err
    # the same solve without --out prints the same summary and writes no CSV
    assert run(commands[0][:3]) == (0, first[0][1], {})
    assert [run(argv) for argv in commands] == first
