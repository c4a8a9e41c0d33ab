import csv
import dataclasses
import json
import math
import operator

import pytest

from cptinvest import binomial, cli, continuous
from cptinvest.cli import main, run_sweep, solve_once, sweep_grid, write_sweep_csv
from cptinvest.config import DEFAULT_CONFIG, ConfigError, RunConfig
from cptinvest.market import Empirical, MarketModel, Normal
from cptinvest.oracle import GridSpec
from cptinvest.preferences import PrelecWeighting

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


class TestConfig:
    def test_defaults_fill_in(self):
        config = RunConfig.from_dict({})
        assert config.mode == "continuous"
        assert config.market.lam == DEFAULT_CONFIG["market"]["lambda"]

    def test_round_trip_reproduces_results(self):
        config = RunConfig.from_dict(BULL)
        text = config.to_json()
        reloaded = RunConfig.from_json(text)
        assert reloaded.to_dict() == config.to_dict()
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
], ids=["normal", "empirical", "prelec", "zero-initial-y0", "zero-initial-exponential",
        "binomial-y0", "binomial-law", "binomial-curvature"])
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
