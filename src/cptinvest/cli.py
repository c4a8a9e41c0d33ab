"""Command-line front end: single solves, sensitivity sweeps, estimation.

Sweep grids are half-open on the left, ``start:stop:count`` producing count
evenly spaced points in (start, stop].  Sweep CSVs carry one row per grid
point; ill-posed rows encode the trade as ``+inf``/``-inf`` and the prospect
as ``inf`` so downstream plotting can filter them.
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import sys
from dataclasses import dataclass, fields

from . import binomial as bin_solver
from . import continuous as cont_solver
from .choquet import ProspectDivergenceError
from .config import RunConfig
from .estimate import estimate_lognormal, read_price_csv, weekly_closes
from .market import check_no_arbitrage
from .oracle import GridSpec, verify
from .solution import Solution, SolutionKind

__all__ = ["main", "run_sweep", "solve_once", "sweep_grid", "SweepRow"]

# each sweep axis and the config paths it sets
_AXIS_PATHS = {
    "lambda": ("market__lambda",),
    "alpha": ("preference__alpha",),
    "beta": ("preference__beta",),
    "eta": ("preference__eta_gain", "preference__eta_loss"),
    "zeta": ("preference__loss_aversion",),
}
_CONTINUOUS_AXES = ("lambda", "alpha", "beta")
_BINOMIAL_AXES = ("lambda", "eta", "zeta")


@dataclass(frozen=True)
class SweepRow:
    """One sweep grid point; candidate fields are None where undefined."""

    value: float
    ratio_buy: float | None = None
    ratio_sell: float | None = None
    theta_buy: float | None = None
    theta_sell: float | None = None
    theta_star: str = ""
    case_id: str = ""
    prospect_star: str = ""
    boundary: bool = False
    error: str | None = None


def sweep_grid(start: float, stop: float, count: int) -> list[float]:
    """count points evenly spaced over the half-open interval (start, stop]."""
    if count < 1:
        raise ValueError(f"sweep count must be >= 1, got {count}")
    if not stop > start:
        raise ValueError(f"sweep needs stop > start, got {start}:{stop}")
    step = (stop - start) / count
    return [start + step * (i + 1) for i in range(count)]


def _outcome(sol: Solution) -> dict:
    """The written fields of a solution: its case, encoded trade and prospect, boundary flag."""
    plus_inf = sol.kind is SolutionKind.PLUS_INFINITY
    return {"case_id": sol.case_id,
            "theta_star": "+inf" if plus_inf else repr(float(sol.representative_theta)),
            "prospect_star": repr(float(sol.prospect)), "boundary": sol.boundary}


def _axis_override(config: RunConfig, axis: str, value: float) -> RunConfig:
    return config.replace_values(**dict.fromkeys(_AXIS_PATHS[axis], value))


def _solve_for_mode(config: RunConfig):
    """The checked solve of the config's mode, with the inputs it classified."""
    if config.mode == "binomial":
        return bin_solver.solve_binomial_with_inputs(config.portfolio.x0, config.market,
                                                     config.preference)
    return cont_solver.solve_with_inputs(config.portfolio, config.market, config.preference,
                                         zero_initial=config.mode == "zero-initial")


def _sweep_row(config: RunConfig, value: float) -> SweepRow:
    sol, inputs = _solve_for_mode(config)
    if config.mode == "binomial":
        ratios = (None, None)
        candidates = [ray.theta if ray.case_id.endswith("-4") else None for ray in inputs.rays]
    else:
        ratios = (inputs.ratio_buy, inputs.ratio_sell)
        candidates = cont_solver.interior_candidates(inputs) or (None, None)
    return SweepRow(value, *ratios, *candidates, **_outcome(sol))


def run_sweep(config: RunConfig, axis: str, grid: list[float]) -> list[SweepRow]:
    """Independent solves along one parameter axis; row errors do not abort."""
    axes = _BINOMIAL_AXES if config.mode == "binomial" else _CONTINUOUS_AXES
    if axis not in axes:
        raise ValueError(f"axis {axis!r} not available in {config.mode} mode "
                         f"(choose from {axes})")
    rows = []
    for value in grid:
        try:
            rows.append(_sweep_row(_axis_override(config, axis, value), value))
        except (ValueError, TypeError, ProspectDivergenceError) as exc:
            rows.append(SweepRow(value=value, error=str(exc).replace("\n", "; ")))
    return rows


def _sweep_columns(mode: str, axis: str) -> list[str]:
    """The axis, then ``SweepRow``'s fields; binomial rows have no ratios."""
    skipped = {"value", "ratio_buy", "ratio_sell"} if mode == "binomial" else {"value"}
    return [axis, *(f.name for f in fields(SweepRow) if f.name not in skipped)]


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: str, rows) -> None:
    with open(path, "w", newline="") as handle:
        csv.writer(handle).writerows(rows)


def write_sweep_csv(path: str, mode: str, axis: str, rows: list[SweepRow]) -> None:
    columns = _sweep_columns(mode, axis)
    records = ({axis: row.value, **vars(row)} for row in rows)
    _write_csv(path, [columns, *([_cell(record[c]) for c in columns] for record in records)])


def _auto_grid(config: RunConfig, sol: Solution) -> GridSpec:
    if config.grid is not None:
        return config.grid
    rep = sol.representative_theta
    reach = 10.0 if rep is None or not math.isfinite(rep) else max(10.0, 10.0 * abs(rep))
    if config.mode == "continuous":
        return GridSpec(-config.portfolio.y0, reach, 4001, 2)
    return GridSpec(-reach, reach, 4001, 2)


def solve_once(config: RunConfig) -> dict:
    """Solve one configuration; returns the printable run summary as a dict."""
    sol, inputs = _solve_for_mode(config)
    summary: dict = {"mode": config.mode, "kind": sol.kind.value, **_outcome(sol)}
    if sol.kind is SolutionKind.INTERVAL:
        summary["interval"] = [repr(float(sol.lo)), repr(float(sol.hi))]

    if config.mode == "binomial":
        summary["diagnostics"] = {
            **{f"pseudo_{k}": v for k, v in vars(inputs.pseudo).items()},
            **{f"threshold_{k}": v for k, v in vars(inputs.thresholds).items()},
            "no_trade_cost_level": bin_solver.lambda_bar(config.market),
        }
    else:
        diag = {
            "p_loss_buy": inputs.p_loss_buy,
            "p_loss_sell": inputs.p_loss_sell,
            "gain_buy": inputs.buy.gain, "loss_buy": inputs.buy.loss,
            "gain_sell": inputs.sell.gain, "loss_sell": inputs.sell.loss,
            "ratio_buy": inputs.ratio_buy, "ratio_sell": inputs.ratio_sell,
        }
        if candidates := cont_solver.interior_candidates(inputs):
            diag["theta_buy"], diag["theta_sell"] = candidates
        summary["diagnostics"] = diag

    if config.oracle:
        report = verify(sol, config.portfolio, config.market, config.preference,
                        _auto_grid(config, sol))
        summary["oracle"] = {
            "agreement": report.agreement,
            "detail": report.detail,
            "argmax_theta": report.argmax_theta,
            "max_value": report.max_value,
        }
    return summary


def _print_summary(summary: dict) -> None:
    print(f"mode:        {summary['mode']}")
    print(f"case:        {summary['case_id']}{'  [boundary]' if summary['boundary'] else ''}")
    print(f"theta*:      {summary['theta_star']}")
    print(f"prospect*:   {summary['prospect_star']}")
    for key, value in summary.get("diagnostics", {}).items():
        print(f"  {key}: {value}")
    if "oracle" in summary:
        print(f"oracle:      {summary['oracle']['agreement']} "
              f"({summary['oracle']['detail']})")


def _write_solve_csv(path: str, summary: dict) -> None:
    keys = ("mode", "case_id", "theta_star", "prospect_star", "boundary")
    pairs = [*((key, summary[key]) for key in keys), *summary.get("diagnostics", {}).items()]
    rows = [["key", "value"], *([key, _cell(value)] for key, value in pairs)]
    if "oracle" in summary:
        rows.append(["oracle_agreement", summary["oracle"]["agreement"]])
    _write_csv(path, rows)


def _parse_sweep_axis(text: str) -> tuple[str, float, float, int]:
    try:
        axis, rest = text.split("=", 1)
        start, stop, count = rest.split(":")
        return axis.strip(), float(start), float(stop), int(count)
    except ValueError as exc:
        raise ValueError(
            f"sweep must look like axis=start:stop:count, got {text!r}") from exc


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: building it takes longer
    than a two-state solve."""
    parser = argparse.ArgumentParser(
        prog="cptinvest",
        description="Optimal single-period investment under transaction costs "
                    "for prospect-theory preferences",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one configuration")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--out", help="write the run CSV here")

    p_sweep = sub.add_parser("sweep", help="sweep one parameter axis")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--sweep", required=True,
                         help="axis=start:stop:count, count points in (start, stop]")
    p_sweep.add_argument("--out", help="write the sweep CSV here")

    p_est = sub.add_parser("estimate", help="estimate log-return parameters from prices")
    p_est.add_argument("--prices", required=True, help="CSV file with header date,close")
    p_est.add_argument("--weekly", action="store_true",
                       help="aggregate to the last close of each calendar week first")
    p_est.add_argument("--out", help="write the estimate CSV here")

    p_verify = sub.add_parser("verify", help="solve and certify with the grid oracle")
    p_verify.add_argument("--config", required=True)
    p_verify.set_defaults(out=None)

    p_arb = sub.add_parser("check-arb", help="check the no-arbitrage condition")
    p_arb.add_argument("--config", required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)

    try:
        if args.command == "estimate":
            rows = read_price_csv(args.prices)
            if args.weekly:
                rows = weekly_closes(rows)
            est = estimate_lognormal(rows)
            print(f"mu:     {est.mu!r}")
            print(f"sigma:  {est.sigma!r}")
            print(f"n_obs:  {est.n_observations}")
            if args.out:
                _write_csv(args.out, [["mu", "sigma", "n_obs"],
                                      [repr(est.mu), repr(est.sigma), est.n_observations]])
            return 0

        config = RunConfig.from_file(args.config)

        if args.command == "check-arb":
            arb = check_no_arbitrage(config.market)
            print("pass" if arb.passed else f"fail: {arb.reason}")
            return 0 if arb.passed else 2

        if args.command == "verify":
            # solve with the oracle on, writing no CSV
            config = config.replace_values(solve__oracle=True, output__csv=None)
        out = args.out or config.data["output"]["csv"]
        if args.command in ("solve", "verify"):
            summary = solve_once(config)
            _print_summary(summary)
            if out:
                _write_solve_csv(out, summary)
            return 3 if config.oracle and summary["oracle"]["agreement"] != "match" else 0

        # sweep
        if config.oracle:
            raise ValueError("sweep does not run the oracle; set solve.oracle to false, "
                             "or run verify at each point")
        axis, start, stop, count = _parse_sweep_axis(args.sweep)
        grid = sweep_grid(start, stop, count)
        rows = run_sweep(config, axis, grid)
        failures = sum(1 for r in rows if r.error)
        if out:
            write_sweep_csv(out, config.mode, axis, rows)
            print(f"wrote {len(rows)} rows to {out} ({failures} row errors)")
        else:
            for row in rows:
                print(f"{axis}={row.value!r} case={row.case_id} theta*={row.theta_star} "
                      f"prospect*={row.prospect_star}"
                      + (f" ERROR: {row.error}" if row.error else ""))
        return 0 if failures == 0 else 2

    except (ValueError, OSError, ProspectDivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4 if isinstance(exc, ProspectDivergenceError) else 2


if __name__ == "__main__":
    sys.exit(main())
