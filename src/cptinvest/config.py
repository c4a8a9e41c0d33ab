"""Run configuration: JSON document with sections, defaults, validation.

The effective configuration (defaults filled in) serializes back to JSON and
reloads to an identical run.  Validation is exhaustive: every violated
invariant is reported, not just the first.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields
from typing import Any

from .market import (
    Binomial,
    Empirical,
    Lognormal,
    MarketModel,
    Normal,
    Portfolio,
    StudentT,
    check_no_arbitrage,
)
from .oracle import GridSpec
from .preferences import (
    CptPreference,
    ExponentialUtility,
    IdentityWeighting,
    PowerUtility,
    PrelecWeighting,
    TverskyKahnemanWeighting,
)

__all__ = ["ConfigError", "RunConfig", "DEFAULT_CONFIG"]

# reference parameterization: weekly index calibration with the standard
# estimated preference parameters
DEFAULT_CONFIG: dict[str, Any] = {
    "market": {
        "r": 1.3380e-05,
        "lambda": 0.01,
        "returns": {"kind": "lognormal", "mu": 3.2932e-04, "sigma": 7.4383e-03},
    },
    "preference": {
        "utility": "power",
        "alpha": 0.88,
        "beta": 0.88,
        "loss_aversion": 2.25,
        "eta_gain": 1.0,
        "eta_loss": 1.0,
        "weighting": "tk",
        "gamma": 0.61,
        "delta": 0.69,
        "delta_gain": 1.0,
        "delta_loss": 1.0,
    },
    "portfolio": {"x0": 1.0, "y0": 1.0},
    "solve": {"mode": "continuous", "oracle": False, "grid": None},
    "output": {"csv": None, "format": "summary"},
}

_MODES = ("continuous", "zero-initial", "binomial")


def _number(value: Any, key: str) -> float:
    """A numeric config value: a JSON number, never a string or a boolean."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key} must be a JSON number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # counted without str(), which refuses past 4 300 digits
        digits = int(math.log10(abs(value))) + 1  # off by at most one: made exact
        digits += (abs(value) >= 10 ** digits) - (abs(value) < 10 ** (digits - 1))
        raise ValueError(f"{key} must fit in a float, got an integer of {digits} digits") from None


def _numbers(section: dict, *keys: str) -> list[float]:
    return [_number(section[key], key) for key in keys]


# each kind a config may name, and the class it builds from the section's fields
_RETURNS = {"lognormal": Lognormal, "normal": Normal, "student-t": StudentT,
            "binomial": Binomial, "empirical": Empirical}
_UTILITIES = {"power": PowerUtility, "exponential": ExponentialUtility}
_WEIGHTINGS = {"tk": TverskyKahnemanWeighting, "prelec": PrelecWeighting,
               "identity": IdentityWeighting}


def _from_fields(cls, section: dict):
    """``cls`` from the section's number for each field in field order, a left-out one
    taking its default; an empirical law's one field is a list of numbers."""
    if cls is Empirical:
        values = section["values"]
        if not isinstance(values, list):
            raise ValueError(f"values must be a JSON list of numbers, got {values!r}")
        return Empirical(tuple(_number(v, "every value") for v in values))
    defaults = {f.name: f.default for f in fields(cls) if f.default is not MISSING}
    return cls(*_numbers({**defaults, **section}, *(f.name for f in fields(cls))))


class ConfigError(ValueError):
    """Invalid configuration; ``problems`` lists every violated invariant."""

    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__("invalid configuration:\n  - " + "\n  - ".join(problems))


# kind-discriminated subtrees are replaced wholesale, never key-merged
_REPLACE_WHOLE = {"market.returns", "solve.grid"}


def _not_an_object(name: str, value: Any) -> str:
    return f"{name} must be a JSON object, got {value!r}"


def _merge(defaults: dict, overrides: Any, problems: list[str], path: str = "") -> dict:
    """``overrides`` over ``defaults``; a section that is not an object keeps its defaults."""
    if not isinstance(overrides, dict):
        problems.append(_not_an_object(path[:-1] or "the configuration", overrides))
        return defaults
    out = {}
    for key, default in defaults.items():
        dotted = f"{path}{key}"
        value = overrides.get(key, default)
        if dotted in _REPLACE_WHOLE:
            # null only where the default is null (solve.grid)
            if not isinstance(value, dict) and value is not default:
                problems.append(_not_an_object(dotted, value))
                value = default
            out[key] = value
        elif isinstance(default, dict):
            out[key] = _merge(default, value, problems, f"{dotted}.")
        else:
            out[key] = value
    for key in overrides:
        if key not in defaults:
            problems.append(f"unknown key {path}{key}")
    return out


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration with the domain objects prebuilt."""

    data: dict[str, Any]
    market: MarketModel
    preference: CptPreference
    portfolio: Portfolio
    mode: str
    oracle: bool
    grid: GridSpec | None = None

    @classmethod
    def from_dict(cls, raw: Any) -> "RunConfig":
        problems: list[str] = []
        data = _merge(DEFAULT_CONFIG, raw, problems)

        spec = data["market"]["returns"]
        returns = _build(_RETURNS, spec, "kind", "market.returns.kind",
                         f"one of {tuple(_RETURNS)}", "market.returns", problems)
        if isinstance(spec.get("kind"), str) and spec["kind"] in _RETURNS:
            known = {"kind", *(f.name for f in fields(_RETURNS[spec["kind"]]))}
            problems.extend(f"unknown key market.returns.{key}" for key in spec
                            if key not in known)
        market = None
        if returns is not None:
            market = _attempt(problems, "market",
                              lambda s: MarketModel(*_numbers(s, "r", "lambda"), returns),
                              data["market"])

        preference = _build_preference(data["preference"], problems)
        portfolio = _attempt(problems, "portfolio", _from_fields, Portfolio, data["portfolio"])

        mode = data["solve"]["mode"]
        if mode not in _MODES:
            problems.append(f"solve.mode must be one of {_MODES}, got {mode!r}")
        oracle = data["solve"]["oracle"]
        if not isinstance(oracle, bool):
            problems.append(f"solve.oracle must be true or false, got {oracle!r}")

        grid = None
        if data["solve"]["grid"] is not None:
            grid = _attempt(problems, "solve.grid", _grid, data["solve"]["grid"])

        csv_path = data["output"]["csv"]
        if not (csv_path is None or isinstance(csv_path, str)):
            problems.append(f"output.csv must be a string or null, got {csv_path!r}")
        fmt = data["output"]["format"]
        if fmt not in ("csv", "summary"):
            problems.append(f"output.format must be 'csv' or 'summary', got {fmt!r}")

        if market is not None and preference is not None and portfolio is not None \
                and mode in _MODES:
            _check_mode(mode, market, preference, portfolio, problems)

        if problems:
            raise ConfigError(problems)
        return cls(data=data, market=market, preference=preference,
                   portfolio=portfolio, mode=mode, oracle=oracle, grid=grid)

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        with open(path) as handle:
            return cls.from_dict(json.load(handle))

    def replace_values(self, **section_updates) -> "RunConfig":
        """New config with path overrides, ``__`` between keys, e.g. ``market__lambda=0.01``."""
        data = json.loads(json.dumps(self.data))
        for dotted, value in section_updates.items():
            parts = dotted.split("__")
            node = data
            for part in parts[:-1]:
                node = node[part]
            node[parts[-1]] = value
        return RunConfig.from_dict(data)


def _build(table: dict, spec: dict, key: str, field: str, choices: str, label: str,
           problems: list[str]):
    """What ``table`` builds from ``spec`` for the kind ``spec[key]``, or None with a problem.

    A kind that is not a string (a JSON list, say) is a problem too, not a TypeError.
    """
    kind = spec.get(key)
    if not (isinstance(kind, str) and kind in table):
        problems.append(f"{field} must be {choices}, got {kind!r}")
        return None
    return _attempt(problems, label, _from_fields, table[kind], spec)


def _attempt(problems: list[str], label: str, build, *args):
    """``build(*args)``, or None with its error as one problem under ``label``."""
    try:
        return build(*args)
    except KeyError as exc:
        problems.append(f"{label}: missing parameter {exc}")
    except (TypeError, ValueError) as exc:
        problems.append(f"{label}: {exc}")
    return None


def _grid(spec: dict) -> GridSpec:
    """The solve.grid section checked as numbers, built from the raw values GridSpec shows."""
    _numbers(spec, *spec)
    return GridSpec(**spec)


def _either(table: dict) -> str:
    """The table's kinds as "'a', 'b' or 'c'"."""
    *others, last = map(repr, table)
    return f"{', '.join(others)} or {last}"


def _build_preference(spec: dict, problems: list[str]) -> CptPreference | None:
    parts = [_build(table, spec, part, f"preference.{part}", _either(table),
                    f"preference {part}", problems)
             for part, table in (("utility", _UTILITIES), ("weighting", _WEIGHTINGS))]
    return None if None in parts else CptPreference(*parts)


def _check_mode(mode: str, market: MarketModel, preference: CptPreference,
                portfolio: Portfolio, problems: list[str]) -> None:
    u = preference.utility
    exponential = isinstance(u, ExponentialUtility)
    # each requirement once, in the order it is reported, with whether the config breaks it
    broken = {
        "requires portfolio.y0 > 0": mode == "continuous" and portfolio.y0 <= 0,
        "requires portfolio.y0 = 0": mode != "continuous" and portfolio.y0 != 0,
        "requires the power utility": mode != "binomial" and not isinstance(u, PowerUtility),
        "requires a binomial return law":
            mode == "binomial" and not isinstance(market.returns, Binomial),
        "requires the exponential utility": mode == "binomial" and not exponential,
        "requires equal gain/loss curvature":
            mode == "binomial" and exponential and u.eta_gain != u.eta_loss,
    }
    problems.extend(f"{mode} mode {text}" for text, fails in broken.items() if fails)
    arb = check_no_arbitrage(market)
    if not arb:
        problems.append(f"no-arbitrage violated: {arb.reason}")
