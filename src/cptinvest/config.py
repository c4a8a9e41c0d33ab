"""Run configuration: JSON document with sections, defaults, validation.

The effective configuration (defaults filled in) serializes back to JSON and
reloads to an identical run.  Validation is exhaustive: every violated
invariant is reported, not just the first.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

from .market import (
    Binomial,
    Empirical,
    Lognormal,
    MarketModel,
    Normal,
    Portfolio,
    ReturnLaw,
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
_RETURN_KINDS = ("lognormal", "normal", "student-t", "binomial", "empirical")


class ConfigError(ValueError):
    """Invalid configuration; ``problems`` lists every violated invariant."""

    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__("invalid configuration:\n  - " + "\n  - ".join(problems))


# kind-discriminated subtrees are replaced wholesale, never key-merged
_REPLACE_WHOLE = {"market.returns", "solve.grid"}


def _merge(defaults: dict, overrides: dict, problems: list[str], path: str = "") -> dict:
    out = {}
    for key, default in defaults.items():
        dotted = f"{path}{key}"
        if key in overrides and dotted in _REPLACE_WHOLE:
            out[key] = overrides[key]
        elif isinstance(default, dict) and isinstance(overrides.get(key), dict):
            out[key] = _merge(default, overrides[key], problems, f"{dotted}.")
        elif key in overrides:
            out[key] = overrides[key]
        else:
            out[key] = default
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
    def from_dict(cls, raw: dict[str, Any]) -> "RunConfig":
        problems: list[str] = []
        data = _merge(DEFAULT_CONFIG, raw, problems)

        returns = _build_returns(data["market"]["returns"], problems)
        market = None
        if returns is not None:
            try:
                market = MarketModel(float(data["market"]["r"]),
                                     float(data["market"]["lambda"]), returns)
            except (TypeError, ValueError) as exc:
                problems.append(f"market: {exc}")

        preference = _build_preference(data["preference"], problems)
        portfolio = None
        try:
            portfolio = Portfolio(float(data["portfolio"]["x0"]),
                                  float(data["portfolio"]["y0"]))
        except (TypeError, ValueError) as exc:
            problems.append(f"portfolio: {exc}")

        mode = data["solve"]["mode"]
        if mode not in _MODES:
            problems.append(f"solve.mode must be one of {_MODES}, got {mode!r}")

        grid = None
        if data["solve"]["grid"] is not None:
            try:
                grid = GridSpec(**data["solve"]["grid"])
            except (TypeError, ValueError) as exc:
                problems.append(f"solve.grid: {exc}")

        fmt = data["output"]["format"]
        if fmt not in ("csv", "summary"):
            problems.append(f"output.format must be 'csv' or 'summary', got {fmt!r}")

        if market is not None and preference is not None and portfolio is not None \
                and mode in _MODES:
            _check_mode(mode, market, preference, portfolio, problems)

        if problems:
            raise ConfigError(problems)
        return cls(data=data, market=market, preference=preference,
                   portfolio=portfolio, mode=mode,
                   oracle=bool(data["solve"]["oracle"]), grid=grid)

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        with open(path) as handle:
            return cls.from_dict(json.load(handle))

    def to_dict(self) -> dict[str, Any]:
        """Effective configuration with all defaults filled in."""
        return json.loads(self.to_json())

    def to_json(self) -> str:
        return json.dumps(self.data, indent=2, sort_keys=True)

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


def _build_returns(spec: dict, problems: list[str]) -> ReturnLaw | None:
    kind = spec.get("kind")
    if kind not in _RETURN_KINDS:
        problems.append(f"market.returns.kind must be one of {_RETURN_KINDS}, got {kind!r}")
        return None
    try:
        if kind == "lognormal":
            return Lognormal(float(spec["mu"]), float(spec["sigma"]))
        if kind == "normal":
            return Normal(float(spec["mu"]), float(spec["sigma"]))
        if kind == "student-t":
            return StudentT(float(spec["nu"]), float(spec.get("loc", 0.0)),
                            float(spec.get("scale", 1.0)))
        if kind == "binomial":
            return Binomial(float(spec["u"]), float(spec["d"]), float(spec["p"]))
        return Empirical(tuple(float(v) for v in spec["values"]))
    except KeyError as exc:
        problems.append(f"market.returns: missing parameter {exc}")
    except (TypeError, ValueError) as exc:
        problems.append(f"market.returns: {exc}")
    return None


def _build_preference(spec: dict, problems: list[str]) -> CptPreference | None:
    utility = None
    try:
        if spec["utility"] == "power":
            utility = PowerUtility(float(spec["alpha"]), float(spec["beta"]),
                                   float(spec["loss_aversion"]))
        elif spec["utility"] == "exponential":
            utility = ExponentialUtility(float(spec["eta_gain"]), float(spec["eta_loss"]),
                                         float(spec["loss_aversion"]))
        else:
            problems.append(
                f"preference.utility must be 'power' or 'exponential', got {spec['utility']!r}"
            )
    except (TypeError, ValueError) as exc:
        problems.append(f"preference utility: {exc}")

    weighting = None
    try:
        if spec["weighting"] == "tk":
            weighting = TverskyKahnemanWeighting(float(spec["gamma"]), float(spec["delta"]))
        elif spec["weighting"] == "prelec":
            weighting = PrelecWeighting(float(spec["gamma"]),
                                        float(spec["delta_gain"]),
                                        float(spec["delta_loss"]))
        elif spec["weighting"] == "identity":
            weighting = IdentityWeighting()
        else:
            problems.append(
                "preference.weighting must be 'tk', 'prelec' or 'identity', "
                f"got {spec['weighting']!r}"
            )
    except (TypeError, ValueError) as exc:
        problems.append(f"preference weighting: {exc}")

    if utility is None or weighting is None:
        return None
    return CptPreference(utility, weighting)


def _check_mode(mode: str, market: MarketModel, preference: CptPreference,
                portfolio: Portfolio, problems: list[str]) -> None:
    if mode == "continuous":
        if portfolio.y0 <= 0:
            problems.append("continuous mode requires portfolio.y0 > 0")
        if not isinstance(preference.utility, PowerUtility):
            problems.append("continuous mode requires the power utility")
    elif mode == "zero-initial":
        if portfolio.y0 != 0:
            problems.append("zero-initial mode requires portfolio.y0 = 0")
        if not isinstance(preference.utility, PowerUtility):
            problems.append("zero-initial mode requires the power utility")
    elif mode == "binomial":
        if portfolio.y0 != 0:
            problems.append("binomial mode requires portfolio.y0 = 0")
        if not isinstance(market.returns, Binomial):
            problems.append("binomial mode requires a binomial return law")
        if not isinstance(preference.utility, ExponentialUtility):
            problems.append("binomial mode requires the exponential utility")
        elif preference.utility.eta_gain != preference.utility.eta_loss:
            problems.append("binomial mode requires equal gain/loss curvature")
    arb = check_no_arbitrage(market)
    if not arb:
        problems.append(f"no-arbitrage violated: {arb.reason}")
