"""Parameter estimation from price series and rate-period conversion."""

from __future__ import annotations

import csv
import datetime as dt
import math
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "PriceRow",
    "LognormalEstimate",
    "read_price_csv",
    "weekly_closes",
    "estimate_lognormal",
    "annualized_rate_to_period",
]


@dataclass(frozen=True)
class PriceRow:
    date: dt.date
    close: float


@dataclass(frozen=True)
class LognormalEstimate:
    """Sample mean / standard deviation (n-1) of per-period log returns."""

    mu: float
    sigma: float
    n_observations: int


def read_price_csv(path: str | Path) -> list[PriceRow]:
    """Read a UTF-8 ``date,close`` CSV with ISO-8601 dates, byte-order mark or not."""
    rows: list[PriceRow] = []
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or [f.strip() for f in reader.fieldnames] != ["date", "close"]:
            raise ValueError(f"expected header 'date,close', got {reader.fieldnames}")
        for record in reader:
            line_no = reader.line_num  # the record's last line: blank lines are skipped
            # DictReader files a short row's missing fields as None, a long row's rest under None
            got = 2 + len(record.pop(None, ())) - list(record.values()).count(None)
            if got != 2:
                raise ValueError(f"line {line_no}: expected 2 fields, date and close, got {got}")
            try:
                date = dt.date.fromisoformat(record["date"].strip())
            except ValueError as exc:
                raise ValueError(f"line {line_no}: bad date {record['date']!r}") from exc
            try:
                close = float(record["close"])
            except ValueError as exc:
                raise ValueError(f"line {line_no}: bad close {record['close']!r}") from exc
            if not math.isfinite(close):
                raise ValueError(f"line {line_no}: close {record['close']!r} is not finite")
            rows.append(PriceRow(date, close))
    return rows


def weekly_closes(rows: list[PriceRow]) -> list[PriceRow]:
    """Keep the last observation of each ISO calendar week."""
    out: list[PriceRow] = []
    last_key = None
    for row in rows:
        iso = row.date.isocalendar()
        key = (iso[0], iso[1])
        if key == last_key:
            out[-1] = row
        else:
            out.append(row)
            last_key = key
    return out


def estimate_lognormal(rows: list[PriceRow]) -> LognormalEstimate:
    """Fit the per-period log-return mean and standard deviation.

    Needs at least three strictly positive closes with strictly increasing
    dates (two returns pin down a standard deviation with denominator n-1).
    """
    if len(rows) < 3:
        raise ValueError(f"need at least 3 price observations, got {len(rows)}")
    for i, row in enumerate(rows):
        if row.close <= 0:
            raise ValueError(f"nonpositive close {row.close} at {row.date}")
        if i > 0 and row.date <= rows[i - 1].date:
            raise ValueError(f"dates must be strictly increasing at {row.date}")
    log_returns = [
        math.log(b.close / a.close) for a, b in zip(rows[:-1], rows[1:])
    ]
    n = len(log_returns)
    mu = sum(log_returns) / n
    var = sum((x - mu) ** 2 for x in log_returns) / (n - 1)
    return LognormalEstimate(mu=mu, sigma=math.sqrt(var), n_observations=n)


def annualized_rate_to_period(annual_rate: float, periods_per_year: float) -> float:
    """Compound an annual simple rate down to one period."""
    if annual_rate <= -1.0:
        raise ValueError(f"annual rate must exceed -100%, got {annual_rate}")
    if periods_per_year < 1:
        raise ValueError(f"periods per year must be >= 1, got {periods_per_year}")
    return (1.0 + annual_rate) ** (1.0 / periods_per_year) - 1.0
