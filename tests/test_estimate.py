import codecs
import datetime as dt
import math
import random

import pytest

from cptinvest.cli import main
from cptinvest.estimate import (
    PriceRow,
    annualized_rate_to_period,
    estimate_lognormal,
    read_price_csv,
    weekly_closes,
)
from cptinvest.market import Lognormal


def rows(*pairs):
    return [PriceRow(dt.date.fromisoformat(d), c) for d, c in pairs]


def test_constant_prices_give_degenerate_estimate():
    est = estimate_lognormal(rows(("2024-01-01", 100.0), ("2024-01-02", 100.0),
                                  ("2024-01-03", 100.0)))
    assert est.mu == 0.0
    assert est.sigma == 0.0
    with pytest.raises(ValueError):
        Lognormal(est.mu, est.sigma)  # rejected downstream


def test_two_prices_insufficient():
    with pytest.raises(ValueError):
        estimate_lognormal(rows(("2024-01-01", 100.0), ("2024-01-02", 110.0)))


def test_rejects_nonpositive_and_unordered():
    with pytest.raises(ValueError):
        estimate_lognormal(rows(("2024-01-01", 100.0), ("2024-01-02", -1.0),
                                ("2024-01-03", 100.0)))
    with pytest.raises(ValueError):
        estimate_lognormal(rows(("2024-01-03", 100.0), ("2024-01-02", 101.0),
                                ("2024-01-04", 102.0)))


def test_recovers_known_parameters_within_three_standard_errors():
    mu, sigma, n = 4e-4, 8e-3, 3000
    rng = random.Random(314159)
    price = 100.0
    data = []
    day = dt.date(2015, 1, 1)
    for i in range(n + 1):
        data.append(PriceRow(day, price))
        price *= math.exp(rng.gauss(mu, sigma))
        day += dt.timedelta(days=1)
    est = estimate_lognormal(data)
    assert est.n_observations == n
    assert abs(est.mu - mu) <= 3 * sigma / math.sqrt(n)
    assert abs(est.sigma - sigma) <= 3 * sigma / math.sqrt(2 * n)


def test_weekly_takes_the_last_close_of_each_week():
    data = rows(
        ("2024-01-01", 1.0),  # Mon, week 1
        ("2024-01-03", 2.0),  # Wed, week 1
        ("2024-01-05", 3.0),  # Fri, week 1
        ("2024-01-08", 4.0),  # Mon, week 2
        ("2024-01-12", 5.0),  # Fri, week 2
        ("2024-01-15", 6.0),  # Mon, week 3
    )
    weekly = weekly_closes(data)
    assert [row.close for row in weekly] == [3.0, 5.0, 6.0]


def test_annualized_rate_conversion_reproduces_reference_value():
    assert annualized_rate_to_period(0.000696, 52) == pytest.approx(1.3380e-5, abs=5e-10)
    assert annualized_rate_to_period(0.0, 52) == 0.0
    assert annualized_rate_to_period(0.05, 1) == pytest.approx(0.05)
    with pytest.raises(ValueError):
        annualized_rate_to_period(-1.0, 52)
    with pytest.raises(ValueError):
        annualized_rate_to_period(0.05, 0.5)


def test_read_price_csv(tmp_path):
    path = tmp_path / "prices.csv"
    path.write_text("date,close\n2024-01-01,100\n2024-01-02,101.5\n")
    data = read_price_csv(path)
    assert data == rows(("2024-01-01", 100.0), ("2024-01-02", 101.5))
    bad = tmp_path / "bad.csv"
    bad.write_text("day,price\n2024-01-01,100\n")
    with pytest.raises(ValueError):
        read_price_csv(bad)
    bad.write_text("date,close\nnot-a-date,100\n")
    with pytest.raises(ValueError):
        read_price_csv(bad)


@pytest.mark.parametrize("close", ["nan", "inf"])
def test_read_price_csv_refuses_a_non_finite_close(tmp_path, capsys, close):
    path = tmp_path / "prices.csv"
    path.write_text(f"date,close\n2024-01-01,100\n2024-01-02,{close}\n2024-01-03,102\n")
    message = f"line 3: close '{close}' is not finite"
    with pytest.raises(ValueError, match=message):
        read_price_csv(path)
    assert main(["estimate", "--prices", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("row, got", [("2024-01-02", 1), ("2024-01-02,100,7", 3)],
                         ids=["no-close", "extra-field"])
def test_read_price_csv_refuses_a_row_of_the_wrong_width(tmp_path, capsys, row, got):
    """A row without its close used to end in a TypeError traceback, and a row with
    a third field was read as if that field were not there."""
    path = tmp_path / "prices.csv"
    path.write_text(f"date,close\n2024-01-01,100\n{row}\n2024-01-03,102\n")
    message = f"line 3: expected 2 fields, date and close, got {got}"
    with pytest.raises(ValueError, match=message):
        read_price_csv(path)
    assert main(["estimate", "--prices", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("text", ["2024-01-01,100\n\n2024-01-02,bad\n",
                                  '2024-01-01,"100\n"\n2024-01-02,bad\n'],
                         ids=["blank-line", "quoted-newline"])
def test_read_price_csv_names_the_line_of_the_file(tmp_path, text):
    """A blank line or a quoted newline before a bad row used to shift its number."""
    path = tmp_path / "prices.csv"
    path.write_text("date,close\n" + text)
    with pytest.raises(ValueError, match="^line 4: bad close 'bad'$"):
        read_price_csv(path)


def test_estimate_reads_a_price_file_with_a_byte_order_mark(tmp_path, capsys):
    """Spreadsheet programs save CSV with a UTF-8 byte-order mark.  It used to stay
    on the header, read as '\\ufeffdate', and the file was refused with exit status 2."""
    text = ("date,close\n2024-01-01,100\n2024-01-03,101\n2024-01-08,102\n"
            "2024-01-12,103\n2024-01-17,104\n")
    outputs = []
    for name, data in (("plain", text.encode()), ("marked", codecs.BOM_UTF8 + text.encode())):
        prices, out = tmp_path / f"{name}.csv", tmp_path / f"{name}-estimate.csv"
        prices.write_bytes(data)
        assert main(["estimate", "--prices", str(prices), "--weekly", "--out", str(out)]) == 0
        captured = capsys.readouterr()
        outputs.append((captured.out, captured.err, out.read_bytes()))
    assert outputs[0] == outputs[1]
    assert outputs[0][0].startswith("mu:     0.014635191150056613\n")
