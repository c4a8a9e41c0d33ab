"""Seeded inputs, operations and output checks of the four benchmark workloads.

Every workload draws a fixed-size pool of instances from its seed and then
cycles through the pool in a closed loop.  Instance kinds (law family,
weighting, atom count, command) follow a fixed pattern over pool positions,
so the mix of kinds in a run does not depend on the seed; the seed only
changes the parameters drawn within each kind.  That keeps run-to-run spread
down to what the program itself does.

Import this module only after ``cptinvest`` is importable (``run.py`` puts
the checkout's ``src`` first on ``sys.path``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

import cptinvest as ci
from cptinvest import cli
from cptinvest.config import RunConfig

# Instance kinds repeat along pool positions with these periods.
CONTINUOUS_KINDS = (("lognormal", "tk"), ("lognormal", "identity"), ("normal", "tk"),
                    ("lognormal", "tk"), ("student-t", "tk"), ("lognormal", "identity"),
                    ("normal", "identity"), ("lognormal", "tk"))
EMPIRICAL_YEARS = (1, 2, 3, 4, 5)
WEEKS_PER_YEAR = 52
# every sixth command is a sweep; the sweep slot shifts by one each pass over
# CLI_KINDS, so six passes sweep every kind once
CLI_SWEEP_EVERY = 6
# cost sweeps for continuous laws; binomial laws sweep loss aversion, because
# lowering the cost rate can open an arbitrage in a two-state market
CLI_SWEEPS = {"lambda": ("market", "lambda", "lambda=0:0.02:5"),
              "zeta": ("preference", "loss_aversion", "zeta=1:4:5")}

# The empirical oracle grid has a tenth of the default 4001 points: at 4001
# points one op takes 2-9 s, too few per run for a tail percentile.  Per-row
# cost, the quantity the grid evaluator is judged by, is unchanged.
EMPIRICAL_GRID_POINTS = 401


@dataclass
class Instance:
    """One generated input; ``params`` is the JSON-able description of it."""

    key: str
    params: dict
    args: tuple = ()


@dataclass
class Workload:
    name: str
    pool: list
    op: Callable[[Instance], dict]
    warmup: list          # one instance per op kind, fixed, independent of the seed
    cycle: int            # ops in one period of the kind pattern; runs time whole cycles
    rate: float           # ops a run times per second of --seconds (see RATES)
    python_share: float   # interpreter share of the calibration kernel (see PYTHON_SHARE)
    check_pool: Callable[[list, dict], dict] | None = None


def solution_record(sol) -> dict:
    return {"case_id": sol.case_id, "kind": sol.kind.value,
            "theta": float(sol.representative_theta), "prospect": float(sol.prospect)}


# ---------------------------------------------------------------- continuous

def _continuous_draw(rng: random.Random, family: str, identity: bool):
    r, lam = rng.uniform(0.0, 0.04), rng.uniform(0.0, 0.04)
    if family == "lognormal":
        ret = {"kind": "lognormal", "mu": rng.uniform(-0.02, 0.08),
               "sigma": rng.uniform(0.05, 0.35)}
    elif family == "normal":
        ret = {"kind": "normal", "mu": rng.uniform(-0.02, 0.08),
               "sigma": rng.uniform(0.05, 0.35)}
    else:
        ret = {"kind": "student-t", "nu": rng.uniform(4.0, 10.0),
               "loc": rng.uniform(-0.02, 0.08), "scale": rng.uniform(0.05, 0.3)}
    alpha = rng.uniform(0.45, 0.82)
    beta = rng.uniform(alpha + 0.05, min(1.0, alpha + 0.35))
    params = {"r": r, "lambda": lam, "returns": ret, "alpha": alpha, "beta": beta,
              "loss_aversion": rng.uniform(1.05, 4.0), "y0": rng.uniform(0.2, 2.0)}
    if identity:
        params["weighting"] = {"kind": "identity"}
    else:
        params["weighting"] = {"kind": "tk", "gamma": rng.uniform(0.35, 1.0),
                               "delta": rng.uniform(0.35, 1.0)}
    return params


def _returns(spec: dict):
    kind = spec["kind"]
    if kind == "lognormal":
        return ci.Lognormal(spec["mu"], spec["sigma"])
    if kind == "normal":
        return ci.Normal(spec["mu"], spec["sigma"])
    if kind == "student-t":
        return ci.StudentT(spec["nu"], spec["loc"], spec["scale"])
    if kind == "binomial":
        return ci.Binomial(spec["u"], spec["d"], spec["p"])
    return ci.Empirical(tuple(spec["values"]))


def _weighting(spec: dict):
    kind = spec["kind"]
    if kind == "tk":
        return ci.TverskyKahnemanWeighting(spec["gamma"], spec["delta"])
    if kind == "prelec":
        return ci.PrelecWeighting(spec["gamma"], spec["delta_gain"], spec["delta_loss"])
    return ci.IdentityWeighting()


def _power_problem(params: dict):
    market = ci.MarketModel(params["r"], params["lambda"], _returns(params["returns"]))
    pref = ci.CptPreference(
        ci.PowerUtility(params["alpha"], params["beta"], params["loss_aversion"]),
        _weighting(params["weighting"]))
    return ci.Portfolio(1.0, params["y0"]), market, pref


def _admissible(sol, y0: float) -> bool:
    # criterion-7 filter: finite optima the oracle grid can resolve
    if sol.kind is not ci.SolutionKind.FINITE_POINT:
        return False
    return 0.01 <= abs(sol.theta) <= 20.0 or sol.theta == -y0


def _certify_instance(key: str, params: dict, n_points: int, tol: float | None):
    """Draw-and-filter helper: returns an Instance or None when not admissible."""
    port, market, pref = _power_problem(params)
    sol = ci.solve(port, market, pref)
    if not _admissible(sol, port.y0):
        return None
    span = max(10.0, 10.0 * abs(sol.theta))
    spec = ci.GridSpec(-port.y0, span, n_points, 2)
    return Instance(key, params, (port, market, pref, spec, tol))


def certify_op(inst: Instance) -> dict:
    port, market, pref, spec, tol = inst.args
    sol = ci.solve(port, market, pref)
    report = ci.verify(sol, port, market, pref, spec, tol_value=tol)
    return {**solution_record(sol), "agreement": report.agreement}


def continuous_pool(seed: int, size: int) -> list:
    pool = []
    for pos in range(size):
        rng = random.Random(f"continuous-certify:{seed}:{pos}")
        family, weighting = CONTINUOUS_KINDS[pos % len(CONTINUOUS_KINDS)]
        while True:
            params = _continuous_draw(rng, family, identity=weighting == "identity")
            inst = _certify_instance(f"c{pos}", params, 4001, 1e-5)
            if inst is not None:
                pool.append(inst)
                break
    return pool


CONTINUOUS_WARMUP = {
    "r": 0.02, "lambda": 0.02, "returns": {"kind": "lognormal", "mu": 0.05, "sigma": 0.2},
    "alpha": 0.6, "beta": 0.8, "loss_aversion": 2.0, "y0": 1.0,
    "weighting": {"kind": "tk", "gamma": 0.6, "delta": 0.7},
}


# ----------------------------------------------------------------- empirical

def _empirical_draw(rng: random.Random, years: int):
    # weekly gross returns of a synthetic index with drawn annual drift/volatility
    drift = rng.uniform(0.0, 0.15) / WEEKS_PER_YEAR
    vol = rng.uniform(0.1, 0.35) / math.sqrt(WEEKS_PER_YEAR)
    values = [math.exp(rng.gauss(drift, vol)) for _ in range(years * WEEKS_PER_YEAR)]
    alpha = rng.uniform(0.45, 0.82)
    beta = rng.uniform(alpha + 0.05, min(1.0, alpha + 0.35))
    return {"r": rng.uniform(0.0, 0.04) / WEEKS_PER_YEAR, "lambda": rng.uniform(0.0, 0.02),
            "returns": {"kind": "empirical", "values": values},
            "alpha": alpha, "beta": beta, "loss_aversion": rng.uniform(1.05, 4.0),
            "y0": rng.uniform(0.2, 2.0),
            "weighting": {"kind": "tk", "gamma": rng.uniform(0.35, 1.0),
                          "delta": rng.uniform(0.35, 1.0)}}


def empirical_pool(seed: int, size: int) -> list:
    pool = []
    for pos in range(size):
        rng = random.Random(f"empirical-certify:{seed}:{pos}")
        years = EMPIRICAL_YEARS[pos % len(EMPIRICAL_YEARS)]
        while True:
            params = _empirical_draw(rng, years)
            inst = _certify_instance(f"e{pos}", params, EMPIRICAL_GRID_POINTS, None)
            if inst is not None:
                pool.append(inst)
                break
    return pool


# ----------------------------------------------------------------- two-state

def _two_state_draw(rng: random.Random, weighting: str):
    while True:
        u = rng.uniform(1.01, 1.7)
        d = rng.uniform(0.4, u - 0.03)
        params = {"r": rng.uniform(0.0, 0.08), "lambda": rng.uniform(0.0, 0.35),
                  "returns": {"kind": "binomial", "u": u, "d": d,
                              "p": rng.uniform(0.05, 0.95)}}
        market = ci.MarketModel(params["r"], params["lambda"], _returns(params["returns"]))
        if ci.check_no_arbitrage(market).passed:
            break
    if weighting == "tk":
        params["weighting"] = {"kind": "tk", "gamma": rng.uniform(0.3, 1.0),
                               "delta": rng.uniform(0.3, 1.0)}
    elif weighting == "prelec":
        params["weighting"] = {"kind": "prelec", "gamma": rng.uniform(0.35, 0.95),
                               "delta_gain": rng.uniform(0.5, 2.0),
                               "delta_loss": rng.uniform(0.5, 2.0)}
    else:
        params["weighting"] = {"kind": "identity"}
    params["eta"] = rng.uniform(0.2, 3.0)
    params["loss_aversion"] = rng.uniform(1.01, 4.0)
    return params


# weightings by pool position: 4 TK, 3 Prelec, 3 identity in every 10
TWO_STATE_WEIGHTINGS = ("tk",) * 4 + ("prelec",) * 3 + ("identity",) * 3


def _two_state_instance(key: str, params: dict) -> Instance:
    market = ci.MarketModel(params["r"], params["lambda"], _returns(params["returns"]))
    pref = ci.CptPreference(
        ci.ExponentialUtility(params["eta"], params["eta"], params["loss_aversion"]),
        _weighting(params["weighting"]))
    return Instance(key, params, (market, pref))


def two_state_op(inst: Instance) -> dict:
    market, pref = inst.args
    sol = ci.solve_binomial(1.0, market, pref)
    ref = sol.theta if sol.kind is ci.SolutionKind.FINITE_POINT else 1.0
    span = 10.0 * (1.0 + abs(ref))
    report = ci.verify(sol, ci.Portfolio(1.0, 0.0), market, pref,
                       ci.GridSpec(-span, span, 4001, 2), tol_value=1e-6)
    return {**solution_record(sol), "agreement": report.agreement}


def two_state_pool(seed: int, size: int) -> list:
    pool = []
    for pos in range(size):
        rng = random.Random(f"two-state-certify:{seed}:{pos}")
        kind = TWO_STATE_WEIGHTINGS[pos % len(TWO_STATE_WEIGHTINGS)]
        pool.append(_two_state_instance(f"b{pos}", _two_state_draw(rng, kind)))
    return pool


# ----------------------------------------------------------------------- cli

# (mode, law, weighting) by pool position; Student-t x Prelec genuinely diverges
CLI_KINDS = tuple(
    (mode, law, weighting)
    for mode in ("continuous", "zero-initial")
    for law in ("lognormal", "normal", "student-t")
    for weighting in ("tk", "prelec", "identity")
    if not (law == "student-t" and weighting == "prelec")
) + (("binomial", "binomial", "tk"), ("binomial", "binomial", "identity"))


def _cli_draw(rng: random.Random, mode: str, law: str, weighting: str) -> dict:
    if mode == "binomial":
        params = _two_state_draw(rng, weighting)
        w = params["weighting"]
        pref = {"utility": "exponential", "eta_gain": params["eta"],
                "eta_loss": params["eta"], "loss_aversion": params["loss_aversion"],
                "weighting": w["kind"]}
        pref.update({k: v for k, v in w.items() if k != "kind"})
        return {"market": {"r": params["r"], "lambda": params["lambda"],
                           "returns": params["returns"]},
                "preference": pref, "portfolio": {"x0": 1.0, "y0": 0.0},
                "solve": {"mode": "binomial"}}
    params = _continuous_draw(rng, law, identity=False)
    pref = {"utility": "power", "alpha": params["alpha"], "beta": params["beta"],
            "loss_aversion": params["loss_aversion"], "weighting": weighting}
    if weighting == "tk":
        pref.update(gamma=params["weighting"]["gamma"], delta=params["weighting"]["delta"])
    elif weighting == "prelec":
        pref.update(gamma=rng.uniform(0.55, 0.95), delta_gain=rng.uniform(0.5, 2.0),
                    delta_loss=rng.uniform(0.5, 2.0))
    y0 = params["y0"] if mode == "continuous" else 0.0
    return {"market": {"r": params["r"], "lambda": params["lambda"],
                       "returns": params["returns"]},
            "preference": pref, "portfolio": {"x0": 1.0, "y0": y0},
            "solve": {"mode": mode}}


def _cli_instance(key: str, config: dict, sweep: bool, workdir: str) -> Instance:
    path = os.path.join(workdir, f"{key}.json")
    with open(path, "w") as handle:
        json.dump(config, handle, indent=2, sort_keys=True)
    out = os.path.join(workdir, "out.csv")
    if sweep:
        axis = "zeta" if config["solve"]["mode"] == "binomial" else "lambda"
        argv = ["sweep", "--config", path, "--sweep", CLI_SWEEPS[axis][2], "--out", out]
    else:
        argv = ["solve", "--config", path, "--out", out]
    return Instance(key, {"config": config, "command": argv[0]}, (argv, out, workdir))


def cli_op(inst: Instance) -> dict:
    argv, out, workdir = inst.args
    if os.path.exists(out):
        os.remove(out)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    with open(out, newline="") as handle:
        csv_text = handle.read()
    # stdout names the CSV path; keep it relative so outputs compare across checkouts
    stdout = buf.getvalue().replace(workdir + os.sep, "")
    return {"exit": code, "stdout": stdout, "csv": csv_text}


def cli_pool(seed: int, size: int, workdir: str) -> list:
    pool = []
    for pos in range(size):
        rng = random.Random(f"cli-solve:{seed}:{pos}")
        mode, law, weighting = CLI_KINDS[pos % len(CLI_KINDS)]
        config = _cli_draw(rng, mode, law, weighting)
        sweep = pos % CLI_SWEEP_EVERY == (pos // len(CLI_KINDS)) % CLI_SWEEP_EVERY
        pool.append(_cli_instance(f"k{pos}", config, sweep, workdir))
    return pool


def _parse_summary(stdout: str) -> dict:
    fields = {}
    for line in stdout.splitlines():
        if line.startswith("case:"):
            fields["case_id"] = line.split()[1]
        elif line.startswith("theta*:"):
            fields["theta_star"] = line.split()[1]
        elif line.startswith("prospect*:"):
            fields["prospect_star"] = line.split()[1]
    return fields


def _library_solution(config: dict):
    """The same problem solved through the library API, not through the CLI."""
    run = RunConfig.from_dict(config)
    if run.mode == "continuous":
        return ci.solve(run.portfolio, run.market, run.preference)
    if run.mode == "zero-initial":
        return ci.solve_zero_initial(run.portfolio.x0, run.market, run.preference)
    return ci.solve_binomial(run.portfolio.x0, run.market, run.preference)


def _encode(sol) -> tuple[str, str, str]:
    theta = {"plus_infinity": "+inf", "minus_infinity": "-inf"}.get(
        sol.kind.value, repr(float(sol.representative_theta)))
    prospect = "inf" if sol.prospect == math.inf else repr(float(sol.prospect))
    return sol.case_id, theta, prospect


def cli_check_pool(pool: list, first_records: dict) -> dict:
    """Problems per pool index: CLI output against the library API.

    Solve commands must print and write the library's case, trade and
    prospect; every sweep row must equal a library solve at its grid point.
    """
    problems = {}
    for index, rec in first_records.items():
        if rec["exit"] != 0:
            continue  # already a failed op; its rows carry the errors
        inst = pool[index]
        config = inst.params["config"]
        if inst.params["command"] == "solve":
            expect = dict(zip(("case_id", "theta_star", "prospect_star"),
                              _encode(_library_solution(config))))
            got = _parse_summary(rec["stdout"])
            csv_rows = dict(line.split(",", 1) for line in rec["csv"].splitlines()[1:6])
            if got != expect:
                problems[index] = f"stdout {got} != library {expect}"
            elif any(csv_rows.get(k) != v for k, v in expect.items()):
                problems[index] = f"csv {csv_rows} != library {expect}"
            continue
        lines = rec["csv"].splitlines()
        header = lines[0].split(",")
        section, key, _ = CLI_SWEEPS[header[0]]
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            point = json.loads(json.dumps(config))
            point[section][key] = float(row[header[0]])
            expect = _encode(_library_solution(point))
            got = (row["case_id"], row["theta_star"], row["prospect_star"])
            if got != expect:
                problems[index] = f"sweep row {row[header[0]]}: {got} != library {expect}"
                break
    return problems


CLI_WARMUP = (
    ("continuous", "lognormal", "tk", False),
    ("continuous", "lognormal", "tk", True),
)


# ------------------------------------------------------------------- factory

POOL_SIZES = {
    "continuous-certify": 48,
    "empirical-certify": 60,
    "two-state-certify": 1000,
    "cli-solve": 6 * len(CLI_KINDS),
}

CYCLES = {
    "continuous-certify": len(CONTINUOUS_KINDS),
    "empirical-certify": len(EMPIRICAL_YEARS),
    "two-state-certify": len(TWO_STATE_WEIGHTINGS),
    "cli-solve": CLI_SWEEP_EVERY * len(CLI_KINDS),
}

# Ops per second of --seconds that a run times: the rescaled throughput of the
# commit that added the benchmark.  The op count of a run then depends only on
# --seconds, not on the speed of the program or the machine.
RATES = {
    "continuous-certify": 2.06,
    "empirical-certify": 2.02,
    "two-state-certify": 1536.0,
    "cli-solve": 55.3,
}

# Weight of the interpreter half of the calibration kernel that rescales each
# workload's times; the array half gets the rest.  continuous-certify ops are
# array maths on 4001-point grids, empirical-certify ops a Python loop of
# rank-dependent sums; the other two mix both.  Over six runs of 35
# empirical-certify ops the quartile spread of the median op was 0.029 with
# the interpreter half alone and 0.056 with both halves.
PYTHON_SHARE = {
    "continuous-certify": 0.0,
    "empirical-certify": 1.0,
    "two-state-certify": 0.5,
    "cli-solve": 0.5,
}

OPS = {
    "continuous-certify": certify_op,
    "empirical-certify": certify_op,
    "two-state-certify": two_state_op,
    "cli-solve": cli_op,
}


def warmups(name: str, workdir: str) -> list:
    """One fixed instance per op kind of the workload, the same for every seed."""
    if name == "continuous-certify":
        return [_certify_instance("warmup", CONTINUOUS_WARMUP, 4001, 1e-5)]
    if name == "empirical-certify":
        rng = random.Random("empirical-certify:warmup")
        while True:
            inst = _certify_instance("warmup", _empirical_draw(rng, 1),
                                     EMPIRICAL_GRID_POINTS, None)
            if inst is not None:
                return [inst]
    if name == "two-state-certify":
        rng = random.Random("two-state-certify:warmup")
        return [_two_state_instance("warmup", _two_state_draw(rng, "tk"))]
    os.makedirs(workdir, exist_ok=True)
    return [_cli_instance(f"warmup{i}", _cli_draw(random.Random("cli-solve:warmup"),
                                                  mode, law, w), sweep, workdir)
            for i, (mode, law, w, sweep) in enumerate(CLI_WARMUP)]


def build(name: str, seed: int, workdir: str, pool_size: int | None = None) -> Workload:
    """The workload ``name`` with its pool drawn from ``seed``."""
    if name not in OPS:
        raise ValueError(f"unknown workload {name!r}; choose from {tuple(OPS)}")
    size = POOL_SIZES[name] if pool_size is None else pool_size
    warm = warmups(name, workdir)
    if name == "continuous-certify":
        pool = continuous_pool(seed, size)
    elif name == "empirical-certify":
        pool = empirical_pool(seed, size)
    elif name == "two-state-certify":
        pool = two_state_pool(seed, size)
    else:
        pool = cli_pool(seed, size, workdir)
    return Workload(name, pool, OPS[name], warm, CYCLES[name], RATES[name], PYTHON_SHARE[name],
                    cli_check_pool if name == "cli-solve" else None)


# ------------------------------------------------------------------ checking

REL_TOL = 1e-9  # solver outputs come from quadrature targeted at 1e-9 relative


def _close(a: float, b: float) -> bool:
    if a == b:
        return True
    if math.isnan(a) or math.isnan(b) or math.isinf(a) or math.isinf(b):
        return False
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1e-300)


def compare(record: dict, expect: dict) -> str | None:
    """Difference between an op record and its expected record, or None."""
    for key, want in expect.items():
        got = record.get(key)
        if isinstance(want, float) and isinstance(got, float):
            if not _close(got, want):
                return f"{key} {got!r} != {want!r}"
        elif got != want:
            return f"{key} {got!r} != {want!r}"
    return None


def own_failure(record: dict) -> str | None:
    """A failure visible from the op's own output."""
    if record.get("agreement", "match") != "match":
        return f"oracle {record['agreement']}"
    if record.get("exit", 0) != 0:
        return f"exit code {record['exit']}"
    return None


def input_key(inst: Instance) -> str:
    text = json.dumps(inst.params, sort_keys=True).encode()
    return f"{inst.key}:{hashlib.sha256(text).hexdigest()[:16]}"


def run_op(work: Workload, inst: Instance) -> tuple[dict | None, str | None]:
    try:
        return work.op(inst), None
    except Exception as exc:  # an op that raises is a failed op, and the loop goes on
        return None, f"{type(exc).__name__}: {exc}"


class Checker:
    """Checks each op's output as it completes, keeping only one record per instance.

    An op *fails* (and counts toward ``failed``) if it raised, if its own output
    says so (oracle mismatch, non-zero CLI exit), or if an output check finds it
    wrong.  The output checks compare it with the reference digest (an
    instance whose inputs the digest does not hold fails), with the first run
    of the same instance (outputs are deterministic) and, for the
    CLI, with the library API; a run whose output checks all pass is correct,
    even when it reproduces a failure the reference also records.  Keeping no
    per-op records keeps memory and garbage-collection work independent of the
    run's length.
    """

    def __init__(self, work: Workload, reference: dict | None):
        self.work = work
        self.reference = reference
        self.first: dict[int, dict] = {}     # pool index -> first outcome
        self.ops_per_index: dict[int, int] = {}
        self.failed_per_index: dict[int, int] = {}
        self.reasons: dict[str, int] = {}
        self.check_failures = 0
        self.attempted = 0

    def _fail(self, index: int, reason: str) -> None:
        self.failed_per_index[index] = self.failed_per_index.get(index, 0) + 1
        reason = f"{self.work.pool[index].key}: {reason}"
        self.reasons[reason] = self.reasons.get(reason, 0) + 1

    def add(self, index: int, record: dict | None, error: str | None) -> None:
        self.attempted += 1
        self.ops_per_index[index] = self.ops_per_index.get(index, 0) + 1
        outcome = record if error is None else {"error": error}
        check = None
        if index in self.first:
            check = compare(outcome, self.first[index])
            if check is not None:
                check = f"not deterministic: {check}"
        else:
            self.first[index] = outcome
            if self.reference is not None:
                expect = self.reference.get(input_key(self.work.pool[index]))
                if expect is None:
                    # the inputs themselves changed; draws that go through the
                    # solver (the admissibility filter) do when its answers do
                    check = "reference: no entry for these inputs"
                else:
                    check = compare(outcome, expect)
                    if check is not None:
                        check = f"reference: {check}"
        if check is not None:
            self.check_failures += 1
            self._fail(index, check)
        else:
            reason = error or own_failure(record)
            if reason is not None:
                self._fail(index, reason)

    def finish(self) -> int:
        """Run the whole-pool check, then return the number of failed ops."""
        if self.work.check_pool is not None:
            answered = {i: rec for i, rec in self.first.items() if "error" not in rec}
            for index, reason in self.work.check_pool(self.work.pool, answered).items():
                clean = self.ops_per_index[index] - self.failed_per_index.get(index, 0)
                self.check_failures += self.ops_per_index[index]
                for _ in range(clean):
                    self._fail(index, reason)
        return sum(self.failed_per_index.values())

    @property
    def correct(self) -> bool:
        return self.check_failures == 0

    def digest(self) -> dict:
        """First outcome of each instance the run reached, keyed like the reference."""
        return {input_key(self.work.pool[i]): rec for i, rec in sorted(self.first.items())}
