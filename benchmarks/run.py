"""Time-to-certified-optimum benchmark for cptinvest.

Run from the repository root:

    python3 benchmarks/run.py --workload continuous-certify --seed 0 --seconds 16 --trace 0
    python3 benchmarks/run.py --workload all --seed 0

One client drives the public API in a closed loop, in one process, with
BLAS/OpenMP pinned to one thread.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` runs the same ops untraced and then traced and
reports per-layer metrics.  Every op's output is checked; the last line of
standard output is one JSON object, and the exit code is non-zero if an
output check failed.  Outputs land in ``benchmarks/out/``.
"""

from __future__ import annotations

import os

# pinned before numpy is first imported, here and in every setup probe
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import marshal  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
REFERENCE_DIR = os.path.join(BENCH_DIR, "reference")

REFERENCE_SEED = 0
SETUP_PROBES = 3
MIN_OPS = 20           # a run always completes this many ops, so the tail is defined
TAIL_BEYOND = 10       # samples that must lie beyond the tail percentile
PROBE_TIMEOUT_S = 120
CALIBRATE_EVERY_S = 0.5   # wall seconds between calibration-kernel samples
KERNEL_REF_S = 0.005      # the kernel's CPU time on the reference machine
KERNEL_SMOOTHING = 5      # samples in the running median of kernel times
SETUP_KERNEL_REF_S = 0.1  # setup_kernel()'s, about 20 times calibration_kernel()'s
WALL_CAP = 4.0            # a run stops after this many times --seconds of wall time



def load_benchmark() -> dict:
    """BENCHMARK.json, the one list of workload names, metric names and units."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def tail_latency(samples: list) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with at least TAIL_BEYOND
    samples beyond it: the nearest-rank percentile 100 * (n - 10) / n, whose
    value is the eleventh largest sample."""
    n = len(samples)
    if n <= TAIL_BEYOND:
        raise ValueError(f"need more than {TAIL_BEYOND} samples for a tail, got {n}")
    return sorted(samples)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def input_medians(indices: list, samples: list) -> list:
    """Each pool input's median latency over its repeats in the run.

    ``op_ms_tail`` is taken over these, so it tells which inputs are slow.  A
    tail over single ops measured the host instead: on a shared 2-vCPU VM the
    p99 of 8 000 two-state ops on the same inputs was 0.95 ms in one run and
    1.8 ms in another, while no input's median exceeded 1 ms."""
    per_input: dict = {}
    for index, sample in zip(indices, samples):
        per_input.setdefault(index, []).append(sample)
    return [statistics.median(v) for v in per_input.values()]


def import_package() -> tuple[float, bool]:
    """Import cptinvest from this checkout's src; (import ms, scipy.integrate loaded)."""
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import cptinvest
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    if not os.path.abspath(cptinvest.__file__).startswith(SRC + os.sep):
        raise ImportError(f"cptinvest imported from {cptinvest.__file__}, not from {SRC}")
    return elapsed_ms, "scipy.integrate" in sys.modules


def cli_workdir(workload: str) -> str:
    return os.path.join(OUT_DIR, workload)


def environment(args) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ------------------------------------------------------------------ set-up

def calibration_kernel(python_share: float) -> float:
    """CPU seconds of a fixed piece of work that does not involve cptinvest.

    Two halves are timed apart: interpreter work (a Python loop with dict
    stores and float maths) and array work (numpy and scipy.special ufuncs).
    The result weighs the interpreter half by ``python_share`` and the array
    half by the rest, so 0.5 is their plain sum; each workload sets the share
    of its own ops (``Workload.python_share``).  Its time tracks how fast the
    machine runs at the moment for that kind of work; see README.
    """
    import numpy as np
    from scipy.special import ndtri

    start = time.process_time()
    table, acc = {}, 0.0
    for i in range(12000):
        table[i & 255] = acc
        acc += math.sqrt(i) * 1.0001
    middle = time.process_time()
    q = np.linspace(0.001, 0.999, 12000)
    for _ in range(8):
        np.exp(0.1 * ndtri(q)) ** 0.88
    end = time.process_time()
    return 2.0 * (python_share * (middle - start) + (1.0 - python_share) * (end - middle))


# Source of a synthetic module for setup_kernel(): classes, functions, dicts
# and tuples, like the module bodies an import executes.
SETUP_KERNEL_SOURCE = "\n".join(
    f"class C{i}:\n    x = {i}\n    def f(self, a, b={i}):\n"
    f"        return [a * b + k for k in range({i % 7 + 1})]\n"
    f"def g{i}(x, *a, **k):\n    return {{'a': x, 'b': {i}, 'c': (x, {i}.0)}}\n"
    f"T{i} = tuple(range({i % 11}))\n"
    for i in range(400))


def setup_kernel() -> float:
    """CPU seconds to compile, marshal, unmarshal and execute a synthetic module:
    the kind of work set-up does (importing is unmarshalling and executing
    module bodies), without importing anything."""
    start = time.process_time()
    code = compile(SETUP_KERNEL_SOURCE, "<setup-kernel>", "exec")
    for _ in range(3):
        exec(marshal.loads(marshal.dumps(code)), {})
    return time.process_time() - start


def setup_probe(workload: str) -> None:
    """Fresh interpreter: time setup_kernel(), import, warm every op kind once,
    time calibration_kernel(), and print the CPU seconds of each part (the
    import part covers interpreter start too) and the wall clock as JSON."""
    started = time.process_time()
    setup_kernel_s = statistics.median(setup_kernel() for _ in range(3))
    resumed = time.process_time()
    import_package()
    import workloads

    imported = time.process_time()
    op = workloads.OPS[workload]
    for inst in workloads.warmups(workload, cli_workdir(workload)):
        op(inst)
    done = time.process_time()
    wall = time.monotonic()
    print(json.dumps({"import_cpu": started + imported - resumed, "warmup_cpu": done - imported,
                      "setup_kernel": setup_kernel_s, "wall_clock": wall,
                      "kernel": statistics.median(
                          calibration_kernel(workloads.PYTHON_SHARE[workload]) for _ in range(3))}))


def setup_times(workload: str, count: int) -> list:
    """What ``count`` fresh interpreters report from ``setup_probe``, each with
    ``wall``: seconds from its spawn to its warm-up op being done (kernels
    included), and ``scaled``: its set-up in CPU seconds rescaled to the
    reference machine, the import part by setup_kernel() and the warm-up part
    by calibration_kernel(), each the kind of work it resembles."""
    probes = []
    for _ in range(count):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
        probe = json.loads(proc.stdout.splitlines()[-1])
        probe["wall"] = probe.pop("wall_clock") - start
        probe["scaled"] = (probe["import_cpu"] * SETUP_KERNEL_REF_S / probe["setup_kernel"]
                           + probe["warmup_cpu"] * KERNEL_REF_S / probe["kernel"])
        probes.append(probe)
    return probes


# ------------------------------------------------------------------ phases

@dataclass
class Phase:
    """Per-op times of one closed-loop phase, in seconds."""

    indices: list       # pool index of each op
    cpu: list           # CPU time of the process during the op
    wall: list
    scaled: list        # cpu rescaled to the reference machine speed
    kernel: list        # calibration kernel samples taken during the phase
    wall_s: float       # the whole phase, kernel samples included


def op_count(work, seconds: float) -> int:
    """Ops in a run of ``seconds``: ``work.rate`` ops per second, rounded up to
    whole kind cycles, at least MIN_OPS.  The count does not depend on how fast
    the program or the machine runs, so a parent and a change time the same
    ops and ``op_ms_tail`` is the same percentile for both."""
    ops = max(MIN_OPS, math.ceil(seconds * work.rate))
    return math.ceil(ops / work.cycle) * work.cycle


def closed_loop(work, indices: list, checker, run_op, deadline: float = math.inf) -> Phase:
    """The ops on pool ``indices`` in order, one after the other.  Past the
    ``deadline`` (a ``time.perf_counter`` value) the loop stops at the next
    whole kind cycle; only a far slower program gets there.

    CPU time is the whole process's user + system time, so work moved to
    another thread still counts.  Every CALIBRATE_EVERY_S the calibration
    kernel runs between two ops; each op's CPU time is rescaled by
    KERNEL_REF_S over the running median of the kernel times around it.
    """
    phase = Phase([], [], [], [], [], 0.0)
    slice_of = []
    start = time.perf_counter()
    next_sample = start
    for i, index in enumerate(indices):
        if i % work.cycle == 0 and i >= MIN_OPS and time.perf_counter() >= deadline:
            break
        if time.perf_counter() >= next_sample:
            phase.kernel.append(calibration_kernel(work.python_share))
            next_sample = time.perf_counter() + CALIBRATE_EVERY_S
        w0, c0 = time.perf_counter(), time.process_time()
        record, error = run_op(work, work.pool[index])
        phase.cpu.append(time.process_time() - c0)
        phase.wall.append(time.perf_counter() - w0)
        checker.add(index, record, error)
        phase.indices.append(index)
        slice_of.append(len(phase.kernel) - 1)
    phase.wall_s = time.perf_counter() - start
    speed = [KERNEL_REF_S / k for k in running_median(phase.kernel, KERNEL_SMOOTHING)]
    phase.scaled = [c * speed[s] for c, s in zip(phase.cpu, slice_of)]
    return phase


def cycle_indices(work, count: int) -> list:
    """Pool indices of ``count`` ops that cycle through the pool from its start."""
    return [i % len(work.pool) for i in range(count)]


def running_median(values: list, width: int) -> list:
    """Median of the ``width`` values centred on each position (fewer at the ends)."""
    half = width // 2
    return [statistics.median(values[max(0, i - half):i + half + 1])
            for i in range(len(values))]


def traced_run(work, seconds: float, checker, workloads, spans, names: list):
    """The ops of a run of half of ``seconds`` untraced, then the very same ops traced."""
    untraced = closed_loop(work, cycle_indices(work, op_count(work, seconds / 2.0)),
                           checker, workloads.run_op)
    tracer = spans.Tracer()
    ops = iter(range(len(untraced.indices)))

    def traced_op(work, inst):
        return tracer.run_op(next(ops), workloads.run_op, work, inst)

    tracer.install()
    try:
        traced = closed_loop(work, untraced.indices, checker, traced_op)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(names)
    metrics["trace.overhead_frac"] = sum(traced.scaled) / sum(untraced.scaled) - 1.0
    return metrics, tracer


# -------------------------------------------------------------------- main

def load_reference(workload: str, seed: int) -> dict | None:
    path = os.path.join(REFERENCE_DIR, f"{workload}.json")
    if seed != REFERENCE_SEED or not os.path.exists(path):
        return None
    with open(path) as handle:
        return json.load(handle)


def write_json(path: str, data) -> None:
    with open(path, "w") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")


def write_reference(args) -> int:
    import workloads

    if args.seed != REFERENCE_SEED:
        print(f"error: the reference digest is kept for seed {REFERENCE_SEED}",
              file=sys.stderr)
        return 2
    work = workloads.build(args.workload, args.seed, cli_workdir(args.workload))
    checker = workloads.Checker(work, None)
    closed_loop(work, list(range(len(work.pool))), checker, workloads.run_op)
    failed = checker.finish()
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    write_json(os.path.join(REFERENCE_DIR, f"{args.workload}.json"), checker.digest())
    print(f"{args.workload}: {checker.attempted} instances, {failed} failed")
    for reason in sorted(checker.reasons):
        print(f"  {reason}")
    return 0


def run_workload(args, bench: dict) -> int:
    import_ms, scipy_loaded = import_package()
    import workloads

    os.makedirs(OUT_DIR, exist_ok=True)
    probes = [] if args.trace else setup_times(args.workload, SETUP_PROBES)
    work = workloads.build(args.workload, args.seed, cli_workdir(args.workload))
    for inst in work.warmup:
        work.op(inst)

    result: dict = {"environment": environment(args)}
    checker = workloads.Checker(work, load_reference(args.workload, args.seed))
    listed = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    if args.trace:
        import spans

        metrics, tracer = traced_run(work, args.seconds, checker, workloads, spans, list(units))
        metrics["import.cptinvest_ms"] = import_ms
        metrics["import.scipy_integrate_loaded"] = float(scipy_loaded)
        tracer.write(os.path.join(OUT_DIR, f"spans_{args.workload}_seed{args.seed}.json.gz"))
        result["traced_ops"] = tracer.ops
    else:
        phase = closed_loop(work, cycle_indices(work, op_count(work, args.seconds)), checker,
                            workloads.run_op, time.perf_counter() + WALL_CAP * args.seconds)
        ms = [x * 1000.0 for x in phase.scaled]
        tail, percentile = tail_latency(input_medians(phase.indices, ms))
        metrics = {
            "setup_s": statistics.median(p["scaled"] for p in probes),
            "op_ms_p50": statistics.median(ms),
            "op_ms_tail": tail,
            "ops_per_s": len(ms) / sum(phase.scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        unscaled = {}
        for clock, times in (("cpu", phase.cpu), ("wall", phase.wall)):
            clock_ms = [x * 1000.0 for x in times]
            unscaled[clock] = {"op_ms_p50": statistics.median(clock_ms),
                               "op_ms_tail": tail_latency(
                                   input_medians(phase.indices, clock_ms))[0],
                               "ops_per_s": len(times) / sum(times)}
        unscaled["cpu"]["setup_s"] = statistics.median(
            p["import_cpu"] + p["warmup_cpu"] for p in probes)
        unscaled["wall"]["setup_s"] = statistics.median(p["wall"] for p in probes)
        inputs = len(set(phase.indices))
        result.update(tail_percentile=percentile, tail_samples_beyond=TAIL_BEYOND,
                      tail_inputs=inputs,
                      samples=len(ms), phase_wall_s=phase.wall_s, unscaled=unscaled,
                      setup_probes=probes,
                      kernel_s={"median": statistics.median(phase.kernel),
                                "min": min(phase.kernel), "max": max(phase.kernel),
                                "samples": len(phase.kernel)})

    metrics = {name: metrics[name] for name in units}
    failed = checker.finish()
    attempted = checker.attempted
    result.update(attempted=attempted, failed=failed, fail_frac=failed / attempted,
                  output_check_failures=checker.check_failures, correct=checker.correct,
                  failures=checker.reasons, metrics=metrics)
    suffix = f"{args.workload}_seed{args.seed}{'_trace' if args.trace else ''}"
    write_json(os.path.join(OUT_DIR, f"BENCH_{suffix}.json"), result)
    write_json(os.path.join(OUT_DIR, f"digest_{suffix}.json"), checker.digest())

    print(f"environment: {json.dumps(result['environment'], sort_keys=True)}")
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    if not args.trace:
        print(f"{args.workload} op_ms_tail is p{percentile:.2f} of the median latencies of "
              f"{inputs} inputs over {len(ms)} ops ({TAIL_BEYOND} or more beyond)")
    print(f"{args.workload} fail_frac = {result['fail_frac']:.6g} ratio "
          f"({failed} of {attempted} ops; {checker.check_failures} failed an output check)")
    for reason, count in sorted(checker.reasons.items()):
        print(f"{args.workload} FAILED x{count}: {reason}")
    print(json.dumps({
        "correct": checker.correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if checker.correct else 1


def run_all(args, names: list) -> int:
    """Every workload in turn, each in its own process; one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in names:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            status = 1
        try:
            last = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            combined["correct"] = False
            continue
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for name, metric in last["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return status


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser.add_argument("--workload", required=True, choices=(*names, "all"))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-reference", action="store_true",
                        help="rewrite the reference digest of the reference seed")
    args = parser.parse_args(argv)

    if args.workload == "all":
        return run_all(args, names)
    if args.setup_probe:
        setup_probe(args.workload)
        return 0
    if args.write_reference:
        import_package()
        return write_reference(args)
    return run_workload(args, bench)


if __name__ == "__main__":
    sys.exit(main())
