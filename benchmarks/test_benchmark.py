"""The benchmark's own tests: ``python -m pytest benchmarks`` from the repository root."""

import json
import os
import random
import re
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

BENCHMARK = run.load_benchmark()
WORKLOAD_NAMES = [w["name"] for w in BENCHMARK["workloads"]]

SMALL_POOLS = {"continuous-certify": 3, "empirical-certify": 3,
               "two-state-certify": 40, "cli-solve": 24}


def run_benchmark(*args, cwd=ROOT, timeout=170):
    return subprocess.run([sys.executable, os.path.join(cwd, "benchmarks", "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=timeout)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_seeded_generation_is_deterministic(name, tmp_path):
    size = SMALL_POOLS[name]
    keys = [[workloads.input_key(inst)
             for inst in workloads.build(name, seed, str(tmp_path / str(i)), size).pool]
            for i, seed in enumerate((7, 7, 8))]
    assert keys[0] == keys[1]
    assert keys[0] != keys[2]


def test_metric_names_use_the_allowed_characters():
    names = ([m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
             + [w["name"] for w in BENCHMARK["workloads"]])
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


def test_every_listed_workload_is_defined():
    assert set(WORKLOAD_NAMES) == set(workloads.OPS)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_op_count_is_whole_cycles_and_depends_on_seconds_only(name, tmp_path):
    work = workloads.build(name, 3, str(tmp_path), SMALL_POOLS[name])
    count = run.op_count(work, BENCHMARK["run_seconds"])
    assert count % work.cycle == 0 and count >= run.MIN_OPS
    assert count >= BENCHMARK["run_seconds"] * work.rate
    assert count < BENCHMARK["run_seconds"] * work.rate + work.cycle
    assert run.op_count(work, 0.0) >= run.MIN_OPS


@pytest.mark.parametrize("n", [11, 12, 25, 100, 999, 1000, 20000])
def test_tail_has_ten_samples_beyond_it_and_is_the_highest_such(n):
    rng = random.Random(n)
    samples = [rng.expovariate(1.0) for _ in range(n)]
    value, percentile = run.tail_latency(samples)
    ordered = sorted(samples)
    assert sum(1 for s in samples if s > value) == 10
    # the next larger sample has only nine beyond it
    assert sum(1 for s in samples if s > ordered[ordered.index(value) + 1]) == 9
    assert percentile == pytest.approx(100.0 * (n - 10) / n)


def test_tail_is_taken_over_each_inputs_median_latency():
    indices = [0, 1, 2, 0, 1, 2, 0, 1, 2]
    samples = [1.0, 10.0, 5.0, 3.0, 20.0, 5.0, 100.0, 30.0, 5.0]
    assert run.input_medians(indices, samples) == [3.0, 20.0, 5.0]


def test_setup_kernel_takes_cpu_time_and_imports_nothing():
    before = set(sys.modules)
    assert run.setup_kernel() > 0.0
    assert set(sys.modules) == before


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        run.tail_latency([1.0] * 10)


def test_running_median_is_centred_and_shrinks_at_the_ends():
    assert run.running_median([5, 1, 9, 2, 7, 3], 5) == [5, 3.5, 5, 3, 5, 3]
    assert run.running_median([], 5) == []


def test_op_times_are_rescaled_by_the_calibration_kernel(tmp_path):
    work = workloads.build("two-state-certify", 3, str(tmp_path), 5)
    checker = workloads.Checker(work, None)
    phase = run.closed_loop(work, [0, 1, 2, 3, 4], checker, workloads.run_op)
    assert phase.indices == [0, 1, 2, 3, 4] and checker.attempted == 5
    assert len(phase.kernel) == 1
    factor = run.KERNEL_REF_S / phase.kernel[0]
    assert phase.scaled == pytest.approx([c * factor for c in phase.cpu])


def test_self_times_add_up_to_the_op_time():
    tracer = spans.Tracer()

    def leaf(x):
        return sum(range(x))

    traced_leaf = tracer._wrapper("leaf", leaf, None)
    traced_middle = tracer._wrapper(
        "middle", lambda x: traced_leaf(x) + traced_leaf(x), None)
    for op_id in range(3):
        tracer.run_op(op_id, traced_middle, 20000)
    op_ns = sum(end - start for name, start, end, _, _ in tracer.spans if name == spans.OP)
    assert sum(tracer.self_ns.values()) == op_ns
    assert tracer.calls["leaf"] == 6 and tracer.calls["middle"] == 3
    ops = [s for s in tracer.spans if s[0] == spans.OP]
    middles = [s for s in tracer.spans if s[0] == "middle"]
    assert [tracer.spans[m[3]][0] for m in middles] == [spans.OP] * 3
    assert [m[4] for m in middles] == [0, 1, 2]
    assert len(ops) == 3


def test_disagreement_with_the_reference_fails_the_op(tmp_path):
    work = workloads.build("two-state-certify", 3, str(tmp_path), 5)
    reference = workloads.Checker(work, None)
    for index, inst in enumerate(work.pool):
        reference.add(index, *workloads.run_op(work, inst))
    expected = reference.digest()
    expected[workloads.input_key(work.pool[2])]["case_id"] = "T0.0"

    checker = workloads.Checker(work, expected)
    for _ in range(2):
        for index, inst in enumerate(work.pool):
            checker.add(index, *workloads.run_op(work, inst))
    assert checker.finish() == 1
    assert not checker.correct
    assert ["reference: case_id" in reason for reason in checker.reasons] == [True]


def test_inputs_missing_from_the_reference_fail_the_op(tmp_path):
    work = workloads.build("two-state-certify", 3, str(tmp_path), 3)
    reference = workloads.Checker(work, None)
    for index, inst in enumerate(work.pool):
        reference.add(index, *workloads.run_op(work, inst))
    expected = reference.digest()
    del expected[workloads.input_key(work.pool[1])]

    checker = workloads.Checker(work, expected)
    for index, inst in enumerate(work.pool):
        checker.add(index, *workloads.run_op(work, inst))
    assert checker.finish() == 1
    assert not checker.correct
    assert list(checker.reasons) == ["b1: reference: no entry for these inputs"]


def test_failed_ops_are_counted_and_changed_outputs_are_incorrect(tmp_path):
    work = workloads.build("two-state-certify", 3, str(tmp_path), 3)
    record, error = workloads.run_op(work, work.pool[0])
    assert error is None
    checker = workloads.Checker(work, None)
    checker.add(1, None, "ValueError: boom")
    checker.add(1, None, "ValueError: boom")
    checker.add(2, {**record, "agreement": "mismatch"}, None)
    assert checker.finish() == 3 and checker.correct
    checker.add(0, record, None)
    checker.add(0, {**record, "theta": record["theta"] + 1.0}, None)
    assert checker.finish() == 4 and not checker.correct


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_traced_run_reports_every_per_layer_metric(name):
    proc = run_benchmark("--workload", name, "--seed", "5", "--seconds", "0.1", "--trace", "1")
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"]
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["trace.attributed_frac"] > 0.9


def test_untraced_run_reports_every_end_to_end_metric():
    proc = run_benchmark("--workload", "two-state-certify", "--seed", "5",
                         "--seconds", "0.5", "--trace", "0")
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_benchmark("--workload", "cli-solve", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=str(tmp_path), timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
