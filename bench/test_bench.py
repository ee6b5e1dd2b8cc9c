"""Self-tests of the benchmark.  Run from the repository root with

    python3 -m pytest bench

They take about a minute: the traced sweep alone makes two full passes.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from tamari.errors import TamariError  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYER_MAP = json.loads((BENCH / "baseline.json").read_text())["layer_map"]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def digest_of(proc: subprocess.CompletedProcess) -> str:
    return re.search(r"^digest sha256=(\w+)", proc.stdout, re.M).group(1)


def assert_printed(proc, result, metrics):
    assert set(result["metrics"]) == {m["name"] for m in metrics}
    for metric in metrics:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert re.search(
            rf"^{re.escape(metric['name'])} \S+ {re.escape(metric['unit'])}$", proc.stdout, re.M
        )


def test_end_to_end_metrics_are_printed_with_units():
    proc = bench("--workload", "draw_small", "--seed", "3", "--seconds", "1", "--trace", "0")
    result = result_of(proc)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert_printed(proc, result, SPEC["end_to_end"])
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_reports_its_layers(workload):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "1")
    result = result_of(proc)
    assert result["correct"], proc.stdout
    assert_printed(proc, result, SPEC["per_layer"])
    values = {name: entry["value"] for name, entry in result["metrics"].items()}
    layers = LAYER_MAP[workload]
    for group in ("layers", "probes", "run_level", "counts"):
        for name in layers.get(group, []):
            assert values[name] > 0, name
    # the non-probe self times add up to the traced op time, less the
    # benchmark's own loop overhead
    own = sum(values[name] for name in layers["layers"])
    assert own + values["trace.loop_us"] == pytest.approx(values["trace.op_us"], rel=1e-9)
    assert values["trace.loop_us"] < 0.15 * values["trace.op_us"]


@pytest.mark.parametrize("workload", ["draw_small", "inspect"])
def test_traced_run_reproduces_the_untraced_digest(workload):
    plain = bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "0")
    traced = bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "1")
    assert result_of(plain)["correct"] and result_of(traced)["correct"]
    assert digest_of(plain) == digest_of(traced)
    assert re.search(r"^digest untraced=(\w+) traced=\1 match$", traced.stdout, re.M)
    other = bench("--workload", workload, "--seed", "8", "--seconds", "1", "--trace", "0")
    assert digest_of(other) != digest_of(plain)


def test_inspect_counts_and_digest_repeat_exactly():
    runs = []
    for _ in range(2):
        w = workloads.Inspect(7)
        phase = workloads.run_phase(w, 0.0)
        runs.append((phase.digest, w.svg_bytes, w.stdout_bytes))
    assert runs[0] == runs[1] and runs[0][1] > 0


def test_wrong_draw_is_a_counted_failure(monkeypatch):
    real = workloads.sample_interval
    calls = []

    def wrong_fifth(n, rng):
        calls.append(n)
        return real(n + 1 if len(calls) == 5 else n, rng)

    monkeypatch.setattr(workloads, "sample_interval", wrong_fifth)
    result = workloads.untraced_result("draw_small", 3, 0.2, 0)
    assert result["attempted"] > 5 and result["failed"] == 1
    assert 0 < result["metrics"]["ok_ratio"] < 1


def test_every_draw_wrong_is_reported_not_raised(monkeypatch):
    real = workloads.sample_interval
    monkeypatch.setattr(workloads, "sample_interval", lambda n, rng: real(n + 1, rng))
    result = workloads.untraced_result("draw_small", 3, 0.1, 0)
    assert result["failed"] == result["attempted"] > 0
    assert result["metrics"]["ok_ratio"] == 0


def test_raising_op_is_a_counted_failure(monkeypatch):
    real = workloads.interval_to_text
    calls = []

    def raise_third(interval):
        calls.append(interval)
        if len(calls) == 3:
            raise TamariError("injected")
        return real(interval)

    monkeypatch.setattr(workloads, "interval_to_text", raise_third)
    phase = workloads.run_phase(workloads.DrawLarge(3), 0.0)
    assert phase.attempted == workloads.DrawLarge.digest_ops and phase.failed == 1
    assert any("TamariError: injected" in line for line in phase.lines)


def test_biased_sampler_fails_the_whole_draw_small_run(monkeypatch):
    fixed = workloads.enumerate_intervals(4)[0]
    monkeypatch.setattr(workloads, "sample_interval", lambda n, rng: fixed)
    phase = workloads.run_phase(workloads.DrawSmall(3), 0.0)
    assert phase.failed == phase.attempted > 0
    assert any(line.endswith("FAIL") for line in phase.lines)


def test_classifier_disagreement_fails_the_whole_sweep_pass(monkeypatch):
    flipped = []

    def wrong_once(interval):
        value = workloads.is_modern(interval)
        if flipped:
            return value
        flipped.append(interval)
        return not value

    monkeypatch.setattr(workloads, "CLASSIFIERS", tuple(
        (name, wrong_once if name == "is_modern" else fn) for name, fn in workloads.CLASSIFIERS
    ))
    phase = workloads.run_phase(workloads.Sweep(3), 0.0)
    assert phase.failed == phase.attempted == workloads.count(workloads.Family.GENERAL, 7)
    assert any("family_totals=WRONG modern=" in line for line in phase.lines)


def test_failed_cli_command_is_a_counted_failure(monkeypatch):
    real = workloads.cli_run
    calls = []

    def fail_second_map(argv, out):
        calls.append(argv[0])
        if calls.count("map") == 2 and argv[0] == "map":
            return 1
        return real(argv, out=out)

    monkeypatch.setattr(workloads, "cli_run", fail_second_map)
    phase = workloads.run_phase(workloads.Inspect(3), 0.0)
    assert phase.attempted == workloads.Inspect.POOL and phase.failed == 1


def test_missing_library_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "draw_small", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
