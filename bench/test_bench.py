"""Self-tests of the benchmark: the output gate, a smoke run, exact counts.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gate
import speed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("eval-long", "sweep-short", "wire-short")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Output gate on hand-built inputs
# ---------------------------------------------------------------------------

# Two utterances of 4 and 2 words (280 ms each) under wait-3.
EXPECTED = [
    gate.Expected("a", ("one", "two", "three", "four"), 1120),
    gate.Expected("b", ("five", "six"), 560),
]
CORRECT = [
    gate.Output("a", ("one", "two", "three", "four"), (840, 1120, 1120, 1120)),
    gate.Output("b", ("five", "six"), (560, 560)),
]


def test_gate_accepts_the_closed_form():
    assert gate.check(EXPECTED, CORRECT, 3, 280) == []
    assert gate.check_bleu(100.00000000000004, "adaptive/k3") == []


def test_gate_rejects_a_corrupted_hypothesis():
    outputs = [
        CORRECT[0],
        gate.Output("b", ("five", "sixx"), (560, 560)),
    ]
    errors = gate.check(EXPECTED, outputs, 3, 280)
    assert errors == ["k=3 b: hypothesis != reference"]


def test_gate_rejects_a_shifted_delay():
    outputs = [
        gate.Output(
            "a", ("one", "two", "three", "four"), (560, 840, 1120, 1120)
        ),
        CORRECT[1],
    ]
    errors = gate.check(EXPECTED, outputs, 3, 280)
    assert errors == ["k=3 a: ideal delays != wait-k form"]


def test_gate_rejects_failures_reordering_and_low_bleu():
    failed = [CORRECT[0], gate.Output("b", (), (), error="boom")]
    assert gate.check(EXPECTED, failed, 3, 280) == ["k=3 b: failed: boom"]
    assert gate.check(EXPECTED, CORRECT[::-1], 3, 280) != []
    assert gate.check_bleu(99.9, "fixed/k5") != []
    assert gate.check_bleu(None, "fixed/k5") != []


def test_digest_sees_every_delay():
    shifted = [CORRECT[0], gate.Output("b", ("five", "six"), (560, 559))]
    assert gate.digest([("adaptive/k3", CORRECT)]) != gate.digest(
        [("adaptive/k3", shifted)]
    )


# ---------------------------------------------------------------------------
# Times scaled to the nominal speed
# ---------------------------------------------------------------------------


def test_speed_meter_scales_each_stretch_by_its_ends():
    """Marks at 0-1 s, 11-12 s and 22-23 s read the kernel at 1, 3 and 2 ms;
    the nominal kernel time is 1 ms."""
    meter = speed.SpeedMeter()
    meter._starts = [0.0, 11.0, 22.0]
    meter._ends = [1.0, 12.0, 23.0]
    meter.kernel_ms = [1.0, 3.0, 2.0]
    # inside the first stretch the machine ran at half the nominal speed
    assert meter.scaled_s(2.0, 4.0) == pytest.approx(1.0)
    assert meter.factor(2.0, 4.0) == pytest.approx(0.5)
    # across the second mark: the mark is left out, each side scaled by
    # its own ends
    assert meter.scaled_s(10.0, 14.0) == pytest.approx(1 * 2 / 4 + 2 * 2 / 5)
    assert meter.scaled_s(1.0, 23.0) == pytest.approx(10 / 2 + 10 / 2.5)


# ---------------------------------------------------------------------------
# Passes start on a fresh model
# ---------------------------------------------------------------------------


def test_no_model_state_carries_from_one_pass_to_the_next(
    monkeypatch, tmp_path
):
    """A per-instance memo on encode_prefix, as an encoder cache would keep,
    misses as often in the second pass as in the first, while it still hits
    within a pass (across the sweep's grid points)."""
    import run
    from simulharness.model import LexiconMockModel

    encode = LexiconMockModel.encode_prefix
    calls, misses = [], []

    def memo_encode(self, frames):
        memo = self.__dict__.setdefault("_memo", {})
        key = tuple(frame.features for frame in frames)
        calls[-1] += 1
        if key not in memo:
            misses[-1] += 1
            memo[key] = encode(self, frames)
        return memo[key]

    monkeypatch.setattr(LexiconMockModel, "encode_prefix", memo_encode)
    workload = run.WORKLOADS["sweep-short"]
    setup = run.set_up(workload, 0, tmp_path, None)
    probes = run.Probes()
    patches = run.Patches()
    probes.install_local(patches)
    try:
        for _ in range(2):
            calls.append(0)
            misses.append(0)
            run._run_pass(workload, setup, probes, run.SpeedMeter(), None,
                          None)
    finally:
        patches.undo()
    assert 0 < misses[0] < calls[0]
    assert (calls[1], misses[1]) == (calls[0], misses[0])


# ---------------------------------------------------------------------------
# Runs of the real command
# ---------------------------------------------------------------------------


def _run(workload: str, trace: int, seed: int = 0) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    *_, details, result = proc.stdout.strip().splitlines()
    return json.loads(details), json.loads(result)


@pytest.fixture(scope="module")
def traced():
    return {w: _run(w, 1) for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_end_to_end_metric(workload):
    _, result = _run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_traced_run_emits_every_per_layer_metric(traced, workload):
    _, result = traced[workload]
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert result["metrics"]["model.encode_prefix.frames"]["value"] > 0
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_wire_layers_are_seen_only_on_the_wire(traced):
    def layer(workload, name):
        return traced[workload][0]["layers"][name]

    assert layer("wire-short", "service.wire.messages") > 0
    assert layer("wire-short", "service.server.wait_ms") > 0
    assert layer("eval-long", "service.wire.messages") == 0
    assert layer("sweep-short", "detection.fixed_word_count.calls") > 0
    assert layer("eval-long", "detection.fixed_word_count.calls") == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_and_outputs_repeat_exactly(traced, workload):
    first, _ = traced[workload]
    again, _ = _run(workload, 1)
    assert again["counts"] == first["counts"]
    assert again["digest"] == first["digest"]


def test_another_seed_gives_other_outputs(traced):
    other, _ = _run("sweep-short", 0, seed=1)
    assert other["digest"] != traced["sweep-short"][0]["digest"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "eval-long",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
