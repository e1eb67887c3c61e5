from __future__ import annotations

import json
import socket
import subprocess
import sys
import time

import pytest
from click.testing import CliRunner

from helpers import DecoderFailsOnHaus, aligned_utterance
from simulharness import (
    cli,
    load_manifest,
    load_model_config,
    read_curve_csv,
)
from simulharness.cli import main


def _run(*args, **kwargs):
    return CliRunner().invoke(main, [str(a) for a in args], **kwargs)


def _all_output(result) -> str:
    err = ""
    try:
        err = result.stderr
    except ValueError:
        pass
    return result.output + err


@pytest.fixture()
def demo(tmp_path):
    out = tmp_path / "demo"
    result = _run("make-demo", "--out", out, "--n-utts", "4", "--seed", "3")
    assert result.exit_code == 0, _all_output(result)
    return out


def test_version_flag():
    result = _run("--version")
    assert result.exit_code == 0
    assert "0.1.0" in result.output


def test_make_demo_writes_loadable_inputs(demo, tmp_path):
    manifest = demo / "manifest.jsonl"
    model_config = demo / "model.json"
    assert manifest.is_file() and model_config.is_file()
    utterances = load_manifest(manifest)
    assert len(utterances) == 4
    assert all(u.reference for u in utterances)
    model = load_model_config(model_config)
    assert model.source_words  # the lexicon round-trips

    # same seed, same corpus
    again = tmp_path / "again"
    result = _run("make-demo", "--out", again, "--n-utts", "4", "--seed", "3")
    assert result.exit_code == 0
    assert (again / "manifest.jsonl").read_bytes() == manifest.read_bytes()


def test_eval_command_scores_the_demo(demo, tmp_path):
    out = tmp_path / "eval"
    result = _run(
        "eval", "--manifest", demo / "manifest.jsonl",
        "--model-config", demo / "model.json", "--k", 3, "--out", out,
    )
    assert result.exit_code == 0, _all_output(result)
    # noiseless synthetic corpus at k=3: perfect quality, lag = k * 280
    assert "BLEU 100.00" in result.output
    assert "AL 840 ms" in result.output
    assert "regime low" in result.output
    assert "n=4" in result.output
    report = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
    assert report["AL"] == pytest.approx(840.0)
    logs = sorted(p.name for p in (out / "logs").glob("*.jsonl"))
    assert logs == [f"demo-{i:04d}.jsonl" for i in range(4)]


@pytest.mark.parametrize(
    "line",
    ["{not json", '{"id": "u1", "frames": [[' + "9" * 5000 + "]]}"],
    ids=["not-json", "5000-digit-int"],
)
def test_eval_rejects_a_broken_manifest(tmp_path, demo, line):
    manifest = tmp_path / "broken.jsonl"
    manifest.write_text(line + "\n", encoding="utf-8")
    result = _run(
        "eval", "--manifest", manifest,
        "--model-config", demo / "model.json",
        "--out", tmp_path / "out",
    )
    assert result.exit_code == 2
    assert "cannot load manifest" in _all_output(result)


def test_eval_rejects_bad_policy_flags(demo, tmp_path):
    result = _run(
        "eval", "--manifest", demo / "manifest.jsonl",
        "--model-config", demo / "model.json",
        "--k", 0, "--out", tmp_path / "out",
    )
    assert result.exit_code == 2
    assert "k must be" in _all_output(result)


def test_eval_reports_failing_utterances_and_exits_1(demo, tmp_path):
    manifest = tmp_path / "mixed.jsonl"
    lines = (demo / "manifest.jsonl").read_text(encoding="utf-8").splitlines()
    bad = {
        "id": "bad-width",
        "frame_ms": 10,
        "frames": [[0.0, 1.0, 0.0]] * 28,
        "reference": ["hello"],
    }
    manifest.write_text(
        "\n".join(lines[:2] + [json.dumps(bad)]) + "\n", encoding="utf-8"
    )
    out = tmp_path / "out"
    result = _run(
        "eval", "--manifest", manifest,
        "--model-config", demo / "model.json", "--out", out,
    )
    assert result.exit_code == 1
    assert "failed: bad-width:" in _all_output(result)
    # the healthy utterances were still scored and written
    assert "n=2" in result.output
    assert (out / "logs" / "bad-width.jsonl").is_file()


def test_sweep_command_writes_the_curve(demo, tmp_path):
    out = tmp_path / "sweep"
    result = _run(
        "sweep", "--manifest", demo / "manifest.jsonl",
        "--model-config", demo / "model.json",
        "--k", 1, "--k", 2, "--strategy", "fixed", "--out", out,
    )
    assert result.exit_code == 0, _all_output(result)
    points = read_curve_csv(out / "curve.csv")
    assert [(p.strategy.value, p.k) for p in points] == [
        ("fixed", 1), ("fixed", 2)
    ]
    assert points[0].laal_ms < points[1].laal_ms
    assert "fixed" in result.output and "k=1" in result.output


def test_sweep_rejects_zero_runs(demo, tmp_path):
    result = _run(
        "sweep", "--manifest", demo / "manifest.jsonl",
        "--model-config", demo / "model.json",
        "--runs", 0, "--out", tmp_path / "sweep",
    )
    assert result.exit_code == 2, _all_output(result)
    assert "runs_per_point must be at least 1" in _all_output(result)


def test_sweep_rejects_a_repeated_k(demo, tmp_path):
    result = _run(
        "sweep", "--manifest", demo / "manifest.jsonl",
        "--model-config", demo / "model.json",
        "--k", 3, "--k", 3, "--out", tmp_path / "sweep",
    )
    assert result.exit_code == 2, _all_output(result)
    assert "k_values must be distinct" in _all_output(result)
    assert not (tmp_path / "sweep").exists()


def test_sweep_with_nothing_to_score_fails(demo, tmp_path):
    manifest = tmp_path / "unreferenced.jsonl"
    records = [
        json.loads(line)
        for line in (demo / "manifest.jsonl").read_text("utf-8").splitlines()
    ]
    manifest.write_text(
        "".join(json.dumps({**r, "reference": []}) + "\n" for r in records),
        encoding="utf-8",
    )
    result = _run(
        "sweep", "--manifest", manifest,
        "--model-config", demo / "model.json", "--out", tmp_path / "sweep",
    )
    assert result.exit_code == 1
    assert "sweep failed: no scored utterances at k=3 (fixed)" in _all_output(
        result
    )


def test_offline_command_scores_and_dumps(demo, tmp_path):
    out_path = tmp_path / "hyps.jsonl"
    result = _run(
        "offline", "--manifest", demo / "manifest.jsonl",
        "--model-config", demo / "model.json", "--out", out_path,
    )
    assert result.exit_code == 0, _all_output(result)
    assert "offline BLEU 100.00 | n=4" in result.output
    records = [
        json.loads(line)
        for line in out_path.read_text(encoding="utf-8").splitlines()
    ]
    assert [r["id"] for r in records] == [f"demo-{i:04d}" for i in range(4)]
    assert all(r["words"] and r["tokens"] for r in records)


def test_offline_command_rejects_a_zero_word_cap(demo):
    result = _run(
        "offline", "--manifest", demo / "manifest.jsonl",
        "--model-config", demo / "model.json", "--max-target-words", 0,
    )
    assert result.exit_code == 2
    assert "--max-target-words" in _all_output(result)


def test_offline_command_rejects_a_model_config_of_the_wrong_type(
    demo, tmp_path
):
    config = json.loads((demo / "model.json").read_text(encoding="utf-8"))
    model_path = tmp_path / "model.json"
    model_path.write_text(
        json.dumps({**config, "target_piece_len": 1.5}), encoding="utf-8"
    )
    result = _run(
        "offline", "--manifest", demo / "manifest.jsonl",
        "--model-config", model_path,
    )
    assert result.exit_code == 2, _all_output(result)
    assert "target_piece_len must be" in _all_output(result)


def test_offline_command_rejects_a_model_config_nested_too_deeply(
    demo, tmp_path
):
    """Neither a nesting too deep nor an integer too long has a position
    to report; a syntax error keeps its real one."""
    depth = 100_000
    cases = {
        '{"lexicon": ' + "[" * depth + "]" * depth + "}": "nested too deeply",
        '{"lexicon": ' + "9" * 5000 + "}": "4300 digits",
        '{"lexicon":\n  {"da" "there"}}': "line 2 column 9 (char 20)",
    }
    model_path = tmp_path / "model.json"
    for text, message in cases.items():
        model_path.write_text(text, encoding="utf-8")
        result = _run(
            "offline", "--manifest", demo / "manifest.jsonl",
            "--model-config", model_path,
        )
        assert result.exit_code == 2, _all_output(result)
        assert message in _all_output(result)
        assert "char 0" not in _all_output(result)


def test_offline_command_isolates_any_model_exception(tmp_path, monkeypatch):
    model = DecoderFailsOnHaus()
    manifest = tmp_path / "manifest.jsonl"
    cases = {
        "a": ["da", "esel", "geht", "hin"],
        "bad": ["geht", "haus"],
        "c": ["ja", "da", "esel", "geht"],
    }
    with manifest.open("w", encoding="utf-8") as handle:
        for utt_id, words in cases.items():
            utt = aligned_utterance(model, words, utt_id=utt_id)
            record = {
                "id": utt.id,
                "frame_ms": utt.frame_ms,
                "frames": [list(f.features) for f in utt.frames],
                "reference": list(utt.reference),
            }
            handle.write(json.dumps(record) + "\n")
    model_path = tmp_path / "model.json"
    model_path.write_text("{}", encoding="utf-8")
    monkeypatch.setattr(cli, "load_model_config", lambda path: model)
    out_path = tmp_path / "hyps.jsonl"
    result = _run(
        "offline", "--manifest", manifest,
        "--model-config", model_path, "--out", out_path,
    )
    assert result.exit_code == 1, _all_output(result)
    assert "failed: bad: decoder table out of range" in _all_output(result)
    assert "offline BLEU 100.00 | n=2" in result.output
    records = [
        json.loads(line)
        for line in out_path.read_text(encoding="utf-8").splitlines()
    ]
    assert [r["id"] for r in records] == ["a", "c"]


def test_remote_eval_against_a_served_model(demo, tmp_path):
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "simulharness.cli", "serve",
            "--model-config", str(demo / "model.json"), "--port", "0",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        banner = proc.stdout.readline().strip()
        assert banner.startswith("listening on "), banner
        port = int(banner.rsplit(":", 1)[1])
        out = tmp_path / "remote"
        result = _run(
            "remote-eval", "--port", port,
            "--manifest", demo / "manifest.jsonl",
            "--k", 3, "--out", out, "--timeout-s", 10,
        )
        assert result.exit_code == 0, _all_output(result)
        assert "BLEU 100.00" in result.output
        assert "AL 840 ms" in result.output
        assert (out / "metrics.json").is_file()
    finally:
        proc.terminate()
        proc.wait(timeout=10)
        proc.stdout.close()


def test_serve_on_a_port_in_use_exits_2(demo):
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen()
        port = taken.getsockname()[1]
        proc = subprocess.run(
            [
                sys.executable, "-m", "simulharness.cli", "serve",
                "--model-config", str(demo / "model.json"),
                "--port", str(port),
            ],
            capture_output=True, text=True, timeout=60,
        )
    assert proc.returncode == 2, proc.stderr
    assert f"cannot bind 127.0.0.1:{port}" in proc.stderr


def test_remote_eval_unreachable_server_exits_1(demo, tmp_path):
    import socket

    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    result = _run(
        "remote-eval", "--port", port,
        "--manifest", demo / "manifest.jsonl",
        "--out", tmp_path / "out", "--timeout-s", 2,
    )
    assert result.exit_code == 1
    assert "no utterances scored" in result.output
    assert "failed: " in _all_output(result)


@pytest.mark.parametrize("setting", [
    ("--port", 70000), ("--port", 0), ("--port", -1),
    ("--timeout-s", -1), ("--timeout-s", 0),
], ids=["port-too-high", "port-zero", "port-negative", "timeout-negative",
        "timeout-zero"])
def test_remote_eval_rejects_a_port_or_timeout_sockets_cannot_use(
    demo, tmp_path, setting
):
    """70000 would wrap to port 4464, and a timeout of -1 would fail each
    utterance; both are usage errors."""
    flags = {"--port": 7070, "--timeout-s": 2} | dict([setting])
    result = _run(
        "remote-eval", *(x for item in flags.items() for x in item),
        "--manifest", demo / "manifest.jsonl", "--out", tmp_path / "out",
    )
    assert result.exit_code == 2, _all_output(result)
    assert f"Invalid value for '{setting[0]}'" in _all_output(result)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("port", [70000, -1])
def test_serve_rejects_a_port_out_of_range(demo, port):
    result = _run(
        "serve", "--model-config", demo / "model.json", "--port", port,
    )
    assert result.exit_code == 2, _all_output(result)
    assert "Invalid value for '--port'" in _all_output(result)


def test_make_demo_rejects_zero_utterances(tmp_path):
    result = _run("make-demo", "--out", tmp_path / "d", "--n-utts", 0)
    assert result.exit_code == 2
    assert "--n-utts" in _all_output(result)
