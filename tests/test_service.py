from __future__ import annotations

import base64
import contextlib
import json
import logging
import os
import re
import socket
import socketserver
import struct
import subprocess
import sys
import threading
import time
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import simulharness

from helpers import (
    EXPANDING_LEXICON,
    DecoderFailsOnHaus,
    aligned_utterance,
    make_model,
)
from simulharness import (
    DelaySequence,
    Frame,
    PolicyConfig,
    ServiceError,
    SimulEngine,
    StreamTranslationServer,
    Utterance,
    WireMessage,
    average_lagging,
    client_evaluate,
    evaluate_corpus,
    run_simultaneous,
    segment_stream,
    stream_utterance,
)
from simulharness.service import (
    VALID_KINDS, _chunk_frames, _chunk_payload, _SessionHandler,
)


@pytest.fixture()
def server():
    with StreamTranslationServer(make_model()) as handle:
        yield handle


# ---------------------------------------------------------------------------
# Wire format
# ---------------------------------------------------------------------------


def _f64(values) -> bytes:
    values = list(values)
    return struct.pack(f"<{len(values)}d", *values)


def _block(rows, dim=None):
    """A CHUNK payload of feature rows: their values, in order, as base64
    little-endian float64 (rows of any width), ``dim`` that of the first."""
    return {
        "dim": len(rows[0]) if dim is None else dim,
        "f64": base64.b64encode(_f64(chain.from_iterable(rows))).decode(),
    }


def test_wire_message_round_trip():
    for payload in (None, _block([[0.0, 1.0]]), {"word": "x", "n": 3}):
        message = WireMessage(
            "CHUNK", "sess-1", payload, t_client_ms=12.5, t_server_ms=None
        )
        line = message.to_line()
        assert line.endswith(b"\n") and line.count(b"\n") == 1
        assert WireMessage.parse(line) == message
        assert WireMessage.parse(line.decode("utf-8")) == message


def test_a_chunk_line_of_frames_equals_one_of_lists():
    utt = aligned_utterance(make_model(), ["da", "esel"])
    for chunk in segment_stream(utt, 280):
        rows = [list(f.features) for f in chunk]
        lines = [
            WireMessage("CHUNK", "s1", payload).to_line()
            for payload in (_chunk_payload(chunk), _block(rows))
        ]
        assert lines[0] == lines[1]


#: every float64 bit pattern, NaN payloads and signs included
_ANY_F64 = st.integers(0, 2**64 - 1).map(
    lambda bits: struct.unpack("<d", bits.to_bytes(8, "little"))[0]
)
_VALUES = st.one_of(
    st.floats(),
    _ANY_F64,
    st.sampled_from([-0.0, float("inf"), -float("inf"), 5e-324, 1e308]),
    st.integers(-(2**80), 2**80),
)


@given(
    st.integers(1, 9).flatmap(
        lambda dim: st.lists(
            st.lists(_VALUES, min_size=dim, max_size=dim),
            min_size=1, max_size=5,
        )
    )
)
def test_a_chunk_block_carries_any_float64_bit_for_bit(rows):
    frames = [Frame(row) for row in rows]
    line = WireMessage("CHUNK", "s1", _chunk_payload(frames)).to_line()
    payload = WireMessage.parse(line).payload
    sent = base64.b64decode(payload["f64"])
    assert sent == _f64(map(float, chain.from_iterable(rows)))
    received = _chunk_frames(payload)
    assert all(type(frame) is Frame for frame in received)
    assert [len(frame) for frame in received] == [len(row) for row in rows]
    # NaN != NaN, so the frames are compared by their bits
    assert _f64(chain.from_iterable(received)) == sent


@pytest.mark.parametrize(
    "line, complaint",
    [
        ("{not json", "malformed message"),
        ('["kind", "HELLO"]', "must be a JSON object"),
        ('{"kind": "NOPE", "session": "s"}', "unknown kind"),
        ('{"kind": "HELLO"}', "must carry a session id"),
        ('{"kind": "HELLO", "session": ""}', "must carry a session id"),
        ('{"kind": "HELLO", "session": 7}', "must carry a session id"),
    ],
)
def test_wire_message_parse_rejects(line, complaint):
    with pytest.raises(ValueError, match=complaint):
        WireMessage.parse(line)


# ---------------------------------------------------------------------------
# Loopback equivalence with the in-process engine
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("detection", ["fixed", "adaptive"])
def test_remote_run_equals_local_run(server, detection):
    model = make_model()
    utt = aligned_utterance(
        model, ["da", "esel", "geht", "haus", "hin", "ja"]
    )
    config = PolicyConfig(k=3, detection=detection)
    local, _ = run_simultaneous(model, utt, config)
    remote, arrivals = stream_utterance(
        server.address, utt, config, timeout_s=10
    )
    assert remote.words == local.words
    assert remote.tokens == local.tokens
    assert remote.ideal_delays_ms == local.ideal_delays_ms
    assert remote.truncated == local.truncated
    assert len(arrivals) == len(remote.words)
    # a server engine's wall delay adds compute to the ideal delay
    assert all(
        wall >= ideal
        for wall, ideal in zip(remote.wall_delays_ms, remote.ideal_delays_ms)
    )


def test_a_long_stream_over_the_wire_equals_a_local_run(monkeypatch):
    """1,500 words at k=3 with adaptive detection, sent as fast as the
    client can, and every word and ideal delay is the in-process engine's.
    Socket buffers of a few kB on both sides hold far less than the 1,500
    WORDs, so a client that read only once it had sent everything would
    stall the server's writes, and with them its own sends."""
    connect, setup = socket.create_connection, _SessionHandler.setup

    def connect_small(*args, **kwargs):
        sock = connect(*args, **kwargs)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        return sock

    def setup_small(handler):
        handler.request.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        setup(handler)

    monkeypatch.setattr(socket, "create_connection", connect_small)
    monkeypatch.setattr(_SessionHandler, "setup", setup_small)
    model = make_model()
    names = sorted(model.source_word_index)
    utt = aligned_utterance(model, [names[i % 6] for i in range(1500)])
    config = PolicyConfig(k=3, detection="adaptive")
    local, _ = run_simultaneous(model, utt, config)
    with StreamTranslationServer(model) as handle:
        remote, _ = stream_utterance(handle.address, utt, config, timeout_s=10)
    assert len(local.words) == 1500 and not local.truncated
    assert remote.words == local.words
    assert remote.ideal_delays_ms == local.ideal_delays_ms


def test_remote_corpus_report_matches_local(server):
    model = make_model()
    utts = [
        aligned_utterance(
            model, ["da", "esel", "geht", "haus"], utt_id=f"u{i}"
        )
        for i in range(3)
    ]
    config = PolicyConfig(k=2)
    local = evaluate_corpus(utts, model, config)
    remote = client_evaluate(server.address, utts, config, timeout_s=10)
    assert remote.failures == ()
    assert remote.report.bleu == local.report.bleu
    assert remote.report.al_ms == local.report.al_ms
    assert remote.report.laal_ms == local.report.laal_ms
    assert remote.report.n_utts == local.report.n_utts


#: "viel" alone fills the derived word cap of a two-word utterance
_TWENTY_WORDS = {"viel": [f"w{i}" for i in range(20)], "da": "there"}


@pytest.mark.parametrize(
    "config, n_words, last_ms",
    [
        # cap derived from the utterance (2 * 2 source words + 16), reached
        # once the source has ended
        (PolicyConfig(k=1), 20, 560),
        # cap reached by the first WRITE: the server ends the target stream
        # while the client is still sending the source
        (PolicyConfig(k=1, max_target_words=1), 1, 280),
    ],
)
def test_remote_run_equals_local_run_when_the_word_cap_ends_it(
    config, n_words, last_ms
):
    model = make_model(_TWENTY_WORDS)
    utt = aligned_utterance(model, ["viel", "da"])
    local, _ = run_simultaneous(model, utt, config)
    with StreamTranslationServer(model) as handle:
        remote, _ = stream_utterance(handle.address, utt, config, timeout_s=10)
    assert len(local.words) == n_words and local.truncated
    assert local.ideal_delays_ms[-1] == last_ms
    assert remote.words == local.words
    assert remote.tokens == local.tokens
    assert remote.ideal_delays_ms == local.ideal_delays_ms
    assert remote.truncated


def test_realtime_pacing_still_translates(server):
    model = make_model()
    utt = aligned_utterance(model, ["da", "esel"])
    hyp, _ = stream_utterance(
        server.address, utt, PolicyConfig(k=1),
        pacing="realtime", timeout_s=10,
    )
    assert list(hyp.words) == model.translate_words(["da", "esel"])
    assert all(
        wall >= ideal
        for wall, ideal in zip(hyp.wall_delays_ms, hyp.ideal_delays_ms)
    )


def test_realtime_remote_delays_count_compute_under_a_step():
    """Each chunk leaves once its audio exists and each word's wall delay is
    its raw arrival, so a model delay far under one step still shows in
    AL_CA, and real-time AL_CA stays within one step of the local run's."""
    delay_ms = 20
    model = make_model(compute_delay_ms=delay_ms)
    utts = [aligned_utterance(model, ["da", "esel", "geht", "haus"])]
    config = PolicyConfig(k=2)
    local = evaluate_corpus(utts, model, config).report
    with StreamTranslationServer(model) as handle:
        remote = client_evaluate(
            handle.address, utts, config, pacing="realtime", timeout_s=10
        )
    assert remote.failures == ()
    report = remote.report
    assert (report.bleu, report.al_ms, report.laal_ms) == (
        local.bleu, local.al_ms, local.laal_ms
    )
    assert report.al_ca_ms - report.al_ms >= delay_ms
    assert report.al_ca_ms <= local.al_ca_ms + config.step_ms


def test_fast_remote_wall_delays_are_the_server_engines(monkeypatch):
    """Under fast pacing a word's wall delay is the one the server's engine
    logged, so remote computation-aware latency charges the model's
    compute."""
    engine_walls = []
    result = SimulEngine.result

    def recording(self):
        hypothesis, events = result(self)
        engine_walls.append(hypothesis.wall_delays_ms)
        return hypothesis, events

    monkeypatch.setattr(SimulEngine, "result", recording)
    model = make_model(compute_delay_ms=5)
    utt = aligned_utterance(model, ["da", "esel", "geht"])
    with StreamTranslationServer(model) as handle:
        remote, _ = stream_utterance(
            handle.address, utt, PolicyConfig(k=1), timeout_s=10
        )
    assert len(remote.words) == 3
    assert engine_walls == [remote.wall_delays_ms]
    delays = DelaySequence(
        ideal_ms=remote.ideal_delays_ms, wall_ms=remote.wall_delays_ms,
        source_ms=float(utt.duration_ms),
        hyp_len=len(remote.words), ref_len=len(utt.reference),
    )
    assert average_lagging(delays, True) > average_lagging(delays)


@pytest.mark.parametrize("pacing", ["fast", "realtime"])
def test_only_a_word_carries_a_stamp(monkeypatch, pacing):
    """A WORD's ``t_server_ms`` is the engine's wall delay; no other line,
    from the client or the server, carries a stamp."""
    sent = []
    to_line = WireMessage.to_line

    def recording(message):
        sent.append(message)
        return to_line(message)

    monkeypatch.setattr(WireMessage, "to_line", recording)
    model = make_model()
    utt = aligned_utterance(model, ["da", "esel"])
    with StreamTranslationServer(model) as handle:
        remote, _ = stream_utterance(
            handle.address, utt, PolicyConfig(k=1), pacing=pacing,
            timeout_s=10,
        )
    kinds = [m.kind for m in sent]
    assert sorted(set(kinds)) == ["CHUNK", "EOS_SRC", "EOS_TGT", "HELLO",
                                  "WORD"]
    assert all(m.t_client_ms is None for m in sent)
    assert all(
        (m.kind == "WORD") == (m.t_server_ms is not None) for m in sent
    )
    stamps = tuple(m.t_server_ms for m in sent if m.kind == "WORD")
    assert len(stamps) == len(remote.words) == 2
    if pacing == "fast":
        assert stamps == remote.wall_delays_ms


def test_unknown_pacing_is_rejected(server):
    model = make_model()
    utt = aligned_utterance(model, ["da"])
    with pytest.raises(ValueError, match="unknown pacing"):
        stream_utterance(server.address, utt, PolicyConfig(), pacing="warp")


# ---------------------------------------------------------------------------
# Protocol violations (raw socket exchanges)
# ---------------------------------------------------------------------------


def _exchange(address, lines: list[dict]) -> list[WireMessage]:
    """Send raw JSON lines and collect every reply until the server hangs up."""
    with socket.create_connection(address, timeout=10) as sock:
        wire = sock.makefile("rwb")
        for record in lines:
            wire.write((json.dumps(record) + "\n").encode("utf-8"))
        wire.flush()
        sock.shutdown(socket.SHUT_WR)
        return [WireMessage.parse(raw) for raw in wire]


def _msg(kind, session="s1", payload=None):
    return {"kind": kind, "session": session, "payload": payload}


def _hello(session="s1", k=2, **extra):
    payload = {"config": {"k": k}, "frame_ms": 10}
    payload.update(extra)
    return _msg("HELLO", session, payload)


def _chunk_rows(model, words):
    utt = aligned_utterance(model, words)
    return [list(f.features) for f in utt.frames]


_DA_ROWS = _chunk_rows(make_model(), ["da"])
#: the last row is one channel short
_RAGGED_ROWS = _DA_ROWS[:-1] + [_DA_ROWS[-1][:-1]]
#: a consistent width, but two channels wider than the session's first CHUNK
_WIDER_ROWS = [row + [0.0, 0.0] for row in _DA_ROWS]


@pytest.mark.parametrize(
    "lines, complaint",
    [
        ([_msg("CHUNK")], "protocol: expected HELLO"),
        ([_msg("EOS_SRC")], "protocol: expected HELLO"),
        ([_hello(), _hello()], "protocol: session already started"),
        (
            [_hello(), _msg("CHUNK", session="other")],
            "protocol: unknown session 'other'",
        ),
        ([_hello(), _msg("CHUNK")], "protocol: CHUNK carries no frames"),
        ([_msg("WORD")], "protocol: unexpected WORD from client"),
        ([_msg("EOS_TGT")], "protocol: unexpected EOS_TGT from client"),
        ([{"kind": "HELLO"}], "protocol: message must carry a session id"),
        ([_hello(k=0)], "config: k must be"),
        (
            [_msg("HELLO", payload={"config": {"k": 2, "bogus": 1}})],
            "config: unknown policy fields",
        ),
        (
            [_hello(model={"lexicon": EXPANDING_LEXICON})],
            "config: unknown HELLO fields ['model']",
        ),
        (
            [_msg("HELLO", payload="config")],
            "config: HELLO payload must be an object",
        ),
        (
            [_hello(), _msg("CHUNK", payload=[1])],
            "protocol: CHUNK carries no frames",
        ),
        (
            [_hello(), _msg("CHUNK", payload={"dim": 7, "f64": "1234567"})],
            "protocol: CHUNK f64 is not base64",
        ),
        (
            [_hello(), _msg("CHUNK", payload=_block(_DA_ROWS, dim=7.0))],
            "protocol: CHUNK needs a string f64 and an int dim above 0",
        ),
        (
            [_hello(), _msg("CHUNK", payload=_block(_RAGGED_ROWS))],
            "protocol: CHUNK f64 holds 1560 bytes, not rows of 7 float64s",
        ),
        (
            [
                _hello(),
                _msg("CHUNK", payload=_block(_DA_ROWS)),
                _msg("CHUNK", payload=_block(_WIDER_ROWS)),
            ],
            "protocol: all frames in a session must share a feature dimension",
        ),
    ],
)
def test_protocol_violations_get_an_error_reply(server, lines, complaint):
    replies = _exchange(server.address, lines)
    assert replies[-1].kind == "ERROR"
    assert replies[-1].payload["message"].startswith(complaint)


@pytest.mark.parametrize(
    "hello, complaint",
    [
        (_hello(k=3.5), "config: k must be int"),
        (_hello(k=True), "config: k must be int"),
        (_hello(config={"force_finish": "no"}), "config: force_finish"),
        (_hello(config={"max_target_words": 1.5}), "config: max_target_words"),
        (_hello(frame_ms=10.9), "config: frame_ms must be positive integer"),
        (_hello(frame_ms=True), "config: frame_ms must be positive integer"),
        (_hello(config={"detection": 5}), "config: detection must be"),
        (_hello(config={"avg_word_ms": 5}), "config: avg_word_ms"),
    ],
    ids=["k-float", "k-bool", "force_finish-str", "max_target_words-float",
         "frame_ms-float", "frame_ms-bool", "detection-int",
         "avg_word_ms-under-a-frame"],
)
def test_settings_of_the_wrong_type_get_a_config_error(
    server, hello, complaint
):
    model = make_model()
    lines = [
        hello,
        _msg("CHUNK", payload=_block(_chunk_rows(model, ["da"]))),
        _msg("EOS_SRC"),
    ]
    replies = _exchange(server.address, lines)
    assert [m.kind for m in replies] == ["ERROR"]
    assert replies[0].payload["message"].startswith(complaint)


_FALSY = [[], 0, "", False]


@pytest.mark.parametrize(
    "payload, complaint",
    [(value, "config: HELLO payload must be an object") for value in _FALSY]
    + [({"config": value}, "config: HELLO config must be an object")
       for value in _FALSY],
    ids=[f"{field}-{value!r}" for field in ("payload", "config")
         for value in _FALSY],
)
def test_a_falsy_hello_payload_or_config_is_no_default(
    server, payload, complaint
):
    lines = [
        _msg("HELLO", payload=payload),
        _msg("CHUNK", payload=_block(_DA_ROWS)),
        _msg("EOS_SRC"),
    ]
    replies = _exchange(server.address, lines)
    assert [m.kind for m in replies] == ["ERROR"]
    assert replies[0].payload == {"message": complaint}


@pytest.mark.parametrize("payload", [None, {}, {"config": None}])
def test_a_null_or_absent_hello_setting_means_the_default(server, payload):
    lines = [
        _msg("HELLO", payload=payload),
        _msg("CHUNK", payload=_block(_DA_ROWS)),
        _msg("EOS_SRC"),
    ]
    replies = _exchange(server.address, lines)
    assert [m.kind for m in replies] == ["WORD", "EOS_TGT"]
    assert [replies[0].payload["word"]] == make_model().translate_words(
        ["da"]
    )


def test_an_overlong_integer_is_a_malformed_message():
    # json.loads raises a plain ValueError past 4,300 digits
    line = '{"kind": "CHUNK", "session": "s1", "payload": ' + "9" * 5000 + "}"
    with pytest.raises(ValueError, match="malformed message: Exceeds"):
        WireMessage.parse(line)


def test_garbage_line_is_reported_as_malformed(server):
    with socket.create_connection(server.address, timeout=10) as sock:
        wire = sock.makefile("rwb")
        wire.write(b"this is not json\n")
        wire.flush()
        sock.shutdown(socket.SHUT_WR)
        replies = [WireMessage.parse(raw) for raw in wire]
    assert replies[-1].kind == "ERROR"
    assert replies[-1].payload["message"].startswith(
        "protocol: malformed message"
    )


def test_deeply_nested_line_is_reported_as_malformed(server):
    # the stdlib parser raises RecursionError here, which is no ValueError
    with pytest.raises(ValueError, match="malformed message"):
        WireMessage.parse("[" * 200_000)
    with socket.create_connection(server.address, timeout=10) as sock:
        wire = sock.makefile("rwb")
        wire.write(b"[" * 200_000 + b"\n")
        wire.flush()
        sock.shutdown(socket.SHUT_WR)
        replies = [WireMessage.parse(raw) for raw in wire]
    assert [m.kind for m in replies] == ["ERROR"]
    assert replies[0].payload["message"].startswith(
        "protocol: malformed message"
    )


@pytest.mark.parametrize(
    "words", [[], ["da", "esel"]], ids=["hello-only", "hello-and-a-chunk"]
)
def test_a_client_that_stops_sending_before_eos_src_gets_an_error(
    server, words
):
    model = make_model()
    lines = [_hello(k=1)]
    if words:
        # 560 ms of source in one chunk: at k=1 both words fall due
        rows = _chunk_rows(model, words)
        lines.append(_msg("CHUNK", payload=_block(rows)))
    replies = _exchange(server.address, lines)
    assert [m.kind for m in replies] == ["WORD"] * len(words) + ["ERROR"]
    assert [m.payload["word"] for m in replies[:-1]] == (
        model.translate_words(words)
    )
    assert replies[-1].payload == {
        "message": "protocol: connection closed before EOS_SRC"
    }


def test_a_connection_that_sends_nothing_is_no_session(server):
    assert _exchange(server.address, []) == []
    model = make_model()
    utt = aligned_utterance(model, ["da", "esel"])
    hyp, _ = stream_utterance(
        server.address, utt, PolicyConfig(k=1), timeout_s=10
    )
    assert list(hyp.words) == model.translate_words(["da", "esel"])


def test_model_failure_is_reported_on_the_wire(server):
    # the default server model expects 7 feature channels; send 3
    lines = [
        _hello(),
        _msg("CHUNK", payload=_block([[0.0, 1.0, 0.0]] * 28)),
    ]
    replies = _exchange(server.address, lines)
    assert replies[-1].kind == "ERROR"
    assert replies[-1].payload["message"].startswith("model: ")


@pytest.mark.parametrize(
    "chunks, complaint",
    [
        # a block cannot be ragged: a torn last row leaves a partial row
        (
            [_RAGGED_ROWS],
            "protocol: CHUNK f64 holds 1560 bytes, not rows of 7 float64s",
        ),
        (
            [_DA_ROWS, _WIDER_ROWS],
            "protocol: all frames in a session must share a feature dimension",
        ),
    ],
    ids=["ragged-chunk", "wider-second-chunk"],
)
def test_a_change_of_width_is_a_protocol_error(
    server, caplog, chunks, complaint
):
    lines = [_hello()]
    lines += [_msg("CHUNK", payload=_block(rows)) for rows in chunks]
    with caplog.at_level(logging.WARNING, logger="simulharness.service"):
        replies = _exchange(server.address, lines)
    assert replies[-1].payload["message"] == complaint
    # a client's fault is logged without a model traceback
    assert not any(record.exc_info for record in caplog.records)


def test_a_non_numeric_chunk_row_is_a_protocol_error(server, caplog):
    # bytes hold no words: the counterpart of a word among the numbers is a
    # character outside base64 where the fourth row's values begin
    text = _block(_chunk_rows(make_model(), ["da"]))["f64"]
    start = 3 * 7 * 8 * 4 // 3
    text = text[:start] + "'loud'" + text[start + 6:]
    lines = [_hello(), _msg("CHUNK", payload={"dim": 7, "f64": text})]
    with caplog.at_level(logging.WARNING, logger="simulharness.service"):
        replies = _exchange(server.address, lines)
    assert [m.kind for m in replies] == ["ERROR"]
    assert replies[0].payload["message"].startswith(
        "protocol: CHUNK f64 is not base64"
    )
    # a client's fault is logged without a model traceback
    assert not any(record.exc_info for record in caplog.records)


_DA_BLOCK = _block(_DA_ROWS)
_NO_FRAMES = "CHUNK carries no frames"
_BAD_TYPE = "CHUNK needs a string f64 and an int dim above 0"
_NOT_BASE64 = "CHUNK f64 is not base64"


@pytest.mark.parametrize(
    "payload, complaint",
    [
        (None, _NO_FRAMES),
        ([_DA_BLOCK], _NO_FRAMES),
        ({"dim": 7}, _NO_FRAMES),
        ({"dim": 7, "f64": ""}, _NO_FRAMES),
        ({"dim": 7, "f64": 12345678}, _BAD_TYPE),
        ({"dim": 7, "f64": [_DA_BLOCK["f64"]]}, _BAD_TYPE),
        ({"f64": _DA_BLOCK["f64"]}, _BAD_TYPE),
        ({**_DA_BLOCK, "dim": True}, _BAD_TYPE),
        ({**_DA_BLOCK, "dim": 1.5}, _BAD_TYPE),
        ({**_DA_BLOCK, "dim": "7"}, _BAD_TYPE),
        ({**_DA_BLOCK, "dim": 0}, _BAD_TYPE),
        ({**_DA_BLOCK, "dim": -7}, _BAD_TYPE),
        ({**_DA_BLOCK, "f64": _DA_BLOCK["f64"][:-1]}, _NOT_BASE64),
        ({**_DA_BLOCK, "f64": "!" + _DA_BLOCK["f64"][1:]}, _NOT_BASE64),
        ({**_DA_BLOCK, "f64": _DA_BLOCK["f64"] + "\n"}, _NOT_BASE64),
        ({**_DA_BLOCK, "f64": "é" + _DA_BLOCK["f64"][1:]}, _NOT_BASE64),
        (
            {**_DA_BLOCK, "dim": 5},
            "CHUNK f64 holds 1568 bytes, not rows of 5 float64s",
        ),
        (
            {**_DA_BLOCK, "dim": 10**30},
            f"CHUNK f64 holds 1568 bytes, not rows of {10**30} float64s",
        ),
        (_block([[1.0]], dim=7), "CHUNK f64 holds 8 bytes, not rows of 7"),
    ],
    ids=["null", "list", "no-f64", "empty-f64", "f64-number", "f64-list",
         "no-dim", "dim-true", "dim-float", "dim-string", "dim-zero",
         "dim-negative", "torn-padding", "bad-character", "newline",
         "non-ascii", "dim-not-a-divisor", "dim-past-the-block",
         "short-of-a-row"],
)
def test_a_malformed_chunk_gets_one_protocol_error(
    server, caplog, payload, complaint
):
    lines = [_hello(), _msg("CHUNK", payload=payload), _msg("EOS_SRC")]
    with caplog.at_level(logging.WARNING, logger="simulharness.service"):
        replies = _exchange(server.address, lines)
    assert [m.kind for m in replies] == ["ERROR"]
    assert replies[0].payload["message"].startswith(f"protocol: {complaint}")
    # a client's fault is logged without a traceback
    assert not any(record.exc_info for record in caplog.records)


@pytest.mark.parametrize(
    "lines", [[], [_hello()]], ids=["silent", "after-hello"]
)
def test_an_idle_client_gets_one_error_and_frees_its_thread(
    server, monkeypatch, lines
):
    monkeypatch.setattr(_SessionHandler, "timeout", 0.3)
    with socket.create_connection(server.address, timeout=10) as sock:
        wire = sock.makefile("rwb")
        for record in lines:
            wire.write((json.dumps(record) + "\n").encode("utf-8"))
        wire.flush()
        # stall without closing: the server ends the session
        replies = [WireMessage.parse(raw) for raw in wire]
    assert [m.kind for m in replies] == ["ERROR"]
    assert replies[0].payload == {"message": "protocol: idle for 0.3 s"}
    model = make_model()
    utt = aligned_utterance(model, ["da", "esel"])
    hyp, _ = stream_utterance(
        server.address, utt, PolicyConfig(k=1), timeout_s=10
    )
    assert list(hyp.words) == model.translate_words(["da", "esel"])


def test_any_model_exception_ends_the_session_with_an_error():
    model = DecoderFailsOnHaus()
    with StreamTranslationServer(model) as handle:
        lines = [
            _hello(k=1),
            _msg("CHUNK", payload=_block(_chunk_rows(model, ["haus"]))),
        ]
        replies = _exchange(handle.address, lines)
        assert replies[-1].kind == "ERROR"
        assert replies[-1].payload["message"] == (
            "model: decoder table out of range"
        )
        # the server lives on: the next corpus fails only where it must
        utts = [
            aligned_utterance(model, ["haus"], utt_id="bad"),
            aligned_utterance(model, ["da", "esel"], utt_id="good"),
        ]
        corpus = client_evaluate(
            handle.address, utts, PolicyConfig(k=1), timeout_s=10
        )
    assert corpus.failures == ("bad",)
    assert corpus.report.n_utts == 1


def test_leaving_a_server_block_stops_the_server_promptly():
    model = make_model()
    with StreamTranslationServer(model) as handle:
        stream_utterance(handle.address, aligned_utterance(model, ["da"]),
                         PolicyConfig(k=1), timeout_s=10)
        start = time.perf_counter()
    assert time.perf_counter() - start < 0.25


def test_concurrent_sessions_stay_isolated(server):
    model = make_model()
    cases = {
        "a": ["da", "esel", "geht"],
        "b": ["haus", "hin", "ja", "da"],
        "c": ["ja", "ja"],
    }
    config = PolicyConfig(k=2)
    outcomes: dict[str, list[str]] = {}

    def run(name: str, words: list[str]) -> None:
        utt = aligned_utterance(model, words, utt_id=name)
        hyp, _ = stream_utterance(server.address, utt, config, timeout_s=10)
        outcomes[name] = list(hyp.words)

    threads = [
        threading.Thread(target=run, args=(name, words))
        for name, words in cases.items()
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=15)
    assert outcomes == {
        name: model.translate_words(words) for name, words in cases.items()
    }


# ---------------------------------------------------------------------------
# Session workers and the session cap
# ---------------------------------------------------------------------------


@pytest.fixture()
def workers(monkeypatch):
    """The thread each session's handler runs on, in session order."""
    seen: list[threading.Thread] = []
    handle = _SessionHandler.handle

    def recording(handler):
        seen.append(threading.current_thread())
        handle(handler)

    monkeypatch.setattr(_SessionHandler, "handle", recording)
    return seen


def _read_to_the_close(sock) -> list[WireMessage]:
    return [WireMessage.parse(raw) for raw in sock.makefile("rb")]


def test_sequential_sessions_run_on_one_worker(server, workers, monkeypatch):
    # a client that has read EOS_TGT may connect again while the server is
    # still closing the session it ended: each next session waits for that
    closed = threading.Semaphore(0)
    close = simulharness.service._ThreadedTCPServer.shutdown_request

    def counting(self, request):
        close(self, request)
        closed.release()

    monkeypatch.setattr(
        simulharness.service._ThreadedTCPServer, "shutdown_request", counting
    )
    model = make_model()
    utt = aligned_utterance(model, ["da", "esel"])
    for _ in range(10):
        hyp, _ = stream_utterance(
            server.address, utt, PolicyConfig(k=1), timeout_s=10
        )
        assert list(hyp.words) == model.translate_words(["da", "esel"])
        assert closed.acquire(timeout=5)
    assert len(workers) == 10
    assert len(set(workers)) == 1


def test_a_handler_that_raises_frees_its_worker_for_the_next_session(
    server, monkeypatch, caplog
):
    """An exception out of a session's handler is the server's to report:
    that client gets one ``internal:`` ERROR, the module logs the
    traceback, and the worker serves the next session."""
    seen: list[threading.Thread] = []
    handle = _SessionHandler.handle

    def failing_once(handler):
        seen.append(threading.current_thread())
        if len(seen) == 1:
            raise RuntimeError("handler bug")
        handle(handler)

    monkeypatch.setattr(_SessionHandler, "handle", failing_once)
    model = make_model()
    utt = aligned_utterance(model, ["da", "esel", "geht"])
    with caplog.at_level(logging.ERROR, logger="simulharness.service"):
        with pytest.raises(
            ServiceError, match=r"remote error: internal: RuntimeError"
        ):
            stream_utterance(
                server.address, utt, PolicyConfig(k=1), timeout_s=10
            )
    (record,) = caplog.records
    assert record.exc_info[0] is RuntimeError
    assert "RuntimeError: handler bug" in caplog.text
    local, _ = run_simultaneous(model, utt, PolicyConfig(k=1))
    remote, _ = stream_utterance(
        server.address, utt, PolicyConfig(k=1), timeout_s=10
    )
    assert remote.words == local.words
    assert remote.ideal_delays_ms == local.ideal_delays_ms
    assert seen == [seen[0]] * 2


@pytest.mark.parametrize("ending", ["model", "idle", "protocol"])
def test_the_session_after_a_failed_one_runs_on_its_worker(
    server, workers, monkeypatch, ending
):
    monkeypatch.setattr(_SessionHandler, "timeout", 0.3)
    lines = {
        "model": [_hello(), _msg("CHUNK", payload=_block([[0.0] * 3] * 28))],
        "idle": [_hello()],
        "protocol": [_hello(), _msg("CHUNK")],
    }[ending]
    with socket.create_connection(server.address, timeout=10) as sock:
        for record in lines:
            sock.sendall((json.dumps(record) + "\n").encode("utf-8"))
        if ending != "idle":
            sock.shutdown(socket.SHUT_WR)
        # the server closes the connection once its worker is free
        replies = _read_to_the_close(sock)
    assert [m.kind for m in replies] == ["ERROR"]
    assert replies[0].payload["message"].startswith(
        {"model": "model: ", "idle": "protocol: idle for 0.3 s",
         "protocol": "protocol: CHUNK carries no frames"}[ending]
    )
    model = make_model()
    hyp, _ = stream_utterance(
        server.address, aligned_utterance(model, ["da", "esel"]),
        PolicyConfig(k=1), timeout_s=10,
    )
    assert list(hyp.words) == model.translate_words(["da", "esel"])
    assert workers == [workers[0]] * 2


def test_workers_wait_for_sessions_and_exit_with_the_server(workers):
    """Three sessions at once take three workers.  Once they end, each
    worker waits for the next session; leaving the server block ends them."""
    hello = (json.dumps(_hello()) + "\n").encode("utf-8")
    with StreamTranslationServer(make_model()) as handle:
        socks = [socket.create_connection(handle.address, timeout=10)
                 for _ in range(3)]
        try:
            for sock in socks:
                sock.sendall(hello)
            deadline = time.monotonic() + 5
            while len(workers) < 3:  # every session has started
                assert time.monotonic() < deadline
                time.sleep(0.001)
            for sock in socks:
                sock.shutdown(socket.SHUT_WR)
                assert [m.kind for m in _read_to_the_close(sock)] == ["ERROR"]
        finally:
            for sock in socks:
                sock.close()
        assert len(set(workers)) == 3
        for worker in workers:
            worker.join(timeout=0.05)
            assert worker.is_alive()
    deadline = time.monotonic() + 1
    for worker in workers:
        worker.join(timeout=max(0.0, deadline - time.monotonic()))
        assert not worker.is_alive()


def test_a_connection_past_the_session_cap_gets_one_error(
    server, monkeypatch
):
    monkeypatch.setattr(simulharness.service, "_MAX_SESSIONS", 1)
    with socket.create_connection(server.address, timeout=10) as held:
        held.sendall((json.dumps(_hello(k=1)) + "\n").encode("utf-8"))
        refused = _exchange(server.address, [])
        assert [m.kind for m in refused] == ["ERROR"]
        assert refused[0].payload == {
            "message": "protocol: server busy with 1 sessions"
        }
        held.shutdown(socket.SHUT_WR)
        assert [m.payload for m in _read_to_the_close(held)] == [
            {"message": "protocol: connection closed before EOS_SRC"}
        ]
    model = make_model()
    utt = aligned_utterance(model, ["da", "esel", "geht"])
    local, _ = run_simultaneous(model, utt, PolicyConfig(k=1))
    remote, _ = stream_utterance(
        server.address, utt, PolicyConfig(k=1), timeout_s=10
    )
    assert remote.words == local.words
    assert remote.ideal_delays_ms == local.ideal_delays_ms


def test_shutting_down_a_server_that_never_served_returns_at_once():
    handle = StreamTranslationServer(make_model())
    port = handle.address[1]
    stopper = threading.Thread(target=handle.shutdown, daemon=True)
    stopper.start()
    stopper.join(timeout=1)
    assert not stopper.is_alive()
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", port))  # the port is free again


def test_a_port_in_use_is_an_os_error(server):
    with pytest.raises(OSError):
        StreamTranslationServer(make_model(), port=server.address[1])


# ---------------------------------------------------------------------------
# Fuzzing
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def fuzz_server():
    with StreamTranslationServer(make_model()) as handle:
        yield handle


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
#: a CHUNK payload: any width, and the base64 of any bytes -- often whole
#: rows of the server model's 7 channels, any float64 bit pattern -- or any
#: text or JSON value
_CHUNK_PAYLOAD = st.fixed_dictionaries({
    "dim": st.integers(-1, 9) | st.just(7) | _JSON,
    "f64": st.one_of(
        st.binary(max_size=7 * 8 * 3),
        st.lists(st.binary(min_size=7 * 8, max_size=7 * 8), min_size=1,
                 max_size=3).map(b"".join),
    ).map(lambda data: base64.b64encode(data).decode())
    | st.text(max_size=12) | _JSON,
})
_FUZZED_LINE = st.one_of(
    st.text().map(lambda text: text.replace("\n", " ").encode("utf-8")),
    st.binary().map(lambda data: data.replace(b"\n", b" ")),
    st.fixed_dictionaries({
        "kind": st.sampled_from(sorted(VALID_KINDS)) | st.text(max_size=8),
        "session": st.just("s1") | st.text(max_size=4) | _JSON,
        "payload": _CHUNK_PAYLOAD | _JSON,
    }),
    st.fixed_dictionaries({
        "kind": st.just("CHUNK"), "session": st.just("s1"),
        "payload": _CHUNK_PAYLOAD,
    }),
).map(
    lambda line: line if isinstance(line, bytes)
    else json.dumps(line).encode("utf-8")
)


@settings(max_examples=60)
@given(after_hello=st.booleans(), line=_FUZZED_LINE)
def test_a_fuzzed_line_ends_its_session_with_one_reply(
    fuzz_server, after_hello, line
):
    """Whatever line a client sends, first or after a valid HELLO, its
    session ends with WORDs and then exactly one EOS_TGT or ERROR, and the
    server still serves the next client as a local run."""
    prefix = (json.dumps(_hello()) + "\n").encode() if after_hello else b""
    with socket.create_connection(fuzz_server.address, timeout=10) as sock:
        wire = sock.makefile("rwb")
        wire.write(prefix + line + b"\n")
        wire.flush()
        sock.shutdown(socket.SHUT_WR)
        replies = [WireMessage.parse(raw) for raw in wire]
    kinds = [m.kind for m in replies]
    assert kinds[:-1] == ["WORD"] * (len(kinds) - 1)
    assert kinds[-1:] in (["EOS_TGT"], ["ERROR"])
    model = make_model()
    utt = aligned_utterance(model, ["da", "esel", "geht"])
    config = PolicyConfig(k=2, detection="adaptive")
    remote, _ = stream_utterance(
        fuzz_server.address, utt, config, timeout_s=10
    )
    local, _ = run_simultaneous(model, utt, config)
    assert (remote.words, remote.tokens, remote.ideal_delays_ms) == (
        local.words, local.tokens, local.ideal_delays_ms
    )


# ---------------------------------------------------------------------------
# Client-side failure handling
# ---------------------------------------------------------------------------


def test_stream_utterance_raises_on_remote_error(server):
    model = make_model(EXPANDING_LEXICON)  # wrong width for the server model
    utt = aligned_utterance(model, ["da", "esel"])
    with pytest.raises(ServiceError, match="model: "):
        stream_utterance(server.address, utt, PolicyConfig(k=1), timeout_s=10)


class _TrickleHandler(socketserver.StreamRequestHandler):
    """A stalled server: after HELLO it sends one byte of a WORD line every
    0.1 s and never ends the line."""

    def handle(self):
        hello = WireMessage.parse(self.rfile.readline())
        line = WireMessage("WORD", hello.session, {"word": "x"}).to_line()
        try:
            for byte in line[:-1]:
                self.wfile.write(bytes([byte]))
                self.wfile.flush()
                time.sleep(0.1)
        except OSError:
            pass  # the client gave up and closed


def test_the_timeout_bounds_the_whole_wait_for_the_target_stream():
    """Bytes that keep coming without a whole line do not extend the wait:
    ``timeout_s`` bounds it in total, not per read."""
    utt = aligned_utterance(make_model(), ["da"])
    stub = socketserver.ThreadingTCPServer(("127.0.0.1", 0), _TrickleHandler)
    stub.daemon_threads = True
    threading.Thread(target=stub.serve_forever, daemon=True).start()
    try:
        start = time.perf_counter()
        with pytest.raises(
            ServiceError, match="timed out waiting for the target stream"
        ):
            stream_utterance(
                stub.server_address, utt, PolicyConfig(k=1), timeout_s=0.5
            )
        assert time.perf_counter() - start < 2.0
    finally:
        stub.shutdown()
        stub.server_close()


@pytest.mark.parametrize("pacing", ["fast", "realtime"])
def test_a_session_may_wait_as_long_as_a_socket_can(server, pacing):
    """A timeout of ``threading.TIMEOUT_MAX`` is longer than one selector
    wait can be; the client waits it out in parts, and the session ends
    as soon as the server does."""
    model = make_model()
    utt = aligned_utterance(model, ["da", "esel"])
    hyp, _ = stream_utterance(server.address, utt, PolicyConfig(k=1),
                              pacing=pacing, timeout_s=threading.TIMEOUT_MAX)
    assert list(hyp.words) == model.translate_words(["da", "esel"])


class _SmallBufferServer(socketserver.ThreadingTCPServer):
    """A stub server whose sockets buffer about 4 kB each way."""

    daemon_threads = True

    def server_bind(self):
        # set on the listener, so that each accepted socket starts with them
        for option in (socket.SO_RCVBUF, socket.SO_SNDBUF):
            self.socket.setsockopt(socket.SOL_SOCKET, option, 4096)
        super().server_bind()


@contextlib.contextmanager
def _stub(handler):
    """The address of a :class:`_SmallBufferServer` running ``handler``;
    its ``released`` event is set when the block ends."""
    stub = _SmallBufferServer(("127.0.0.1", 0), handler)
    stub.released = threading.Event()
    threading.Thread(target=stub.serve_forever, args=(0.01,),
                     daemon=True).start()
    try:
        yield stub.server_address
    finally:
        stub.released.set()
        stub.shutdown()
        stub.server_close()


@pytest.fixture()
def small_client_buffers(monkeypatch):
    """Client sockets that buffer about 4 kB each way."""
    connect = socket.create_connection

    def connect_small(*args, **kwargs):
        sock = connect(*args, **kwargs)
        for option in (socket.SO_RCVBUF, socket.SO_SNDBUF):
            sock.setsockopt(socket.SOL_SOCKET, option, 4096)
        return sock

    monkeypatch.setattr(socket, "create_connection", connect_small)


class _WordsBeforeReadingHandler(socketserver.StreamRequestHandler):
    """A server that answers HELLO with 600 WORDs before it reads any
    CHUNK, then reads up to EOS_SRC and ends the target stream."""

    def handle(self):
        hello = WireMessage.parse(self.rfile.readline())
        word = WireMessage("WORD", hello.session, {"word": "x", "ideal_ms": 0},
                           t_server_ms=0.0)
        eos = {"tokens": ["x"] * 600, "convention": "bpe",
               "truncated": False}
        try:
            self.wfile.write(word.to_line() * 600)
            for line in self.rfile:
                if WireMessage.parse(line).kind == "EOS_SRC":
                    break
            self.wfile.write(
                WireMessage("EOS_TGT", hello.session, eos).to_line()
            )
        except (OSError, ValueError):
            pass  # the client gave up, maybe with a line half sent


def test_a_client_reads_while_its_send_would_block(small_client_buffers):
    """The server writes its WORDs before it reads, and 4 kB buffers fill
    both ways: a client that waited in a send without reading would wait
    for a server that waits for it, until ``timeout_s`` ran out twice."""
    utt = aligned_utterance(make_model(), ["da", "esel"] * 15)
    with _stub(_WordsBeforeReadingHandler) as address:
        hyp, arrivals = stream_utterance(address, utt, PolicyConfig(k=3),
                                         timeout_s=4)
    assert hyp.words == ("x",) * 600
    assert len(arrivals) == 600


class _NeverReadsHandler(socketserver.StreamRequestHandler):
    """A stalled server: reads HELLO, then neither reads nor writes."""

    def handle(self):
        self.rfile.readline()
        self.server.released.wait(30)


def test_a_send_that_stays_blocked_fails_within_one_timeout(
    small_client_buffers,
):
    """A server that stops reading leaves the client's send waiting.  The
    wait runs out at ``timeout_s`` with a line cut short, which cannot be
    resumed, so the session fails there and does not wait again for a
    target stream."""
    utt = aligned_utterance(make_model(), ["da", "esel"] * 50)
    with _stub(_NeverReadsHandler) as address:
        start = time.perf_counter()
        with pytest.raises(ServiceError, match="timed out sending CHUNK"):
            stream_utterance(address, utt, PolicyConfig(k=3), timeout_s=1.0)
        elapsed = time.perf_counter() - start
    assert 1.0 <= elapsed < 1.8, elapsed


class _SilentHandler(socketserver.StreamRequestHandler):
    """A server that reads every line and never answers."""

    def handle(self):
        for _ in self.rfile:
            pass


def test_a_wait_longer_than_one_selector_wait_is_taken_in_parts(
    server, monkeypatch
):
    """With the longest single selector wait cut to 2 ms, every wait of the
    client comes in parts: a real-time session still returns its words,
    and a server that never answers still fails the client at
    ``timeout_s``, not at the end of the first part."""
    monkeypatch.setattr(simulharness.service, "_MAX_WAIT_S", 0.002)
    model = make_model()
    utt = aligned_utterance(model, ["da", "esel"])
    hyp, _ = stream_utterance(server.address, utt, PolicyConfig(k=1),
                              pacing="realtime", timeout_s=10)
    assert list(hyp.words) == model.translate_words(["da", "esel"])
    with _stub(_SilentHandler) as address:
        start = time.perf_counter()
        with pytest.raises(
            ServiceError, match="timed out waiting for the target stream"
        ):
            stream_utterance(address, utt, PolicyConfig(k=1), timeout_s=0.3)
        elapsed = time.perf_counter() - start
    assert 0.3 <= elapsed < 1.5, elapsed


def test_a_client_that_resets_mid_session_is_a_dropped_connection(
    server, workers, monkeypatch, caplog
):
    """A client that resets the connection after HELLO and one CHUNK gets
    no ERROR: the server logs the drop at INFO, and the same worker
    serves the next session."""
    closed = threading.Semaphore(0)
    close = simulharness.service._ThreadedTCPServer.shutdown_request

    def counting(self, request):
        close(self, request)
        closed.release()

    monkeypatch.setattr(
        simulharness.service._ThreadedTCPServer, "shutdown_request", counting
    )
    lines = [_hello(k=3), _msg("CHUNK", payload=_block(_DA_ROWS))]
    with caplog.at_level(logging.INFO, logger="simulharness.service"):
        sock = socket.create_connection(server.address, timeout=10)
        sock.sendall(b"".join(
            (json.dumps(record) + "\n").encode("utf-8") for record in lines
        ))
        # a zero linger time makes the close a reset
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                        struct.pack("ii", 1, 0))
        sock.close()
        assert closed.acquire(timeout=5)
    assert [(r.levelno, r.getMessage()) for r in caplog.records] == [
        (logging.INFO, "session s1: connection dropped")
    ]
    model = make_model()
    hyp, _ = stream_utterance(
        server.address, aligned_utterance(model, ["da", "esel"]),
        PolicyConfig(k=1), timeout_s=10,
    )
    assert list(hyp.words) == model.translate_words(["da", "esel"])
    assert workers == [workers[0]] * 2


def test_a_session_works_on_a_descriptor_above_1024(server):
    """``select`` cannot watch a descriptor numbered 1,024 or above.  With
    1,100 descriptors already open, the session's socket is one of those,
    and the session still returns a local run's words."""
    resource = pytest.importorskip("resource")
    if resource.getrlimit(resource.RLIMIT_NOFILE)[0] < 1200:
        pytest.skip("needs a soft limit of 1,200 open files")
    model = make_model()
    utt = aligned_utterance(model, ["da", "esel", "geht", "haus"])
    config = PolicyConfig(k=2)
    local, _ = run_simultaneous(model, utt, config)
    held = []
    try:
        for _ in range(1100):
            held.append(os.open(os.devnull, os.O_RDONLY))
        remote, _ = stream_utterance(server.address, utt, config,
                                     timeout_s=10)
    finally:
        for fd in held:
            os.close(fd)
    assert remote.words == local.words
    assert remote.ideal_delays_ms == local.ideal_delays_ms


_SERVE = """
from helpers import make_model
from simulharness import StreamTranslationServer
server = StreamTranslationServer(make_model())
print(server.address[1], flush=True)
server.serve_forever()
"""


@contextlib.contextmanager
def _child_server():
    """The address of a server on the tiny mock, in a child process that
    inherits this process's CPU affinity."""
    paths = [Path(simulharness.__file__).parents[1], Path(__file__).parent]
    proc = subprocess.Popen(
        [sys.executable, "-c", _SERVE], stdout=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, paths))),
    )
    try:
        yield "127.0.0.1", int(proc.stdout.readline())
    finally:
        proc.terminate()
        proc.wait(timeout=10)
        proc.stdout.close()


@pytest.mark.parametrize("pacing", ["fast", "realtime"])
def test_the_client_starts_no_thread(monkeypatch, pacing):
    """The client reads its replies in the thread that sends: no thread
    is alive while it parses one that was not alive before the call.  The
    server runs in a child process, so its threads are not counted."""
    with _child_server() as address:
        seen = []
        parse = WireMessage.parse

        def sampling(line):
            seen.append(set(threading.enumerate()))
            return parse(line)

        monkeypatch.setattr(WireMessage, "parse", staticmethod(sampling))
        model = make_model()
        utt = aligned_utterance(model, ["da", "esel"])
        before = set(threading.enumerate())
        hyp, _ = stream_utterance(
            address, utt, PolicyConfig(k=1), pacing=pacing, timeout_s=10,
        )
    assert list(hyp.words) == model.translate_words(["da", "esel"])
    assert len(seen) == 3  # two WORDs and EOS_TGT
    assert all(threads <= before for threads in seen)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="needs CPU affinity")
def test_a_server_on_the_same_cpu_answers_before_the_source_ends(
    monkeypatch,
):
    """Client and server pinned to one CPU, fast pacing: the client lets
    the server take each chunk until the first reply, so in every session
    it reads the first WORD before it sends EOS_SRC.  A client that sends
    the whole source first reads it afterwards in some sessions, when the
    scheduler does not run the server in between."""
    cpus = os.sched_getaffinity(0)
    events = []
    to_line, parse = WireMessage.to_line, WireMessage.parse

    def sending(message):
        events.append(("sent", message.kind))
        return to_line(message)

    def reading(line):
        message = parse(line)
        events.append(("read", message.kind))
        return message

    model = make_model()
    names = sorted(model.source_word_index)
    utt = aligned_utterance(model, [names[i % 6] for i in range(12)])
    orders = []
    os.sched_setaffinity(0, {min(cpus)})
    try:
        with _child_server() as address:
            monkeypatch.setattr(WireMessage, "to_line", sending)
            monkeypatch.setattr(WireMessage, "parse", staticmethod(reading))
            for _ in range(10):
                events.clear()
                hyp, _ = stream_utterance(
                    address, utt, PolicyConfig(k=1), timeout_s=10
                )
                assert len(hyp.words) == 12
                orders.append(events.index(("read", "WORD"))
                              < events.index(("sent", "EOS_SRC")))
    finally:
        os.sched_setaffinity(0, cpus)
    assert all(orders)


def test_client_evaluate_records_unreachable_server():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    dead_address = probe.getsockname()
    probe.close()

    model = make_model()
    utts = [aligned_utterance(model, ["da"], utt_id=f"u{i}") for i in range(2)]
    corpus = client_evaluate(dead_address, utts, PolicyConfig(), timeout_s=2)
    assert corpus.failures == ("u0", "u1")
    assert corpus.report.n_utts == 0
    assert corpus.report.bleu is None


class _NullWordHandler(socketserver.StreamRequestHandler):
    """A broken server: answers HELLO with a WORD whose payload is null."""

    def handle(self):
        hello = WireMessage.parse(self.rfile.readline())
        eos = {"tokens": [], "convention": "bpe", "truncated": False}
        for kind, payload in (("WORD", None), ("EOS_TGT", eos)):
            reply = WireMessage(kind, hello.session, payload)
            self.wfile.write(reply.to_line())
        self.wfile.flush()
        for _ in self.rfile:  # let the client finish sending
            pass


def test_client_evaluate_records_a_malformed_reply_per_utterance():
    model = make_model()
    utts = [aligned_utterance(model, ["da"], utt_id=f"u{i}") for i in range(3)]
    stub = socketserver.ThreadingTCPServer(("127.0.0.1", 0), _NullWordHandler)
    stub.daemon_threads = True
    threading.Thread(target=stub.serve_forever, daemon=True).start()
    try:
        corpus = client_evaluate(
            stub.server_address, utts, PolicyConfig(k=1), timeout_s=10
        )
    finally:
        stub.shutdown()
        stub.server_close()
    assert corpus.failures == ("u0", "u1", "u2")
    assert all(r.hypothesis is None for r in corpus.results)
    assert all(r.error.startswith("malformed WORD reply")
               for r in corpus.results)
    assert corpus.report.n_utts == 0


class _ScriptedHandler(socketserver.StreamRequestHandler):
    """A fake server: reads HELLO, sends the lines of the first of its
    server's ``scripts`` as they are and drops that script, then closes its
    side and lets the client finish sending."""

    def handle(self):
        self.rfile.readline()
        replies = self.server.scripts.pop(0)
        try:
            self.wfile.write(b"".join(line + b"\n" for line in replies))
            self.connection.shutdown(socket.SHUT_WR)
            for _ in self.rfile:
                pass
        except OSError:
            pass  # the client gave up and closed


@pytest.fixture(scope="module")
def scripted_server():
    stub = socketserver.ThreadingTCPServer(("127.0.0.1", 0), _ScriptedHandler)
    stub.daemon_threads = True
    stub.scripts = []
    threading.Thread(target=stub.serve_forever, daemon=True).start()
    try:
        yield stub
    finally:
        stub.shutdown()
        stub.server_close()


def _reply(kind, payload, t_server_ms=None) -> bytes:
    return WireMessage(kind, "s1", payload, t_server_ms=t_server_ms) \
        .to_line().rstrip(b"\n")


_EOS = {"tokens": ["da"], "convention": "bpe", "truncated": False}


@pytest.mark.parametrize(
    "replies, complaint",
    [
        ([_reply("ERROR", [1])], "malformed ERROR reply"),
        ([_reply("ERROR", None)], "malformed ERROR reply"),
        ([_reply("EOS_TGT", {**_EOS, "convention": "nope"})],
         "malformed EOS_TGT reply: 'nope' is not a valid Convention"),
        ([_reply("EOS_TGT", None)], "malformed EOS_TGT reply"),
        ([_reply("EOS_TGT", {**_EOS, "tokens": ["da", 3]})],
         "malformed EOS_TGT reply: a token is no str"),
        ([_reply("EOS_TGT", {**_EOS, "truncated": 0})],
         "malformed EOS_TGT reply"),
        ([_reply("WORD", {"ideal_ms": 280}, 281.0), _reply("EOS_TGT", _EOS)],
         "malformed WORD reply"),
        ([_reply("WORD", {"word": "da"}, 281.0), _reply("EOS_TGT", _EOS)],
         "malformed WORD reply"),
        ([_reply("WORD", {"word": "da", "ideal_ms": 280.0}, 281.0)],
         "malformed WORD reply"),
        ([_reply("WORD", {"word": "da", "ideal_ms": 280}, None)],
         "malformed WORD reply: t_server_ms must be a float"),
        ([_reply("HELLO", None)], "unexpected HELLO reply"),
        ([b"{}"], "unknown kind None"),
        ([b"\xff"], "invalid start byte"),
    ],
)
@pytest.mark.parametrize("pacing", ["fast", "realtime"])
def test_a_malformed_reply_is_a_service_error(
    scripted_server, replies, complaint, pacing
):
    scripted_server.scripts = [replies]
    utt = aligned_utterance(make_model(), ["da"])
    with pytest.raises(ServiceError, match=re.escape(complaint)):
        stream_utterance(scripted_server.server_address, utt,
                         PolicyConfig(k=1), pacing=pacing, timeout_s=10)


def test_client_evaluate_records_a_malformed_reply_and_scores_the_rest(
    scripted_server
):
    model = make_model()
    utts = [aligned_utterance(model, ["da"], utt_id=f"u{i}") for i in range(3)]
    good = [_reply("WORD", {"word": "da", "ideal_ms": 280}, 281.5),
            _reply("EOS_TGT", _EOS)]
    scripted_server.scripts = [good, [_reply("ERROR", [1])], good]
    corpus = client_evaluate(
        scripted_server.server_address, utts, PolicyConfig(k=1), timeout_s=10
    )
    assert corpus.failures == ("u1",)
    assert corpus.results[1].error.startswith("malformed ERROR reply")
    assert corpus.report.n_utts == 2
    assert corpus.results[0].hypothesis.wall_delays_ms == (281.5,)


#: what a reply's payload may carry: the fields each kind needs, of the right
#: type or of any JSON type
_REPLY_PAYLOAD = st.fixed_dictionaries({}, optional={
    "word": st.text(max_size=4) | _JSON,
    "ideal_ms": st.integers(0, 10**6) | _JSON,
    "tokens": st.lists(st.text(max_size=4), max_size=3) | _JSON,
    "convention": st.sampled_from(["bpe", "sp"]) | _JSON,
    "truncated": st.booleans() | _JSON,
    "message": st.text(max_size=6) | _JSON,
})
#: replies a client can use
_GOOD_REPLY = st.one_of(
    st.builds(
        lambda word, ideal_ms, wall_ms: _reply(
            "WORD", {"word": word, "ideal_ms": ideal_ms}, wall_ms
        ),
        st.text(max_size=4), st.integers(0, 10**6), st.floats(),
    ),
    st.builds(
        lambda tokens, convention, truncated: _reply("EOS_TGT", {
            "tokens": tokens, "convention": convention,
            "truncated": truncated,
        }),
        st.lists(st.text(max_size=4), max_size=3),
        st.sampled_from(["bpe", "sp"]), st.booleans(),
    ),
)
_REPLY_LINE = st.one_of(
    _GOOD_REPLY,
    st.binary().map(lambda data: data.replace(b"\n", b" ")),
    _JSON.map(lambda value: json.dumps(value).encode("utf-8")),
    st.fixed_dictionaries({
        "kind": st.sampled_from(sorted(VALID_KINDS)),
        "session": st.just("s1") | _JSON,
        "payload": _REPLY_PAYLOAD | _JSON,
        "t_server_ms": st.floats() | _JSON,
    }).map(lambda record: json.dumps(record).encode("utf-8")),
)


@settings(max_examples=60, deadline=None)
@given(replies=st.lists(_REPLY_LINE, max_size=4),
       pacing=st.sampled_from(["fast", "realtime"]))
def test_a_fuzzed_reply_stream_gives_a_hypothesis_or_a_service_error(
    scripted_server, replies, pacing
):
    """Whatever lines a server answers HELLO with before it closes, the
    client returns a hypothesis or raises ``ServiceError``, nothing else."""
    scripted_server.scripts = [replies]
    utt = aligned_utterance(make_model(), ["da", "esel"])
    try:
        hypothesis, arrivals = stream_utterance(
            scripted_server.server_address, utt, PolicyConfig(k=1),
            pacing=pacing, timeout_s=2,
        )
    except ServiceError:
        return
    assert isinstance(hypothesis, simulharness.Hypothesis)
    assert len(arrivals) == len(hypothesis.words)


class _HangUpAfterHelloHandler(socketserver.StreamRequestHandler):
    """A broken server: reads HELLO, then closes its side unanswered."""

    def handle(self):
        self.rfile.readline()
        self.connection.shutdown(socket.SHUT_WR)
        for _ in self.rfile:  # let the client finish sending
            pass


def test_client_evaluate_records_a_server_that_hangs_up_after_hello():
    model = make_model()
    utts = [aligned_utterance(model, ["da"], utt_id=f"u{i}") for i in range(2)]
    stub = socketserver.ThreadingTCPServer(
        ("127.0.0.1", 0), _HangUpAfterHelloHandler
    )
    stub.daemon_threads = True
    threading.Thread(target=stub.serve_forever, daemon=True).start()
    try:
        corpus = client_evaluate(
            stub.server_address, utts, PolicyConfig(k=1), timeout_s=10
        )
    finally:
        stub.shutdown()
        stub.server_close()
    assert corpus.failures == ("u0", "u1")
    assert all(
        r.error == "connection closed before EOS_TGT" for r in corpus.results
    )
    assert corpus.report.n_utts == 0


class _ErrorAfterHelloHandler(socketserver.StreamRequestHandler):
    """A server that answers HELLO with ERROR and closes, as the real one
    does when a session fails, while the client is still sending."""

    def handle(self):
        hello = WireMessage.parse(self.rfile.readline())
        reply = WireMessage("ERROR", hello.session, {"message": "model: no"})
        self.wfile.write(reply.to_line())
        self.wfile.flush()
        # close with unread data pending: the kernel resets the connection
        self.connection.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, b"\x01\0\0\0\0\0\0\0"
        )


_CUT_SEND = """
import socketserver, threading
from helpers import aligned_utterance, make_model
from simulharness import PolicyConfig, ServiceError, stream_utterance
from test_service import _ErrorAfterHelloHandler

stub = socketserver.ThreadingTCPServer(
    ("127.0.0.1", 0), _ErrorAfterHelloHandler
)
stub.daemon_threads = True
threading.Thread(target=stub.serve_forever, daemon=True).start()
utt = aligned_utterance(make_model(), ["da", "esel"] * 200)
try:
    stream_utterance(
        stub.server_address, utt, PolicyConfig(k=1, step_ms=10), timeout_s=10
    )
except ServiceError as exc:
    print(exc)
stub.shutdown()
stub.server_close()
"""


def test_a_send_cut_by_the_server_leaves_no_unflushed_writer():
    """The client stops sending on a broken pipe.  Nothing it wrote may be
    left buffered for the collector to flush into the dead socket, which
    development mode reports as an ignored ``BrokenPipeError``."""
    paths = [Path(simulharness.__file__).parents[1], Path(__file__).parent]
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-c", _CUT_SEND],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, paths))),
    )
    assert proc.stdout.strip() == "remote error: model: no"
    assert proc.stderr == ""


@pytest.mark.parametrize("timeout_s", [float("nan"), float("inf"), 1e10, 0.0])
def test_a_timeout_sockets_cannot_take_is_rejected_before_connecting(
    monkeypatch, timeout_s
):
    """``settimeout`` raises for NaN, infinity and anything past about
    9.2e9 s; both clients refuse such a timeout before they connect."""

    def connect(*_args, **_kwargs):
        raise AssertionError("connected")

    monkeypatch.setattr(socket, "create_connection", connect)
    utt = aligned_utterance(make_model(), ["da"])
    with pytest.raises(ValueError, match="timeout_s must be above 0"):
        stream_utterance(("127.0.0.1", 9), utt, PolicyConfig(),
                         timeout_s=timeout_s)
    with pytest.raises(ValueError, match="timeout_s must be above 0"):
        client_evaluate(("127.0.0.1", 9), [utt], PolicyConfig(),
                        timeout_s=timeout_s)


def test_a_step_that_is_not_a_multiple_fails_before_connecting():
    """The client cuts chunks as it sends them, but checks the step at the
    call: a 285 ms step over 10 ms frames fails before any connection, so
    a port nothing listens on is never tried."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    dead_address = probe.getsockname()
    probe.close()
    utt = aligned_utterance(make_model(), ["da"])
    assert utt.frame_ms == 10
    with pytest.raises(ValueError, match="not a multiple"):
        stream_utterance(dead_address, utt, PolicyConfig(step_ms=285),
                         timeout_s=5)


def test_an_empty_source_checks_the_step_before_connecting():
    """A source with no frames has no chunk to cut, but its step is checked
    all the same: both calls fail at once, and no connection is made."""
    utt = Utterance("empty", (), frame_ms=10, reference=("x",))
    with pytest.raises(ValueError, match="not a multiple"):
        segment_stream(utt, 285)
    with socket.create_server(("127.0.0.1", 0)) as listener:
        with pytest.raises(ValueError, match="not a multiple"):
            stream_utterance(listener.getsockname(), utt,
                             PolicyConfig(step_ms=285), timeout_s=1)
        listener.setblocking(False)
        with pytest.raises(BlockingIOError):
            listener.accept()


def test_client_evaluate_rejects_unknown_pacing_before_any_session():
    model = make_model()
    utts = [aligned_utterance(model, ["da"], utt_id=f"u{i}") for i in range(2)]
    with pytest.raises(ValueError, match="unknown pacing 'warp'"):
        client_evaluate(("127.0.0.1", 9), utts, PolicyConfig(), pacing="warp")
