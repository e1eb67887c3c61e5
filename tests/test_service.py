from __future__ import annotations

import json
import logging
import os
import socket
import socketserver
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import simulharness

from helpers import (
    EXPANDING_LEXICON,
    DecoderFailsOnHaus,
    aligned_utterance,
    make_model,
)
from simulharness import (
    PolicyConfig,
    ServiceError,
    StreamTranslationServer,
    WireMessage,
    client_evaluate,
    evaluate_corpus,
    run_simultaneous,
    stream_utterance,
)


@pytest.fixture()
def server():
    with StreamTranslationServer(make_model()) as handle:
        yield handle


# ---------------------------------------------------------------------------
# Wire format
# ---------------------------------------------------------------------------


def test_wire_message_round_trip():
    for payload in (None, {"frames": [[0.0, 1.0]]}, {"word": "x", "n": 3}):
        message = WireMessage(
            "CHUNK", "sess-1", payload, t_client_ms=12.5, t_server_ms=None
        )
        line = message.to_line()
        assert line.endswith(b"\n") and line.count(b"\n") == 1
        assert WireMessage.parse(line) == message
        assert WireMessage.parse(line.decode("utf-8")) == message


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
    # client wall clock is clamped to the ideal reading schedule
    assert all(
        wall >= ideal
        for wall, ideal in zip(remote.wall_delays_ms, remote.ideal_delays_ms)
    )


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
            [_hello(), _msg("CHUNK", payload={"frames": ["1234567"]})],
            "protocol: bad frame row: '1234567' is not an array of numbers",
        ),
        (
            [_hello(), _msg("CHUNK", payload={"frames": [[10**400] * 7]})],
            "protocol: bad frame row: int too large to convert to float",
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
    ],
    ids=["k-float", "k-bool", "force_finish-str", "max_target_words-float",
         "frame_ms-float", "frame_ms-bool"],
)
def test_settings_of_the_wrong_type_get_a_config_error(
    server, hello, complaint
):
    model = make_model()
    lines = [
        hello,
        _msg("CHUNK", payload={"frames": _chunk_rows(model, ["da"])}),
        _msg("EOS_SRC"),
    ]
    replies = _exchange(server.address, lines)
    assert [m.kind for m in replies] == ["ERROR"]
    assert replies[0].payload["message"].startswith(complaint)


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
        lines.append(_msg("CHUNK", payload={"frames": rows}))
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
        _msg("CHUNK", payload={"frames": [[0.0, 1.0, 0.0]] * 28}),
    ]
    replies = _exchange(server.address, lines)
    assert replies[-1].kind == "ERROR"
    assert replies[-1].payload["message"].startswith("model: ")


def test_a_non_numeric_chunk_row_is_a_protocol_error(server, caplog):
    model = make_model()
    rows = _chunk_rows(model, ["da"])
    rows[3] = rows[3][:-1] + ["loud"]
    lines = [_hello(), _msg("CHUNK", payload={"frames": rows})]
    with caplog.at_level(logging.WARNING, logger="simulharness.service"):
        replies = _exchange(server.address, lines)
    assert [m.kind for m in replies] == ["ERROR"]
    message = replies[0].payload["message"]
    assert message.startswith("protocol: bad frame row")
    assert "'loud'" in message
    # a client's fault is logged without a model traceback
    assert not any(record.exc_info for record in caplog.records)


def test_any_model_exception_ends_the_session_with_an_error():
    model = DecoderFailsOnHaus()
    with StreamTranslationServer(model) as handle:
        lines = [
            _hello(k=1),
            _msg("CHUNK", payload={"frames": _chunk_rows(model, ["haus"])}),
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
# Client-side failure handling
# ---------------------------------------------------------------------------


def test_stream_utterance_raises_on_remote_error(server):
    model = make_model(EXPANDING_LEXICON)  # wrong width for the server model
    utt = aligned_utterance(model, ["da", "esel"])
    with pytest.raises(ServiceError, match="model: "):
        stream_utterance(server.address, utt, PolicyConfig(k=1), timeout_s=10)


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
    assert corpus.report.n_utts == 0


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


def test_client_evaluate_rejects_unknown_pacing_before_any_session():
    model = make_model()
    utts = [aligned_utterance(model, ["da"], utt_id=f"u{i}") for i in range(2)]
    with pytest.raises(ValueError, match="unknown pacing 'warp'"):
        client_evaluate(("127.0.0.1", 9), utts, PolicyConfig(), pacing="warp")
