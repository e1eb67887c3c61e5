"""Line-delimited JSON streaming protocol over TCP.

One translation session per connection.  The client opens with HELLO (the
policy settings, its word cap resolved for the utterance, and the frame
duration), streams CHUNK messages of feature frames, and closes the source
with EOS_SRC.  The session id names the utterance.  The server
interleaves WORD messages exactly when the in-process engine would emit them
-- both sides drive the same :class:`~simulharness.policy.SimulEngine` through
its ``run`` loop -- and ends the target stream with EOS_TGT.  A session that
fails ends in one place, with one ERROR message (``protocol: …``,
``config: …`` or ``model: …``) and a close.  A client that stops sending
before EOS_SRC gets one too; a connection that sends nothing gets none.

Every message is one JSON object per line with fields ``kind``, ``session``,
``payload``, ``t_client_ms`` and ``t_server_ms`` (each side stamps its own
clock, milliseconds since its start of session; the other field is null).

Timing: WORD messages carry the engine's source-time delays, so ideal
latency metrics reproduce a local run exactly.  The computation-aware ones do
not yet, under either pacing: the client sends chunk *i* at the start of its
span and clamps each wall delay to at least the ideal one, so compute shorter
than a step vanishes (remote AL_CA has read equal to AL where a local run
read higher).  Mending this waits on item 3a of ROADMAP.md.
"""

from __future__ import annotations

import json
import logging
import socket
import socketserver
import threading
import time
import uuid
from dataclasses import dataclass
from typing import Iterator, Sequence

from .core import Convention, Frame, Hypothesis, SubwordToken, Utterance
from .core import decode_json, frames_from_rows, segment_stream
from .harness import CorpusResult, evaluate_utterance, score_results
from .model import ModelInterface
from .policy import PolicyConfig, SimulEngine, SimulRunError

logger = logging.getLogger(__name__)

KIND_HELLO = "HELLO"
KIND_CHUNK = "CHUNK"
KIND_WORD = "WORD"
KIND_EOS_SRC = "EOS_SRC"
KIND_EOS_TGT = "EOS_TGT"
KIND_ERROR = "ERROR"

VALID_KINDS = frozenset(
    {KIND_HELLO, KIND_CHUNK, KIND_WORD, KIND_EOS_SRC, KIND_EOS_TGT, KIND_ERROR}
)

#: message kinds a client may send, per protocol state
_CLIENT_KINDS = frozenset({KIND_HELLO, KIND_CHUNK, KIND_EOS_SRC})

#: the fields a HELLO payload may carry
_HELLO_FIELDS = frozenset({"config", "frame_ms"})


class ServiceError(RuntimeError):
    """The remote side reported an error or the transport failed."""


@dataclass(frozen=True)
class WireMessage:
    kind: str
    session: str
    payload: object = None
    t_client_ms: float | None = None
    t_server_ms: float | None = None

    def to_line(self) -> bytes:
        record = {
            "kind": self.kind,
            "session": self.session,
            "payload": self.payload,
            "t_client_ms": self.t_client_ms,
            "t_server_ms": self.t_server_ms,
        }
        return (json.dumps(record) + "\n").encode("utf-8")

    @classmethod
    def parse(cls, line: bytes | str) -> "WireMessage":
        if isinstance(line, bytes):
            line = line.decode("utf-8")
        try:
            record = decode_json(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed message: {exc.msg}") from exc
        if not isinstance(record, dict):
            raise ValueError("message must be a JSON object")
        kind = record.get("kind")
        if kind not in VALID_KINDS:
            raise ValueError(f"unknown kind {kind!r}")
        session = record.get("session")
        if not isinstance(session, str) or not session:
            raise ValueError("message must carry a session id")
        return cls(
            kind=kind,
            session=session,
            payload=record.get("payload"),
            t_client_ms=record.get("t_client_ms"),
            t_server_ms=record.get("t_server_ms"),
        )


# ---------------------------------------------------------------------------
# Server
# ---------------------------------------------------------------------------


class _SessionError(Exception):
    """Ends a session; the text is its ERROR reply."""


def _client_message(raw: bytes) -> WireMessage:
    try:
        message = WireMessage.parse(raw)
    except ValueError as exc:
        raise _SessionError(f"protocol: {exc}") from None
    if message.kind not in _CLIENT_KINDS:
        raise _SessionError(f"protocol: unexpected {message.kind} from client")
    return message


class _SessionHandler(socketserver.StreamRequestHandler):
    """One streaming session: HELLO -> CHUNK* -> EOS_SRC -> close."""

    def handle(self) -> None:
        self._started = time.perf_counter()
        self._session: str | None = None
        try:
            try:
                self._converse()
            except _SessionError as exc:
                # only a model failure has a cause, logged with its traceback
                logger.warning(
                    "session %s: %s", self._session, exc, exc_info=exc.__cause__
                )
                self._send(KIND_ERROR, {"message": str(exc)})
        except OSError:
            logger.info("session %s: connection dropped", self._session)

    def _converse(self) -> None:
        messages = map(_client_message, self.rfile)
        hello = next(messages, None)
        if hello is None:
            return  # a connection that sends nothing is no session
        if hello.kind != KIND_HELLO:
            raise _SessionError("protocol: expected HELLO")
        self._session = hello.session
        payload = hello.payload or {}
        try:
            if not isinstance(payload, dict):
                raise ValueError("HELLO payload must be an object")
            unknown = set(payload) - _HELLO_FIELDS
            if unknown:
                raise ValueError(f"unknown HELLO fields {sorted(unknown)}")
            engine = SimulEngine(
                self.server.model,
                PolicyConfig.from_dict(payload.get("config") or {}),
                frame_ms=payload.get("frame_ms", 10),
            )
        except Exception as exc:
            raise _SessionError(f"config: {exc}") from None
        try:
            for writes in engine.run(self._chunks(messages)):
                for write in writes:
                    self._send(
                        KIND_WORD,
                        {"word": write.payload, "ideal_ms": write.ideal_ms},
                    )
        except SimulRunError as exc:
            raise _SessionError(f"model: {exc}") from exc
        hypothesis, _events = engine.result()
        self._send(
            KIND_EOS_TGT,
            {
                "tokens": [t.surface for t in hypothesis.tokens],
                "convention": self.server.model.target_convention.value,
                "truncated": hypothesis.truncated,
            },
        )

    def _chunks(
        self, messages: Iterator[WireMessage]
    ) -> Iterator[tuple[Frame, ...]]:
        """The frames of each CHUNK up to EOS_SRC."""
        for message in messages:
            if message.session != self._session:
                raise _SessionError(
                    f"protocol: unknown session {message.session!r}"
                )
            if message.kind == KIND_HELLO:
                raise _SessionError("protocol: session already started")
            if message.kind == KIND_EOS_SRC:
                return
            payload = message.payload
            rows = payload.get("frames") if isinstance(payload, dict) else None
            if not isinstance(rows, list) or not rows:
                raise _SessionError("protocol: CHUNK carries no frames")
            try:
                frames = frames_from_rows(rows)
            except ValueError as exc:
                raise _SessionError(f"protocol: bad frame row: {exc}") from None
            yield frames
        raise _SessionError("protocol: connection closed before EOS_SRC")

    def _send(self, kind: str, payload: object) -> None:
        message = WireMessage(
            kind=kind,
            session=self._session or "?",
            payload=payload,
            t_server_ms=(time.perf_counter() - self._started) * 1000.0,
        )
        self.wfile.write(message.to_line())
        self.wfile.flush()


class _ThreadedTCPServer(socketserver.ThreadingTCPServer):
    daemon_threads = True
    allow_reuse_address = True


class StreamTranslationServer:
    """Threaded TCP server hosting one engine per connection.

    Every session runs on the given model, which must therefore keep no
    per-utterance state of its own (the engine holds it).
    """

    def __init__(
        self,
        model: ModelInterface,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._server = _ThreadedTCPServer((host, port), _SessionHandler)
        self._server.model = model
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        host, port = self._server.server_address[:2]
        return host, port

    def start(self) -> "StreamTranslationServer":
        self._thread = threading.Thread(
            target=self._server.serve_forever, daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve in the calling thread until interrupted."""
        try:
            self._server.serve_forever()
        finally:
            self._server.server_close()

    def shutdown(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)

    def __enter__(self) -> "StreamTranslationServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


# ---------------------------------------------------------------------------
# Client
# ---------------------------------------------------------------------------


def stream_utterance(
    address: tuple[str, int],
    utterance: Utterance,
    config: PolicyConfig,
    *,
    pacing: str = "fast",
    timeout_s: float = 30.0,
) -> tuple[Hypothesis, list[float]]:
    """Stream one utterance to a server and collect its remote hypothesis.

    ``pacing`` is ``"fast"`` (send chunks back to back) or ``"realtime"``
    (one chunk per ``step_ms`` of wall time).  Returns the hypothesis --
    ideal delays from the wire, wall delays from client arrival clamped to
    the ideal -- plus the raw per-word arrival times in ms.
    """
    _check_pacing(pacing)
    chunks = segment_stream(utterance, config.step_ms)
    session = f"{utterance.id}-{uuid.uuid4().hex[:8]}"
    config = config.for_utterance(utterance)

    received: list[tuple[WireMessage, float]] = []
    reader_error: list[str] = []

    with socket.create_connection(address, timeout=timeout_s) as sock:
        rfile = sock.makefile("rb")
        started = time.perf_counter()

        def now_ms() -> float:
            return (time.perf_counter() - started) * 1000.0

        def transmit(kind: str, payload: object) -> None:
            # unbuffered: a send the server cuts off leaves nothing behind
            # for a later flush into the dead socket
            sock.sendall(
                WireMessage(
                    kind=kind,
                    session=session,
                    payload=payload,
                    t_client_ms=now_ms(),
                ).to_line()
            )

        def read_loop() -> None:
            try:
                for raw in rfile:
                    message = WireMessage.parse(raw)
                    received.append((message, now_ms()))
                    if message.kind in (KIND_EOS_TGT, KIND_ERROR):
                        return
                reader_error.append("connection closed before EOS_TGT")
            except (ValueError, OSError) as exc:
                reader_error.append(str(exc))

        reader = threading.Thread(target=read_loop, daemon=True)
        reader.start()

        transmit(
            KIND_HELLO,
            {"config": config.to_dict(), "frame_ms": utterance.frame_ms},
        )
        try:
            for chunk in chunks:
                transmit(
                    KIND_CHUNK,
                    {"frames": [list(f.features) for f in chunk]},
                )
                if pacing == "realtime":
                    time.sleep(config.step_ms / 1000.0)
            transmit(KIND_EOS_SRC, None)
        except (ConnectionError, BrokenPipeError, OSError):
            pass  # the reader will surface the server's last word
        reader.join(timeout=timeout_s)
        if reader.is_alive():
            raise ServiceError("timed out waiting for the target stream")

    if reader_error:
        raise ServiceError(reader_error[0])
    final = received[-1][0] if received else None
    if final is None or final.kind == KIND_ERROR:
        detail = (final.payload or {}).get("message") if final else "no reply"
        raise ServiceError(f"remote error: {detail}")

    words: list[str] = []
    ideal: list[int] = []
    wall: list[float] = []
    for message, arrival_ms in received:
        if message.kind != KIND_WORD:
            continue
        words.append(message.payload["word"])
        ideal.append(int(message.payload["ideal_ms"]))
        wall.append(max(float(message.payload["ideal_ms"]), arrival_ms))
    convention = Convention(final.payload["convention"])
    tokens = tuple(
        SubwordToken(surface, convention)
        for surface in final.payload["tokens"]
    )
    hypothesis = Hypothesis(
        tokens=tokens,
        words=tuple(words),
        ideal_delays_ms=tuple(ideal),
        wall_delays_ms=tuple(wall),
        truncated=bool(final.payload.get("truncated", False)),
    )
    arrivals = [
        arrival for (m, arrival) in received if m.kind == KIND_WORD
    ]
    return hypothesis, arrivals


def _check_pacing(pacing: str) -> None:
    if pacing not in ("fast", "realtime"):
        raise ValueError(f"unknown pacing {pacing!r}")


def client_evaluate(
    address: tuple[str, int],
    utterances: Sequence[Utterance],
    config: PolicyConfig,
    *,
    pacing: str = "fast",
    timeout_s: float = 30.0,
) -> CorpusResult:
    """Evaluate a corpus against a remote server, one session per utterance.

    Any failure of a session -- transport, remote error or a malformed reply
    -- is recorded for its utterance alone; a fully unreachable server yields
    a zero-utterance report with every utterance listed as failed.
    """
    _check_pacing(pacing)
    utterances = list(utterances)

    def translate(utterance: Utterance) -> tuple[Hypothesis, tuple]:
        hypothesis, _arrivals = stream_utterance(
            address, utterance, config, pacing=pacing, timeout_s=timeout_s
        )
        return hypothesis, ()

    return score_results(
        utterances, [evaluate_utterance(u, translate) for u in utterances]
    )
