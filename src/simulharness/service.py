"""Line-delimited JSON streaming protocol over TCP.

One translation session per connection, each on a daemon worker thread that
a finished session left waiting; past :data:`_MAX_SESSIONS` sessions at
once, a connection gets one ``protocol: server busy …`` ERROR and a close.
The client opens with HELLO (the policy settings, its word cap resolved for
the utterance, and the frame duration), streams CHUNK messages of feature
frames, and closes the source with EOS_SRC.  The session id names the
utterance.  The server interleaves WORD messages exactly when the in-process
engine would emit them -- both sides drive the same
:class:`~simulharness.policy.SimulEngine` through its ``run`` loop -- and
ends the target stream with EOS_TGT.  A session that fails ends in one
place, with one ERROR message (``protocol: …``, ``config: …``, ``model: …``
or, for a fault in the server itself, ``internal: …``) and a close.  A
client that stops sending before EOS_SRC, or sends nothing for
:attr:`_SessionHandler.timeout` seconds, gets one too; a connection that
closes without a word gets none.

Every message is one JSON object per line with fields ``kind``, ``session``,
``payload``, ``t_client_ms`` and ``t_server_ms``; only a WORD's
``t_server_ms`` is set, and every other stamp is null.
A CHUNK payload is ``{"dim": D, "f64": S}``, ``S`` being the base64 of its
frames' values as little-endian float64, ``D`` to a row: bit for bit.  The
server reads a CHUNK's frames as one array over the decoded bytes.

Timing: a WORD carries the engine's source-time delay, so ideal latency
metrics reproduce a local run exactly, and its ``t_server_ms`` is the
engine's wall delay (source time read plus compute).  Under fast pacing the
client reports that, so computation-aware metrics are the server's.  Under
real-time pacing it sends each chunk once its audio exists and reports each
WORD's raw arrival, which charges compute and transport as a listener would.
The client cuts each chunk as it sends it and reads on a selector, in its
sending thread, before each send, while a send would block and while it
waits; a send still blocked after ``timeout_s`` fails the session.  Under
fast pacing it yields the CPU before each send until the first reply.
"""

from __future__ import annotations

import base64
import contextlib
import json
import logging
import os
import queue
import selectors
import socket
import socketserver
import sys
import threading
import time
import uuid
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .core import Convention, Frame, FrameArray, Hypothesis, SubwordToken
from .core import Utterance, _chunks, decode_json
from .harness import CorpusResult, score_corpus
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

#: seconds between the serve loop's checks for shutdown: a server stops
#: within this, for about 0.2% of a core while idle
_POLL_S = 0.05

_MAX_WAIT_S = 86400.0  #: a day, the client's longest single selector wait
_MAX_SESSIONS = 64  #: a server's sessions at once; one more gets an ERROR
_READ_WRITE = selectors.EVENT_READ | selectors.EVENT_WRITE

_yield_cpu = getattr(os, "sched_yield", lambda: None)  # Unix only

#: the payload fields of each reply kind the client reads, with their types
_REPLY_FIELDS = {
    KIND_WORD: {"word": str, "ideal_ms": int},
    KIND_EOS_TGT: {"tokens": list, "convention": str, "truncated": bool},
    KIND_ERROR: {"message": str},
}


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
        # a frozen dataclass's instance dict holds its fields, in order
        return (json.dumps(vars(self)) + "\n").encode("utf-8")

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
        return cls(kind, session, record.get("payload"),
                   record.get("t_client_ms"), record.get("t_server_ms"))


def _reply(line: bytes) -> WireMessage:
    """A reply line as the client reads it; ``ValueError`` names the kind
    of a reply it cannot use."""
    message = WireMessage.parse(line)
    kind, payload = message.kind, message.payload
    fields = _REPLY_FIELDS.get(kind)
    if fields is None:
        raise ValueError(f"unexpected {kind} reply")
    if not isinstance(payload, dict) or any(
            type(payload.get(name)) is not t for name, t in fields.items()):
        types = ", ".join(f"{name} ({t.__name__})"
                          for name, t in fields.items())
        raise ValueError(f"malformed {kind} reply: it must carry {types}")
    if kind == KIND_WORD and type(message.t_server_ms) is not float:
        raise ValueError("malformed WORD reply: t_server_ms must be a float")
    if kind == KIND_EOS_TGT:
        if not all(type(token) is str for token in payload["tokens"]):
            raise ValueError("malformed EOS_TGT reply: a token is no str")
        try:
            Convention(payload["convention"])
        except ValueError as exc:
            raise ValueError(f"malformed EOS_TGT reply: {exc}") from None
    return message


def _chunk_payload(frames: Sequence[Frame]) -> dict:
    """A CHUNK payload: the frames' width and their values as one block."""
    rows = np.asarray(frames, float)
    data = base64.b64encode(rows.astype("<f8", copy=False).tobytes())
    return {"dim": rows.shape[1], "f64": data.decode("ascii")}


def _chunk_frames(payload: object) -> FrameArray:
    """The frames of a CHUNK payload; ``ValueError`` says what is wrong."""
    if not isinstance(payload, dict) or not payload.get("f64"):
        raise ValueError("CHUNK carries no frames")
    dim, text = payload.get("dim"), payload["f64"]
    if not isinstance(text, str) or type(dim) is not int or dim < 1:
        raise ValueError("CHUNK needs a string f64 and an int dim above 0")
    try:
        data = base64.b64decode(text, validate=True)
    except ValueError as exc:
        raise ValueError(f"CHUNK f64 is not base64: {exc}") from None
    if not data or len(data) % (8 * dim):
        raise ValueError(
            f"CHUNK f64 holds {len(data)} bytes, not rows of {dim} float64s"
        )
    return FrameArray._of(np.frombuffer(data, "<f8").reshape(-1, dim))


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

    #: seconds a read may wait for the client before the session ends
    timeout = 60

    def handle(self) -> None:
        self._session: str | None = None
        try:
            try:
                self._converse()
                return
            except TimeoutError:  # an OSError, so caught first
                err = _SessionError(f"protocol: idle for {self.timeout} s")
            except _SessionError as exc:
                err = exc
            # only a model failure has a cause, logged with its traceback
            logger.warning(
                "session %s: %s", self._session, err, exc_info=err.__cause__
            )
            self._send(KIND_ERROR, {"message": str(err)})
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
        # only null or an absent field means the defaults
        payload = {} if hello.payload is None else hello.payload
        try:
            if not isinstance(payload, dict):
                raise ValueError("HELLO payload must be an object")
            unknown = set(payload) - _HELLO_FIELDS
            if unknown:
                raise ValueError(f"unknown HELLO fields {sorted(unknown)}")
            settings = payload.get("config")
            if not isinstance(settings, (dict, type(None))):
                raise ValueError("HELLO config must be an object")
            engine = SimulEngine(
                self.server.model,
                PolicyConfig.from_dict(settings or {}),
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
                        write.wall_ms,
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
    ) -> Iterator[FrameArray]:
        """The frames of each CHUNK up to EOS_SRC, all of one width."""
        widths: set[int] = set()
        for message in messages:
            if message.session != self._session:
                raise _SessionError(
                    f"protocol: unknown session {message.session!r}"
                )
            if message.kind == KIND_HELLO:
                raise _SessionError("protocol: session already started")
            if message.kind == KIND_EOS_SRC:
                return
            try:
                frames = _chunk_frames(message.payload)
            except ValueError as exc:
                raise _SessionError(f"protocol: {exc}") from None
            widths.add(message.payload["dim"])
            if len(widths) > 1:
                raise _SessionError(
                    "protocol: all frames in a session must share a feature "
                    "dimension"
                )
            yield frames
        raise _SessionError("protocol: connection closed before EOS_SRC")

    def _send(
        self, kind: str, payload: object, wall_ms: float | None = None
    ) -> None:
        message = WireMessage(kind, self._session or "?", payload,
                              t_server_ms=wall_ms)
        self.wfile.write(message.to_line())
        self.wfile.flush()


class _ThreadedTCPServer(socketserver.TCPServer):
    allow_reuse_address = True

    def __init__(self, *args) -> None:
        # set before binding: a failed bind calls server_close
        self._lock, self._connections = threading.Lock(), queue.SimpleQueue()
        self._workers = self._busy = 0  # busy: sessions queued or running
        super().__init__(*args)

    def process_request(self, request, client_address) -> None:
        with self._lock:
            busy = self._busy
            if busy < _MAX_SESSIONS:
                if busy == self._workers:  # none is idle
                    threading.Thread(target=self._work, daemon=True).start()
                    self._workers += 1
                self._busy += 1
                self._connections.put((request, client_address))
                return
        logger.warning("%s refused: %d sessions running", client_address, busy)
        reply = {"message": f"protocol: server busy with {busy} sessions"}
        with contextlib.suppress(OSError):
            request.sendall(WireMessage(KIND_ERROR, "?", reply).to_line())
        self.shutdown_request(request)

    def _work(self) -> None:
        for request, client_address in iter(self._connections.get, None):
            try:
                self.finish_request(request, client_address)
            except Exception:
                self.handle_error(request, client_address)
            finally:
                with self._lock:  # free before the close a client may see
                    self._busy -= 1
                self.shutdown_request(request)

    def handle_error(self, request, client_address) -> None:
        # a fault of the server's own, not of the session: log it, tell the
        # client, and let the caller close the connection
        logger.exception("%s: session handler failed", client_address)
        reply = {"message": f"internal: {sys.exc_info()[1]!r}"}
        with contextlib.suppress(OSError):
            request.sendall(WireMessage(KIND_ERROR, "?", reply).to_line())

    def server_close(self) -> None:
        super().server_close()
        for _ in range(self._workers):  # each idle worker takes one and exits
            self._connections.put(None)


class StreamTranslationServer:
    """TCP server hosting one engine per connection.

    Each session runs on a daemon worker that an earlier session left idle;
    past :data:`_MAX_SESSIONS` at once, a connection gets one ERROR.  Every
    session runs on the given model, which must therefore keep no
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
        self._serving = False  # shutdown waits for a serve loop that ran

    @property
    def address(self) -> tuple[str, int]:
        host, port = self._server.server_address[:2]
        return host, port

    def start(self) -> "StreamTranslationServer":
        self._serving = True
        threading.Thread(
            target=self._server.serve_forever, args=(_POLL_S,), daemon=True
        ).start()
        return self

    def serve_forever(self) -> None:
        """Serve in the calling thread until interrupted."""
        self._serving = True
        try:
            self._server.serve_forever(_POLL_S)
        finally:
            self._server.server_close()

    def shutdown(self) -> None:
        if self._serving:
            self._server.shutdown()
        self._server.server_close()

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
    (send each chunk once its audio exists on the session clock).  Returns
    the hypothesis -- ideal delays from the wire, wall delays from the server
    engine (fast) or the client's raw arrival times (realtime) -- plus the
    raw per-word arrival times in ms.
    """
    _check_pacing(pacing)
    check_timeout_s(timeout_s)
    chunks = _chunks(utterance, config.step_ms)
    session = f"{utterance.id}-{uuid.uuid4().hex[:8]}"
    config = config.for_utterance(utterance)

    received: list[tuple[WireMessage, float]] = []

    with socket.create_connection(address, timeout=timeout_s) as sock, \
            selectors.DefaultSelector() as selector:
        sock.setblocking(False)  # a send that would block reads meanwhile
        selector.register(sock, selectors.EVENT_READ)
        started = time.perf_counter()
        pending = b""

        def now_ms() -> float:
            return (time.perf_counter() - started) * 1000.0

        def transmit(kind: str, payload: object) -> None:
            # unbuffered: a send the server cuts off leaves nothing behind
            # for a later flush into the dead socket
            unsent = memoryview(WireMessage(kind, session, payload).to_line())
            while unsent:
                try:
                    unsent = unsent[sock.send(unsent):]
                except BlockingIOError:  # read until the socket takes more
                    selector.modify(sock, _READ_WRITE)
                    ended = receive(now_ms() + timeout_s * 1000.0, kind)
                    selector.modify(sock, selectors.EVENT_READ)
                    if ended:
                        return

        def receive(until_ms: float, sending: str = "") -> bool:
            # read until EOS_TGT (true), ``until_ms`` or room to go on sending
            nonlocal pending
            try:
                while not received or received[-1][0].kind != KIND_EOS_TGT:
                    wait_s = max(0.0, until_ms - now_ms()) / 1000.0
                    ready = selector.select(min(wait_s, _MAX_WAIT_S))
                    if not ready and wait_s > _MAX_WAIT_S:
                        continue  # one wait overflows far below TIMEOUT_MAX
                    if not ready and sending:  # a cut line cannot be resumed
                        raise ServiceError(f"timed out sending {sending}")
                    if not ready or ready[0][1] & selectors.EVENT_WRITE:
                        return False
                    data, arrival = sock.recv(1 << 16), now_ms()
                    if not data:
                        raise ServiceError("connection closed before EOS_TGT")
                    *lines, pending = (pending + data).split(b"\n")
                    for line in lines:
                        message = _reply(line + b"\n")  # as sent
                        if message.kind == KIND_ERROR:
                            detail = message.payload["message"]
                            raise ServiceError(f"remote error: {detail}")
                        received.append((message, arrival))
                        if message.kind == KIND_EOS_TGT:
                            break
            except (ValueError, OSError) as exc:
                raise ServiceError(str(exc)) from None
            return True

        transmit(
            KIND_HELLO,
            {"config": config.to_dict(), "frame_ms": utterance.frame_ms},
        )
        try:
            audio_ms = 0
            for chunk in chunks:
                # real time: due once its audio exists on the session clock
                audio_ms += len(chunk) * utterance.frame_ms
                if pacing == "fast" and not received:
                    # a server sharing this CPU takes each chunk before the
                    # next, so the first reply is read as soon as it is sent
                    _yield_cpu()
                if receive(audio_ms if pacing == "realtime" else 0):
                    break  # the session is over: send no more
                transmit(KIND_CHUNK, _chunk_payload(chunk))
            else:
                transmit(KIND_EOS_SRC, None)
        except OSError:
            pass  # the server's last word is still to be read
        if not receive(now_ms() + timeout_s * 1000.0):
            raise ServiceError("timed out waiting for the target stream")

    final = received[-1][0]
    replies = [m for m, _ in received if m.kind == KIND_WORD]
    arrivals = [arrival for m, arrival in received if m.kind == KIND_WORD]
    convention = Convention(final.payload["convention"])
    hypothesis = Hypothesis(
        tokens=tuple(SubwordToken(surface, convention)
                     for surface in final.payload["tokens"]),
        words=tuple(m.payload["word"] for m in replies),
        ideal_delays_ms=tuple(m.payload["ideal_ms"] for m in replies),
        wall_delays_ms=(tuple(m.t_server_ms for m in replies)
                        if pacing == "fast" else tuple(arrivals)),
        truncated=final.payload["truncated"],
    )
    return hypothesis, arrivals


def _check_pacing(pacing: str) -> None:
    if pacing not in ("fast", "realtime"):
        raise ValueError(f"unknown pacing {pacing!r}")


def check_timeout_s(timeout_s: float) -> float:
    """``timeout_s`` if a socket can wait that long, as the client's selector
    does a day at a time: above 0 and at most ``threading.TIMEOUT_MAX`` (about
    9.2e9 s on Linux), so not NaN or infinite; else ``ValueError``."""
    if not 0 < timeout_s <= threading.TIMEOUT_MAX:  # NaN compares false
        raise ValueError(
            f"timeout_s must be above 0 and at most "
            f"{threading.TIMEOUT_MAX:.0f} s, got {timeout_s!r}"
        )
    return timeout_s


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
    check_timeout_s(timeout_s)

    def translate(utterance: Utterance) -> tuple[Hypothesis, tuple]:
        hypothesis, _arrivals = stream_utterance(
            address, utterance, config, pacing=pacing, timeout_s=timeout_s
        )
        return hypothesis, ()

    return score_corpus(utterances, translate)
