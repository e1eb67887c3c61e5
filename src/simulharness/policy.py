"""Wait-k READ/WRITE decision engine over incremental models.

The engine alternates two actions.  READ consumes the next fixed-duration
chunk of source frames (the prefix grows in place when the chunk holds the
next rows of its array, as an utterance's chunks do) and has the model encode
what the chunk added (``encode_more``); adaptive detection then collapses
only the posterior rows the model returned.  WRITE asks the decoder for
tokens until one more complete target word exists and ends in one of three
ways: a word, a READ forced by a premature EOS, or the end of the target
(EOS, or the per-word token budget), which emits the word a trailing partial
resolves to, if any.
Each word is logged with when it happened -- both in source time (how much
audio had been read) and on a wall clock that adds the model compute time
accumulated so far, so computation-aware delays dominate ideal ones by
construction.

One :class:`~simulharness.core.WordBuilder` groups words on each side.  Each
decoded target token goes through the engine's once, and a WRITE returns
the word as soon as a token completes it.  The adaptive detector's groups
the source runs, and regroups from the first run after the last word an
update kept.  So a READ or WRITE costs what it adds rather than what came
before, and the hypothesis makes one ``SubwordToken`` per target id.

The decision rule: WRITE once the source is finished, or once the number of
detected source words reaches ``k`` plus the number of words already emitted
-- i.e. the i-th target word waits for ``k + i - 1`` source words.

End-of-sequence handling while the source is still streaming is governed by
two switches.  With ``force_finish`` (default) a premature EOS is never
accepted: either the next-best non-EOS token is taken instead
(``avoid_eos_while_reading``) or the WRITE is abandoned and a READ forced.
Substituting the next-best token helps adaptive detection but degrades the
fixed schedule, so the substitution defaults on only for adaptive detection.
After the source has finished, EOS terminates generation normally.

Offline translation (:func:`offline_greedy_translate`) is this engine at
wait-∞.
"""

from __future__ import annotations

import json
import logging
import threading
from time import perf_counter
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .core import (
    Convention,
    Frame,
    FrameArray,
    Hypothesis,
    SubwordToken,
    Utterance,
    WordBuilder,
    _chunks,
    _collector_held_off,
    check_step_ms,
    decode_json,
    default_max_target_words,
)
from .detection import AdaptiveDetector, DetectionKind, fixed_word_count
from .model import ModelInterface

logger = logging.getLogger(__name__)

#: A lag long enough that any real source is exhausted before the first WRITE.
WAIT_FOREVER = 10**9

#: Hard ceiling on decoder steps per word, guarding non-terminating decoders.
MAX_TOKENS_PER_WORD = 256

_NO_FRAMES = FrameArray()  # every engine's source prefix before its first READ
_STEP_LOCK = threading.Lock()  # held by every engine step; see _step

#: the type each typed setting must have exactly (``bool`` is no ``int``)
_FIELD_TYPES = {
    "k": int, "step_ms": int, "avg_word_ms": int, "max_target_words": int,
    "force_finish": bool, "avoid_eos_while_reading": bool,
}


class ActionKind(Enum):
    READ = "READ"
    WRITE = "WRITE"


# An Enum member read (``ActionKind.WRITE``) costs ten global reads on
# CPython 3.10 and 3.11 (3.12 made it fast): the hot paths read these.
_READ, _WRITE = ActionKind.READ, ActionKind.WRITE
_FIXED, _ADAPTIVE = DetectionKind.FIXED, DetectionKind.ADAPTIVE


@dataclass(frozen=True)
class PolicyConfig:
    """Inference-time policy settings.

    ``avoid_eos_while_reading=None`` selects the per-detection default
    (on for adaptive, off for fixed); see :meth:`effective_avoid_eos`.
    ``max_target_words=None`` leaves the safety cap to
    :func:`~simulharness.core.default_max_target_words`, which
    :meth:`for_utterance` resolves before an engine starts.
    """

    k: int = 3
    detection: DetectionKind = DetectionKind.FIXED
    step_ms: int = 280
    avg_word_ms: int = 280
    force_finish: bool = True
    avoid_eos_while_reading: bool | None = None
    max_target_words: int | None = None
    source_convention: Convention = Convention.BPE_SUFFIX

    def __post_init__(self) -> None:
        for name, kind in (("detection", DetectionKind),
                           ("source_convention", Convention)):
            value = getattr(self, name)
            try:  # a member stays (kind would return it), a value maps to it
                if type(value) is not kind:
                    object.__setattr__(self, name, kind(value))
            except ValueError:
                choices = " or ".join(repr(m.value) for m in kind)
                raise ValueError(
                    f"{name} must be {choices}, got {value!r}"
                ) from None
        for name, kind in _FIELD_TYPES.items():
            value = getattr(self, name)
            if type(value) is not kind and not (
                    value is None and name in _OPTIONAL):
                raise ValueError(
                    f"{name} must be {kind.__name__}, got {value!r}"
                )
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.step_ms <= 0:
            raise ValueError("step_ms must be positive")
        if self.avg_word_ms <= 0:
            raise ValueError("avg_word_ms must be positive")
        if self.max_target_words is not None and self.max_target_words < 1:
            raise ValueError("max_target_words must be at least 1")

    def for_utterance(self, utterance: Utterance) -> "PolicyConfig":
        """This config with the word cap resolved for ``utterance``."""
        return PolicyConfig(**{**vars(self), "max_target_words": (
            self.max_target_words or default_max_target_words(utterance)
        )})

    @property
    def effective_avoid_eos(self) -> bool:
        if self.avoid_eos_while_reading is not None:
            return self.avoid_eos_while_reading
        return self.detection is _ADAPTIVE

    def to_dict(self) -> dict:
        # every field is a scalar or an enum, so no deep copy is needed
        return {**vars(self), "detection": self.detection.value,
                "source_convention": self.source_convention.value}

    @classmethod
    def from_dict(cls, data: dict) -> "PolicyConfig":
        unknown = set(data) - {f for f in cls.__dataclass_fields__}
        if unknown:
            raise ValueError(f"unknown policy fields: {sorted(unknown)}")
        return cls(**data)


#: the settings that may be ``None``: those that default to it
_OPTIONAL = frozenset(
    f.name for f in fields(PolicyConfig) if f.default is None)


@dataclass
class SimulState:
    """Mutable per-utterance engine state (single-threaded).

    ``detected`` is the number of complete source words detected so far;
    :func:`decide` reads nothing else of detection.
    """

    received_ms: int = 0
    source_finished: bool = False
    detected: int = 0
    emitted_words: int = 0
    target_token_ids: list[int] = field(default_factory=list)


class Event(NamedTuple):
    """One logged action: a READ of a chunk span or a WRITE of a word."""

    kind: ActionKind
    payload: object
    ideal_ms: int
    wall_ms: float

    def to_dict(self) -> dict:
        return {**self._asdict(), "kind": self.kind.value}

    @classmethod
    def from_dict(cls, data: dict) -> "Event":
        return cls(
            kind=ActionKind(data["kind"]),
            payload=data["payload"],
            ideal_ms=int(data["ideal_ms"]),
            wall_ms=float(data["wall_ms"]),
        )


def decide(state: SimulState, config: PolicyConfig) -> ActionKind:
    """WRITE when the source is done or detection covers k + emitted words."""
    if state.source_finished:
        return _WRITE
    if state.detected >= config.k + state.emitted_words:
        return _WRITE
    return _READ


class SimulRunError(RuntimeError):
    """A model failure mid-run; carries the partial action log."""

    def __init__(self, message: str, events: Sequence[Event] = ()) -> None:
        super().__init__(message)
        self.events = tuple(events)


class SimulEngine:
    """Incremental wait-k engine: push source chunks, collect WRITE events.

    The in-process runner and the TCP service both drive utterances through
    :meth:`run`, which is what makes their outputs identical given identical
    chunking.
    """

    def __init__(
        self,
        model: ModelInterface,
        config: PolicyConfig,
        *,
        frame_ms: int = 10,
    ) -> None:
        check_step_ms(config.step_ms, frame_ms)
        if config.detection is _FIXED and config.avg_word_ms < frame_ms:
            raise ValueError("avg_word_ms must be at least one frame long")
        self._model = model
        self._config = config
        # fixed for the model's life: read once, not once per decoder step
        self._eos_id = model.eos_id
        self._vocab = model.target_vocab
        self._convention = model.target_convention
        self._builder = WordBuilder(self._convention)
        self._complete_tokens = 0  # tokens up to the last complete word's end
        self._frame_ms = frame_ms
        self._cap = config.max_target_words or default_max_target_words()
        self._frames = _NO_FRAMES  # the source prefix read so far
        self._buffer: np.ndarray | None = None  # read-only; see _extended
        self._state = SimulState()
        self._encoder_states: object | None = None
        self._detector = (
            AdaptiveDetector(config.source_convention)
            if config.detection is _ADAPTIVE
            else None
        )
        self._events: list[Event] = []
        self._compute_ms = 0.0
        self._truncated = False
        self._done = False

    # -- bookkeeping -------------------------------------------------------

    @property
    def done(self) -> bool:
        return self._done

    @property
    def state(self) -> SimulState:
        return self._state

    def _wall_now(self) -> float:
        # wall time = source time consumed (waiting) + compute time so far
        return self._state.received_ms + self._compute_ms

    # -- driving -----------------------------------------------------------

    def run(self, chunks: Iterable[Sequence[Frame]]) -> Iterator[list[Event]]:
        """READ each chunk, then finish the source; yield each step's WRITEs.

        No chunk is taken once the target has ended.  A step that fails
        raises :class:`SimulRunError` carrying the action log so far, whatever
        exception the model raised; an exception from ``chunks`` itself
        propagates unchanged.
        """
        for chunk in chunks:
            yield self._step(self.push_chunk, chunk)
            if self._done:
                return
        yield self._step(self.finish_source)

    def _step(self, action, *args) -> list[Event]:
        """``action(*args)`` under the step lock, so models serve one step at
        a time, with the collector off, so timed calls pay no collection."""
        _STEP_LOCK.acquire()  # half the cost per step of a ``with`` block
        try:
            return _collector_held_off(action, args)
        except Exception as exc:
            raise SimulRunError(str(exc), events=self._events) from exc
        finally:
            _STEP_LOCK.release()

    def push_chunk(self, frames: Sequence[Frame]) -> list[Event]:
        """READ one chunk of frames, then WRITE whatever became due.

        Returns the WRITE events this call logged, one per emitted word.
        """
        if self._done:
            raise RuntimeError("utterance already finished")
        if self._state.source_finished:
            raise RuntimeError("source already finished")
        n = len(frames)
        if not n:
            raise ValueError("a chunk must contain at least one frame")
        start_ms = self._state.received_ms
        start = len(self._frames)
        self._frames = self._extended(frames)
        self._state.received_ms += n * self._frame_ms
        self._refresh_detection(start)
        self._events.append(
            Event(
                _READ,
                {"start_ms": start_ms, "end_ms": self._state.received_ms},
                self._state.received_ms,
                self._wall_now(),
            )
        )
        return self._drain_writes()

    def _extended(self, frames: Sequence[Frame]) -> FrameArray:
        """The prefix and then ``frames``: a longer view of the prefix's
        array if ``frames`` are its next rows, else a copy in a buffer of
        the engine's own, which doubles when full and is seen read-only."""
        prefix, start = self._frames, len(self._frames)
        source, first = prefix._source, prefix._start
        if type(frames) is FrameArray and frames._source is source \
                and frames._start == first + start:
            return FrameArray._view(source, first, first + start + len(frames))
        rows = FrameArray(frames)
        if not start:
            return rows
        stop = start + len(rows)
        if source is not self._buffer or len(source) < stop:
            owner = np.empty((2 * stop, np.shape(prefix)[1]))
            owner[:start] = prefix
            self._buffer = owner.view()
            self._buffer.flags.writeable = False
        self._buffer.base[start:stop] = rows
        return FrameArray._view(self._buffer, 0, stop)

    def finish_source(self) -> list[Event]:
        """Mark the source complete and WRITE out the rest of the target.

        Returns the WRITE events this call logged.
        """
        if self._done:
            return []
        if self._state.source_finished:
            raise RuntimeError("source already finished")
        self._state.source_finished = True
        if self._encoder_states is None:
            # nothing was ever read (empty source): encode the empty prefix
            self._refresh_detection(0)
        return self._drain_writes()

    def _refresh_detection(self, start: int) -> None:
        """Encode the frames from ``start`` on and update detection."""
        states, words, ms = self._model._read(
            self._encoder_states, self._frames, start, self._detector
        )
        self._compute_ms += ms
        self._encoder_states = states
        if words is None:
            words = fixed_word_count(
                self._state.received_ms,
                self._config.avg_word_ms,
                frame_ms=self._frame_ms,
            ).word_count
        self._state.detected = words

    def _drain_writes(self) -> list[Event]:
        state = self._state
        first = len(self._events)
        while not self._done and decide(state, self._config) is _WRITE:
            word = self._generate_word()
            if word is None:
                break
            state.emitted_words += 1
            self._events.append(
                Event(_WRITE, word, state.received_ms, self._wall_now())
            )
            if not self._done and state.emitted_words >= self._cap:
                logger.warning(
                    "hit the %d-word safety cap; forcing EOS", self._cap
                )
                self._truncated = self._done = True
                # drop a trailing partial so the tokens detokenize to the words
                del state.target_token_ids[self._complete_tokens:]
        return self._events[first:]

    def _generate_word(self) -> str | None:
        """Run decoder steps until one more complete target word exists.

        Returns that word as soon as a token completes it, appending the
        token ids to the state.  Returns ``None`` when a premature EOS forces
        a READ.  When the target ends, returns what :meth:`_end_target`
        gives.  Each token is pushed to the word builder once, as it arrives.
        """
        model, state, config = self._model, self._state, self._config
        eos_id, builder, vocab = self._eos_id, self._builder, self._vocab
        ids = state.target_token_ids
        for _ in range(MAX_TOKENS_PER_WORD):
            start = perf_counter()
            scores = model.decoder_step(self._encoder_states, ids)
            self._compute_ms += (perf_counter() - start) * 1000.0
            # the method: np.argmax would add a Python call per step
            next_id = int(np.asarray(scores).argmax())
            if next_id == eos_id:
                if state.source_finished or not config.force_finish:
                    return self._end_target()
                if not config.effective_avoid_eos:
                    return None
                masked = np.asarray(scores, dtype=float).copy()
                masked[eos_id] = -np.inf
                if not np.isfinite(masked).any():
                    return None
                next_id = int(masked.argmax())
            ids.append(next_id)
            if word := builder.push(vocab[next_id]):
                self._complete_tokens = len(ids) - builder.lag
                return word
        logger.warning("word generation hit the per-write token cap")
        self._truncated = True
        return self._end_target()

    def _end_target(self) -> str | None:
        """Mark the target ended; return the word its trailing partial
        resolves to, or ``None`` when every token is in a complete word."""
        self._done = True
        return self._builder.flush() or None

    def result(self) -> tuple[Hypothesis, list[Event]]:
        if not self._done:
            raise RuntimeError("utterance still in progress")
        writes = [e for e in self._events if e.kind is _WRITE]
        ids = self._state.target_token_ids
        # one token object per distinct id
        token_of = {i: SubwordToken(self._vocab[i], self._convention)
                    for i in set(ids)}
        # a WRITE's word is a str, its delays an int and a float
        return Hypothesis._trusted(
            tokens=tuple(map(token_of.__getitem__, ids)),
            words=tuple([e.payload for e in writes]),
            ideal_delays_ms=tuple([e.ideal_ms for e in writes]),
            wall_delays_ms=tuple([e.wall_ms for e in writes]),
            truncated=self._truncated,
        ), list(self._events)


def run_simultaneous(
    model: ModelInterface,
    utterance: Utterance,
    config: PolicyConfig,
) -> tuple[Hypothesis, list[Event]]:
    """Run the wait-k loop over one utterance.

    Deterministic for deterministic models.  Raises :class:`SimulRunError`
    carrying the partial action log if anything fails mid-run, whatever
    exception the model raised.
    """
    engine = SimulEngine(
        model, config.for_utterance(utterance), frame_ms=utterance.frame_ms
    )
    for _writes in engine.run(_chunks(utterance, config.step_ms)):
        pass
    return engine.result()


def offline_greedy_translate(
    model: ModelInterface,
    utterance: Utterance,
    *,
    max_target_words: int | None = None,
) -> Hypothesis:
    """Translate with the whole source visible: the engine at wait-∞.

    The utterance is read as one chunk before the first WRITE, so every
    word's ideal delay is the full duration; the wall delays add the model
    compute, as in any run.  Raises :class:`SimulRunError` on any failure.
    """
    chunk_ms = max(utterance.duration_ms, utterance.frame_ms)
    config = PolicyConfig(
        k=WAIT_FOREVER, step_ms=chunk_ms, avg_word_ms=chunk_ms,
        max_target_words=max_target_words,
    )
    return run_simultaneous(model, utterance, config)[0]


def write_event_log(
    path, events: Sequence[Event], error: str | None = None
) -> None:
    """Write an action log as one JSON object per line; the log of a failed
    run ends with an ``{"error": ...}`` record."""
    with open(path, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(event.to_dict()) + "\n")
        if error is not None:
            handle.write(json.dumps({"error": error}) + "\n")


def read_event_log(path) -> list[Event]:
    """Read a log written by :func:`write_event_log`; one that ends in an
    error record raises :class:`SimulRunError` with the events before it,
    and a line that is no record raises ``ValueError`` naming it."""
    events: list[Event] = []
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                record = decode_json(line)
                if not isinstance(record, dict):
                    raise ValueError("a record must be a JSON object")
                if "error" in record:
                    raise SimulRunError(record["error"], events)
                events.append(Event.from_dict(record))
            except KeyError as exc:
                raise ValueError(f"line {number}: no {exc} field") from None
            except (TypeError, ValueError) as exc:
                raise ValueError(f"line {number}: {exc}") from None
    return events
