"""Wait-k READ/WRITE decision engine over incremental models.

The engine alternates two actions.  READ consumes the next fixed-duration
chunk of source frames and has the model encode what the chunk added
(``encode_more``); adaptive detection then collapses only the posterior rows
the model returned and counts words from the last complete one on.  WRITE
asks the decoder for tokens until one more complete target word exists and
ends in one of three ways: a word, a READ forced by a premature EOS, or the
end of the target (EOS, or the per-word token budget), which emits the word
a trailing partial resolves to, if any.  Each word is logged with when it
happened -- both in source time (how much audio had been read) and on a
wall clock that adds the model compute time accumulated so far, so
computation-aware delays dominate ideal ones by construction.  Target words
are tracked the same way, from the first token after the last complete
word, so a READ or WRITE costs what it adds rather than what came before.

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
import time
from dataclasses import asdict, dataclass, field, replace
from enum import Enum
from typing import Iterable, Iterator, Sequence

import numpy as np

from .core import (
    Convention,
    Frame,
    Hypothesis,
    SubwordToken,
    Utterance,
    check_frame_ms,
    default_max_target_words,
    extend_word_spans,
    segment_stream,
    word_spans,
)
from .detection import AdaptiveDetector, DetectionKind, fixed_word_count
from .model import ModelInterface

logger = logging.getLogger(__name__)

#: A lag long enough that any real source is exhausted before the first WRITE.
WAIT_FOREVER = 10**9

#: Hard ceiling on decoder steps per word, guarding non-terminating decoders.
MAX_TOKENS_PER_WORD = 256

#: the type each typed setting must have exactly (``bool`` is no ``int``)
_FIELD_TYPES = {
    "k": int, "step_ms": int, "avg_word_ms": int, "max_target_words": int,
    "force_finish": bool, "avoid_eos_while_reading": bool,
}


class ActionKind(Enum):
    READ = "READ"
    WRITE = "WRITE"


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
            try:  # a member maps to itself, its value to the member
                object.__setattr__(self, name, kind(getattr(self, name)))
            except ValueError:
                choices = " or ".join(repr(m.value) for m in kind)
                raise ValueError(
                    f"{name} must be {choices}, got {getattr(self, name)!r}"
                ) from None
        for name, kind in _FIELD_TYPES.items():
            value = getattr(self, name)
            optional = self.__dataclass_fields__[name].default is None
            if type(value) is not kind and not (optional and value is None):
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
        return replace(self, max_target_words=(
            self.max_target_words or default_max_target_words(utterance)
        ))

    @property
    def effective_avoid_eos(self) -> bool:
        if self.avoid_eos_while_reading is not None:
            return self.avoid_eos_while_reading
        return self.detection is DetectionKind.ADAPTIVE

    def to_dict(self) -> dict:
        return {
            **asdict(self),
            "detection": self.detection.value,
            "source_convention": self.source_convention.value,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PolicyConfig":
        unknown = set(data) - {f for f in cls.__dataclass_fields__}
        if unknown:
            raise ValueError(f"unknown policy fields: {sorted(unknown)}")
        return cls(**data)


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
    target_tokens: list[SubwordToken] = field(default_factory=list)
    target_token_ids: list[int] = field(default_factory=list)
    #: complete words among ``target_tokens``: (word, last token index)
    target_words: list[tuple[str, int]] = field(default_factory=list)


@dataclass(frozen=True)
class Event:
    """One logged action: a READ of a chunk span or a WRITE of a word."""

    kind: ActionKind
    payload: object
    ideal_ms: int
    wall_ms: float

    def to_dict(self) -> dict:
        return {**asdict(self), "kind": self.kind.value}

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
        return ActionKind.WRITE
    if state.detected >= config.k + state.emitted_words:
        return ActionKind.WRITE
    return ActionKind.READ


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
        if config.step_ms % check_frame_ms(frame_ms):
            raise ValueError(
                f"step_ms={config.step_ms} is not a multiple of the "
                f"{frame_ms} ms frame duration"
            )
        if (config.detection is DetectionKind.FIXED
                and config.avg_word_ms < frame_ms):
            raise ValueError("avg_word_ms must be at least one frame long")
        self._model = model
        self._config = config
        self._frame_ms = frame_ms
        self._cap = config.max_target_words or default_max_target_words()
        self._frames: list[Frame] = []
        self._state = SimulState()
        self._encoder_states: object | None = None
        self._detector = (
            AdaptiveDetector(config.source_convention)
            if config.detection is DetectionKind.ADAPTIVE
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

    def _timed(self, fn, *args):
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self._compute_ms += (time.perf_counter() - start) * 1000.0

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
        try:
            return action(*args)
        except Exception as exc:
            raise SimulRunError(str(exc), events=self._events) from exc

    def push_chunk(self, frames: Sequence[Frame]) -> list[Event]:
        """READ one chunk of frames, then WRITE whatever became due.

        Returns the WRITE events this call logged, one per emitted word.
        """
        if self._done:
            raise RuntimeError("utterance already finished")
        if self._state.source_finished:
            raise RuntimeError("source already finished")
        frames = list(frames)
        if not frames:
            raise ValueError("a chunk must contain at least one frame")
        start_ms = self._state.received_ms
        start = len(self._frames)
        self._frames.extend(frames)
        self._state.received_ms += len(frames) * self._frame_ms
        self._refresh_detection(start)
        self._events.append(
            Event(
                ActionKind.READ,
                {"start_ms": start_ms, "end_ms": self._state.received_ms},
                self._state.received_ms,
                self._wall_now(),
            )
        )
        return self._drain_writes()

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
        states, posterior, ms = self._model.timed_encode(
            self._encoder_states, self._frames, start
        )
        self._compute_ms += ms
        self._encoder_states = states
        if self._detector is None:
            self._state.detected = fixed_word_count(
                self._state.received_ms,
                self._config.avg_word_ms,
                frame_ms=self._frame_ms,
            ).word_count
        else:
            self._state.detected = self._detector.update(
                posterior, len(self._frames) - posterior.n_frames
            )

    def _drain_writes(self) -> list[Event]:
        state = self._state
        first = len(self._events)
        while not self._done and decide(state, self._config) is ActionKind.WRITE:
            word = self._generate_word()
            if word is None:
                break
            state.emitted_words += 1
            self._events.append(
                Event(ActionKind.WRITE, word, state.received_ms, self._wall_now())
            )
            if not self._done and state.emitted_words >= self._cap:
                logger.warning(
                    "hit the %d-word safety cap; forcing EOS", self._cap
                )
                self._truncated = self._done = True
                # drop a trailing partial so the tokens detokenize to the words
                keep = state.target_words[-1][1] + 1
                del state.target_tokens[keep:]
                del state.target_token_ids[keep:]
        return self._events[first:]

    def _generate_word(self) -> str | None:
        """Run decoder steps until one more complete target word exists.

        Returns that word, appending its tokens to the state.  Returns
        ``None`` when a premature EOS forces a READ.  When the target ends,
        returns what :meth:`_end_target` gives.
        """
        model, state, config = self._model, self._state, self._config
        convention = model.target_convention
        appended = 0
        while len(extend_word_spans(
            state.target_words, state.target_tokens, convention
        )) <= state.emitted_words:
            if appended >= MAX_TOKENS_PER_WORD:
                logger.warning("word generation hit the per-write token cap")
                self._truncated = True
                return self._end_target()
            scores = self._timed(model.decoder_step, self._encoder_states,
                                 state.target_token_ids)
            next_id = int(np.argmax(scores))
            if next_id == model.eos_id:
                if state.source_finished or not config.force_finish:
                    return self._end_target()
                if not config.effective_avoid_eos:
                    return None
                masked = np.asarray(scores, dtype=float).copy()
                masked[model.eos_id] = -np.inf
                if not np.isfinite(masked).any():
                    return None
                next_id = int(np.argmax(masked))
            token = SubwordToken(model.target_vocab[next_id], convention)
            state.target_tokens.append(token)
            state.target_token_ids.append(next_id)
            appended += 1
        return state.target_words[state.emitted_words][0]

    def _end_target(self) -> str | None:
        """Mark the target ended; return the word its trailing partial
        resolves to, or ``None`` when every token is in a complete word."""
        self._done = True
        words, tokens = self._state.target_words, self._state.target_tokens
        start = words[-1][1] + 1 if words else 0
        flushed, _ = word_spans(
            tokens[start:], self._model.target_convention, eos=True
        )
        return flushed[0][0] if flushed else None

    def result(self) -> tuple[Hypothesis, list[Event]]:
        if not self._done:
            raise RuntimeError("utterance still in progress")
        writes = [e for e in self._events if e.kind is ActionKind.WRITE]
        hypothesis = Hypothesis(
            tokens=tuple(self._state.target_tokens),
            words=tuple(e.payload for e in writes),
            ideal_delays_ms=tuple(e.ideal_ms for e in writes),
            wall_delays_ms=tuple(e.wall_ms for e in writes),
            truncated=self._truncated,
        )
        return hypothesis, list(self._events)


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
    for _writes in engine.run(segment_stream(utterance, config.step_ms)):
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
    error record raises :class:`SimulRunError` with the events before it."""
    events: list[Event] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in filter(str.strip, handle):
            record = json.loads(line)
            if "error" in record:
                raise SimulRunError(record["error"], events)
            events.append(Event.from_dict(record))
    return events
