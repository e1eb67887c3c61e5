"""Core domain types for streaming speech translation.

This module defines the vocabulary the rest of the package speaks: feature
frames and utterances, subword tokens and the two word-boundary conventions,
hypotheses, and the line-delimited JSON manifest format used to describe
evaluation corpora.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from pathlib import Path
from typing import Sequence

logger = logging.getLogger(__name__)

#: Suffix marking "this token continues the current word" (BPE-style).
BPE_CONTINUATION = "@@"
#: Prefix marking "this token starts a new word" (SentencePiece-style).
SP_WORD_START = "▁"


class Convention(Enum):
    """How a subword vocabulary marks word boundaries.

    BPE_SUFFIX: a token ending in ``@@`` continues the current word; a word is
    complete as soon as a token without the suffix arrives.

    SP_PREFIX: a token starting with ``▁`` opens a new word; a word is
    complete only once the *next* word's opening token (or an explicit end of
    sequence) has been seen.
    """

    BPE_SUFFIX = "bpe"
    SP_PREFIX = "sp"


@dataclass(frozen=True)
class SubwordToken:
    """One subword unit plus the boundary convention it was produced under."""

    surface: str
    convention: Convention


@dataclass(frozen=True)
class Frame:
    """A single feature frame; its duration is the utterance's ``frame_ms``."""

    features: tuple[float, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.features, tuple):
            object.__setattr__(
                self, "features", tuple(float(x) for x in self.features)
            )


_NUMBER_TYPES = frozenset({int, float})


def frames_from_rows(rows: Sequence) -> tuple[Frame, ...]:
    """Frames from feature rows, as a manifest or a ``CHUNK`` carries them.

    Every row must be a list of numbers, each an ``int`` or a ``float`` (a
    ``bool`` is not a number here).  Anything else raises ``ValueError``
    naming the first bad row.  The types of all rows and values are checked
    at once, at C speed.
    """
    if not (set(map(type, rows)) <= {list}
            and set(map(type, chain.from_iterable(rows))) <= _NUMBER_TYPES):
        bad = next(row for row in rows if type(row) is not list
                   or not set(map(type, row)) <= _NUMBER_TYPES)
        raise ValueError(f"{bad!r} is not an array of numbers")
    try:
        return tuple(Frame(tuple(map(float, row))) for row in rows)
    except OverflowError as exc:  # an int beyond the range of a float
        raise ValueError(str(exc)) from None


@dataclass(frozen=True)
class Utterance:
    """A source utterance: frames plus optional transcript and reference.

    Every frame covers ``frame_ms`` of source signal, so the utterance lasts
    ``n_frames * frame_ms``.  ``word_end_frames`` carries oracle alignment
    metadata (the index of each source word's final frame) when the
    utterance was built synthetically; it is ``None`` for real data.
    """

    id: str
    frames: tuple[Frame, ...]
    frame_ms: int = 10
    transcript: tuple[str, ...] | None = None
    reference: tuple[str, ...] = ()
    word_end_frames: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "frames", tuple(self.frames))
        if self.transcript is not None:
            object.__setattr__(self, "transcript", tuple(self.transcript))
        object.__setattr__(self, "reference", tuple(self.reference))
        if self.word_end_frames is not None:
            object.__setattr__(
                self, "word_end_frames", tuple(self.word_end_frames)
            )
        check_frame_ms(self.frame_ms)
        if len({len(f.features) for f in self.frames}) > 1:
            raise ValueError(
                "all frames in an utterance must share a feature dimension"
            )

    @property
    def duration_ms(self) -> int:
        return self.n_frames * self.frame_ms

    @property
    def n_frames(self) -> int:
        return len(self.frames)


@dataclass(frozen=True)
class Hypothesis:
    """A committed target-side output with per-word emission delays.

    ``ideal_delays_ms[i]`` is the amount of source (in ms) that had been read
    when word ``i`` was emitted; ``wall_delays_ms[i]`` additionally includes
    the model compute time accumulated by that point.  ``truncated`` is set
    when generation was stopped by a safety cap rather than by the model.
    """

    tokens: tuple[SubwordToken, ...]
    words: tuple[str, ...]
    ideal_delays_ms: tuple[int, ...] = ()
    wall_delays_ms: tuple[float, ...] = ()
    truncated: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "tokens", tuple(self.tokens))
        object.__setattr__(self, "words", tuple(str(w) for w in self.words))
        object.__setattr__(
            self, "ideal_delays_ms", tuple(int(d) for d in self.ideal_delays_ms)
        )
        object.__setattr__(
            self, "wall_delays_ms", tuple(float(d) for d in self.wall_delays_ms)
        )
        if not (
            len(self.words)
            == len(self.ideal_delays_ms)
            == len(self.wall_delays_ms)
        ):
            raise ValueError("one delay pair is required per emitted word")


def check_frame_ms(frame_ms: object) -> int:
    """``frame_ms`` if it is a positive ``int`` (a ``bool`` is not one)."""
    if type(frame_ms) is not int or frame_ms <= 0:
        raise ValueError(
            f"frame_ms must be positive integer milliseconds, got {frame_ms!r}"
        )
    return frame_ms


def default_max_target_words(utterance: Utterance | None = None) -> int:
    """Safety cap on generated words: twice the source length plus slack.

    The length is the transcript's, else the reference's; with neither (or
    no utterance at all) the cap is 64 words.
    """
    words = utterance and (utterance.transcript or utterance.reference)
    return 2 * len(words) + 16 if words else 64


# ---------------------------------------------------------------------------
# Subword <-> word bookkeeping
# ---------------------------------------------------------------------------


def word_spans(
    tokens: Sequence[SubwordToken],
    convention: Convention | None = None,
    *,
    eos: bool = False,
) -> tuple[list[tuple[str, int]], bool]:
    """Group a token sequence into complete words.

    Returns ``(spans, has_trailing_partial)`` where each span is
    ``(word, last_token_index)`` for a *complete* word.  With ``eos=True`` a
    trailing in-progress word is flushed as complete (the sequence has ended,
    so nothing further can extend it).  Words that strip to the empty string
    are dropped.
    """
    if convention is None:
        if not tokens:
            raise ValueError("convention is required for an empty sequence")
        convention = tokens[0].convention
    for tok in tokens:
        if tok.convention is not convention:
            raise ValueError("mixed subword conventions in one sequence")

    spans: list[tuple[str, int]] = []

    if convention is Convention.BPE_SUFFIX:
        pieces: list[str] = []
        for i, tok in enumerate(tokens):
            surface = tok.surface
            if surface.endswith(BPE_CONTINUATION):
                pieces.append(surface[: -len(BPE_CONTINUATION)])
                continue
            pieces.append(surface)
            word = "".join(pieces)
            if word:
                spans.append((word, i))
            pieces = []
        partial = bool(pieces)
        if partial and eos:
            word = "".join(pieces)
            if word:
                spans.append((word, len(tokens) - 1))
            partial = False
        return spans, partial

    # SP_PREFIX: a word stays open until the next word-start token arrives.
    word_open = False
    pieces = []
    last_index = -1
    for i, tok in enumerate(tokens):
        surface = tok.surface
        if surface.startswith(SP_WORD_START):
            if word_open:
                word = "".join(pieces)
                if word:
                    spans.append((word, last_index))
            word_open = True
            pieces = [surface[len(SP_WORD_START) :]]
        else:
            # a leading continuation token opens a word implicitly
            word_open = True
            pieces.append(surface)
        last_index = i
    partial = word_open
    if word_open and eos:
        word = "".join(pieces)
        if word:
            spans.append((word, last_index))
        partial = False
    return spans, partial


def extend_word_spans(
    spans: list[tuple[str, int]],
    tokens: Sequence[SubwordToken],
    convention: Convention,
) -> list[tuple[str, int]]:
    """Bring ``spans`` up to date with a token sequence that has grown.

    ``spans`` holds the complete words of a prefix of ``tokens`` (as
    :func:`word_spans` gives them) and is extended in place.  Only the tokens
    from the first one after the last complete word are scanned, so a
    sequence that grows a few tokens at a time is scanned about once.
    """
    start = spans[-1][1] + 1 if spans else 0
    if start < len(tokens):
        found, _ = word_spans(tokens[start:], convention)
        spans.extend((word, start + i) for word, i in found)
    return spans


def subword_tokens(
    words: Sequence[str],
    convention: Convention,
    piece_len: int | None = None,
) -> list[SubwordToken]:
    """Split words into subword tokens under a boundary convention.

    ``piece_len`` bounds the characters per piece (``None`` keeps each word a
    single token).  Round-trips through :func:`word_spans` (pass
    ``eos=True`` for SP_PREFIX, whose final word otherwise stays open).
    """
    if piece_len is not None and piece_len < 1:
        raise ValueError("piece_len must be at least 1")
    tokens: list[SubwordToken] = []
    for word in words:
        if not word:
            raise ValueError("cannot tokenize an empty word")
        if BPE_CONTINUATION in word or SP_WORD_START in word:
            raise ValueError(f"word {word!r} contains a boundary marker")
        size = piece_len or len(word)
        pieces = [word[i : i + size] for i in range(0, len(word), size)]
        if convention is Convention.BPE_SUFFIX:
            for j, piece in enumerate(pieces):
                if j < len(pieces) - 1:
                    piece += BPE_CONTINUATION
                tokens.append(SubwordToken(piece, convention))
        else:
            for j, piece in enumerate(pieces):
                if j == 0:
                    piece = SP_WORD_START + piece
                tokens.append(SubwordToken(piece, convention))
    return tokens


# ---------------------------------------------------------------------------
# Stream segmentation
# ---------------------------------------------------------------------------


def segment_stream(
    utterance: Utterance, step_ms: int
) -> list[tuple[Frame, ...]]:
    """Cut an utterance into read-sized chunks of ``step_ms``.

    The chunks partition the frames in order; only the last chunk may be
    shorter than the step.  ``step_ms`` must be a positive multiple of the
    frame duration.
    """
    if step_ms <= 0:
        raise ValueError("step_ms must be positive")
    frames = utterance.frames
    if not frames:
        return []
    if step_ms % utterance.frame_ms:
        raise ValueError(
            f"step_ms={step_ms} is not a multiple of the "
            f"{utterance.frame_ms} ms frame duration"
        )
    per_chunk = step_ms // utterance.frame_ms
    return [frames[i : i + per_chunk] for i in range(0, len(frames), per_chunk)]


# ---------------------------------------------------------------------------
# Manifests
# ---------------------------------------------------------------------------


class ManifestError(ValueError):
    """A corpus manifest could not be parsed."""


def decode_json(text: str | bytes) -> object:
    """``json.loads``, with too deep a nesting -- a ``RecursionError`` in the
    stdlib parser, which no ``ValueError`` handler catches -- reported as a
    decode error."""
    try:
        return json.loads(text)
    except RecursionError:
        raise json.JSONDecodeError("nested too deeply", "", 0) from None


_REQUIRED_FIELDS = ("id", "frames", "frame_ms", "reference")


def _word_list(value: object, field: str, lineno: int) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(
        isinstance(w, str) for w in value
    ):
        raise ManifestError(
            f"field {field!r} must be a list of strings at line {lineno}"
        )
    return tuple(value)


def load_manifest(path: str | Path) -> tuple[Utterance, ...]:
    """Load a line-delimited JSON manifest.

    Each line is an object with fields ``id``, ``frames`` (an inline array of
    feature rows, or a path -- relative to the manifest -- to a JSON file
    holding one), ``frame_ms``, ``reference``, and optionally ``transcript``.
    Blank lines are skipped.  Any malformed line raises
    :class:`ManifestError` naming the line number.
    """
    path = Path(path)
    utterances: list[Utterance] = []
    seen: set[str] = set()
    with path.open("r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                record = decode_json(line)
            except json.JSONDecodeError as exc:
                raise ManifestError(
                    f"malformed JSON at line {lineno}: {exc.msg}"
                ) from exc
            if not isinstance(record, dict):
                raise ManifestError(f"expected an object at line {lineno}")
            for key in _REQUIRED_FIELDS:
                if key not in record:
                    raise ManifestError(
                        f"missing field {key!r} at line {lineno}"
                    )
            utt_id = record["id"]
            if not isinstance(utt_id, str) or not utt_id:
                raise ManifestError(
                    f"field 'id' must be a non-empty string at line {lineno}"
                )
            if utt_id in seen:
                raise ManifestError(
                    f"duplicate id {utt_id!r} at line {lineno}"
                )
            seen.add(utt_id)
            try:
                frame_ms = check_frame_ms(record["frame_ms"])
            except ValueError:
                raise ManifestError(
                    f"field 'frame_ms' must be a positive integer "
                    f"at line {lineno}"
                ) from None
            raw_frames = record["frames"]
            if isinstance(raw_frames, str):
                frames_path = path.parent / raw_frames
                try:
                    raw_frames = decode_json(
                        frames_path.read_text(encoding="utf-8")
                    )
                except FileNotFoundError as exc:
                    raise ManifestError(
                        f"frames file {record['frames']!r} not found "
                        f"at line {lineno}"
                    ) from exc
                except json.JSONDecodeError as exc:
                    raise ManifestError(
                        f"malformed frames file {record['frames']!r} "
                        f"at line {lineno}: {exc.msg}"
                    ) from exc
            if not isinstance(raw_frames, list):
                raise ManifestError(
                    f"field 'frames' must be an array of feature rows "
                    f"at line {lineno}"
                )
            try:
                frames = frames_from_rows(raw_frames)
            except ValueError as exc:
                raise ManifestError(
                    f"bad frame row at line {lineno}: {exc}"
                ) from exc
            transcript = record.get("transcript")
            if transcript is not None:
                transcript = _word_list(transcript, "transcript", lineno)
            reference = _word_list(record["reference"], "reference", lineno)
            try:
                utterances.append(
                    Utterance(
                        id=utt_id,
                        frames=frames,
                        frame_ms=frame_ms,
                        transcript=transcript,
                        reference=reference,
                    )
                )
            except ValueError as exc:
                raise ManifestError(f"{exc} at line {lineno}") from exc
    return tuple(utterances)
