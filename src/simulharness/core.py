"""Core domain types for streaming speech translation.

This module defines the vocabulary the rest of the package speaks: feature
frames (an utterance's in one read-only array) and utterances, subword tokens
and the two word-boundary conventions, hypotheses, and the line-delimited
JSON manifest format used to describe evaluation corpora.
"""

from __future__ import annotations

import gc
import json
import operator
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from enum import Enum
from functools import partial
from itertools import chain
from pathlib import Path

import numpy as np

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


class Frame(tuple):
    """A single feature frame: a tuple of its ``float`` feature values.  Its
    duration is the utterance's ``frame_ms``."""

    __slots__ = ()

    def __new__(cls, features: Iterable[float]) -> Frame:
        return super().__new__(cls, map(float, features))

    @property
    def features(self) -> tuple[float, ...]:
        """The feature values: the frame itself."""
        return self


_NUMBER_TYPES = frozenset({int, float})
_BPE_SUFFIX = Convention.BPE_SUFFIX  # a global reads faster than a member
#: a row of ``float`` values as a Frame, with no call per value
_as_frame = partial(tuple.__new__, Frame)
_RAGGED = "all frames in an utterance must share a feature dimension"


class FrameArray(Sequence):
    """Frames as one read-only ``(n_frames, dim)`` float64 array, made from
    any rows of one width.  It indexes, iterates, compares, hashes and adds
    as the tuple of :class:`Frame` rows it replaces; ``np.asarray`` returns
    the array, with no copy.  A slice is a view that keeps its source array
    and its first row there."""

    __slots__ = ("_rows", "_source", "_start")

    def __new__(cls, frames: Iterable = ()) -> FrameArray:
        if type(frames) is cls:
            return frames
        return frames_from_rows([list(map(float, row)) for row in frames])

    @classmethod
    def _of(cls, rows: np.ndarray) -> FrameArray:
        """Frames over float64 ``rows`` that, with any array they view, no
        one writes again."""
        rows.flags.writeable = False
        if isinstance(rows.base, np.ndarray):
            rows.base.flags.writeable = False
        return cls._view(rows, 0, len(rows))

    @staticmethod
    def _view(source: np.ndarray, start: int, stop: int) -> FrameArray:
        frames = object.__new__(FrameArray)  # rows of a read-only source
        frames._source, frames._start = source, start
        frames._rows = source[start:stop]
        return frames

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        if copy or not (dtype is None or dtype == self._rows.dtype):
            return np.array(self._rows, dtype)
        return self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, key):
        if type(key) is not slice:
            return _as_frame(self._rows[operator.index(key)].tolist())
        start, stop, step = key.indices(len(self._rows))
        if step != 1:  # the stepped rows are a source of their own
            rows = self._rows[key]
            return FrameArray._view(rows, 0, len(rows))
        return FrameArray._view(self._source, self._start + start,
                                self._start + max(start, stop))

    def __iter__(self) -> Iterator[Frame]:
        return map(_as_frame, self._rows.tolist())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (tuple, FrameArray)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __add__(self, other: tuple | FrameArray) -> FrameArray:
        return FrameArray((*self, *other))

    def __reduce__(self):  # a copy, or a pickle, is read-only too
        return FrameArray._of, (np.array(self._rows),)


def frames_from_rows(rows: Sequence) -> FrameArray:
    """Frames from feature rows, as a manifest carries them.

    Every row must be a list of numbers, each an ``int`` or a ``float`` (a
    ``bool`` is not a number here), and all rows one width; else this
    raises ``ValueError``, naming the first row of a wrong type.  All types
    are checked at once, at C speed, and one ``np.fromiter`` converts.
    """
    if not (set(map(type, rows)) <= {list}
            and set(map(type, chain.from_iterable(rows))) <= _NUMBER_TYPES):
        bad = next(row for row in rows if type(row) is not list
                   or not set(map(type, row)) <= _NUMBER_TYPES)
        raise ValueError(f"{bad!r} is not an array of numbers")
    if len(set(map(len, rows))) > 1:
        raise ValueError(_RAGGED)
    n, width = len(rows), len(rows[0]) if rows else 0
    try:
        values = np.fromiter(chain.from_iterable(rows), float, n * width)
    except OverflowError as exc:  # an int beyond the range of a float
        raise ValueError(str(exc)) from None
    return FrameArray._of(values.reshape(n, width))


@dataclass(frozen=True)
class Utterance:
    """A source utterance: frames plus optional transcript and reference.

    Every frame covers ``frame_ms`` of source signal, so the utterance lasts
    ``n_frames * frame_ms``.  ``word_end_frames`` carries oracle alignment
    metadata (the index of each source word's final frame) when the
    utterance was built synthetically; it is ``None`` for real data.
    """

    id: str
    frames: FrameArray
    frame_ms: int = 10
    transcript: tuple[str, ...] | None = None
    reference: tuple[str, ...] = ()
    word_end_frames: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.id, str):
            raise ValueError(f"id must be a str, got {self.id!r}")
        object.__setattr__(self, "frames", FrameArray(self.frames))
        if self.transcript is not None:
            object.__setattr__(self, "transcript", tuple(self.transcript))
        object.__setattr__(self, "reference", tuple(self.reference))
        if self.word_end_frames is not None:
            object.__setattr__(
                self, "word_end_frames", tuple(self.word_end_frames)
            )
        check_frame_ms(self.frame_ms)

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
        for name, kind in (("words", str), ("ideal_delays_ms", int),
                           ("wall_delays_ms", float)):
            object.__setattr__(self, name, tuple(map(kind, getattr(self, name))))
        if not (
            len(self.words)
            == len(self.ideal_delays_ms)
            == len(self.wall_delays_ms)
        ):
            raise ValueError("one delay pair is required per emitted word")

    @classmethod
    def _trusted(cls, **fields) -> Hypothesis:
        """Every field as given: tuples of the declared types, one length."""
        vars(hypothesis := object.__new__(cls)).update(fields)
        return hypothesis


def check_frame_ms(frame_ms: object) -> int:
    """``frame_ms`` if it is a positive ``int`` (a ``bool`` is not one)."""
    if type(frame_ms) is not int or frame_ms <= 0:
        raise ValueError(
            f"frame_ms must be positive integer milliseconds, got {frame_ms!r}"
        )
    return frame_ms


def check_step_ms(step_ms: int, frame_ms: object) -> None:
    """Refuse a ``step_ms`` that is not a positive multiple of ``frame_ms``."""
    if step_ms <= 0:
        raise ValueError("step_ms must be positive")
    if step_ms % check_frame_ms(frame_ms):
        raise ValueError(
            f"step_ms={step_ms} is not a multiple of the "
            f"{frame_ms} ms frame duration"
        )


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


class WordBuilder:
    """Groups tokens into words as they arrive, under one convention.

    :meth:`push` takes the next token's surface and returns the word it
    completes: under BPE_SUFFIX the token's own word unless it ends in
    ``@@``, under SP_PREFIX the word before a ``▁`` token, whose last token
    is ``lag`` (1, else 0) tokens back.  :meth:`flush` closes the open word
    at the end.  Both return ``""`` when no word, or only an empty one, ends.
    """

    __slots__ = ("_bpe", "pieces", "lag")

    def __init__(self, convention: Convention) -> None:
        self._bpe = convention is _BPE_SUFFIX
        self.lag = 0 if self._bpe else 1
        self.pieces: list[str] = []  # the open word's, markers stripped

    def push(self, surface: str) -> str:
        if self._bpe:
            if surface.endswith(BPE_CONTINUATION):
                self.pieces.append(surface[: -len(BPE_CONTINUATION)])
                return ""
            self.pieces.append(surface)
            return self.flush()
        if surface.startswith(SP_WORD_START):
            word = self.flush()
            self.pieces.append(surface[len(SP_WORD_START) :])
            return word
        self.pieces.append(surface)
        return ""

    def flush(self) -> str:
        word = "".join(self.pieces)
        self.pieces.clear()
        return word


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
    spans: list[tuple[str, int]] = []
    builder = WordBuilder(convention)
    # counting from -lag, each token's number is the completed word's end
    for end, tok in enumerate(tokens, -builder.lag):
        if tok.convention is not convention:
            raise ValueError("mixed subword conventions in one sequence")
        if word := builder.push(tok.surface):
            spans.append((word, end))
    if eos and (word := builder.flush()):
        spans.append((word, len(tokens) - 1))
    return spans, bool(builder.pieces)


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
    bpe = convention is Convention.BPE_SUFFIX
    for word in words:
        if not word:
            raise ValueError("cannot tokenize an empty word")
        if BPE_CONTINUATION in word or SP_WORD_START in word:
            raise ValueError(f"word {word!r} contains a boundary marker")
        size = piece_len or len(word)
        for i in range(0, len(word), size):
            piece = word[i : i + size]
            if bpe and i + size < len(word):
                piece += BPE_CONTINUATION
            elif not bpe and i == 0:
                piece = SP_WORD_START + piece
            tokens.append(SubwordToken(piece, convention))
    return tokens


# ---------------------------------------------------------------------------
# Stream segmentation
# ---------------------------------------------------------------------------


def segment_stream(utterance: Utterance, step_ms: int) -> list[FrameArray]:
    """Cut an utterance into read-sized chunks of ``step_ms``.

    The chunks partition the frames in order, each a view of the
    utterance's array; only the last chunk may be shorter than the step.
    ``step_ms`` must be a positive multiple of the frame duration.
    """
    return list(_chunks(utterance, step_ms))


def _chunks(utterance: Utterance, step_ms: int) -> Iterator[FrameArray]:
    """The chunks of :func:`segment_stream`, each cut as it is taken."""
    check_step_ms(step_ms, utterance.frame_ms)
    frames, per_chunk = utterance.frames, step_ms // utterance.frame_ms
    source, first, n = frames._source, frames._start, len(frames)
    return (FrameArray._view(source, first + i, first + min(i + per_chunk, n))
            for i in range(0, n, per_chunk))


# ---------------------------------------------------------------------------
# Manifests
# ---------------------------------------------------------------------------


class ManifestError(ValueError):
    """A corpus manifest could not be parsed."""


def decode_json(text: str | bytes) -> object:
    """``json.loads``, with too deep a nesting -- a ``RecursionError`` in the
    stdlib parser, which no ``ValueError`` handler catches -- and any other
    ``ValueError`` it raises reported as a decode error.  Only a syntax
    error names a position: the parser checks none for the other two."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise
    except RecursionError:
        msg = "nested too deeply"
    except ValueError as exc:  # an integer of more than 4,300 digits
        msg = str(exc)
    error = json.JSONDecodeError(msg, "", 0)
    error.args = (msg,)  # so its message names no position
    raise error


_REQUIRED_FIELDS = ("id", "frames", "frame_ms", "reference")
#: an id names its log file, ``logs/<id>.jsonl``, so it holds no separator
_NOT_IN_IDS = frozenset("/\\\0")
#: the longest file name, in bytes, on common file systems (``NAME_MAX``)
_MAX_NAME_BYTES = 255


def _is_file_name(utt_id: str) -> bool:
    """Whether ``<utt_id>.jsonl`` can name a file in a directory."""
    try:
        size = len(f"{utt_id}.jsonl".encode("utf-8"))
    except UnicodeEncodeError:  # a lone surrogate, which JSON can carry
        return False
    return (utt_id not in ("", ".", "..") and _NOT_IN_IDS.isdisjoint(utt_id)
            and size <= _MAX_NAME_BYTES)


def _word_list(value: object, field: str, lineno: int) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(
        isinstance(w, str) for w in value
    ):
        raise ManifestError(
            f"field {field!r} must be a list of strings at line {lineno}"
        )
    return tuple(value)


def _collector_held_off(action, args):
    """``action(*args)`` with the cyclic collector off, then as the caller
    had it; a tuple, not ``*args``, as each engine step calls it."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        return action(*args)
    finally:
        if collecting:
            gc.enable()


def load_manifest(path: str | Path) -> tuple[Utterance, ...]:
    """Load a line-delimited JSON manifest.

    Each line is an object with fields ``id``, ``frames`` (an inline array of
    feature rows, or a path -- relative to the manifest -- to a JSON file
    holding one), ``frame_ms``, ``reference``, and optionally ``transcript``.
    An id must be a file name: not ``.`` or ``..``, with no ``/``, ``\\``,
    NUL or lone surrogate, and at most 249 bytes of UTF-8.  Blank lines are
    skipped.  Lines end at ``\\n``; each, and each frames file, is decoded
    as :func:`json.loads` decodes bytes.  Any malformed line, bytes that do
    not decode included, raises :class:`ManifestError` naming the line number.
    """
    path = Path(path)
    # a load makes no reference cycle, so a collection could only re-scan
    with path.open("rb") as handle:
        return _collector_held_off(_parse_lines, (path, handle))


def _parse_lines(path: Path, lines: Iterable[bytes]) -> tuple[Utterance, ...]:
    utterances: list[Utterance] = []
    seen: set[str] = set()
    for lineno, line in enumerate(lines, start=1):
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
                raise ManifestError(f"missing field {key!r} at line {lineno}")
        utt_id = record["id"]
        if not isinstance(utt_id, str) or not utt_id:
            raise ManifestError(
                f"field 'id' must be a non-empty string at line {lineno}"
            )
        if not _is_file_name(utt_id):
            raise ManifestError(
                f"id {utt_id!r} is not a file name at line {lineno}"
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
                raw_frames = decode_json(frames_path.read_bytes())
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
                f"{exc} at line {lineno}" if str(exc) == _RAGGED
                else f"bad frame row at line {lineno}: {exc}"
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
