"""Source-word detection for streaming input.

Two strategies decide how many complete source words have been heard so far:

* fixed: assume a constant speaking rate and divide elapsed time by an
  average word duration;
* adaptive: greedily decode a CTC posterior over the received frames,
  collapse it into subword tokens, and count the complete words among them.

The adaptive counter is robust to silence -- appended blank frames add no
tokens -- while the fixed counter keeps ticking.  :class:`AdaptiveDetector`
runs it on a stream: each update collapses only the posterior rows that are
new or changed and counts words from the last complete one on.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from operator import floordiv, itemgetter, lt
from typing import Sequence

import numpy as np

from .core import Convention, SubwordToken, word_spans


class DetectionKind(Enum):
    FIXED = "fixed"
    ADAPTIVE = "adaptive"


@dataclass(frozen=True)
class CtcPosterior:
    """Per-frame scores over a CTC vocabulary.

    ``scores`` has shape ``(n_frames, len(vocab))``; ``vocab`` maps column
    indices to token surfaces; ``blank_id`` names the blank column.
    """

    scores: np.ndarray
    vocab: tuple[str, ...]
    blank_id: int = 0

    def __post_init__(self) -> None:
        scores = np.asarray(self.scores, dtype=float)
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "vocab", tuple(self.vocab))
        if scores.ndim != 2:
            raise ValueError("scores must be a 2-D (frames x vocab) array")
        if scores.shape[1] != len(self.vocab):
            raise ValueError(
                f"vocab size {len(self.vocab)} does not match "
                f"{scores.shape[1]} score columns"
            )
        if not 0 <= self.blank_id < len(self.vocab):
            raise ValueError("blank_id must index the vocabulary")

    @property
    def n_frames(self) -> int:
        return int(self.scores.shape[0])


@dataclass(frozen=True)
class DetectionResult:
    """How many complete source words are known, and where each one ended.

    The public constructor checks every end frame.  A detector on a stream
    instead extends its previous result with :meth:`_extended`, which checks
    only the ends it adds, so a READ costs what it adds; the ends a detector
    generates by formula are not checked again (:meth:`_unchecked`).
    """

    word_count: int
    word_end_frames: tuple[int, ...]

    def __post_init__(self) -> None:
        ends = tuple(map(int, self.word_end_frames))
        object.__setattr__(self, "word_end_frames", ends)
        if self.word_count != len(ends):
            raise ValueError("word_count must match word_end_frames")
        if ends and min(ends) < 0:
            raise ValueError("word_end_frames must be non-negative")
        if not all(map(lt, ends, ends[1:])):
            raise ValueError("word_end_frames must be strictly increasing")

    @classmethod
    def _unchecked(cls, ends: tuple[int, ...]) -> "DetectionResult":
        """Wrap a tuple of valid ``int`` end frames without checking it."""
        result = object.__new__(cls)
        object.__setattr__(result, "word_count", len(ends))
        object.__setattr__(result, "word_end_frames", ends)
        return result

    def _extended(self, keep: int, tail: Sequence[int]) -> "DetectionResult":
        """The first ``keep`` words of this result followed by words ending
        at ``tail``; only ``tail`` is checked."""
        tail = tuple(tail)
        floor = self.word_end_frames[keep - 1] if keep else -1
        if not all(map(lt, (floor,) + tail, tail)):
            raise ValueError(
                "word_end_frames must be non-negative and strictly increasing"
            )
        return self._unchecked(self.word_end_frames[:keep] + tail)


EMPTY_DETECTION = DetectionResult(0, ())


def fixed_word_count(
    elapsed_ms: float, avg_word_ms: int = 280, *, frame_ms: int = 10
) -> DetectionResult:
    """Count words by elapsed time at one word per ``avg_word_ms``.

    Word ``i`` (1-based) is assumed to end at time ``i * avg_word_ms``; the
    reported end frame is the frame containing that instant.  Both
    ``avg_word_ms`` and ``frame_ms`` must be ``int`` (a ``bool`` is not).
    """
    # exact types, as PolicyConfig checks them: the end frames below are
    # computed in integer arithmetic
    for name, value in (("avg_word_ms", avg_word_ms), ("frame_ms", frame_ms)):
        if type(value) is not int:
            raise ValueError(f"{name} must be int, got {value!r}")
    if avg_word_ms <= 0:
        raise ValueError("avg_word_ms must be positive")
    if frame_ms <= 0:
        raise ValueError("frame_ms must be positive")
    if avg_word_ms < frame_ms:
        # otherwise two assumed word ends could share one frame
        raise ValueError("avg_word_ms must be at least one frame long")
    if elapsed_ms < 0:
        raise ValueError("elapsed_ms must be non-negative")
    count = int(elapsed_ms // avg_word_ms)
    # the frame containing instant t = i * avg_word_ms is ceil(t / frame_ms)
    # - 1 = (t - 1) // frame_ms, strictly increasing as avg_word_ms >= frame_ms
    ends = map(
        floordiv,
        range(avg_word_ms - 1, avg_word_ms * count, avg_word_ms),
        repeat(frame_ms),
    )
    return DetectionResult._unchecked(tuple(ends))


def ctc_greedy_collapse(
    posterior: CtcPosterior,
    convention: Convention = Convention.BPE_SUFFIX,
) -> list[tuple[SubwordToken, int]]:
    """Greedy CTC decode: per-frame argmax, collapse runs, drop blanks.

    Ties go to the lowest vocabulary index.  Each surviving token is paired
    with the index of the last frame of its collapsed run, so a duplicate
    separated by a blank stays distinct while a contiguous run merges.
    """
    if posterior.n_frames == 0:
        return []
    path = np.argmax(posterior.scores, axis=1).tolist()
    collapsed: list[tuple[SubwordToken, int]] = []
    previous: int | None = None
    for frame, index in enumerate(path):
        if index != previous:
            if previous is not None and previous != posterior.blank_id:
                collapsed.append(
                    (SubwordToken(posterior.vocab[previous], convention),
                     frame - 1)
                )
            previous = index
    if previous is not None and previous != posterior.blank_id:
        collapsed.append(
            (SubwordToken(posterior.vocab[previous], convention),
             len(path) - 1)
        )
    return collapsed


def adaptive_word_count(
    collapsed: Sequence[tuple[SubwordToken, int]],
    convention: Convention,
) -> DetectionResult:
    """Count the complete words in a collapsed CTC token stream.

    A trailing partial word does not count.  Each complete word's end frame
    is the last frame of its final token.
    """
    tokens = [token for token, _ in collapsed]
    spans, _partial = word_spans(tokens, convention) if tokens else ([], False)
    ends = tuple(collapsed[last_index][1] for _, last_index in spans)
    return DetectionResult(len(spans), ends)


class AdaptiveDetector:
    """Adaptive word detection over a posterior that arrives a tail at a time.

    :meth:`update` takes the posterior rows from frame ``first`` on; the rows
    before ``first`` are final.  It collapses just those rows with
    :func:`ctc_greedy_collapse`, merges the run that straddles ``first``, and
    runs :func:`adaptive_word_count` from the first token after the last
    complete word.  The result keeps the end frames of the words whose
    tokens did not change and appends the rest, checking only those.
    After every update :attr:`collapsed` equals ``ctc_greedy_collapse`` over
    all rows so far, and the result equals ``adaptive_word_count`` over that.
    """

    def __init__(self, convention: Convention) -> None:
        self._convention = convention
        self._path: list[int] = []  # argmax of every row so far
        self.collapsed: list[tuple[SubwordToken, int]] = []
        self._words: list[int] = []  # last token index of each word
        self._result = EMPTY_DETECTION

    def update(self, posterior: CtcPosterior, first: int) -> DetectionResult:
        """Take ``posterior`` as the rows from frame ``first`` on; return the
        words detected over every row so far."""
        if not 0 <= first <= len(self._path):
            raise ValueError("a posterior must not skip frames")
        blank = posterior.blank_id
        collapsed = self.collapsed
        # forget the runs of rows from ``first`` on, cutting the one that
        # straddles ``first`` back to its part before it
        del self._path[first:]
        while collapsed and collapsed[-1][1] >= first:
            collapsed.pop()
        unchanged = len(collapsed)  # tokens before this index stay as they are
        last = self._path[-1] if self._path else blank
        if last != blank and (not collapsed or collapsed[-1][1] < first - 1):
            token = SubwordToken(posterior.vocab[last], self._convention)
            collapsed.append((token, first - 1))
        # a word stays complete while its closing token exists (SentencePiece
        # words close at the next word's first token)
        closing = int(self._convention is Convention.SP_PREFIX)
        while self._words and self._words[-1] + closing >= len(collapsed):
            self._words.pop()

        if posterior.n_frames:
            path = np.argmax(posterior.scores, axis=1).tolist()
            if path[0] == last != blank:
                # the run goes on: its token now ends inside the new rows
                collapsed.pop()
                unchanged = min(unchanged, len(collapsed))
            collapsed.extend(
                (token, first + frame)
                for token, frame in ctc_greedy_collapse(
                    posterior, self._convention
                )
            )
            self._path.extend(path)

        # the words whose last token is unchanged keep their end frames
        keep = bisect_left(self._words, unchanged)
        start = self._words[-1] + 1 if self._words else 0
        found = adaptive_word_count(collapsed[start:], self._convention)
        self._words.extend(
            bisect_left(collapsed, end, lo=start, key=itemgetter(1))
            for end in found.word_end_frames
        )
        if keep < self._result.word_count or found.word_count:
            self._result = self._result._extended(
                keep, [collapsed[i][1] for i in self._words[keep:]]
            )
        return self._result
