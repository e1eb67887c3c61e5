"""Source-word detection for streaming input.

Two strategies decide how many complete source words have been heard so far:

* fixed: assume a constant speaking rate and divide elapsed time by an
  average word duration;
* adaptive: greedily decode a CTC posterior over the received frames,
  collapse it into subword tokens, and count the complete words among them.

The adaptive counter is robust to silence -- appended blank frames add no
tokens -- while the fixed counter keeps ticking.  A collapsed token is a run
of equal argmax rows, and a run ends at a non-blank frame whose next row
differs, or at the last frame.  :class:`AdaptiveDetector` applies that rule
on a stream: each update argmaxes only the rows that are new or changed,
finds the runs from the frame before them on, and counts words from the last
complete one on.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from operator import floordiv, lt
from typing import Sequence

import numpy as np

from .core import Convention, SubwordToken, extend_word_spans, word_spans


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

    :func:`fixed_word_count` and :func:`adaptive_word_count` return one.  The
    public constructor checks every end frame; the ends that
    :func:`fixed_word_count` generates by formula are not checked again
    (:meth:`_unchecked`).  The engine keeps only :attr:`word_count`.
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
    before ``first`` are final.  It argmaxes each new row once, keeps the
    runs that end before frame ``first - 1`` and finds the rest again by the
    run rule.  Words come from :func:`~simulharness.core.extend_word_spans`,
    from the first token after the last complete word; the detector keeps no
    word end frames.  After every update :attr:`collapsed` equals
    ``ctc_greedy_collapse`` over all rows so far, and the count equals the
    ``word_count`` of ``adaptive_word_count`` over that.
    """

    def __init__(self, convention: Convention) -> None:
        self._convention = convention
        self._path: list[int] = []  # argmax of every row so far
        self._tokens: list[SubwordToken] = []  # one per run
        self._ends: list[int] = []  # the last frame of each run
        self._spans: list[tuple[str, int]] = []  # complete words

    @property
    def collapsed(self) -> list[tuple[SubwordToken, int]]:
        """Each run's token with its last frame, over every row so far."""
        return list(zip(self._tokens, self._ends))

    def update(self, posterior: CtcPosterior, first: int) -> int:
        """Take ``posterior`` as the rows from frame ``first`` on; return the
        number of complete words over every row so far."""
        path, tokens, ends = self._path, self._tokens, self._ends
        spans = self._spans
        if not 0 <= first <= len(path):
            raise ValueError("a posterior must not skip frames")
        blank, convention = posterior.blank_id, self._convention
        # the runs that end before frame first - 1 stay as they are; the run
        # through it, if any, keeps its token but may now end later
        kept = bisect_left(ends, first - 1)
        stable = kept + (first > 0 and path[first - 1] != blank)
        # a word stays complete while its closing token stays (SentencePiece
        # words close at the next word's first token)
        closing = int(convention is Convention.SP_PREFIX)
        while spans and spans[-1][1] + closing >= stable:
            spans.pop()
        del path[first:], tokens[kept:], ends[kept:]
        path += np.argmax(posterior.scores, axis=1).tolist()
        # a run ends at a non-blank frame whose next row differs, or at the
        # last frame
        start = max(first - 1, 0)
        rows = path[start:]
        pairs = zip(rows, rows[1:] + [-1])  # each row with the next one
        for frame, (index, after) in enumerate(pairs, start):
            if index != after and index != blank:
                tokens.append(SubwordToken(posterior.vocab[index], convention))
                ends.append(frame)
        return len(extend_word_spans(spans, tokens, convention))
