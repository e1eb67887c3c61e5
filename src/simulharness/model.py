"""Incremental encoder-decoder interface, a deterministic mock, and masks.

The engine talks to a model through two calls.  ``encode_more`` brings the
encoding up to date with a source prefix that has grown by one chunk: it gets
the encoder states of the shorter prefix and returns new states plus a CTC
posterior over the source vocabulary for the *tail* of the prefix.  Rows
before that tail are final, so detection never looks at them again.
``decoder_step`` scores the next target token given those states and the
committed target prefix.  The engine reaches ``encode_more`` through
``timed_encode``, which also returns the compute time to charge for it.  A
model that cannot encode incrementally implements only ``encode_prefix``; the
default ``encode_more`` re-encodes the whole prefix, and its posterior then
covers every frame.  Both encode calls must be functions of their
arguments: a sweep hands one prefix's states and posterior to every grid
point, so a model must not change the states it is given, nor any states
or posterior it returned before (a model with a cache updates a copy).

:class:`LexiconMockModel` implements the contract with a word-for-word
dictionary so every behavior downstream -- detection, scheduling, latency,
wire transport -- has a closed-form expectation.  Synthetic utterances encode
each source word as a run of one-hot frames whose final frame is marked by a
doubled amplitude; that marker is what lets a lookahead-free encoder emit the
word id exactly at the word's last frame (and blank everywhere else) without
peeking at future frames.  Each frame is encoded on its own, so the mock
encodes only the frames a chunk adds.
"""

from __future__ import annotations

import math
import random
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .core import Convention, Frame, Utterance, decode_json, subword_tokens
from .detection import CtcPosterior

#: Feature amplitude marking the final frame of a word (interior frames
#: carry amplitude 1.0; anything below the threshold reads as blank).
BOUNDARY_GAIN = 2.0
_BOUNDARY_THRESHOLD = 1.5

EOS_SURFACE = "</s>"
BLANK_SURFACE = "<blank>"


class ModelInterface(ABC):
    """Contract for incremental translation models.

    Implementations must be deterministic given identical inputs.  A
    posterior covers the last ``posterior.n_frames`` frames of the prefix it
    was computed for.  Rows before those are final: the engine never looks
    at them again, so a model that revises rows as more audio arrives
    (lookahead) must return them again.  One evaluation thread calls a model
    at a time; one model may serve many utterances, so per-utterance state
    belongs in the encoder states, not on the model.
    """

    @property
    @abstractmethod
    def target_vocab(self) -> tuple[str, ...]:
        """Decoder vocabulary; positions match ``decoder_step`` scores."""

    @property
    @abstractmethod
    def eos_id(self) -> int:
        """Index of the end-of-sequence symbol in ``target_vocab``."""

    @property
    @abstractmethod
    def target_convention(self) -> Convention:
        """Boundary convention of the target subword vocabulary."""

    @abstractmethod
    def encode_prefix(
        self, frames: Sequence[Frame]
    ) -> tuple[object, CtcPosterior]:
        """Encode the source prefix received so far.

        :return: opaque encoder states plus the CTC posterior over the
            prefix (one score row per frame).
        """

    def encode_more(
        self, states: object, frames: Sequence[Frame], start: int
    ) -> tuple[object, CtcPosterior]:
        """Encode a prefix that grew from ``frames[:start]`` to ``frames``.

        ``states`` are the ones returned for ``frames[:start]`` (``None`` when
        ``start`` is 0).  The posterior may cover just the frames whose rows
        are new or changed; this default re-encodes the whole prefix.
        Return new states: ``states`` and every earlier result may be read
        again (a sweep reads them at every grid point), so they must not
        change.
        """
        return self.encode_prefix(frames)

    def timed_encode(
        self, states: object, frames: Sequence[Frame], start: int
    ) -> tuple[object, CtcPosterior, float]:
        """:meth:`encode_more`, plus the milliseconds of compute to charge
        for it -- the engine adds them to the computation-aware clock."""
        begin = time.perf_counter()
        states, posterior = self.encode_more(states, frames, start)
        return states, posterior, (time.perf_counter() - begin) * 1000.0

    @abstractmethod
    def decoder_step(
        self, states: object, target_prefix_ids: Sequence[int]
    ) -> np.ndarray:
        """Score the next target token (EOS included) as a plain vector."""


@dataclass(frozen=True)
class _MockStates:
    visible_words: tuple[str, ...]
    #: target token ids translating ``visible_words``, in order
    target_ids: tuple[int, ...]


class LexiconMockModel(ModelInterface):
    """Deterministic word-for-word translator for tests and demos.

    Each source word maps to one or more target words; the translation of an
    utterance is the concatenation of the mapped words in source order.  The
    encoder reads the amplitude markers of synthetic frames, so the words it
    has "heard" are exactly those whose final frame arrived.  Scores are
    one-hot-like; ``eos_early`` instead puts 1.0 on EOS with the correct next
    token at 0.5, so EOS-suppression flags have an observable, deterministic
    effect.  ``compute_delay_ms`` sleeps in every model call, for
    computation-aware latency tests.

    Note one intentional limit: once every heard word is translated the model
    scores EOS highest -- just like a real system that believes it is done --
    so wait-1 with SentencePiece targets (which need the next word's opening
    token to close a word) will exercise the EOS-suppression paths.
    """

    def __init__(
        self,
        lexicon: Mapping[str, Sequence[str] | str],
        *,
        target_convention: Convention = Convention.BPE_SUFFIX,
        target_piece_len: int | None = None,
        eos_early: bool = False,
        compute_delay_ms: float = 0.0,
    ) -> None:
        if not isinstance(lexicon, Mapping) or not all(
            isinstance(t, str) or isinstance(t, (list, tuple))
            and all(isinstance(w, str) for w in t)
            for t in lexicon.values()
        ):
            raise ValueError(
                "lexicon must map each word to a word or a list of words"
            )
        if not lexicon:
            raise ValueError("lexicon must not be empty")
        self._lexicon: dict[str, tuple[str, ...]] = {}
        for source, targets in lexicon.items():
            if isinstance(targets, str):
                targets = (targets,)
            targets = tuple(targets)
            if not targets:
                raise ValueError(f"lexicon entry {source!r} maps to no words")
            self._lexicon[source] = targets
        try:  # a member maps to itself, its value to the member
            target_convention = Convention(target_convention)
        except ValueError as exc:
            choices = " or ".join(repr(m.value) for m in Convention)
            raise ValueError(
                f"target_convention must be a string, {choices}; {exc}"
            ) from None
        # exact types, as PolicyConfig checks them: a bool is no number
        if type(eos_early) is not bool:
            raise ValueError(f"eos_early must be bool, got {eos_early!r}")
        if target_piece_len is not None and (
            type(target_piece_len) is not int or target_piece_len < 1
        ):
            raise ValueError(
                "target_piece_len must be a positive int or None, "
                f"got {target_piece_len!r}"
            )
        if (
            isinstance(compute_delay_ms, bool)
            or not isinstance(compute_delay_ms, (int, float))
            or not 0 <= compute_delay_ms < math.inf
        ):
            raise ValueError(
                "compute_delay_ms must be a finite non-negative number, "
                f"got {compute_delay_ms!r}"
            )
        self._target_convention = target_convention
        self._eos_early = eos_early
        self._compute_delay_ms = float(compute_delay_ms)

        self._source_vocab = (BLANK_SURFACE,) + tuple(sorted(self._lexicon))
        pieces = sorted(
            {
                token.surface
                for targets in self._lexicon.values()
                for word in targets
                for token in subword_tokens(
                    [word], target_convention, target_piece_len
                )
            }
        )
        self._target_vocab = (EOS_SURFACE,) + tuple(pieces)
        target_index = {s: i for i, s in enumerate(self._target_vocab)}
        #: source word -> target token ids of its translation
        self._target_ids = {
            source: tuple(
                target_index[token.surface]
                for token in subword_tokens(
                    targets, target_convention, target_piece_len
                )
            )
            for source, targets in self._lexicon.items()
        }

    # -- vocabulary ------------------------------------------------------

    @property
    def target_vocab(self) -> tuple[str, ...]:
        return self._target_vocab

    @property
    def eos_id(self) -> int:
        return 0

    @property
    def target_convention(self) -> Convention:
        return self._target_convention

    @property
    def source_vocab(self) -> tuple[str, ...]:
        """CTC vocabulary: blank at index 0, then the source words."""
        return self._source_vocab

    @property
    def source_word_index(self) -> dict[str, int]:
        """Source word -> CTC index, for building matching synthetic frames."""
        return {w: i for i, w in enumerate(self._source_vocab) if i > 0}

    @property
    def source_words(self) -> tuple[str, ...]:
        return self._source_vocab[1:]

    def translate_words(self, source_words: Sequence[str]) -> list[str]:
        """Reference translation: concatenated mapped words, source order."""
        out: list[str] = []
        for word in source_words:
            if word not in self._lexicon:
                raise ValueError(f"source word {word!r} not in lexicon")
            out.extend(self._lexicon[word])
        return out

    # -- model calls -----------------------------------------------------

    def _sleep(self) -> None:
        if self._compute_delay_ms > 0:
            time.sleep(self._compute_delay_ms / 1000.0)

    def encode_prefix(
        self, frames: Sequence[Frame]
    ) -> tuple[_MockStates, CtcPosterior]:
        self._sleep()
        vocab_size = len(self._source_vocab)
        if set(map(len, frames)) - {vocab_size}:
            width = next(n for n in map(len, frames) if n != vocab_size)
            raise ValueError(
                f"feature dim {width} does not match the "
                f"source vocabulary size {vocab_size}"
            )
        features = np.fromiter(
            chain.from_iterable(frames), float, len(frames) * vocab_size
        ).reshape(len(frames), vocab_size)
        # a row's peak is its max, NaN included (argmax finds the first NaN)
        ids = features.argmax(axis=1)
        index = np.arange(len(frames))
        marked = features[index, ids] >= _BOUNDARY_THRESHOLD
        heard = ids[marked].tolist()
        if 0 in heard:
            raise ValueError("blank channel cannot carry a word")
        ids *= marked
        visible = tuple(map(self._source_vocab.__getitem__, heard))
        target_ids = tuple(
            i for word in visible for i in self._target_ids[word]
        )
        one_hot = np.zeros((len(frames), vocab_size))
        one_hot[index, ids] = 1.0
        posterior = CtcPosterior(one_hot, self._source_vocab, blank_id=0)
        return _MockStates(visible, target_ids), posterior

    def encode_more(
        self, states: _MockStates | None, frames: Sequence[Frame], start: int
    ) -> tuple[_MockStates, CtcPosterior]:
        """Encode only ``frames[start:]``: each row depends on its frame
        alone, so the rows of earlier frames never change."""
        tail, posterior = self.encode_prefix(frames[start:])
        if states is None:
            return tail, posterior
        return (
            _MockStates(
                states.visible_words + tail.visible_words,
                states.target_ids + tail.target_ids,
            ),
            posterior,
        )

    def decoder_step(
        self, states: _MockStates, target_prefix_ids: Sequence[int]
    ) -> np.ndarray:
        self._sleep()
        expected = states.target_ids
        scores = np.zeros(len(self._target_vocab))
        position = len(target_prefix_ids)
        if position >= len(expected):
            scores[self.eos_id] = 1.0
        elif self._eos_early:
            scores[self.eos_id] = 1.0
            scores[expected[position]] = 0.5
        else:
            scores[expected[position]] = 1.0
        return scores


def load_model_config(path: str | Path) -> LexiconMockModel:
    """Build a :class:`LexiconMockModel` from a JSON config file.

    Recognized keys: ``lexicon`` (required, word -> word or word list),
    ``target_convention`` ("bpe" or "sp"), ``target_piece_len`` (a positive
    integer or null), ``eos_early`` (a boolean), ``compute_delay_ms`` (a
    non-negative number).  Unknown keys raise ``ValueError``, and so does any
    value :class:`LexiconMockModel` rejects.
    """
    data = decode_json(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict) or "lexicon" not in data:
        raise ValueError("model config must be an object with a 'lexicon'")
    unknown = set(data) - {"lexicon", "target_convention", "target_piece_len",
                           "eos_early", "compute_delay_ms"}
    if unknown:
        raise ValueError(f"unknown model config keys: {sorted(unknown)}")
    return LexiconMockModel(**data)


# ---------------------------------------------------------------------------
# Wait-k cross-attention masks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AttentionMask:
    """Boolean (n_target x n_frames) mask; each row is a frame prefix.

    ``no_boundaries`` flags a mask built without any word-end information
    (every row open).
    """

    allowed: np.ndarray
    no_boundaries: bool = False

    def __post_init__(self) -> None:
        allowed = np.asarray(self.allowed, dtype=bool)
        object.__setattr__(self, "allowed", allowed)
        if allowed.ndim != 2:
            raise ValueError("mask must be 2-D (targets x frames)")
        widths = allowed.sum(axis=1)
        if not np.array_equal(
            allowed, widths[:, None] > np.arange(allowed.shape[1])[None, :]
        ):
            raise ValueError("each mask row must be a contiguous frame prefix")
        if np.any(np.diff(widths) < 0):
            raise ValueError("mask rows must be nested (non-decreasing)")

    @property
    def row_widths(self) -> tuple[int, ...]:
        return tuple(int(w) for w in self.allowed.sum(axis=1))


def waitk_attention_mask(
    word_end_frames: Sequence[int],
    k: int,
    n_target: int,
    n_frames: int,
) -> AttentionMask:
    """Cross-attention mask realizing a wait-k schedule at training time.

    Target word ``i`` (0-based row) may attend to the frames up to and
    including the end of source word ``k + i`` (1-based); once the schedule
    runs past the last known word boundary the row opens to all frames.  With
    no boundaries at all every row is open and the mask is flagged.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if n_target <= 0 or n_frames <= 0:
        raise ValueError("n_target and n_frames must be positive")
    ends = tuple(int(e) for e in word_end_frames)
    if any(e < 0 or e >= n_frames for e in ends):
        raise ValueError("word end frames must lie inside the frame axis")
    if any(b <= a for a, b in zip(ends, ends[1:])):
        raise ValueError("word end frames must be strictly increasing")
    if not ends:
        return AttentionMask(
            np.ones((n_target, n_frames), dtype=bool), no_boundaries=True
        )
    allowed = np.zeros((n_target, n_frames), dtype=bool)
    for i in range(n_target):
        boundary = k + i - 1
        if boundary >= len(ends):
            allowed[i, :] = True
        else:
            allowed[i, : ends[boundary] + 1] = True
    return AttentionMask(allowed)


# ---------------------------------------------------------------------------
# Synthetic utterances
# ---------------------------------------------------------------------------


def build_synthetic_utterance(
    words: Sequence[str],
    per_word_ms: Sequence[int],
    *,
    frame_ms: int = 10,
    vocab: Mapping[str, int] | None = None,
    gaps_ms: Sequence[int] | None = None,
    reference: Sequence[str] = (),
    utt_id: str = "synthetic",
) -> Utterance:
    """Build a deterministic utterance with known word alignments.

    Each word becomes ``per_word_ms / frame_ms`` one-hot frames (final frame
    amplitude-marked); ``gaps_ms`` optionally inserts silence (all-zero
    frames) before the first word, between words, and after the last one
    (length ``len(words) + 1``).  ``vocab`` maps words to one-hot channels
    (>= 1; channel 0 is the blank) -- pass a model's ``source_word_index`` so
    the frames match its source vocabulary.  All durations must be positive
    multiples of ``frame_ms``.  The result carries the oracle word-end frame
    indices.
    """
    if len(words) != len(per_word_ms):
        raise ValueError("words and per_word_ms must have equal length")
    if gaps_ms is None:
        gaps_ms = (0,) * (len(words) + 1)
    if len(gaps_ms) != len(words) + 1:
        raise ValueError("gaps_ms must have len(words) + 1 entries")
    if vocab is None:
        vocab = {}
        for word in words:
            vocab.setdefault(word, len(vocab) + 1)
    if vocab and min(vocab.values()) < 1:
        raise ValueError("vocab channels start at 1 (0 is the blank)")
    dim = max(vocab.values(), default=0) + 1

    def check_multiple(duration: int, what: str) -> int:
        if duration % frame_ms:
            raise ValueError(
                f"{what} of {duration} ms is not a multiple of the "
                f"{frame_ms} ms frame duration"
            )
        return duration // frame_ms

    frames: list[Frame] = []
    ends: list[int] = []
    silence_row = (0.0,) * dim

    def add_silence(duration: int) -> None:
        if duration < 0:
            raise ValueError("silence durations must be non-negative")
        frames.extend(
            Frame(silence_row)
            for _ in range(check_multiple(duration, "a silence gap"))
        )

    add_silence(gaps_ms[0])
    for word, duration, gap in zip(words, per_word_ms, gaps_ms[1:]):
        if duration <= 0:
            raise ValueError("word durations must be positive")
        n = check_multiple(duration, f"word {word!r} duration")
        if word not in vocab:
            raise ValueError(f"word {word!r} missing from the vocab mapping")
        channel = vocab[word]
        interior = tuple(
            1.0 if j == channel else 0.0 for j in range(dim)
        )
        final = tuple(
            BOUNDARY_GAIN if j == channel else 0.0 for j in range(dim)
        )
        frames.extend([Frame(interior)] * (n - 1))
        frames.append(Frame(final))
        ends.append(len(frames) - 1)
        add_silence(gap)

    return Utterance(
        id=utt_id,
        frames=tuple(frames),
        frame_ms=frame_ms,
        transcript=tuple(words),
        reference=tuple(reference),
        word_end_frames=tuple(ends),
    )


def synthetic_corpus(
    model: LexiconMockModel,
    *,
    n_utts: int,
    rng: random.Random,
    min_words: int = 1,
    max_words: int = 12,
    per_word_ms: int = 280,
    frame_ms: int = 10,
    id_prefix: str = "utt",
) -> list[Utterance]:
    """Random utterances over a mock model's vocabulary, with references."""
    vocab = model.source_word_index
    source_words = sorted(vocab)
    corpus = []
    for n in range(n_utts):
        words = [
            rng.choice(source_words)
            for _ in range(rng.randint(min_words, max_words))
        ]
        corpus.append(
            build_synthetic_utterance(
                words,
                [per_word_ms] * len(words),
                frame_ms=frame_ms,
                vocab=vocab,
                reference=model.translate_words(words),
                utt_id=f"{id_prefix}-{n:04d}",
            )
        )
    return corpus

