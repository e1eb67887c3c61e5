from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import bpe, sp
from simulharness import (
    Convention,
    CtcPosterior,
    adaptive_word_count,
    ctc_greedy_collapse,
    fixed_word_count,
)

# ---------------------------------------------------------------------------
# Fixed detection
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "elapsed_ms, expected_count, expected_ends",
    [
        (0, 0, ()),
        (279, 0, ()),
        (280, 1, (27,)),       # word 1 ends at instant 280 ms -> frame 27
        (300, 1, (27,)),
        (559, 1, (27,)),
        (560, 2, (27, 55)),
        (840, 3, (27, 55, 83)),
    ],
)
def test_fixed_word_count_default_clock(
    elapsed_ms, expected_count, expected_ends
):
    result = fixed_word_count(elapsed_ms)
    assert result.word_count == expected_count
    assert result.word_end_frames == expected_ends


def test_fixed_word_count_non_divisible_word_duration():
    # word ends don't align to frames: the end frame is the one containing
    # the instant i * avg_word_ms
    result = fixed_word_count(500, avg_word_ms=250, frame_ms=40)
    assert result.word_count == 2
    # instant 250 ms falls inside frame 6 (240-280); 500 ms inside frame 12
    assert result.word_end_frames == (6, 12)


@given(
    elapsed=st.integers(0, 10_000),
    extra=st.integers(0, 5_000),
    avg=st.integers(1, 700),
    frame=st.integers(1, 50),
)
def test_fixed_word_count_properties(elapsed, extra, avg, frame):
    if avg < frame:
        with pytest.raises(ValueError, match="at least one frame"):
            fixed_word_count(elapsed, avg, frame_ms=frame)
        return
    result = fixed_word_count(elapsed, avg, frame_ms=frame)
    assert result.word_count == elapsed // avg
    ends = result.word_end_frames
    assert all(b > a for a, b in zip(ends, ends[1:]))
    for i, end in enumerate(ends, start=1):
        # frame `end` must contain the instant i * avg
        assert end * frame < i * avg <= (end + 1) * frame
    # elapsed time never un-detects a word
    later = fixed_word_count(elapsed + extra, avg, frame_ms=frame)
    assert later.word_count >= result.word_count
    assert later.word_end_frames[: len(ends)] == ends


def test_fixed_word_count_validates_inputs():
    with pytest.raises(ValueError, match="avg_word_ms"):
        fixed_word_count(100, 0)
    with pytest.raises(ValueError, match="frame_ms"):
        fixed_word_count(100, 280, frame_ms=0)
    with pytest.raises(ValueError, match="elapsed_ms"):
        fixed_word_count(-1)


# ---------------------------------------------------------------------------
# CTC greedy collapse
# ---------------------------------------------------------------------------

_VOCAB = ("<blank>", "A", "B")


def _posterior_from_path(path: list[int]) -> CtcPosterior:
    scores = np.zeros((len(path), len(_VOCAB)))
    for t, index in enumerate(path):
        scores[t, index] = 1.0
    return CtcPosterior(scores, _VOCAB)


@pytest.mark.parametrize(
    "path, expected",
    [
        ([], []),
        ([0, 0, 0], []),
        ([1], [("A", 0)]),
        ([1, 1, 1], [("A", 2)]),                    # a run merges
        ([1, 0, 1], [("A", 0), ("A", 2)]),          # blank splits a repeat
        ([1, 2], [("A", 0), ("B", 1)]),             # change of symbol splits
        ([0, 1, 1, 0, 2, 2, 0], [("A", 2), ("B", 5)]),
    ],
)
def test_ctc_greedy_collapse_hand_cases(path, expected):
    collapsed = ctc_greedy_collapse(_posterior_from_path(path))
    assert [(t.surface, f) for t, f in collapsed] == expected


def test_ctc_greedy_collapse_breaks_ties_to_lowest_index():
    scores = np.array([[0.5, 0.5, 0.2], [0.0, 0.4, 0.4]])
    collapsed = ctc_greedy_collapse(CtcPosterior(scores, _VOCAB))
    # frame 0 ties blank/A -> blank wins; frame 1 ties A/B -> A wins
    assert [(t.surface, f) for t, f in collapsed] == [("A", 1)]


def test_ctc_greedy_collapse_carries_convention():
    collapsed = ctc_greedy_collapse(
        _posterior_from_path([1]), Convention.SP_PREFIX
    )
    assert collapsed[0][0].convention is Convention.SP_PREFIX


@given(
    runs=st.lists(
        st.tuples(st.sampled_from([1, 2]), st.integers(1, 3),
                  st.integers(0, 2)),
        min_size=0,
        max_size=8,
    ),
    leading_blanks=st.integers(0, 2),
)
def test_ctc_greedy_collapse_recovers_planted_runs(runs, leading_blanks):
    """Planting symbol runs separated by blanks must collapse losslessly."""
    path: list[int] = [0] * leading_blanks
    expected: list[tuple[str, int]] = []
    previous_symbol: int | None = None
    for symbol, width, blank_gap in runs:
        if symbol == previous_symbol and blank_gap == 0:
            blank_gap = 1  # adjacent identical runs would merge; keep apart
        path.extend([0] * blank_gap)
        path.extend([symbol] * width)
        expected.append((_VOCAB[symbol], len(path) - 1))
        previous_symbol = symbol
    collapsed = ctc_greedy_collapse(_posterior_from_path(path))
    assert [(t.surface, f) for t, f in collapsed] == expected


def test_ctc_posterior_validates_shape():
    with pytest.raises(ValueError, match="2-D"):
        CtcPosterior(np.zeros(3), _VOCAB)
    with pytest.raises(ValueError, match="vocab size"):
        CtcPosterior(np.zeros((2, 2)), _VOCAB)
    with pytest.raises(ValueError, match="blank_id"):
        CtcPosterior(np.zeros((2, 3)), _VOCAB, blank_id=3)


# ---------------------------------------------------------------------------
# Adaptive word counting
# ---------------------------------------------------------------------------


def test_adaptive_word_count_bpe_excludes_trailing_partial():
    collapsed = [(bpe("he@@"), 3), (bpe("llo"), 7), (bpe("wor@@"), 9)]
    result = adaptive_word_count(collapsed, Convention.BPE_SUFFIX)
    assert result.word_count == 1
    assert result.word_end_frames == (7,)


def test_adaptive_word_count_sp_needs_next_word_start():
    collapsed = [(sp("▁he"), 3), (sp("llo"), 7), (sp("▁wor"), 9)]
    result = adaptive_word_count(collapsed, Convention.SP_PREFIX)
    assert result.word_count == 1
    assert result.word_end_frames == (7,)
    # without the next word's opener, nothing is complete yet
    result = adaptive_word_count(collapsed[:2], Convention.SP_PREFIX)
    assert result.word_count == 0


def test_adaptive_word_count_empty():
    result = adaptive_word_count([], Convention.BPE_SUFFIX)
    assert result.word_count == 0
    assert result.word_end_frames == ()


#: per convention: blank, a word's opening piece, and two other pieces
_PIECE_VOCABS = {
    Convention.BPE_SUFFIX: ("<blank>", "a@@", "b", "c"),
    Convention.SP_PREFIX: ("<blank>", "▁a", "b", "▁c"),
}


@given(
    convention=st.sampled_from(list(Convention)),
    path=st.lists(st.integers(0, 3), max_size=60),
)
def test_adaptive_word_count_end_frames_lie_inside_the_posterior(
    convention, path
):
    """Over any drawn collapse, the end frames are non-negative ``int``s,
    strictly increasing and inside the posterior, as fixed detection's are
    (``test_fixed_word_count_properties``)."""
    vocab = _PIECE_VOCABS[convention]
    scores = np.zeros((len(path), len(vocab)))
    for t, index in enumerate(path):
        scores[t, index] = 1.0
    collapsed = ctc_greedy_collapse(CtcPosterior(scores, vocab), convention)
    result = adaptive_word_count(collapsed, convention)
    ends = result.word_end_frames
    assert all(type(end) is int and 0 <= end < len(path) for end in ends)
    assert all(b > a for a, b in zip(ends, ends[1:]))
    assert result.word_count == len(ends)
    # each word ends where one of its collapsed tokens does
    assert set(ends) <= {frame for _, frame in collapsed}


@given(
    n_words=st.integers(0, 10),
    blanks_after=st.integers(0, 50),
)
def test_appended_blanks_freeze_adaptive_but_not_fixed(n_words, blanks_after):
    """The qualitative contrast between the two detectors.

    Extending the signal with pure silence adds no adaptive words, while the
    fixed clock keeps counting.
    """
    frames_per_word = 28  # 280 ms words at 10 ms frames
    path: list[int] = []
    for _ in range(n_words):
        path.extend([0] * (frames_per_word - 1) + [1])
    base = adaptive_word_count(
        ctc_greedy_collapse(_posterior_from_path(path)),
        Convention.BPE_SUFFIX,
    )
    extended = adaptive_word_count(
        ctc_greedy_collapse(_posterior_from_path(path + [0] * blanks_after)),
        Convention.BPE_SUFFIX,
    )
    assert base.word_count == n_words
    assert extended == base

    elapsed = len(path) * 10  # a multiple of 280
    fixed_base = fixed_word_count(elapsed)
    fixed_extended = fixed_word_count(elapsed + blanks_after * 10)
    assert fixed_base.word_count == n_words
    assert fixed_extended.word_count == n_words + (blanks_after * 10) // 280
