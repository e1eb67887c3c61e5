"""Per-READ detection on long streams: independent oracles and work counts.

A detector that extends its result READ by READ can go wrong only once the
stream is long enough for the tail it extends to matter, so these streams run
to hundreds of words.  Every READ's detection is compared with a result
recomputed from scratch by a different path, and the work detection does is
counted, not timed.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_model
from simulharness import (
    Convention,
    CtcPosterior,
    DetectionResult,
    PolicyConfig,
    SimulEngine,
    adaptive_word_count,
    build_synthetic_utterance,
    ctc_greedy_collapse,
    fixed_word_count,
    segment_stream,
)
from simulharness.detection import AdaptiveDetector

#: source "words" that are subword pieces under both conventions: "@@" and
#: "▁" mark word boundaries, so words span one to three CTC tokens
PIECE_LEXICON = {
    "▁ab": "one",
    "▁c@@": "two",
    "de": "three",
    "f@@": "four",
    "▁gh": "five",
    "i": "six",
}


def _read_by_read(model, utterance, config):
    """Drive an engine over ``utterance``; yield its state after each READ."""
    engine = SimulEngine(model, config, frame_ms=utterance.frame_ms)
    for chunk in segment_stream(utterance, config.step_ms):
        if engine.done:
            break
        engine.push_chunk(chunk)
        yield engine.state


def _fixed_oracle(elapsed_ms, avg_word_ms, frame_ms):
    """Word i ends in the frame holding instant i * avg_word_ms:
    ceil(i * avg_word_ms / frame_ms) - 1, as a negated floor division."""
    count = elapsed_ms // avg_word_ms
    return DetectionResult(count, tuple(
        -(-i * avg_word_ms // frame_ms) - 1 for i in range(1, count + 1)
    ))


@settings(max_examples=25)
@given(
    frame_ms=st.sampled_from([10, 20, 30, 40]),
    avg_frames=st.integers(5, 15),
    avg_offset=st.integers(0, 39),
    n_words=st.integers(0, 300),
    chunk_frames=st.integers(1, 40),
)
def test_fixed_detection_at_every_read_equals_the_closed_form(
    frame_ms, avg_frames, avg_offset, n_words, chunk_frames
):
    # mostly not a multiple of frame_ms
    avg_word_ms = avg_frames * frame_ms + avg_offset % frame_ms
    model = make_model()
    words = [sorted(model.source_word_index)[i % 6] for i in range(n_words)]
    utterance = build_synthetic_utterance(
        words, [10 * frame_ms] * n_words, frame_ms=frame_ms,
        vocab=model.source_word_index,
    )
    config = PolicyConfig(
        k=10**6, step_ms=chunk_frames * frame_ms, avg_word_ms=avg_word_ms,
    )
    reads = 0
    for state in _read_by_read(model, utterance, config):
        reads += 1
        oracle = _fixed_oracle(state.received_ms, avg_word_ms, frame_ms)
        assert state.detected == oracle.word_count
        assert fixed_word_count(
            state.received_ms, avg_word_ms, frame_ms=frame_ms
        ) == oracle
    assert reads == len(segment_stream(utterance, config.step_ms))


@pytest.mark.parametrize("setting", [
    {"avg_word_ms": 250.0}, {"avg_word_ms": True},
    {"frame_ms": 40.0}, {"frame_ms": True},
])
def test_fixed_word_count_rejects_settings_that_are_not_int(setting):
    # the end frames are integer arithmetic; a float must not reach range()
    kwargs = {"avg_word_ms": 250, "frame_ms": 40} | setting
    with pytest.raises(ValueError, match="must be int"):
        fixed_word_count(500, **kwargs)


def _stream_with_silences(model, n_words, seed):
    rng = random.Random(seed)
    words = [rng.choice(sorted(model.source_word_index))
             for _ in range(n_words)]
    return build_synthetic_utterance(
        words,
        [10 * rng.randint(1, 30) for _ in words],
        vocab=model.source_word_index,
        gaps_ms=[10 * rng.choice([0, 0, 0, 1, 7, 40])
                 for _ in range(n_words + 1)],
    )


@pytest.mark.parametrize("convention", list(Convention))
@pytest.mark.parametrize("step_ms", [40, 280])
def test_adaptive_detection_at_every_read_equals_the_whole_prefix(
    convention, step_ms
):
    model = make_model(PIECE_LEXICON)
    utterance = _stream_with_silences(model, 320, seed=step_ms)
    _, whole = model.encode_prefix(utterance.frames)
    config = PolicyConfig(
        k=10**6, detection="adaptive", step_ms=step_ms,
        source_convention=convention,
    )
    reads = 0
    for state in _read_by_read(model, utterance, config):
        reads += 1
        n_frames = state.received_ms // utterance.frame_ms
        prefix = CtcPosterior(whole.scores[:n_frames], whole.vocab)
        oracle = adaptive_word_count(
            ctc_greedy_collapse(prefix, convention), convention
        )
        assert state.detected == oracle.word_count
    assert reads == len(segment_stream(utterance, step_ms))
    assert state.detected > 150


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("convention", list(Convention))
def test_detector_with_lookahead_on_a_long_stream_equals_the_whole_path(
    seed, convention
):
    """Up to four trailing rows are rewritten at each of 400 updates, as a
    model with lookahead would, so runs and words are cut at every depth of
    the tail the detector keeps."""
    vocab = ("<b>", "a", "b@@", "▁c", "d", "▁")
    rng = random.Random(seed)
    detector = AdaptiveDetector(convention)
    path: list[int] = []
    for _ in range(400):
        first = max(0, len(path) - rng.randint(0, 4))
        rows = [rng.choice([0, 0, 1, 2, 3, 4, 5])
                for _ in range(rng.randint(0, 6))]
        path[first:] = rows
        scores = np.zeros((len(rows), len(vocab)))
        scores[np.arange(len(rows)), rows] = 1.0
        count = detector.update(CtcPosterior(scores, vocab), first)
        whole = np.zeros((len(path), len(vocab)))
        whole[np.arange(len(path)), path] = 1.0
        collapsed = ctc_greedy_collapse(CtcPosterior(whole, vocab), convention)
        assert detector.collapsed == collapsed
        assert count == adaptive_word_count(collapsed, convention).word_count
    assert count > 50


@pytest.mark.parametrize("detection", ["fixed", "adaptive"])
def test_detection_checks_each_end_frame_about_once(monkeypatch, detection):
    """Over a 400-word stream read one word at a time, the end frames that
    pass through DetectionResult's checks grow with the words, not with
    words x READs (n^2 / 2 = 80,000 if every READ re-checked them all).
    Adaptive detection builds no DetectionResult at all."""
    checked = []
    check = DetectionResult.__post_init__

    def counting(self):
        check(self)
        checked.append(len(self.word_end_frames))

    model = make_model()
    words = [sorted(model.source_word_index)[i % 6] for i in range(400)]
    utterance = build_synthetic_utterance(
        words, [280] * 400, vocab=model.source_word_index,
    )
    config = PolicyConfig(k=3, detection=detection, max_target_words=400)
    monkeypatch.setattr(DetectionResult, "__post_init__", counting)
    reads = 0
    for state in _read_by_read(model, utterance, config):
        reads += 1
    assert reads == 400 and state.detected == 400
    if detection == "adaptive":
        assert checked == []
    else:
        assert sum(checked) <= 2 * 400, sum(checked)
