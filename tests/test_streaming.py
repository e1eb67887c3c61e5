"""Linear-time streaming: incremental encode, collapse and word tracking.

Each READ hands the model only the frames it added (``encode_more``), and
detection and target word tracking resume where they stopped.  These tests
pin that the incremental paths give exactly what re-doing everything from the
start gives, and that every frame is encoded once.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import simulharness.core as core_module
import simulharness.detection as detection_module
from helpers import (
    EXPANDING_LEXICON,
    TINY_LEXICON,
    aligned_utterance,
    make_model,
)
from simulharness import (
    AdaptiveDetector,
    Convention,
    CtcPosterior,
    ModelInterface,
    PolicyConfig,
    SimulEngine,
    adaptive_word_count,
    build_synthetic_utterance,
    ctc_greedy_collapse,
    default_max_target_words,
    run_simultaneous,
    segment_stream,
)


class _ReencodeOnly(ModelInterface):
    """The same mock seen only through ``encode_prefix``: the default
    ``encode_more`` re-encodes the whole prefix on every READ."""

    def __init__(self, inner) -> None:
        self._inner = inner

    @property
    def target_vocab(self):
        return self._inner.target_vocab

    @property
    def eos_id(self):
        return self._inner.eos_id

    @property
    def target_convention(self):
        return self._inner.target_convention

    def encode_prefix(self, frames):
        return self._inner.encode_prefix(frames)

    def decoder_step(self, states, target_prefix_ids):
        return self._inner.decoder_step(states, target_prefix_ids)


def _run_engine(model, utt, config):
    """Drive an engine chunk by chunk; keep what detection saw per READ."""
    engine = SimulEngine(model, config, frame_ms=10)
    detected = []
    for chunk in segment_stream(utt, config.step_ms):
        if engine.done:
            break
        engine.push_chunk(chunk)
        detected.append(engine.state.detected)
    if not engine.done:
        engine.finish_source()
    hypothesis, events = engine.result()
    return (
        hypothesis.tokens,
        hypothesis.words,
        hypothesis.ideal_delays_ms,
        hypothesis.truncated,
        detected,
        [(e.kind, e.payload, e.ideal_ms) for e in events],
    )


@st.composite
def _streams(draw):
    lexicon = draw(st.sampled_from([TINY_LEXICON, EXPANDING_LEXICON]))
    words = draw(st.lists(st.sampled_from(sorted(lexicon)), max_size=7))
    n = len(words)
    per_word = draw(st.lists(st.integers(1, 30), min_size=n, max_size=n))
    gaps = draw(st.lists(st.integers(0, 20), min_size=n + 1, max_size=n + 1))
    for i in range(1, n):  # CTC would merge a one-frame repeat
        if words[i] == words[i - 1] and per_word[i] == 1 and not gaps[i]:
            per_word[i] = 2
    return {
        "lexicon": lexicon,
        "words": words,
        "per_word_ms": [10 * d for d in per_word],
        "gaps_ms": [10 * g for g in gaps],
        "step_ms": 10 * draw(st.integers(1, 40)),
        "k": draw(st.integers(1, 4)),
        "detection": draw(st.sampled_from(["fixed", "adaptive"])),
        "target_convention": draw(st.sampled_from(list(Convention))),
        "source_convention": draw(st.sampled_from(list(Convention))),
        "piece_len": draw(st.sampled_from([None, 1, 2, 3])),
        "eos_early": draw(st.booleans()),
    }


@given(_streams())
def test_incremental_engine_equals_reencoding_every_read(case):
    model = make_model(
        case["lexicon"],
        target_convention=case["target_convention"],
        target_piece_len=case["piece_len"],
        eos_early=case["eos_early"],
    )
    utt = build_synthetic_utterance(
        case["words"],
        case["per_word_ms"],
        vocab=model.source_word_index,
        gaps_ms=case["gaps_ms"],
        reference=model.translate_words(case["words"]),
    )
    config = PolicyConfig(
        k=case["k"],
        detection=case["detection"],
        step_ms=case["step_ms"],
        max_target_words=default_max_target_words(utt),
        source_convention=case["source_convention"],
    )
    incremental = _run_engine(model, utt, config)
    reencoded = _run_engine(_ReencodeOnly(model), utt, config)
    assert incremental == reencoded


@pytest.mark.parametrize("detection", ["fixed", "adaptive"])
def test_every_frame_is_encoded_exactly_once(monkeypatch, detection):
    model = make_model()
    utt = aligned_utterance(
        model, ["da", "esel", "geht", "haus", "ja"],
        gaps_ms=[50, 0, 120, 0, 30, 200],
    )
    encode = model.encode_prefix
    received: list[int] = []

    def counting(frames):
        received.append(len(frames))
        return encode(frames)

    monkeypatch.setattr(model, "encode_prefix", counting)
    run_simultaneous(model, utt, PolicyConfig(k=2, detection=detection))
    assert sum(received) == utt.n_frames
    assert len(received) == len(segment_stream(utt, 280))


@given(split=st.integers(0, 84))
def test_mock_encode_more_extends_the_shorter_encoding(split):
    model = make_model()
    utt = aligned_utterance(model, ["da", "esel", "geht"])
    frames = list(utt.frames)
    full_states, full = model.encode_prefix(frames)
    head_states, _ = model.encode_more(None, frames[:split], 0)
    states, tail = model.encode_more(head_states, frames, split)
    assert states == full_states
    assert np.array_equal(tail.scores, full.scores[split:])


# ---------------------------------------------------------------------------
# Detection over a posterior fed a tail at a time
# ---------------------------------------------------------------------------

_VOCAB = ("<b>", "a", "b@@", "▁c", "d", "▁")


def _posterior(path) -> CtcPosterior:
    scores = np.zeros((len(path), len(_VOCAB)))
    scores[np.arange(len(path)), path] = 1.0
    return CtcPosterior(scores, _VOCAB)


@given(
    convention=st.sampled_from(list(Convention)),
    steps=st.lists(
        st.tuples(
            st.integers(0, 4),
            st.lists(st.integers(0, len(_VOCAB) - 1), max_size=6),
        ),
        max_size=12,
    ),
)
def test_collapsing_in_slices_equals_collapsing_the_whole(convention, steps):
    """Each step rewrites up to four trailing rows (as a model with
    lookahead would) and appends more; the streamed collapse and word count
    always equal those of the whole path as it now stands."""
    detector = AdaptiveDetector(convention)
    path: list[int] = []
    for rewind, rows in steps:
        first = max(0, len(path) - rewind)
        path[first:] = rows
        count = detector.update(_posterior(rows), first)
        whole = ctc_greedy_collapse(_posterior(path), convention)
        assert detector.collapsed == whole
        assert count == adaptive_word_count(whole, convention).word_count


def test_detector_argmaxes_each_row_once(monkeypatch):
    """A long posterior fed a chunk at a time passes each of its rows
    through ``numpy.argmax`` exactly once."""
    rows_seen = []
    argmax = np.argmax

    def counting(scores, *args, **kwargs):
        rows_seen.append(np.shape(scores)[0])
        return argmax(scores, *args, **kwargs)

    rng = np.random.default_rng(0)
    path = rng.choice([0, 0, 1, 2, 3, 4, 5], size=3000).tolist()
    detector = AdaptiveDetector(Convention.BPE_SUFFIX)
    monkeypatch.setattr(np, "argmax", counting)
    for first in range(0, len(path), 28):
        count = detector.update(_posterior(path[first:first + 28]), first)
    monkeypatch.undo()
    assert sum(rows_seen) == len(path)
    whole = ctc_greedy_collapse(_posterior(path))
    oracle = adaptive_word_count(whole, Convention.BPE_SUFFIX)
    assert count == oracle.word_count
    assert count > 500


def test_detector_rejects_a_posterior_that_skips_frames():
    detector = AdaptiveDetector(Convention.BPE_SUFFIX)
    detector.update(_posterior([1, 0]), 0)
    with pytest.raises(ValueError, match="skip frames"):
        detector.update(_posterior([1]), 3)


#: source words that are subword pieces under both conventions, so a
#: detector's words span one to three runs whichever convention it reads
_PIECE_LEXICON = {
    "▁ab": "one", "▁c@@": "two", "de": "three",
    "f@@": "four", "▁gh": "five", "i": "six",
}


@pytest.mark.parametrize("reencode", [False, True],
                         ids=["incremental", "reencode"])
@pytest.mark.parametrize("convention", list(Convention))
def test_adaptive_detector_never_calls_word_spans(
    monkeypatch, convention, reencode
):
    """The detector groups source runs through its own ``WordBuilder``, and
    each READ's count equals ``adaptive_word_count`` over the whole prefix."""
    model = make_model(_PIECE_LEXICON)
    rng = np.random.default_rng(0)
    words = rng.choice(sorted(_PIECE_LEXICON), size=60).tolist()
    utt = build_synthetic_utterance(
        words,
        (10 * rng.integers(1, 30, size=60)).tolist(),
        vocab=model.source_word_index,
        gaps_ms=(10 * rng.choice([0, 0, 1, 7, 40], size=61)).tolist(),
    )
    calls = []
    for module in (core_module, detection_module):
        def counting(*args, _word_spans=module.word_spans, **kwargs):
            calls.append(args)
            return _word_spans(*args, **kwargs)
        monkeypatch.setattr(module, "word_spans", counting)
    config = PolicyConfig(k=10**6, detection="adaptive", step_ms=40,
                          source_convention=convention)
    engine = SimulEngine(_ReencodeOnly(model) if reencode else model,
                         config, frame_ms=utt.frame_ms)
    counts = []
    for chunk in segment_stream(utt, config.step_ms):
        engine.push_chunk(chunk)
        counts.append((engine.state.received_ms // utt.frame_ms,
                       engine.state.detected))
    monkeypatch.undo()
    assert calls == []
    _, whole = model.encode_prefix(utt.frames)
    for n_frames, count in counts:
        prefix = CtcPosterior(whole.scores[:n_frames], whole.vocab)
        oracle = adaptive_word_count(
            ctc_greedy_collapse(prefix, convention), convention
        )
        assert count == oracle.word_count
    assert count > 20
