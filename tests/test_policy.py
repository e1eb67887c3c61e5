from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    EXPANDING_LEXICON,
    DecoderFailsOnHaus,
    TINY_LEXICON,
    aligned_utterance,
    expected_waitk_delays,
    make_model,
    oracle_offline,
)
from simulharness import (
    ActionKind,
    Convention,
    CtcPosterior,
    DetectionKind,
    Event,
    LexiconMockModel,
    ModelInterface,
    PolicyConfig,
    SimulEngine,
    SimulRunError,
    SimulState,
    decide,
    read_event_log,
    run_simultaneous,
    segment_stream,
    write_event_log,
)

# ---------------------------------------------------------------------------
# PolicyConfig
# ---------------------------------------------------------------------------


def test_policy_config_coerces_strings_and_validates():
    config = PolicyConfig(detection="adaptive", source_convention="sp")
    assert config.detection is DetectionKind.ADAPTIVE
    assert config.source_convention is Convention.SP_PREFIX
    with pytest.raises(ValueError, match="k must be"):
        PolicyConfig(k=0)
    with pytest.raises(ValueError, match="step_ms"):
        PolicyConfig(step_ms=0)
    with pytest.raises(ValueError, match="max_target_words"):
        PolicyConfig(max_target_words=0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("k", 3.5), ("k", True), ("step_ms", 280.0), ("avg_word_ms", "280"),
        ("max_target_words", 1.5), ("max_target_words", False),
        ("force_finish", "no"), ("force_finish", 1),
        ("avoid_eos_while_reading", 0),
        ("detection", 5), ("detection", None), ("source_convention", 3),
    ],
)
def test_policy_config_rejects_settings_of_the_wrong_type(field, value):
    with pytest.raises(ValueError, match=f"{field} must be"):
        PolicyConfig(**{field: value})


def test_policy_config_avoid_eos_resolution():
    # unset: on for adaptive detection, off for fixed
    assert PolicyConfig(detection="fixed").effective_avoid_eos is False
    assert PolicyConfig(detection="adaptive").effective_avoid_eos is True
    # explicit settings win either way
    assert PolicyConfig(
        detection="fixed", avoid_eos_while_reading=True
    ).effective_avoid_eos is True
    assert PolicyConfig(
        detection="adaptive", avoid_eos_while_reading=False
    ).effective_avoid_eos is False


def test_policy_config_dict_round_trip():
    config = PolicyConfig(k=5, detection="adaptive", step_ms=140,
                          avoid_eos_while_reading=False)
    assert PolicyConfig.from_dict(config.to_dict()) == config
    with pytest.raises(ValueError, match="unknown policy fields"):
        PolicyConfig.from_dict({"k": 3, "oops": 1})


# ---------------------------------------------------------------------------
# The decision rule
# ---------------------------------------------------------------------------


def _state(detected: int, emitted: int, finished: bool = False) -> SimulState:
    state = SimulState()
    state.detected = detected
    state.emitted_words = emitted
    state.source_finished = finished
    return state


@given(
    detected=st.integers(0, 30),
    emitted=st.integers(0, 30),
    k=st.integers(1, 10),
    finished=st.booleans(),
)
def test_decide_truth_table(detected, emitted, k, finished):
    config = PolicyConfig(k=k)
    action = decide(_state(detected, emitted, finished), config)
    if finished or detected >= k + emitted:
        assert action is ActionKind.WRITE
    else:
        assert action is ActionKind.READ


# ---------------------------------------------------------------------------
# Wait-k schedule on aligned synthetics (the closed-form oracle)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("detection", ["fixed", "adaptive"])
@pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("n_words", [1, 3, 6, 10])
def test_waitk_delays_match_closed_form(detection, k, n_words):
    model = make_model()
    words = [model.source_words[i % 6] for i in range(n_words)]
    utt = aligned_utterance(model, words)
    config = PolicyConfig(k=k, detection=detection)
    hyp, _ = run_simultaneous(model, utt, config)
    assert list(hyp.words) == model.translate_words(words)
    assert list(hyp.ideal_delays_ms) == expected_waitk_delays(
        n_words, len(hyp.words), k
    )
    assert hyp.truncated is False


def test_waitk_delays_with_expanding_lexicon():
    """One-to-many entries: the schedule counts emitted target words."""
    model = make_model(EXPANDING_LEXICON)
    words = ["da", "geht", "esel", "haus"]  # 4 source -> 6 target words
    utt = aligned_utterance(model, words)
    hyp, _ = run_simultaneous(model, utt, PolicyConfig(k=2))
    assert list(hyp.words) == model.translate_words(words)
    assert list(hyp.ideal_delays_ms) == expected_waitk_delays(4, 6, k=2)


@pytest.mark.parametrize("k", [2, 3, 5])
def test_waitk_sp_targets_follow_the_same_schedule(k):
    """SentencePiece targets close words one opener late, yet the emission
    schedule is identical because the next source word is already covered."""
    model = make_model(target_convention=Convention.SP_PREFIX,
                       target_piece_len=3)
    words = ["da", "esel", "geht", "haus", "hin", "ja"]
    utt = aligned_utterance(model, words)
    hyp, _ = run_simultaneous(model, utt, PolicyConfig(k=k))
    assert list(hyp.words) == model.translate_words(words)
    assert list(hyp.ideal_delays_ms) == expected_waitk_delays(6, 6, k)


def test_fixed_and_adaptive_agree_on_clean_synthetics():
    model = make_model(target_piece_len=2)
    words = ["ja", "hin", "haus", "geht", "esel", "da", "da"]
    utt = aligned_utterance(model, words)
    fixed_hyp, _ = run_simultaneous(
        model, utt, PolicyConfig(k=3, detection="fixed")
    )
    adaptive_hyp, _ = run_simultaneous(
        model, utt, PolicyConfig(k=3, detection="adaptive")
    )
    assert fixed_hyp.tokens == adaptive_hyp.tokens
    assert fixed_hyp.ideal_delays_ms == adaptive_hyp.ideal_delays_ms


def test_wall_delays_dominate_ideal_delays():
    model = make_model(compute_delay_ms=2.0)
    utt = aligned_utterance(model, ["da", "esel", "geht", "haus"])
    hyp, _ = run_simultaneous(model, utt, PolicyConfig(k=2))
    assert all(
        wall > ideal
        for wall, ideal in zip(hyp.wall_delays_ms, hyp.ideal_delays_ms)
    )
    assert list(hyp.wall_delays_ms) == sorted(hyp.wall_delays_ms)


def test_adaptive_ignores_trailing_silence_fixed_does_not():
    model = make_model()
    words = ["da", "esel", "geht", "haus", "hin", "ja"]
    silent_tail = [0] * len(words) + [560]  # 2 extra word-lengths of silence
    utt = aligned_utterance(model, words, gaps_ms=silent_tail)
    adaptive_hyp, _ = run_simultaneous(
        model, utt, PolicyConfig(k=3, detection="adaptive")
    )
    fixed_hyp, _ = run_simultaneous(
        model, utt, PolicyConfig(k=3, detection="fixed")
    )
    # the fixed clock counts the silence as two phantom words, firing the
    # 5th and 6th target words two chunks earlier than intended
    assert list(adaptive_hyp.words) == list(fixed_hyp.words)
    assert adaptive_hyp.ideal_delays_ms[4] > fixed_hyp.ideal_delays_ms[4]


# ---------------------------------------------------------------------------
# End-of-sequence handling while the source is still streaming
# ---------------------------------------------------------------------------


def test_eos_pressure_with_substitution_keeps_streaming():
    """Masking a premature EOS lets the runner-up token through, so words
    keep flowing on schedule; the tail past the last streamed WRITE is
    still lost when the source ends (EOS is then legitimate)."""
    model = make_model(eos_early=True)
    words = ["da", "esel", "geht", "haus", "hin", "ja"]
    utt = aligned_utterance(model, words)
    config = PolicyConfig(k=3, force_finish=True,
                          avoid_eos_while_reading=True)
    hyp, _ = run_simultaneous(model, utt, config)
    streamed = len(words) - config.k + 1  # words due before the source ends
    assert list(hyp.words) == model.translate_words(words)[:streamed]
    assert list(hyp.ideal_delays_ms) == expected_waitk_delays(
        6, streamed, k=3
    )


def test_eos_pressure_with_forced_read_stalls_until_the_end():
    """Abandoning the WRITE instead: every attempt re-reads, nothing is
    emitted while streaming, and the first post-source EOS ends it all."""
    model = make_model(eos_early=True)
    utt = aligned_utterance(model, ["da", "esel", "geht", "haus"])
    config = PolicyConfig(k=2, force_finish=True,
                          avoid_eos_while_reading=False)
    hyp, events = run_simultaneous(model, utt, config)
    assert hyp.words == ()
    assert all(e.kind is ActionKind.READ for e in events)


class _ScoresOnlyEos(LexiconMockModel):
    """The tiny mock, except that its decoder scores every token but EOS
    as ``-inf``: a premature EOS has no finite runner-up."""

    def __init__(self) -> None:
        super().__init__(TINY_LEXICON)

    def decoder_step(self, states, target_prefix_ids):
        scores = np.full(len(self.target_vocab), -np.inf)
        scores[self.eos_id] = 0.0
        return scores


def test_eos_without_a_finite_alternative_forces_a_read():
    """Substitution has nothing to substitute, so every premature EOS is
    a READ; the first EOS after the source ends is accepted, and no
    ``-inf`` token is ever emitted."""
    model = _ScoresOnlyEos()
    utt = aligned_utterance(model, ["da", "esel", "geht", "haus"])
    config = PolicyConfig(k=1, detection="adaptive")
    assert config.effective_avoid_eos
    hyp, events = run_simultaneous(model, utt, config)
    assert hyp.words == () and hyp.tokens == ()
    assert len(events) == len(segment_stream(utt, config.step_ms))
    assert all(e.kind is ActionKind.READ for e in events)


def test_eos_accepted_immediately_without_force_finish():
    model = make_model(eos_early=True)
    utt = aligned_utterance(model, ["da", "esel", "geht", "haus"])
    config = PolicyConfig(k=2, force_finish=False)
    hyp, _ = run_simultaneous(model, utt, config)
    assert hyp.words == ()


def test_eos_flags_do_not_disturb_a_well_behaved_model():
    model = make_model()
    utt = aligned_utterance(model, ["da", "esel", "geht", "haus"])
    reference = list(utt.reference)
    for force_finish in (True, False):
        for avoid in (None, True, False):
            config = PolicyConfig(k=2, force_finish=force_finish,
                                  avoid_eos_while_reading=avoid)
            hyp, _ = run_simultaneous(model, utt, config)
            assert list(hyp.words) == reference, (force_finish, avoid)


# ---------------------------------------------------------------------------
# Safety caps
# ---------------------------------------------------------------------------


def test_max_target_words_cap_trims_to_complete_words():
    model = make_model(EXPANDING_LEXICON, target_piece_len=2)
    words = ["da", "geht", "esel", "haus"]  # 6 target words uncapped
    utt = aligned_utterance(model, words)
    config = PolicyConfig(k=2, max_target_words=3)
    hyp, _ = run_simultaneous(model, utt, config)
    assert hyp.truncated is True
    assert list(hyp.words) == model.translate_words(words)[:3]
    detok = "".join(t.surface.replace("@@", "") for t in hyp.tokens)
    assert detok == "".join(hyp.words)


def test_per_word_token_budget_flushes_a_never_ending_word():
    model = make_model({"da": "x" * 300}, target_piece_len=1)
    utt = aligned_utterance(model, ["da"])
    hyp, _ = run_simultaneous(model, utt, PolicyConfig(k=1))
    assert hyp.truncated is True
    assert len(hyp.words) == 1
    assert hyp.words[0] == "x" * 256  # the flushed 256-piece partial


# ---------------------------------------------------------------------------
# Engine mechanics, events, failure wrapping
# ---------------------------------------------------------------------------


def test_event_log_structure_and_round_trip(tmp_path):
    model = make_model()
    utt = aligned_utterance(model, ["da", "esel", "geht"])
    hyp, events = run_simultaneous(model, utt, PolicyConfig(k=2))
    reads = [e for e in events if e.kind is ActionKind.READ]
    writes = [e for e in events if e.kind is ActionKind.WRITE]
    assert len(reads) == len(segment_stream(utt, 280))
    assert [e.payload for e in writes] == list(hyp.words)
    assert [e.ideal_ms for e in writes] == list(hyp.ideal_delays_ms)
    # READ payloads chain over the source span
    assert reads[0].payload == {"start_ms": 0, "end_ms": 280}
    assert reads[-1].payload["end_ms"] == utt.duration_ms
    ideals = [e.ideal_ms for e in events]
    assert ideals == sorted(ideals)

    path = tmp_path / "run.jsonl"
    write_event_log(path, events)
    assert read_event_log(path) == list(events)


def test_engine_rejects_misuse():
    model = make_model()
    utt = aligned_utterance(model, ["da", "esel"])
    config = PolicyConfig(k=1)
    with pytest.raises(ValueError, match="not a multiple"):
        SimulEngine(model, config, frame_ms=9)
    with pytest.raises(ValueError, match="avg_word_ms"):
        SimulEngine(model, PolicyConfig(avg_word_ms=5), frame_ms=10)
    engine = SimulEngine(model, config, frame_ms=10)
    with pytest.raises(ValueError, match="at least one frame"):
        engine.push_chunk([])
    with pytest.raises(RuntimeError, match="still in progress"):
        engine.result()
    engine.push_chunk(utt.frames[:28])
    engine.finish_source()
    assert engine.done
    assert engine.finish_source() == []  # a no-op once the run is over
    with pytest.raises(RuntimeError, match="already finished"):
        engine.push_chunk(utt.frames[28:])


def test_engine_guards_hold_after_a_failed_write():
    model = DecoderFailsOnHaus()
    utt = aligned_utterance(model, ["da", "haus"])
    engine = SimulEngine(model, PolicyConfig(k=3), frame_ms=10)
    assert engine.push_chunk(utt.frames) == []  # k=3 waits for the source
    with pytest.raises(IndexError, match="decoder table"):
        engine.finish_source()
    assert not engine.done
    with pytest.raises(RuntimeError, match="still in progress"):
        engine.result()
    with pytest.raises(RuntimeError, match="source already finished"):
        engine.push_chunk(utt.frames)
    with pytest.raises(RuntimeError, match="source already finished"):
        engine.finish_source()


def test_empty_source_yields_an_empty_hypothesis():
    model = make_model()
    utt = aligned_utterance(model, [])
    hyp, events = run_simultaneous(model, utt, PolicyConfig(k=3))
    assert hyp.words == ()
    assert hyp.tokens == ()
    assert events == []


class _FailsAfterThirtyFrames(ModelInterface):
    """Delegates to a mock but blows up once the prefix grows past 30."""

    def __init__(self) -> None:
        self._inner = make_model()

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
        if len(frames) > 30:
            raise RuntimeError("encoder state corrupted")
        return self._inner.encode_prefix(frames)

    def decoder_step(self, states, target_prefix_ids):
        return self._inner.decoder_step(states, target_prefix_ids)


def test_model_failure_is_wrapped_with_partial_events():
    model = _FailsAfterThirtyFrames()
    inner = make_model()
    utt = aligned_utterance(inner, ["da", "esel", "geht"])
    with pytest.raises(SimulRunError, match="encoder state corrupted") as info:
        run_simultaneous(model, utt, PolicyConfig(k=1))
    # the first chunk (28 frames) was read before the failure
    assert any(e.kind is ActionKind.READ for e in info.value.events)


def test_sp_wait1_survives_the_eos_pressure_corner():
    """Wait-1 with SP targets forces EOS suppression on every word (the
    mock scores EOS once its visible words are spoken for).  The run must
    complete without errors even though quality degrades."""
    model = make_model(target_convention=Convention.SP_PREFIX)
    utt = aligned_utterance(model, ["da", "esel", "geht"])
    hyp, _ = run_simultaneous(
        model, utt, PolicyConfig(k=1, detection="adaptive")
    )
    assert isinstance(hyp.words, tuple)
    assert all(isinstance(w, str) for w in hyp.words)


# ---------------------------------------------------------------------------
# Wait-forever equals offline
# ---------------------------------------------------------------------------


def test_wait_forever_reads_everything_first():
    from simulharness import offline_greedy_translate

    model = make_model(EXPANDING_LEXICON, target_piece_len=2)
    words = ["da", "geht", "esel", "haus"]
    utt = aligned_utterance(model, words)
    config = PolicyConfig(k=10**9)
    hyp, _ = run_simultaneous(model, utt, config)
    offline = offline_greedy_translate(model, utt)
    assert hyp.tokens == offline.tokens
    assert hyp.words == offline.words
    assert all(d == utt.duration_ms for d in hyp.ideal_delays_ms)
    assert (hyp.tokens, hyp.words) == oracle_offline(model, utt)
