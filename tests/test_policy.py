from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import simulharness.core as core_module
import simulharness.policy as policy_module
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
    FrameArray,
    Hypothesis,
    LexiconMockModel,
    ModelInterface,
    PolicyConfig,
    SimulEngine,
    SimulRunError,
    SimulState,
    SubwordToken,
    decide,
    evaluate_corpus,
    read_event_log,
    run_simultaneous,
    segment_stream,
    word_spans,
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


def test_policy_config_refuses_a_word_of_no_duration():
    for avg_word_ms in (0, -280):
        with pytest.raises(ValueError, match="avg_word_ms must be positive"):
            PolicyConfig(avg_word_ms=avg_word_ms)


@pytest.mark.parametrize(
    "field, value",
    [
        ("k", 3.5), ("k", True), ("step_ms", 280.0), ("avg_word_ms", "280"),
        ("max_target_words", 1.5), ("max_target_words", False),
        ("force_finish", "no"), ("force_finish", 1),
        ("avoid_eos_while_reading", 0),
        ("detection", 5), ("detection", None), ("source_convention", 3),
        # only the settings that default to None take it
        ("k", None), ("step_ms", None), ("avg_word_ms", None),
        ("force_finish", None), ("source_convention", None),
    ],
)
def test_policy_config_rejects_settings_of_the_wrong_type(field, value):
    with pytest.raises(ValueError, match=f"{field} must be"):
        PolicyConfig(**{field: value})


def test_policy_config_takes_none_for_the_settings_that_default_to_it():
    config = PolicyConfig(avoid_eos_while_reading=None, max_target_words=None)
    assert config == PolicyConfig()


@pytest.mark.parametrize("detection", ["fixed", "adaptive"])
@pytest.mark.parametrize("cap", [None, 5])
def test_for_utterance_is_replace_with_the_cap_resolved(detection, cap):
    """The copy equals ``dataclasses.replace`` in value and in hash; an
    explicit cap is kept, and no cap resolves to the utterance's default."""
    utt = aligned_utterance(make_model(), ["da", "esel", "geht"])
    config = PolicyConfig(k=2, detection=detection, max_target_words=cap)
    default_cap = core_module.default_max_target_words(utt)
    expected = dataclasses.replace(
        config, max_target_words=cap or default_cap
    )
    copy = config.for_utterance(utt)
    assert copy == expected
    assert hash(copy) == hash(expected)
    assert copy.max_target_words == (cap or 2 * 3 + 16)


def test_for_utterance_keeps_the_members_strings_were_coerced_to():
    utt = aligned_utterance(make_model(), ["da"])
    copy = PolicyConfig(detection="adaptive", source_convention="sp") \
        .for_utterance(utt)
    assert copy.detection is DetectionKind.ADAPTIVE
    assert copy.source_convention is Convention.SP_PREFIX


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
# The WRITE loop's word scan
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("convention", list(Convention))
def test_target_words_are_grouped_as_tokens_arrive(monkeypatch, convention):
    """The engine groups target words token by token: it never calls
    ``word_spans``, and builds one ``SubwordToken`` per distinct target id,
    however often the id is decoded."""
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    counted = counting("word_spans", core_module.word_spans)
    monkeypatch.setattr(core_module, "word_spans", counted)
    monkeypatch.setattr(policy_module, "word_spans", counted, raising=False)
    built = []

    def token(surface, token_convention):
        built.append(surface)
        return SubwordToken(surface, token_convention)

    monkeypatch.setattr(policy_module, "SubwordToken", token)
    model = make_model(EXPANDING_LEXICON, target_piece_len=2,
                       target_convention=convention)
    utt = aligned_utterance(model, ["da", "geht", "da", "esel", "haus", "da"])
    hyp, _ = run_simultaneous(model, utt, PolicyConfig(k=2))
    assert calls == []
    assert hyp.words == utt.reference
    surfaces = [t.surface for t in hyp.tokens]
    assert len(surfaces) > len(hyp.words)
    assert len(surfaces) > len(set(surfaces))  # ids are decoded again
    assert sorted(built) == sorted(set(surfaces))


class _ScriptedDecoder(ModelInterface):
    """The tiny mock's encoder, with a decoder that emits a fixed script of
    token surfaces, one per step, and then only EOS."""

    def __init__(self, script, convention) -> None:
        self._inner = make_model()
        self._vocab = ("</s>",) + tuple(dict.fromkeys(script))
        self._ids = [self._vocab.index(surface) for surface in script]
        self._convention = convention

    target_vocab = property(lambda self: self._vocab)
    eos_id = property(lambda self: 0)
    target_convention = property(lambda self: self._convention)

    def encode_prefix(self, frames):
        return self._inner.encode_prefix(frames)

    def decoder_step(self, states, target_prefix_ids):
        scores = np.zeros(len(self._vocab))
        step = len(target_prefix_ids)
        scores[self._ids[step] if step < len(self._ids) else 0] = 1.0
        return scores


@pytest.mark.parametrize("convention, script, clean, delays", [
    (Convention.BPE_SUFFIX, ["@@", "", "a", "b@@", "", "c"],
     ["a", "b", "c"], (280, 560, 840)),
    (Convention.SP_PREFIX, ["▁", "", "▁a", "▁b", "", "▁", "▁c"],
     ["▁a", "▁b", "▁c"], (280, 560, 1120)),
], ids=["bpe", "sp"])
def test_pieces_that_strip_to_empty_make_no_word(
    convention, script, clean, delays
):
    """Empty pieces are dropped as ``word_spans`` drops them, and the words
    around them keep the delays of a script without them."""
    utt = aligned_utterance(make_model(), ["da", "esel", "geht", "haus"])
    config = PolicyConfig(k=1)
    hyp, _ = run_simultaneous(_ScriptedDecoder(script, convention), utt,
                              config)
    spans, _ = word_spans(hyp.tokens, convention, eos=True)
    assert hyp.words == tuple(word for word, _ in spans) == ("a", "b", "c")
    assert len(hyp.tokens) == len(script)
    assert hyp.ideal_delays_ms == delays
    clean_hyp, _ = run_simultaneous(_ScriptedDecoder(clean, convention), utt,
                                    config)
    assert clean_hyp.words == hyp.words
    assert clean_hyp.ideal_delays_ms == delays


_SURFACES = ["", "@@", "▁", "a@@", "▁b", "▁c@@", "d", "@@e", "f▁g", "h@@▁"]


@given(
    convention=st.sampled_from(list(Convention)),
    script=st.lists(st.sampled_from(_SURFACES), max_size=14),
    k=st.integers(1, 4),
    detection=st.sampled_from(list(DetectionKind)),
    max_target_words=st.none() | st.integers(1, 4),
)
def test_engine_groups_words_as_word_spans_does(
    convention, script, k, detection, max_target_words
):
    """Whatever the decoder emits, markers anywhere and empty pieces
    included, the engine's words are those ``word_spans`` finds in its
    tokens, and their ideal delays never decrease."""
    utt = aligned_utterance(make_model(), ["da", "esel", "geht", "haus"])
    config = PolicyConfig(k=k, detection=detection,
                          max_target_words=max_target_words)
    hyp, _ = run_simultaneous(_ScriptedDecoder(script, convention), utt,
                              config)
    spans, _ = word_spans(hyp.tokens, convention, eos=True)
    assert hyp.words == tuple(word for word, _ in spans)
    delays = hyp.ideal_delays_ms
    assert all(a <= b for a, b in zip(delays, delays[1:]))


@pytest.mark.parametrize("convention", list(Convention))
@pytest.mark.parametrize("words, max_target_words", [
    (["da", "geht", "esel", "haus"], None),
    (["da", "geht", "esel", "haus"], 3),  # truncated
    ([], None),  # an empty hypothesis
])
def test_the_engine_builds_the_hypothesis_the_public_constructor_does(
    convention, words, max_target_words
):
    """``result()`` skips the constructor's conversions, so its fields must
    already be what the constructor would make of the same values."""
    model = make_model(EXPANDING_LEXICON, target_piece_len=2,
                       target_convention=convention)
    utt = aligned_utterance(model, words)
    config = PolicyConfig(k=2, max_target_words=max_target_words)
    hyp, _ = run_simultaneous(model, utt, config)
    public = Hypothesis(
        tokens=list(hyp.tokens),
        words=list(hyp.words),
        ideal_delays_ms=list(hyp.ideal_delays_ms),
        wall_delays_ms=list(hyp.wall_delays_ms),
        truncated=hyp.truncated,
    )
    assert hyp == public
    assert hash(hyp) == hash(public)
    assert hyp.truncated is (max_target_words is not None)
    assert bool(hyp.words) is bool(words)
    for name, kind in (("tokens", SubwordToken), ("words", str),
                       ("ideal_delays_ms", int), ("wall_delays_ms", float)):
        value = getattr(hyp, name)
        assert type(value) is tuple
        assert {type(item) for item in value} <= {kind}


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


@pytest.mark.parametrize(
    "line, complaint",
    [
        ('{"kind": "READ", "ideal_ms": 280, "wall_ms": 280.5}',
         "line 2: no 'payload' field"),
        ('{"kind": "SKIP", "payload": null, "ideal_ms": 0, "wall_ms": 0.0}',
         "line 2: 'SKIP' is not a valid ActionKind"),
        ('{"kind": "READ", "payload": null, "ideal_ms": null, "wall_ms": 0}',
         "line 2: int.. argument must be"),
        ('[1, 2]', "line 2: a record must be a JSON object"),
        ('{"kind": ', "line 2: Expecting value"),
        ('[' * 100_000, "line 2: nested too deeply"),
    ],
)
def test_read_event_log_names_the_line_of_a_broken_record(
    tmp_path, line, complaint
):
    model = make_model()
    utt = aligned_utterance(model, ["da"])
    _hyp, events = run_simultaneous(model, utt, PolicyConfig(k=1))
    path = tmp_path / "run.jsonl"
    write_event_log(path, events[:1])
    with path.open("a", encoding="utf-8") as handle:
        handle.write(line + "\n")
    with pytest.raises(ValueError, match=complaint):
        read_event_log(path)


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


# ---------------------------------------------------------------------------
# The source prefix: read in place, or copied
# ---------------------------------------------------------------------------


class _SeeingModel(LexiconMockModel):
    """The tiny mock, keeping every prefix and tail it is asked to encode."""

    def __init__(self) -> None:
        super().__init__(TINY_LEXICON)
        self.seen = []

    def encode_prefix(self, frames):
        self.seen.append(frames)
        return super().encode_prefix(frames)

    def encode_more(self, states, frames, start):
        self.seen.append(frames)
        return super().encode_more(states, frames, start)


def _outputs(hypothesis, events):
    return (hypothesis.tokens, hypothesis.words, hypothesis.ideal_delays_ms,
            [(e.kind, e.payload, e.ideal_ms) for e in events])


def _engine_outputs(engine, chunks):
    for _writes in engine.run(chunks):
        pass
    return _outputs(*engine.result())


@pytest.mark.parametrize("step_ms", [10, 280, 700])
@pytest.mark.parametrize("detection", ["fixed", "adaptive"])
def test_the_engine_reads_the_utterance_in_place(step_ms, detection):
    """Every prefix a model gets is a view of the utterance's own array.
    Chunks that are lists of frames, or arrays of their own, are copied
    into the engine's buffer instead, and the run is the same."""
    utt = aligned_utterance(
        make_model(), ["da", "esel", "geht", "haus"], gaps_ms=[0, 280, 0, 0, 0]
    )
    config = PolicyConfig(k=2, detection=detection, step_ms=step_ms)
    model = _SeeingModel()
    in_place = _outputs(*run_simultaneous(model, utt, config))
    source = np.asarray(utt.frames)
    assert model.seen and all(
        np.shares_memory(np.asarray(frames), source) for frames in model.seen
    )
    chunkings = {
        "lists": [list(chunk) for chunk in segment_stream(utt, step_ms)],
        "arrays": [FrameArray(tuple(chunk))
                   for chunk in segment_stream(utt, step_ms)],
        "mixed": [chunk if i % 2 else list(chunk)
                  for i, chunk in enumerate(segment_stream(utt, step_ms))],
    }
    for chunks in chunkings.values():
        model = _SeeingModel()
        copied = _engine_outputs(
            SimulEngine(model, config.for_utterance(utt)), chunks)
        assert copied == in_place
        prefixes = model.seen[::2]  # each encode_more, then its tail
        assert [len(p) for p in prefixes] == [
            min(len(utt.frames), n * step_ms // 10)
            for n in range(1, len(prefixes) + 1)
        ]
        for prefix in prefixes:
            assert prefix == utt.frames[:len(prefix)]
            assert not np.asarray(prefix).flags.writeable
            assert not np.shares_memory(np.asarray(prefix), source)


@pytest.mark.parametrize("unlock", [False, True])
def test_a_model_that_writes_its_frames_fails_its_own_utterance(unlock):
    class Writer(LexiconMockModel):
        def encode_more(self, states, frames, start):
            rows = np.asarray(frames)
            if rows[:, self.source_word_index["haus"]].any():
                if unlock:
                    rows.flags.writeable = True
                rows[:] = 0.0
            return super().encode_more(states, frames, start)

    model = Writer(TINY_LEXICON)
    utts = [aligned_utterance(model, ["da", "haus"], utt_id="haus"),
            aligned_utterance(model, ["da", "esel"], utt_id="esel")]
    before = [np.array(u.frames) for u in utts]
    result = evaluate_corpus(utts, model, PolicyConfig(k=1))
    assert result.failures == ("haus",)
    assert "WRITEABLE" in result.results[0].error or \
        "read-only" in result.results[0].error
    assert result.results[1].hypothesis.words == ("there", "donkey")
    for utt, rows in zip(utts, before):
        assert np.array_equal(np.asarray(utt.frames), rows)
