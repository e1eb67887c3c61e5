from __future__ import annotations

import json
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    EXPANDING_LEXICON,
    TINY_LEXICON,
    aligned_utterance,
    make_model,
)
from simulharness import (
    BOUNDARY_GAIN,
    AttentionMask,
    Convention,
    Frame,
    LexiconMockModel,
    PolicyConfig,
    build_synthetic_utterance,
    load_model_config,
    offline_greedy_translate,
    run_simultaneous,
    synthetic_corpus,
    waitk_attention_mask,
)
from simulharness.policy import MAX_TOKENS_PER_WORD, WAIT_FOREVER

# ---------------------------------------------------------------------------
# Mock model vocabulary and calls
# ---------------------------------------------------------------------------


def test_source_vocab_is_blank_plus_sorted_words():
    model = make_model()
    assert model.source_vocab[0] == "<blank>"
    assert model.source_vocab[1:] == tuple(sorted(TINY_LEXICON))
    assert model.source_word_index["da"] == 1


def test_target_vocab_is_eos_plus_sorted_pieces():
    model = make_model()
    assert model.target_vocab[0] == "</s>"
    assert model.eos_id == 0
    assert model.target_vocab[1:] == tuple(sorted(TINY_LEXICON.values()))


def test_encoder_posterior_marks_exactly_the_word_end_frames():
    model = make_model()
    utt = aligned_utterance(model, ["da", "esel", "da"],
                            gaps_ms=[100, 0, 50, 200])
    states, posterior = model.encode_prefix(utt.frames)
    assert posterior.n_frames == utt.n_frames
    path = np.argmax(posterior.scores, axis=1)
    non_blank = tuple(int(t) for t in np.nonzero(path)[0])
    assert non_blank == utt.word_end_frames
    assert states.visible_words == ("da", "esel", "da")


@given(split=st.integers(0, 84))
def test_encoder_is_prefix_consistent(split):
    """Encoding a longer prefix never rewrites earlier posterior rows."""
    model = make_model()
    utt = aligned_utterance(model, ["da", "esel", "geht"])
    _, full = model.encode_prefix(utt.frames)
    _, part = model.encode_prefix(utt.frames[:split])
    assert np.array_equal(part.scores, full.scores[:split])


def test_encoder_rejects_mismatched_feature_dim():
    model = make_model()
    other = make_model({"a": "b"})
    utt = aligned_utterance(other, ["a"])
    with pytest.raises(ValueError, match="source vocabulary size"):
        model.encode_prefix(utt.frames)


def test_decoder_walks_the_translation_then_eos():
    model = make_model()
    utt = aligned_utterance(model, ["esel", "geht"])
    states, _ = model.encode_prefix(utt.frames)
    expected_surfaces = ["donkey", "goes"]
    ids: list[int] = []
    for surface in expected_surfaces:
        scores = model.decoder_step(states, ids)
        next_id = int(np.argmax(scores))
        assert model.target_vocab[next_id] == surface
        ids.append(next_id)
    assert int(np.argmax(model.decoder_step(states, ids))) == model.eos_id


def test_decoder_eos_early_score_shape():
    model = make_model(eos_early=True)
    utt = aligned_utterance(model, ["esel"])
    states, _ = model.encode_prefix(utt.frames)
    scores = model.decoder_step(states, [])
    assert scores[model.eos_id] == 1.0
    donkey = model.target_vocab.index("donkey")
    assert scores[donkey] == 0.5
    # masking EOS must leave the correct token as the runner-up
    masked = scores.copy()
    masked[model.eos_id] = -np.inf
    assert int(np.argmax(masked)) == donkey


def test_lexicon_validation():
    with pytest.raises(ValueError, match="must not be empty"):
        LexiconMockModel({})
    with pytest.raises(ValueError, match="maps to no words"):
        LexiconMockModel({"a": []})
    # a convention's value names the member, and builds that member's pieces
    by_value = LexiconMockModel(
        {"a": "hello"}, target_convention="bpe", target_piece_len=2
    )
    assert by_value.target_convention is Convention.BPE_SUFFIX
    assert by_value.target_vocab == ("</s>", "he@@", "ll@@", "o")
    with pytest.raises(ValueError, match="target_convention must be a string"):
        LexiconMockModel({"a": "b"}, target_convention=5)
    model = make_model()
    with pytest.raises(ValueError, match="not in lexicon"):
        model.translate_words(["unknown"])


def test_load_model_config(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "lexicon": {"a": ["x", "y"], "b": "z"},
        "target_convention": "sp",
        "target_piece_len": 2,
    }), encoding="utf-8")
    model = load_model_config(path)
    assert model.target_convention is Convention.SP_PREFIX
    assert model.translate_words(["a", "b"]) == ["x", "y", "z"]

    path.write_text(json.dumps({"lexicon": {"a": "b"}, "oops": 1}),
                    encoding="utf-8")
    with pytest.raises(ValueError, match="unknown model config keys"):
        load_model_config(path)
    path.write_text(json.dumps({"no_lexicon": {}}), encoding="utf-8")
    with pytest.raises(ValueError, match="'lexicon'"):
        load_model_config(path)


@pytest.mark.parametrize(
    "setting, complaint",
    [
        ({"eos_early": "no"}, "eos_early must be bool"),
        ({"eos_early": 1}, "eos_early must be bool"),
        ({"target_piece_len": True}, "target_piece_len must be"),
        ({"target_piece_len": 1.5}, "target_piece_len must be"),
        ({"target_piece_len": 0}, "target_piece_len must be"),
        ({"compute_delay_ms": "5"}, "compute_delay_ms must be"),
        ({"compute_delay_ms": True}, "compute_delay_ms must be"),
        ({"compute_delay_ms": -3}, "compute_delay_ms must be"),
        ({"target_convention": 1}, "target_convention must be a string"),
        ({"target_convention": "xyz"}, "'xyz' is not a valid Convention"),
        ({"lexicon": ["a", "b"]}, "lexicon must map"),
        ({"lexicon": {"a": 5}}, "lexicon must map"),
    ],
    ids=["eos_early-str", "eos_early-int", "piece_len-bool",
         "piece_len-float", "piece_len-zero", "delay-str", "delay-bool",
         "delay-negative", "convention-int", "convention-unknown",
         "lexicon-list", "lexicon-int-target"],
)
def test_load_model_config_rejects_values_of_the_wrong_type(
    tmp_path, setting, complaint
):
    path = tmp_path / "model.json"
    path.write_text(
        json.dumps({"lexicon": {"a": "b"}, **setting}), encoding="utf-8"
    )
    with pytest.raises(ValueError, match=complaint):
        load_model_config(path)


def test_load_model_config_keeps_values_of_the_right_type(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "lexicon": {"a": "bcd"},
        "target_piece_len": None,
        "eos_early": False,
        "compute_delay_ms": 0,
    }), encoding="utf-8")
    assert load_model_config(path).target_vocab == ("</s>", "bcd")
    path.write_text(json.dumps({
        "lexicon": {"a": "bcd"}, "target_piece_len": 2,
        "compute_delay_ms": 0.5,
    }), encoding="utf-8")
    assert load_model_config(path).target_vocab == ("</s>", "bc@@", "d")


# ---------------------------------------------------------------------------
# Encoding a chunk
# ---------------------------------------------------------------------------


def _features(model, *rows):
    """Frames of the given rows; ``("word", gain)`` is a one-hot row."""
    index = model.source_word_index
    width = len(model.source_vocab)
    frames = []
    for row in rows:
        if isinstance(row[0], str):
            word, gain = row
            row = [0.0] * width
            row[index[word]] = gain
        frames.append(Frame(tuple(row)))
    return frames


def test_encoder_names_the_first_row_of_the_wrong_width():
    model = make_model()
    width = len(model.source_vocab)
    frames = _features(model, ("da", 1.0), [0.0] * (width + 2),
                       [0.0] * (width - 1))
    with pytest.raises(
        ValueError,
        match=f"feature dim {width + 2} does not match the source "
              f"vocabulary size {width}",
    ):
        model.encode_prefix(frames)


def test_encoder_rejects_a_marked_blank_channel():
    model = make_model()
    width = len(model.source_vocab)
    frames = _features(model, ("da", BOUNDARY_GAIN),
                       [BOUNDARY_GAIN] + [0.0] * (width - 1))
    with pytest.raises(ValueError, match="blank channel cannot carry a word"):
        model.encode_prefix(frames)


def test_encoder_of_an_empty_prefix_is_an_empty_posterior():
    model = make_model()
    states, posterior = model.encode_prefix([])
    assert posterior.scores.shape == (0, len(model.source_vocab))
    assert states.visible_words == () and states.target_ids == ()


def test_encoder_reads_nan_rows_as_blank_and_inf_as_a_peak():
    model = make_model()
    width = len(model.source_vocab)
    nan, inf = float("nan"), float("inf")
    marked_nan = [0.0] * width
    marked_nan[model.source_word_index["ja"]] = BOUNDARY_GAIN
    marked_nan[-1] = nan
    frames = _features(
        model,
        ("da", BOUNDARY_GAIN),
        [nan] * width,
        marked_nan,
        ("esel", inf),
        ("geht", 1.0),
    )
    states, posterior = model.encode_prefix(frames)
    path = np.argmax(posterior.scores, axis=1).tolist()
    index = model.source_word_index
    assert path == [index["da"], 0, 0, index["esel"], 0]
    assert states.visible_words == ("da", "esel")


# ---------------------------------------------------------------------------
# Synthetic utterances
# ---------------------------------------------------------------------------


def test_synthetic_utterance_frames_and_alignment():
    utt = build_synthetic_utterance(
        ["x", "y"], [30, 20], frame_ms=10, gaps_ms=[10, 0, 20],
        reference=["a"], utt_id="t",
    )
    # 1 silence + 3 word + 2 word + 2 silence frames
    assert utt.n_frames == 8
    assert utt.duration_ms == 80
    assert utt.word_end_frames == (3, 5)
    assert utt.transcript == ("x", "y")
    assert utt.reference == ("a",)
    # channels: first-appearance ids from 1; final frames amplitude-marked
    assert utt.frames[0].features == (0.0, 0.0, 0.0)
    assert utt.frames[1].features == (0.0, 1.0, 0.0)
    assert utt.frames[3].features == (0.0, BOUNDARY_GAIN, 0.0)
    assert utt.frames[5].features == (0.0, 0.0, BOUNDARY_GAIN)
    assert utt.frames[6].features == (0.0, 0.0, 0.0)


def test_synthetic_utterance_validation_messages():
    with pytest.raises(ValueError, match="equal length"):
        build_synthetic_utterance(["a"], [10, 20])
    with pytest.raises(
        ValueError,
        match=r"word 'a' duration of 275 ms is not a multiple of the 10 ms",
    ):
        build_synthetic_utterance(["a"], [275])
    with pytest.raises(ValueError, match="a silence gap of 15 ms"):
        build_synthetic_utterance(["a"], [280], gaps_ms=[15, 0])
    with pytest.raises(ValueError, match="len\\(words\\) \\+ 1"):
        build_synthetic_utterance(["a"], [280], gaps_ms=[0])
    with pytest.raises(ValueError, match="durations must be positive"):
        build_synthetic_utterance(["a"], [0])
    with pytest.raises(ValueError, match="missing from the vocab"):
        build_synthetic_utterance(["a"], [280], vocab={"b": 1})
    with pytest.raises(ValueError, match="channels start at 1"):
        build_synthetic_utterance(["a"], [280], vocab={"a": 0})


def test_a_negative_silence_is_refused():
    with pytest.raises(
        ValueError, match="silence durations must be non-negative"
    ):
        build_synthetic_utterance(["a"], [280], gaps_ms=[-10, 0])


def test_a_one_frame_word_right_after_the_same_word_is_refused():
    """The mock marks only a word's final frame, so two one-frame "da"s in a
    row would give one CTC run, and detection would count one word.  A gap
    or a second frame keeps them apart: each word is detected at its end."""
    model = make_model()
    words = ["da", "da", "da"]
    with pytest.raises(
        ValueError, match=r"word 'da' at position 1 directly follows"
    ):
        build_synthetic_utterance(words, [10, 10, 10],
                                  vocab=model.source_word_index)
    config = PolicyConfig(k=1, detection="adaptive", step_ms=10)
    for per_word_ms, gaps_ms in [([10, 10, 10], [0, 10, 10, 0]),
                                 ([10, 20, 20], None)]:
        utt = build_synthetic_utterance(
            words, per_word_ms, vocab=model.source_word_index,
            gaps_ms=gaps_ms,
        )
        hypothesis, _ = run_simultaneous(model, utt, config)
        assert hypothesis.ideal_delays_ms == tuple(
            10 * (end + 1) for end in utt.word_end_frames
        )


def test_synthetic_corpus_is_reproducible_and_referenced():
    model = make_model()
    corpus_a = synthetic_corpus(model, n_utts=5, rng=random.Random(11))
    corpus_b = synthetic_corpus(model, n_utts=5, rng=random.Random(11))
    assert [u.id for u in corpus_a] == [u.id for u in corpus_b]
    assert all(a.frames == b.frames for a, b in zip(corpus_a, corpus_b))
    for utt in corpus_a:
        assert utt.transcript
        assert all(w in TINY_LEXICON for w in utt.transcript)
        assert list(utt.reference) == model.translate_words(utt.transcript)
        assert utt.duration_ms == 280 * len(utt.transcript)


# ---------------------------------------------------------------------------
# Attention masks
# ---------------------------------------------------------------------------


def test_waitk_mask_hand_case():
    # three source words ending at frames 2, 5, 8; k = 2
    mask = waitk_attention_mask([2, 5, 8], k=2, n_target=3, n_frames=10)
    assert mask.no_boundaries is False
    # row 0 sees through word 2 (frame 5), row 1 through word 3 (frame 8),
    # row 2 runs past the last boundary and opens fully
    assert mask.row_widths == (6, 9, 10)


def test_waitk_mask_without_boundaries_is_open_and_flagged():
    mask = waitk_attention_mask([], k=3, n_target=2, n_frames=4)
    assert mask.no_boundaries is True
    assert mask.allowed.all()


def test_waitk_mask_large_k_is_all_true():
    mask = waitk_attention_mask([2, 5], k=10, n_target=3, n_frames=7)
    assert mask.allowed.all()
    assert mask.no_boundaries is False


@given(
    n_words=st.integers(1, 8),
    k=st.integers(1, 10),
    n_target=st.integers(1, 10),
)
def test_waitk_mask_rows_are_nested_prefixes(n_words, k, n_target):
    ends = tuple(3 * i + 2 for i in range(n_words))  # 2, 5, 8, ...
    n_frames = ends[-1] + 1
    mask = waitk_attention_mask(ends, k, n_target, n_frames)
    widths = mask.row_widths
    assert all(b >= a for a, b in zip(widths, widths[1:]))
    for i, width in enumerate(widths):
        boundary = k + i - 1
        if boundary >= n_words:
            assert width == n_frames
        else:
            assert width == ends[boundary] + 1


def test_waitk_mask_validation():
    with pytest.raises(ValueError, match="k must be"):
        waitk_attention_mask([1], 0, 1, 4)
    with pytest.raises(ValueError, match="must be positive"):
        waitk_attention_mask([1], 1, 0, 4)
    with pytest.raises(ValueError, match="inside the frame axis"):
        waitk_attention_mask([4], 1, 1, 4)
    with pytest.raises(ValueError, match="strictly increasing"):
        waitk_attention_mask([2, 2], 1, 1, 4)


def test_attention_mask_rejects_non_prefix_rows():
    bad = np.array([[True, False, True]])
    with pytest.raises(ValueError, match="contiguous frame prefix"):
        AttentionMask(bad)
    shrinking = np.array([[True, True, False], [True, False, False]])
    with pytest.raises(ValueError, match="nested"):
        AttentionMask(shrinking)


def test_attention_mask_must_be_two_dimensional():
    for mask in (np.ones(3, dtype=bool), np.ones((1, 2, 3), dtype=bool)):
        with pytest.raises(
            ValueError, match=r"mask must be 2-D \(targets x frames\)"
        ):
            AttentionMask(mask)


# ---------------------------------------------------------------------------
# Offline translation
# ---------------------------------------------------------------------------


def test_offline_translation_is_the_lexicon_map():
    model = make_model(EXPANDING_LEXICON)
    words = ["da", "geht", "esel"]
    utt = aligned_utterance(model, words)
    hyp = offline_greedy_translate(model, utt)
    assert list(hyp.words) == model.translate_words(words)
    assert hyp.truncated is False
    assert all(d == utt.duration_ms for d in hyp.ideal_delays_ms)
    assert all(d >= float(utt.duration_ms) for d in hyp.wall_delays_ms)


@pytest.mark.parametrize("convention", [Convention.BPE_SUFFIX,
                                        Convention.SP_PREFIX])
def test_offline_translation_multi_piece_targets(convention):
    model = make_model(target_convention=convention, target_piece_len=2)
    utt = aligned_utterance(model, ["esel", "haus"])
    hyp = offline_greedy_translate(model, utt)
    assert list(hyp.words) == ["donkey", "house"]
    assert len(hyp.tokens) == 6  # don-key-... split into 2-char pieces


def test_offline_translation_is_the_engine_at_wait_forever():
    # a 300-piece word runs into the engine's per-word token cap
    model = make_model({"da": "x" * 300, "ja": "yes"}, target_piece_len=1)
    utt = aligned_utterance(model, ["da", "ja"])
    offline = offline_greedy_translate(model, utt)
    streamed, _ = run_simultaneous(model, utt, PolicyConfig(k=WAIT_FOREVER))
    assert offline.tokens == streamed.tokens
    assert offline.words == streamed.words == ("x" * MAX_TOKENS_PER_WORD,)
    assert offline.truncated is streamed.truncated is True
    assert offline.ideal_delays_ms == streamed.ideal_delays_ms


def test_offline_wall_delays_charge_model_compute():
    model = make_model(compute_delay_ms=5)
    utt = aligned_utterance(model, ["da", "esel", "geht"])
    hyp = offline_greedy_translate(model, utt)
    assert list(hyp.words) == ["there", "donkey", "goes"]
    assert all(d > utt.duration_ms for d in hyp.wall_delays_ms)


@pytest.mark.parametrize("words, frame_ms", [([], 10), (["da", "esel"], 400)])
def test_offline_translation_reads_any_utterance_as_one_chunk(words, frame_ms):
    # no step setting applies: empty sources and frames longer than the
    # default 280 ms step translate too
    model = make_model()
    utt = aligned_utterance(model, words, per_word_ms=800, frame_ms=frame_ms)
    hyp = offline_greedy_translate(model, utt)
    assert list(hyp.words) == model.translate_words(words)
    assert all(d == utt.duration_ms for d in hyp.ideal_delays_ms)


def test_offline_translation_word_cap_trims_to_complete_words():
    model = make_model(target_piece_len=2)
    utt = aligned_utterance(model, ["esel", "haus", "geht"])
    hyp = offline_greedy_translate(model, utt, max_target_words=2)
    assert hyp.truncated is True
    assert list(hyp.words) == ["donkey", "house"]
    # tokens detokenize to exactly the reported words
    surfaces = "".join(t.surface.replace("@@", "") for t in hyp.tokens)
    assert surfaces == "donkeyhouse"
