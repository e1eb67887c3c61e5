from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import bpe, sp
from simulharness import (
    Convention,
    Frame,
    Hypothesis,
    ManifestError,
    SubwordToken,
    Utterance,
    default_max_target_words,
    load_manifest,
    segment_stream,
    subword_tokens,
    word_spans,
)

# ---------------------------------------------------------------------------
# word_spans: hand-enumerated oracles
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "tokens, expected_spans, expected_partial",
    [
        # each token is its own word when it carries no continuation suffix
        ([bpe("hello"), bpe("world")], [("hello", 0), ("world", 1)], False),
        # a continuation suffix glues pieces; the word ends at the bare piece
        ([bpe("he@@"), bpe("llo"), bpe("world")],
         [("hello", 1), ("world", 2)], False),
        # a trailing continuation piece is an incomplete word
        ([bpe("hello"), bpe("wor@@")], [("hello", 0)], True),
        ([bpe("wor@@")], [], True),
        ([], [], False),
    ],
)
def test_word_spans_bpe_hand_cases(tokens, expected_spans, expected_partial):
    spans, partial = word_spans(tokens, Convention.BPE_SUFFIX)
    assert spans == expected_spans
    assert partial is expected_partial


@pytest.mark.parametrize(
    "tokens, expected_spans, expected_partial",
    [
        # a word is complete only once the NEXT word-start token arrives
        ([sp("▁hello")], [], True),
        ([sp("▁hello"), sp("▁world")], [("hello", 0)], True),
        ([sp("▁he"), sp("llo"), sp("▁world")],
         [("hello", 1)], True),
        # a leading continuation opens a word implicitly
        ([sp("llo"), sp("▁world")], [("llo", 0)], True),
        ([], [], False),
    ],
)
def test_word_spans_sp_hand_cases(tokens, expected_spans, expected_partial):
    spans, partial = word_spans(tokens, Convention.SP_PREFIX)
    assert spans == expected_spans
    assert partial is expected_partial


def test_word_spans_eos_flushes_trailing_partial():
    spans, partial = word_spans(
        [bpe("hello"), bpe("wor@@")], Convention.BPE_SUFFIX, eos=True
    )
    assert spans == [("hello", 0), ("wor", 1)]
    assert partial is False

    spans, partial = word_spans(
        [sp("▁hello"), sp("▁wor")], Convention.SP_PREFIX, eos=True
    )
    assert spans == [("hello", 0), ("wor", 1)]
    assert partial is False


def test_word_spans_requires_convention_for_empty_sequence():
    with pytest.raises(ValueError, match="convention is required"):
        word_spans([])


def test_word_spans_rejects_mixed_conventions():
    with pytest.raises(ValueError, match="mixed subword conventions"):
        word_spans([bpe("a"), sp("▁b")])


def test_word_spans_infers_convention_from_first_token():
    spans, _ = word_spans([sp("▁a"), sp("▁b")])
    assert spans == [("a", 0)]


def test_word_spans_drops_empty_words():
    # "@@" strips to an empty piece chain; "▁" opens an empty word
    spans, partial = word_spans([bpe("@@"), bpe("")], Convention.BPE_SUFFIX)
    assert spans == []
    assert partial is False
    spans, _ = word_spans(
        [sp("▁"), sp("▁ok")], Convention.SP_PREFIX, eos=True
    )
    assert spans == [("ok", 1)]


# ---------------------------------------------------------------------------
# subword_tokens round trip (property)
# ---------------------------------------------------------------------------

_words = st.lists(
    st.text(alphabet="abcdefghijklmnop", min_size=1, max_size=8),
    min_size=1,
    max_size=6,
)


@given(words=_words, piece_len=st.one_of(st.none(), st.integers(1, 4)))
def test_bpe_tokenize_detokenize_round_trip(words, piece_len):
    tokens = subword_tokens(words, Convention.BPE_SUFFIX, piece_len)
    spans, partial = word_spans(tokens, Convention.BPE_SUFFIX)
    assert [word for word, _ in spans] == words
    assert partial is False


@given(words=_words, piece_len=st.one_of(st.none(), st.integers(1, 4)))
def test_sp_tokenize_detokenize_round_trip_needs_eos(words, piece_len):
    tokens = subword_tokens(words, Convention.SP_PREFIX, piece_len)
    complete, partial = word_spans(tokens, Convention.SP_PREFIX)
    # without the end-of-sequence signal the last word is still open
    assert [word for word, _ in complete] == words[:-1]
    assert partial is True
    flushed, partial = word_spans(tokens, Convention.SP_PREFIX, eos=True)
    assert [word for word, _ in flushed] == words
    assert partial is False


def test_subword_tokens_rejects_boundary_markers_and_empty_words():
    with pytest.raises(ValueError, match="boundary marker"):
        subword_tokens(["he@@llo"], Convention.BPE_SUFFIX)
    with pytest.raises(ValueError, match="boundary marker"):
        subword_tokens(["▁x"], Convention.SP_PREFIX)
    with pytest.raises(ValueError, match="empty word"):
        subword_tokens([""], Convention.BPE_SUFFIX)


def test_subword_tokens_piece_shapes():
    tokens = subword_tokens(["hello"], Convention.BPE_SUFFIX, piece_len=2)
    assert [t.surface for t in tokens] == ["he@@", "ll@@", "o"]
    tokens = subword_tokens(["hello"], Convention.SP_PREFIX, piece_len=2)
    assert [t.surface for t in tokens] == ["▁he", "ll", "o"]


# ---------------------------------------------------------------------------
# Frames, utterances, hypotheses
# ---------------------------------------------------------------------------


def test_frame_coerces_features_and_validates_duration():
    frame = Frame([1, 0])
    assert frame.features == (1.0, 0.0)
    with pytest.raises(ValueError, match="frame_ms must be positive"):
        Utterance(id="u", frames=(frame,), frame_ms=0)


def test_utterance_computes_duration_and_validates():
    frames = tuple(Frame((0.0,)) for _ in range(5))
    utt = Utterance(id="u", frames=frames)
    assert utt.duration_ms == 50
    assert utt.frame_ms == 10
    assert utt.n_frames == 5
    assert Utterance(id="u", frames=frames, frame_ms=20).duration_ms == 100
    ragged = frames + (Frame((0.0, 0.0)),)
    with pytest.raises(ValueError, match="feature dimension"):
        Utterance(id="u", frames=ragged)


def test_empty_utterance_has_no_frame_duration():
    utt = Utterance(id="empty", frames=())
    assert utt.duration_ms == 0
    assert utt.frame_ms == 10  # the default; no frame carries one


def test_hypothesis_requires_aligned_delays():
    with pytest.raises(ValueError, match="delay pair"):
        Hypothesis(tokens=(), words=("a",), ideal_delays_ms=(),
                   wall_delays_ms=())


def test_default_max_target_words_prefers_transcript():
    frames = (Frame((0.0,)),)
    utt = Utterance(id="u", frames=frames, transcript=("a", "b", "c"),
                    reference=("x",) * 10)
    assert default_max_target_words(utt) == 2 * 3 + 16
    utt = Utterance(id="u", frames=frames, reference=("x",) * 10)
    assert default_max_target_words(utt) == 2 * 10 + 16
    assert default_max_target_words(Utterance(id="u", frames=frames)) == 64


# ---------------------------------------------------------------------------
# segment_stream
# ---------------------------------------------------------------------------


def _utterance_of(n_frames: int, frame_ms: int = 10) -> Utterance:
    return Utterance(
        id="u",
        frames=tuple(Frame((0.0,)) for _ in range(n_frames)),
        frame_ms=frame_ms,
    )


@given(n_frames=st.integers(0, 200), step_frames=st.integers(1, 50))
def test_segment_stream_partitions_frames(n_frames, step_frames):
    utt = _utterance_of(n_frames)
    chunks = segment_stream(utt, step_frames * 10)
    flattened = tuple(f for chunk in chunks for f in chunk)
    assert flattened == utt.frames
    if chunks:
        assert all(len(c) == step_frames for c in chunks[:-1])
        assert 1 <= len(chunks[-1]) <= step_frames


def test_segment_stream_validates_step():
    utt = _utterance_of(4)
    with pytest.raises(ValueError, match="step_ms must be positive"):
        segment_stream(utt, 0)
    with pytest.raises(ValueError, match="not a multiple"):
        segment_stream(utt, 15)
    assert segment_stream(Utterance(id="e", frames=()), 15) == []


# ---------------------------------------------------------------------------
# Manifests
# ---------------------------------------------------------------------------


def _write_manifest(tmp_path, lines):
    path = tmp_path / "manifest.jsonl"
    path.write_text(
        "\n".join(json.dumps(line) if isinstance(line, dict) else line
                  for line in lines) + "\n",
        encoding="utf-8",
    )
    return path


def _record(utt_id="u1", **overrides):
    record = {
        "id": utt_id,
        "frames": [[0.0, 1.0], [0.0, 2.0]],
        "frame_ms": 10,
        "reference": ["hello"],
    }
    record.update(overrides)
    return record


def test_load_manifest_round_trip(tmp_path):
    path = _write_manifest(
        tmp_path,
        [_record("u1"), _record("u2", transcript=["hallo"]), ""],
    )
    manifest = load_manifest(path)
    assert len(manifest) == 2
    assert manifest[0].id == "u1"
    assert manifest[0].frames[1].features == (0.0, 2.0)
    assert manifest[0].transcript is None
    assert manifest[1].transcript == ("hallo",)
    assert [u.id for u in manifest] == ["u1", "u2"]


def test_load_manifest_frames_from_side_file(tmp_path):
    (tmp_path / "frames_u1.json").write_text("[[0.0, 1.0]]", encoding="utf-8")
    path = _write_manifest(tmp_path, [_record(frames="frames_u1.json")])
    manifest = load_manifest(path)
    assert manifest[0].frames[0].features == (0.0, 1.0)


def test_load_manifest_reports_deep_nesting_as_a_manifest_error(tmp_path):
    # the stdlib parser raises RecursionError here, which is no ValueError
    path = _write_manifest(tmp_path, [_record(), "[" * 200_000])
    with pytest.raises(ManifestError, match="malformed JSON at line 2"):
        load_manifest(path)


@pytest.mark.parametrize(
    "lines, message",
    [
        (["{not json"], "malformed JSON at line 1"),
        ([_record(), "{not json"], "malformed JSON at line 2"),
        ([{k: v for k, v in _record().items() if k != "reference"}],
         "missing field 'reference' at line 1"),
        ([_record("dup"), _record("dup")], "duplicate id 'dup' at line 2"),
        ([_record(frame_ms=0)], "'frame_ms' must be a positive integer"),
        ([_record(frames="missing.json")],
         "frames file 'missing.json' not found at line 1"),
        ([_record(reference="hello")], "must be a list of strings"),
    ],
)
def test_load_manifest_error_messages(tmp_path, lines, message):
    path = _write_manifest(tmp_path, lines)
    with pytest.raises(ManifestError, match=message):
        load_manifest(path)


def test_load_manifest_rejects_a_bool_frame_ms(tmp_path):
    # True is an int to Python; taken as one it would mean 1 ms frames
    path = _write_manifest(tmp_path, [_record(), _record("u2", frame_ms=True)])
    with pytest.raises(ManifestError, match="'frame_ms' .* at line 2"):
        load_manifest(path)


@pytest.mark.parametrize(
    "record, side_file, message",
    [
        ('["u2"]', None, "expected an object at line 2"),
        (_record(""), None, "'id' must be a non-empty string at line 2"),
        (_record(7), None, "'id' must be a non-empty string at line 2"),
        (_record("u2", frames="f.json"), "[[0.0,",
         "malformed frames file 'f.json' at line 2"),
        (_record("u2", frames={"path": "f.npy"}), None,
         "'frames' must be an array of feature rows at line 2"),
        (_record("u2", frames=[[0.0, "loud"]]), None,
         "bad frame row at line 2"),
        (_record("u2", frames=[[0.0, 1.0], [0.0]]), None,
         "share a feature dimension at line 2"),
        (_record("u2", frames=["12"]), None,
         "bad frame row at line 2: '12' is not an array of numbers"),
        (_record("u2", frames=[[True, False]]), None,
         r"bad frame row at line 2: \[True, False\] is not an array"),
        (_record("u2", frames=[["1.5", "0"]]), None,
         r"bad frame row at line 2: \['1.5', '0'\] is not an array"),
        (_record("u2", frames=[[10**400, 0]]), None,
         "bad frame row at line 2: int too large to convert to float"),
    ],
)
def test_load_manifest_names_the_line_of_a_bad_record(
    tmp_path, record, side_file, message
):
    if side_file is not None:
        (tmp_path / "f.json").write_text(side_file, encoding="utf-8")
    path = _write_manifest(tmp_path, [_record(), record])
    with pytest.raises(ManifestError, match=message):
        load_manifest(path)


def test_subword_token_is_hashable_value_object():
    assert bpe("a") == SubwordToken("a", Convention.BPE_SUFFIX)
    assert len({bpe("a"), bpe("a"), sp("a")}) == 2
