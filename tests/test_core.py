from __future__ import annotations

import copy
import gc
import json
import pickle
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import bpe, sp
from simulharness import (
    Convention,
    Frame,
    FrameArray,
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
from simulharness.core import frames_from_rows

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


#: surfaces with the boundary markers anywhere, not only where
#: ``subword_tokens`` puts them
_ANY_SURFACES = [
    "", "@@", "a@@", "▁", "▁b", "c▁", "@@▁", "▁@@", "d", "e@@f", "▁▁", "@@@@",
]


@given(
    surfaces=st.lists(st.sampled_from(_ANY_SURFACES), max_size=8),
    convention=st.sampled_from(Convention),
    eos=st.booleans(),
)
def test_word_spans_follows_its_definition_on_any_surfaces(
    surfaces, convention, eos
):
    # Word ends are the BPE tokens without the suffix, or the tokens just
    # before an SP token with the prefix; with eos the last token is one too.
    # A word is its tokens' surfaces with one marker stripped each.
    n = len(surfaces)
    if convention is Convention.BPE_SUFFIX:
        ends = [i for i, s in enumerate(surfaces) if not s.endswith("@@")]
        pieces = [s.removesuffix("@@") for s in surfaces]
    else:
        ends = [i - 1 for i, s in enumerate(surfaces) if i and s[:1] == "▁"]
        pieces = [s.removeprefix("▁") for s in surfaces]
    if eos and n and n - 1 not in ends:
        ends.append(n - 1)
    starts = [0] + [e + 1 for e in ends]
    words = [("".join(pieces[a : e + 1]), e) for a, e in zip(starts, ends)]

    tokens = [SubwordToken(s, convention) for s in surfaces]
    spans, partial = word_spans(tokens, convention, eos=eos)
    assert spans == [(word, e) for word, e in words if word]
    assert partial is (n > 0 and (ends or [-1])[-1] < n - 1)


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


def test_subword_tokens_refuses_a_piece_shorter_than_one_character():
    for piece_len in (0, -1):
        with pytest.raises(ValueError, match="piece_len must be at least 1"):
            subword_tokens(["hello"], Convention.BPE_SUFFIX, piece_len)


# ---------------------------------------------------------------------------
# Frames, utterances, hypotheses
# ---------------------------------------------------------------------------


def test_frame_coerces_features_and_validates_duration():
    frame = Frame([1, 0])
    assert frame.features == (1.0, 0.0)
    with pytest.raises(ValueError, match="frame_ms must be positive"):
        Utterance(id="u", frames=(frame,), frame_ms=0)
    for copied in (pickle.loads(pickle.dumps(frame)), copy.deepcopy(frame)):
        assert type(copied) is Frame
        assert copied.features == (1.0, 0.0)
        assert all(type(x) is float for x in copied.features)
    assert hash(frame) == hash(Frame((1.0, 0.0)))
    assert len({frame, Frame((1.0, 0.0))}) == 1


@pytest.mark.parametrize(
    "rows",
    [[[0.0, 1.0], [2.0, 0.5]], [[0, 1], [2, 0]], [[0, 1.0], [2.0, 0]]],
    ids=["float", "int", "mixed"],
)
def test_frames_from_rows_makes_float_frames_of_any_number_rows(rows):
    frames = frames_from_rows(rows)
    assert all(type(f) is Frame for f in frames)
    assert [f.features for f in frames] == [
        tuple(map(float, row)) for row in rows
    ]
    assert all(type(x) is float for f in frames for x in f.features)


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


@pytest.mark.parametrize(
    "utt_id", [5, None, b"u", ("u",)], ids=["int", "none", "bytes", "tuple"]
)
def test_an_utterance_id_must_be_a_str(utt_id):
    """An id names a log file, so one of another type is refused here,
    not by a ``TypeError`` when the log is written."""
    with pytest.raises(ValueError, match="id must be a str"):
        Utterance(id=utt_id, frames=())


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
    # a source with no frames has no chunk; its step is checked all the same
    empty = Utterance(id="e", frames=())
    with pytest.raises(ValueError, match="not a multiple"):
        segment_stream(empty, 15)
    assert segment_stream(empty, 10) == []


# ---------------------------------------------------------------------------
# Manifests
# ---------------------------------------------------------------------------


def _bytes(line):
    """A manifest line as bytes: a dict as JSON, a string as UTF-8."""
    if isinstance(line, dict):
        line = json.dumps(line)
    return line if isinstance(line, bytes) else line.encode("utf-8")


def _write_manifest(tmp_path, lines):
    path = tmp_path / "manifest.jsonl"
    path.write_bytes(b"".join(_bytes(line) + b"\n" for line in lines))
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


def test_load_manifest_decodes_bytes_as_json_loads_does(tmp_path):
    # a UTF-8 BOM opens the manifest; the frames file is UTF-16
    (tmp_path / "f.json").write_bytes("[[0.0, 1.0]]".encode("utf-16"))
    path = _write_manifest(
        tmp_path, [b"\xef\xbb\xbf" + _bytes(_record(frames="f.json"))]
    )
    assert load_manifest(path)[0].frames[0].features == (0.0, 1.0)


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
        (['{"id": "u1", "frames": [[' + "9" * 5000 + "]]}"],
         "malformed JSON at line 1: Exceeds the limit"),
    ],
)
def test_load_manifest_error_messages(tmp_path, lines, message):
    path = _write_manifest(tmp_path, lines)
    with pytest.raises(ManifestError, match=message):
        load_manifest(path)


def test_an_overlong_integer_in_a_side_file_is_malformed_json(tmp_path):
    # json.loads raises a plain ValueError past 4,300 digits
    (tmp_path / "f.json").write_text(
        "[[" + "9" * 5000 + "]]", encoding="utf-8"
    )
    path = _write_manifest(tmp_path, [_record(frames="f.json")])
    with pytest.raises(ManifestError, match="malformed frames file 'f.json' "
                       "at line 1: Exceeds the limit"):
        load_manifest(path)


def test_load_manifest_takes_an_id_as_long_as_a_file_name(tmp_path):
    # 249 bytes of UTF-8, and 255 with the log's ``.jsonl``
    utt_id = "é" * 124 + "a"
    path = _write_manifest(tmp_path, [_record(utt_id)])
    assert load_manifest(path)[0].id == utt_id
    (tmp_path / f"{utt_id}.jsonl").write_text("", encoding="utf-8")


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
        (_record("u2", frames=[[0.0, 1.0], 5]), None,
         "bad frame row at line 2: 5 is not an array of numbers"),
        (_record("."), None, r"id '\.' is not a file name at line 2"),
        (_record(".."), None, r"id '\.\.' is not a file name at line 2"),
        (_record("../escaped"), None,
         r"id '\.\./escaped' is not a file name at line 2"),
        (_record("sub/dir"), None,
         "id 'sub/dir' is not a file name at line 2"),
        (_record("a\\b"), None, r"id 'a\\\\b' is not a file name at line 2"),
        (_record("a\0b"), None, r"id 'a\\x00b' is not a file name at line 2"),
        (_record("a\ud800"), None,
         r"id 'a\\ud800' is not a file name at line 2"),
        (_record("é" * 125), None, "id 'é+' is not a file name at line 2"),
        (b'{"id": "caf\xe9"}', None,
         "malformed JSON at line 2: 'utf-8' codec can't decode byte 0xe9"),
        (_record("u2", frames="f.json"), b"[[0.0, 1.0]] \xe9",
         "malformed frames file 'f.json' at line 2: 'utf-8' codec can't "
         "decode byte 0xe9"),
    ],
)
def test_load_manifest_names_the_line_of_a_bad_record(
    tmp_path, record, side_file, message
):
    if side_file is not None:
        (tmp_path / "f.json").write_bytes(_bytes(side_file))
    path = _write_manifest(tmp_path, [_record(), record])
    with pytest.raises(ManifestError, match=message):
        load_manifest(path)


def _collections_started(action, *args):
    """``action(*args)``, and the generation of each cyclic collection that
    started while it ran."""
    started = []

    def probe(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.callbacks.append(probe)
    try:
        result = action(*args)
    finally:
        gc.callbacks.remove(probe)
    return result, started


def test_a_load_sets_off_no_cyclic_collection(tmp_path):
    """A load makes no reference cycle, so a collection inside it could
    free nothing: it would only re-scan the frames built so far."""
    frames = [[0.5, float(i)] for i in range(500)]
    path = _write_manifest(
        tmp_path, [_record(f"u{i}", frames=frames) for i in range(8)]
    )
    assert gc.isenabled()
    utterances, started = _collections_started(load_manifest, path)
    assert started == []
    assert sum(u.n_frames for u in utterances) == 4000
    assert gc.isenabled()


@pytest.mark.parametrize("collecting", [True, False])
def test_a_load_leaves_the_callers_collector_setting_as_it_was(
    tmp_path, collecting
):
    (gc.enable if collecting else gc.disable)()
    try:
        load_manifest(_write_manifest(tmp_path, [_record(), _record("u2")]))
        assert gc.isenabled() is collecting
        path = _write_manifest(tmp_path, [_record(), _record(), _record("u3")])
        with pytest.raises(ManifestError, match="duplicate id 'u1' at line 2"):
            load_manifest(path)
        assert gc.isenabled() is collecting
    finally:
        gc.enable()


def test_subword_token_is_hashable_value_object():
    assert bpe("a") == SubwordToken("a", Convention.BPE_SUFFIX)
    assert len({bpe("a"), bpe("a"), sp("a")}) == 2


# ---------------------------------------------------------------------------
# FrameArray: one array, read as the tuple of frames it replaces
# ---------------------------------------------------------------------------

#: a JSON number of a manifest row: any finite float, or an int
_NUMBER = st.floats(allow_nan=False, allow_infinity=False) | st.integers(
    -(2**80), 2**80)
_ROWS = st.integers(0, 4).flatmap(lambda dim: st.lists(
    st.lists(_NUMBER, min_size=dim, max_size=dim), max_size=8))


@given(rows=_ROWS, other=_ROWS, index=st.integers(-10, 10),
       key=st.slices(10))
def test_a_frame_array_behaves_as_the_tuple_of_its_frames(
    rows, other, index, key
):
    frames, as_tuple = frames_from_rows(rows), tuple(map(Frame, rows))
    assert type(frames) is FrameArray
    assert len(frames) == len(as_tuple)
    if -len(as_tuple) <= index < len(as_tuple):
        assert type(frames[index]) is Frame
        assert frames[index] == as_tuple[index]
    else:
        with pytest.raises(IndexError):
            frames[index]
    # steps, negative bounds and empty ranges, each a view of the rows
    part = frames[key]
    assert type(part) is FrameArray
    assert part == as_tuple[key] and tuple(part) == as_tuple[key]
    if np.asarray(part).size:
        assert np.shares_memory(np.asarray(part), np.asarray(frames))
    assert all(type(f) is Frame for f in frames)
    assert list(frames) == list(as_tuple)
    assert frames == as_tuple and as_tuple == frames
    assert not frames != as_tuple and frames == frames_from_rows(rows)
    assert hash(frames) == hash(as_tuple)
    others = (frames_from_rows(other), tuple(map(Frame, other)))
    widths = {len(row) for row in rows + other}
    for left, right in ((frames, others[0]), (frames, others[1])):
        if len(widths) > 1:
            with pytest.raises(ValueError, match="feature dimension"):
                left + right
        else:
            total = left + right
            assert type(total) is FrameArray
            assert total == as_tuple + others[1]
    # the array itself, with no copy, and no one may write it
    array = np.asarray(frames)
    assert np.asarray(frames) is array and np.asarray(frames, float) is array
    assert not array.flags.writeable
    assert array.shape == (len(rows), len(rows[0]) if rows else 0)
    with pytest.raises(ValueError):
        array.flags.writeable = True
    for copied in (pickle.loads(pickle.dumps(frames)), copy.deepcopy(frames)):
        assert type(copied) is FrameArray and copied == frames
        assert not np.asarray(copied).flags.writeable


@given(rows=_ROWS.filter(bool))
def test_a_manifest_loads_rows_bit_for_bit_as_numpy_converts_them(rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.jsonl"
        path.write_text(json.dumps(
            {"id": "u", "frame_ms": 10, "frames": rows, "reference": ["x"]}
        ) + "\n", encoding="utf-8")
        (utterance,) = load_manifest(path)
    loaded, expected = np.asarray(utterance.frames), np.array(rows, float)
    assert loaded.dtype == np.float64
    assert loaded.shape == expected.shape
    assert loaded.tobytes() == expected.tobytes()
