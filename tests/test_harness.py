from __future__ import annotations

import copy
import gc
import json
import re
from dataclasses import replace
from operator import lt

import pytest

from helpers import (
    EXPANDING_LEXICON,
    TINY_LEXICON,
    DecoderFailsOnHaus,
    aligned_utterance,
    make_model,
)
from simulharness import (
    ActionKind,
    AdaptiveDetector,
    CurvePoint,
    DelaySequence,
    DetectionKind,
    LexiconMockModel,
    MetricsReport,
    ModelInterface,
    PolicyConfig,
    ServiceError,
    SimulRunError,
    StreamTranslationServer,
    SweepSpec,
    Utterance,
    aggregate_metrics,
    evaluate_corpus,
    offline_greedy_translate,
    read_curve_csv,
    read_event_log,
    run_simultaneous,
    score_corpus,
    segment_stream,
    stream_utterance,
    sweep,
    write_curve_csv,
    write_eval_outputs,
)
from simulharness import bleu, harness, policy


def _corpus(model, n_utts=3, n_words=6):
    vocab = model.source_words
    return [
        aligned_utterance(
            model,
            [vocab[(i + j) % len(vocab)] for j in range(n_words)],
            utt_id=f"utt-{i}",
        )
        for i in range(n_utts)
    ]


# ---------------------------------------------------------------------------
# evaluate_corpus
# ---------------------------------------------------------------------------


def test_evaluate_corpus_matches_direct_aggregation():
    model = make_model()
    utts = _corpus(model)
    config = PolicyConfig(k=3)
    corpus = evaluate_corpus(utts, model, config)
    assert corpus.failures == ()

    hyps, refs, delays = [], [], []
    for utt in utts:
        hyp, _ = run_simultaneous(model, utt, config)
        hyps.append(list(hyp.words))
        refs.append(list(utt.reference))
        delays.append(
            DelaySequence(
                ideal_ms=hyp.ideal_delays_ms,
                wall_ms=hyp.wall_delays_ms,
                source_ms=float(utt.duration_ms),
                hyp_len=len(hyp.words),
                ref_len=len(utt.reference),
            )
        )
    direct = aggregate_metrics(hyps, refs, delays)
    assert corpus.report.bleu == direct.bleu
    assert corpus.report.al_ms == direct.al_ms
    assert corpus.report.laal_ms == direct.laal_ms
    assert corpus.report.n_utts == 3
    # aligned 6-word corpus at k=3: the closed form pins both lag metrics
    assert corpus.report.al_ms == pytest.approx(3 * 280)
    assert corpus.report.laal_ms == pytest.approx(3 * 280)


def test_evaluate_corpus_isolates_failures():
    model = make_model()  # 7 feature channels
    other = make_model(EXPANDING_LEXICON)  # 5 channels: incompatible frames
    utts = _corpus(model, n_utts=2)
    bad = aligned_utterance(other, ["da", "esel"], utt_id="bad-dims")
    corpus = evaluate_corpus(utts + [bad], model, PolicyConfig(k=2))
    assert corpus.failures == ("bad-dims",)
    failed = corpus.results[2]
    assert failed.utt_id == "bad-dims"
    assert failed.hypothesis is None
    assert "feature" in failed.error
    # the healthy utterances still score
    assert corpus.report.n_utts == 2
    assert corpus.report.bleu == pytest.approx(100.0, abs=1e-9)


def test_evaluate_corpus_isolates_any_model_exception():
    model = DecoderFailsOnHaus()
    good = aligned_utterance(
        model, ["da", "esel", "geht", "hin", "ja"], utt_id="good"
    )
    bad = aligned_utterance(model, ["da", "haus", "geht"], utt_id="bad")
    corpus = evaluate_corpus([bad, good], model, PolicyConfig(k=1))
    assert corpus.failures == ("bad",)
    failed = corpus.results[0]
    assert "decoder table out of range" in failed.error
    # the partial log: "da" was read and written before "haus" arrived
    assert [e.kind.value for e in failed.events] == ["READ", "WRITE", "READ"]
    assert corpus.report.n_utts == 1
    assert corpus.report.bleu == pytest.approx(100.0, abs=1e-9)


def test_one_scoring_path_serves_any_translator():
    model = make_model()
    a = aligned_utterance(model, ["da", "esel", "geht", "hin"], utt_id="a")
    b = aligned_utterance(model, ["hin", "ja"], utt_id="b")

    def offline_or_broken(utterance):
        if utterance is b:
            raise KeyError("no such table")
        return offline_greedy_translate(model, utterance), ()

    # any iterable of utterances: a generator is read once
    corpus = score_corpus((u for u in (a, b)), offline_or_broken)
    assert [r.utt_id for r in corpus.results] == ["a", "b"]
    failed = corpus.results[1]
    assert failed.error == "'no such table'"
    assert failed.events == () and failed.delays is None
    assert corpus.failures == ("b",)
    assert corpus.report.n_utts == 1
    assert corpus.report.bleu == pytest.approx(100.0, abs=1e-9)
    # offline, every word waits for the whole source: AL = LAAL = duration
    assert corpus.report.al_ms == pytest.approx(a.duration_ms)
    assert corpus.report.laal_ms == pytest.approx(a.duration_ms)


def test_evaluate_corpus_rejects_empty_references_per_utterance():
    model = make_model()
    good = aligned_utterance(model, ["da", "esel", "geht"], utt_id="good")
    empty = aligned_utterance(model, ["da"], utt_id="no-ref")
    object.__setattr__(empty, "reference", ())
    corpus = evaluate_corpus([good, empty], model, PolicyConfig(k=1))
    assert corpus.failures == ("no-ref",)
    assert "empty reference" in corpus.results[1].error
    assert corpus.report.n_utts == 1


# ---------------------------------------------------------------------------
# Sweeps and the trade-off curve
# ---------------------------------------------------------------------------


def test_sweep_traces_the_latency_quality_curve(tmp_path):
    model = make_model()
    utts = _corpus(model, n_utts=3, n_words=6)
    spec = SweepSpec(
        k_values=(1, 2, 3, 4),
        strategies=(DetectionKind.FIXED, DetectionKind.ADAPTIVE),
        runs_per_point=2,
    )
    points = sweep(utts, model, spec, out_dir=tmp_path)

    fixed = [p for p in points if p.strategy is DetectionKind.FIXED]
    adaptive = [p for p in points if p.strategy is DetectionKind.ADAPTIVE]
    assert [p.k for p in fixed] == [1, 2, 3, 4]
    # ideal lag climbs with k and matches the closed form k * 280 (k < n)
    for p in fixed:
        assert p.laal_ms == pytest.approx(p.k * 280)
        assert p.bleu == pytest.approx(100.0, abs=1e-9)
    # the mock is noiseless, so both strategies land on identical points
    for f, a in zip(fixed, adaptive):
        assert (f.k, f.bleu, f.al_ms, f.laal_ms) == (
            a.k, a.bleu, a.al_ms, a.laal_ms
        )
    # computation-aware lag can only add to the ideal reading schedule
    assert all(p.laal_ca_ms >= p.laal_ms for p in points)

    # per-run sidecars exist alongside the averaged curve
    assert (tmp_path / "curve.csv").is_file()
    assert (tmp_path / "runs" / "1" / "curve.csv").is_file()
    assert (tmp_path / "runs" / "2" / "curve.csv").is_file()
    averaged = read_curve_csv(tmp_path / "curve.csv")
    assert sorted(averaged, key=lambda p: (p.strategy.value, p.k)) == sorted(
        points, key=lambda p: (p.strategy.value, p.k)
    )


def test_sweep_spec_validation():
    with pytest.raises(ValueError, match="k_values"):
        SweepSpec(k_values=())
    with pytest.raises(ValueError, match="k_values"):
        SweepSpec(k_values=(0, 3))
    with pytest.raises(ValueError, match="runs_per_point"):
        SweepSpec(runs_per_point=0)
    # PolicyConfig checks each grid point: exact ints, no float, no bool
    for bad in ((3.7,), (True, 3)):
        with pytest.raises(ValueError, match="k_values or strategies: k must"):
            SweepSpec(k_values=bad)
    for bad in (1.5, True):
        with pytest.raises(ValueError, match="runs_per_point must be int"):
            SweepSpec(runs_per_point=bad)
    with pytest.raises(ValueError, match="k_values must be distinct"):
        SweepSpec(k_values=(3, 3))
    with pytest.raises(ValueError, match="strategies must not be empty"):
        SweepSpec(strategies=())
    with pytest.raises(ValueError, match="detection must be 'fixed' or"):
        SweepSpec(strategies=("fast",))
    with pytest.raises(ValueError, match="strategies must be distinct"):
        SweepSpec(strategies=("fixed", DetectionKind.FIXED))
    with pytest.raises(ValueError, match="base_config must be a PolicyConfig"):
        SweepSpec(base_config={"k": 3})
    assert SweepSpec(k_values=(5, 1, 3)).k_values == (1, 3, 5)
    # a strategy's value is coerced to its member, so the curve writes
    spec = SweepSpec(k_values=(5, 1), strategies=("adaptive", "fixed"))
    assert spec.strategies == (DetectionKind.ADAPTIVE, DetectionKind.FIXED)
    assert [(c.detection.value, c.k) for c in spec.grid] == [
        ("adaptive", 1), ("adaptive", 5), ("fixed", 1), ("fixed", 5)
    ]


def test_sweep_fails_loudly_when_nothing_scores():
    model = make_model()
    utt = aligned_utterance(model, ["da"], utt_id="no-ref")
    object.__setattr__(utt, "reference", ())
    with pytest.raises(SimulRunError, match="no scored utterances"):
        sweep([utt], model, SweepSpec(k_values=(1,)))


# ---------------------------------------------------------------------------
# One shared encoding per sweep repeat
# ---------------------------------------------------------------------------


class _CountingModel(LexiconMockModel):
    """The tiny mock, counting the chunks it is asked to encode."""

    def __init__(self) -> None:
        super().__init__(TINY_LEXICON)
        self.encodes = 0

    def encode_more(self, states, frames, start):
        self.encodes += 1
        return super().encode_more(states, frames, start)


class _ShortWindowReencoder(LexiconMockModel):
    """The tiny mock seen only through ``encode_prefix`` (the default
    ``encode_more`` re-encodes the whole prefix), deaf past frame 60, and
    returning one states object for every prefix that heard the same
    words.  So the states of a prefix and one chunk do not follow from the
    shorter prefix's states and that chunk."""

    WINDOW = 60

    def __init__(self) -> None:
        super().__init__(TINY_LEXICON)
        self._interned = {}

    def encode_more(self, states, frames, start):
        return ModelInterface.encode_more(self, states, frames, start)

    def encode_prefix(self, frames):
        silence = (0.0,) * len(self.source_vocab)
        heard = list(frames[: self.WINDOW])
        heard += [silence] * (len(frames) - len(heard))
        states, posterior = super().encode_prefix(heard)
        return self._interned.setdefault(states, states), posterior


def _sweep_evaluations(monkeypatch, utts, model, spec):
    """Sweep; return the curve and the (config, result) of every
    evaluation the sweep made, in order."""
    seen = []
    evaluate = harness.evaluate_corpus

    def recording(utterances, model, config):
        result = evaluate(utterances, model, config)
        seen.append((config, result))
        return result

    monkeypatch.setattr(harness, "evaluate_corpus", recording)
    return sweep(utts, model, spec), seen


def _outputs(result):
    return [
        (
            r.utt_id,
            r.error,
            [(e.kind, e.payload, e.ideal_ms) for e in r.events],
            r.hypothesis and (
                r.hypothesis.tokens, r.hypothesis.words,
                r.hypothesis.ideal_delays_ms, r.hypothesis.truncated,
            ),
        )
        for r in result.results
    ]


def _assert_sweep_matches_plain_runs(monkeypatch, utts, model, spec):
    points, seen = _sweep_evaluations(monkeypatch, utts, model, spec)
    assert len(seen) == len(points) * spec.runs_per_point
    plain = {}
    for config, result in seen:
        key = (config.detection, config.k)
        if key not in plain:
            plain[key] = evaluate_corpus(utts, model, config)
        assert _outputs(result) == _outputs(plain[key])
    for p in points:
        report = plain[(p.strategy, p.k)].report
        assert (p.bleu, p.al_ms, p.laal_ms) == (
            report.bleu, report.al_ms, report.laal_ms
        )


@pytest.mark.parametrize("target_convention", ["bpe", "sp"])
@pytest.mark.parametrize("eos_early", [False, True])
def test_a_shared_encoding_leaves_every_point_as_a_plain_run(
    monkeypatch, eos_early, target_convention
):
    # two-letter pieces, so the target convention decides where words end
    model = make_model(
        eos_early=eos_early, target_convention=target_convention,
        target_piece_len=2,
    )
    utts = _corpus(model, n_utts=3, n_words=6) + [
        # silence between words moves adaptive detection off the fixed one
        aligned_utterance(
            model, ["da", "esel", "geht"], gaps_ms=[0, 560, 280, 840],
            utt_id="gappy",
        )
    ]
    # the mock's early EOS ends the target once the source is read, so it
    # is substituted at every point and k stays under the shortest source
    base = PolicyConfig(avoid_eos_while_reading=True if eos_early else None)
    k_values = (1, 2) if eos_early else (1, 2, 4, 7)
    spec = SweepSpec(k_values=k_values, runs_per_point=2, base_config=base)
    _assert_sweep_matches_plain_runs(monkeypatch, utts, model, spec)


def test_a_sweep_encodes_each_chunk_once_per_repeat():
    model = _CountingModel()
    utts = _corpus(model, n_utts=3, n_words=5)
    config = SweepSpec().base_config
    n_chunks = sum(len(segment_stream(u, config.step_ms)) for u in utts)
    spec = SweepSpec(k_values=(1, 3, 9), runs_per_point=3)
    sweep(utts, model, spec)
    assert model.encodes == n_chunks * spec.runs_per_point
    # nothing outlives the call: a second sweep encodes all over again
    sweep(utts, model, spec)
    assert model.encodes == 2 * n_chunks * spec.runs_per_point


def test_a_sweep_keys_its_encodings_on_identity_not_content():
    """Utterances with equal rows, and one whose chunks each equal
    another's, are still each encoded once per repeat: a chunk is known by
    the array it lies in and its rows there, not by its values."""
    model = _CountingModel()
    twin = aligned_utterance(model, ["da", "esel", "da"], utt_id="a")
    utts = [twin, aligned_utterance(model, ["da", "esel", "da"], utt_id="b"),
            Utterance("c", twin.frames[:28] + twin.frames,
                      reference=("there",) + twin.reference)]
    assert utts[0].frames == utts[1].frames
    step_ms = SweepSpec().base_config.step_ms
    n_chunks = sum(len(segment_stream(u, step_ms)) for u in utts)
    spec = SweepSpec(k_values=(1, 2, 5), runs_per_point=2)
    points = sweep(utts, model, spec)
    assert model.encodes == n_chunks * spec.runs_per_point
    assert all(p.bleu == pytest.approx(100.0) for p in points)


@pytest.mark.parametrize("runs_per_point", [1, 2])
def test_a_sweep_scores_each_reference_once_per_call(
    monkeypatch, runs_per_point
):
    """13a tokenizes each distinct reference once per sweep, and each
    distinct hypothesis once per reference it is scored against, whatever
    the points and repeats that score it."""
    model = make_model()
    utts = _corpus(model, n_utts=3, n_words=4)
    utts += [replace(utts[0], id="twin"),  # a repeated reference
             replace(utts[1], id="unscored", reference=())]
    lines = []
    tokenize = bleu.tokenize_13a

    def counting(line):
        lines.append(line)
        return tokenize(line)

    monkeypatch.setattr(bleu, "tokenize_13a", counting)
    # a premature EOS ends the target: fixed k=1 writes one word, fixed k=3
    # two, and adaptive detection all four
    base = PolicyConfig(force_finish=False, avg_word_ms=100)
    spec = SweepSpec(k_values=(1, 3), runs_per_point=runs_per_point,
                     base_config=base)
    n_refs, n_hyps = 3, 3  # distinct hypotheses per reference
    once = n_refs + n_refs * n_hyps
    sweep(utts, model, spec)
    assert len(lines) == once
    # a second sweep tokenizes its segments again
    sweep(utts, model, spec)
    assert len(lines) == 2 * once


def test_a_sweep_leaves_no_reference_memo_open():
    model = make_model()
    sweep(_corpus(model, n_utts=2, n_words=3), model, SweepSpec(k_values=(1,)))
    assert bleu._references.get(None) is None
    utt = aligned_utterance(model, ["da"], utt_id="no-ref")
    object.__setattr__(utt, "reference", ())
    with pytest.raises(SimulRunError, match="no scored utterances"):
        sweep([utt], model, SweepSpec(k_values=(1,)))
    assert bleu._references.get(None) is None


def test_a_shared_encoding_is_charged_to_every_point():
    """Each point waits for the encodes before each word, as it would on
    its own: word i of an aligned utterance follows k + i - 1 READs, and
    AL's window covers words 1..n-k+1."""
    delay, n = 2.0, 6
    model = make_model(compute_delay_ms=delay)
    utts = _corpus(model, n_utts=2, n_words=n)
    spec = SweepSpec(k_values=(1, 3, 5))
    for p in sweep(utts, model, spec):
        window = n - p.k + 1
        reads = sum(p.k + i - 1 for i in range(1, window + 1)) / window
        assert p.al_ca_ms - p.al_ms >= delay * reads


def test_a_sweep_is_right_for_a_model_that_shares_its_states(monkeypatch):
    """Two prefixes share their states object and their next chunk's
    frames, yet not what that chunk makes of them: a memo keyed on the
    states would hand the second the first one's encoding."""
    model = _ShortWindowReencoder()
    heard = aligned_utterance(model, ["da"], gaps_ms=[280, 0], utt_id="x")
    silence = heard.frames[:28]
    # the same frame objects, one silent chunk later: "da" ends past frame 60
    late = Utterance(
        "late", silence + heard.frames, reference=heard.reference
    )
    utts = [heard, late, aligned_utterance(model, ["ja", "hin"], utt_id="z")]
    spec = SweepSpec(k_values=(1, 2))
    _assert_sweep_matches_plain_runs(monkeypatch, utts, model, spec)


@pytest.mark.parametrize("base", [
    PolicyConfig(),
    PolicyConfig(max_target_words=2),
    PolicyConfig(force_finish=False, avg_word_ms=100),
], ids=["default", "capped", "unforced"])
def test_a_sweep_is_right_for_utterances_that_share_one_frame_array(
    monkeypatch, base
):
    """Prefixes of one array, the array itself, and the array at another
    frame rate: each chunk is known by its rows in the array, not by the
    array and the number of chunks before it."""
    model = make_model()
    whole = aligned_utterance(
        model, ["da", "esel", "geht", "ja", "hin", "haus"], utt_id="whole"
    )
    frames, reference = whole.frames, whole.reference
    utts = [
        Utterance("first-50", frames[:50], reference=reference[:2]),
        Utterance("first-112", frames[:112], reference=reference[:4]),
        whole,
        Utterance("slow", frames, frame_ms=20, reference=reference),
    ]
    assert len({id(u.frames._source) for u in utts}) == 1
    spec = SweepSpec(k_values=(1, 2, 4), base_config=base)
    _assert_sweep_matches_plain_runs(monkeypatch, utts, model, spec)


class _Cache:
    """Mutable encoder states: the words heard so far and their targets."""

    visible_words = target_ids = ()


class _CachingModel(LexiconMockModel):
    """The tiny mock keeping its states in a cache.  With ``in_place`` it
    extends the cache it is given, which the model contract forbids;
    without, it extends a copy."""

    def __init__(self, in_place) -> None:
        super().__init__(TINY_LEXICON)
        self.in_place = in_place

    def encode_more(self, states, frames, start):
        tail, posterior = super().encode_more(None, frames, start)
        cache = states or _Cache()
        if not self.in_place:
            cache = copy.copy(cache)
        cache.visible_words += tail.visible_words
        cache.target_ids += tail.target_ids
        return cache, posterior


def test_a_sweep_relies_on_encode_more_leaving_earlier_states_alone(
    monkeypatch,
):
    """``encode_more`` must return new states, never update the ones it is
    given.  A cache updated in place works in a plain run, which never
    looks back; in a sweep, a later point reads an earlier prefix's states
    after they heard the rest of the source, and writes words early."""
    model = _CachingModel(in_place=False)
    utts = [
        aligned_utterance(
            model, ["da", "esel", "geht"], gaps_ms=[0, 560, 280, 840],
            utt_id="gappy",
        ),
        aligned_utterance(model, ["ja", "hin", "da", "haus"], utt_id="b"),
    ]
    spec = SweepSpec(k_values=(1, 2, 3), strategies=("fixed",))
    _assert_sweep_matches_plain_runs(monkeypatch, utts, model, spec)

    model = _CachingModel(in_place=True)
    points = sweep(utts, model, spec)
    plain = [evaluate_corpus(utts, model, c).report for c in spec.grid]
    # the first point reads each prefix's states before they change
    assert points[0].al_ms == plain[0].al_ms
    for point, report in zip(points[1:], plain[1:]):
        assert point.al_ms < report.al_ms


class _EncoderFailsOnHaus(_CountingModel):
    def encode_more(self, states, frames, start):
        if any(frame[self.source_word_index["haus"]] for frame in frames):
            raise RuntimeError("encoder overflow")
        return super().encode_more(states, frames, start)


def test_a_failed_encode_fails_its_utterance_at_every_point(monkeypatch):
    model = _EncoderFailsOnHaus()
    utts = [
        aligned_utterance(model, ["da", "esel", "geht"], utt_id="a"),
        aligned_utterance(model, ["ja", "haus", "da"], utt_id="bad"),
        aligned_utterance(model, ["hin", "ja", "da"], utt_id="c"),
    ]
    spec = SweepSpec(k_values=(1, 4), runs_per_point=2)
    _, seen = _sweep_evaluations(monkeypatch, utts, model, spec)
    assert len(seen) == 8
    for _, result in seen:
        assert result.failures == ("bad",)
        (failed,) = (r for r in result.results if r.error is not None)
        assert failed.error == "encoder overflow"
        # the chunk read before the failure is in its partial log
        assert [e.kind for e in failed.events][:1] == [ActionKind.READ]


class _CollectorProbe(_EncoderFailsOnHaus):
    """Records whether the cyclic collector was on during each encode."""

    def __init__(self) -> None:
        super().__init__()
        self.collecting = []

    def encode_more(self, states, frames, start):
        self.collecting.append(gc.isenabled())
        return super().encode_more(states, frames, start)


def test_a_shared_encode_holds_off_the_collector_and_restores_it():
    """The memo keeps what each encode allocates, so a collection set off
    inside a timed encode would be charged to every point.  The caller's
    setting comes back, after a failed encode too."""
    model = _CollectorProbe()
    utts = [
        aligned_utterance(model, ["da", "esel"], utt_id="a"),
        aligned_utterance(model, ["ja", "haus"], utt_id="bad"),
    ]
    spec = SweepSpec(k_values=(1, 2))
    assert gc.isenabled()
    sweep(utts, model, spec)
    assert model.collecting and not any(model.collecting)
    assert gc.isenabled()
    gc.disable()
    try:
        sweep(utts, model, spec)
        assert not gc.isenabled()
    finally:
        gc.enable()


class _CollectorRecorder(DecoderFailsOnHaus):
    """Records whether the cyclic collector was on in each model call; the
    decoder raises once it has heard "haus"."""

    def __init__(self) -> None:
        super().__init__()
        self.collecting = []

    def encode_more(self, states, frames, start):
        self.collecting.append(gc.isenabled())
        return super().encode_more(states, frames, start)

    def decoder_step(self, states, target_prefix_ids):
        self.collecting.append(gc.isenabled())
        return super().decoder_step(states, target_prefix_ids)


def _evaluate(model, good, bad):
    result = evaluate_corpus([good, bad], model, PolicyConfig(k=1))
    assert result.failures == ("bad",)


def _offline(model, good, bad):
    offline_greedy_translate(model, good)
    with pytest.raises(SimulRunError, match="decoder table"):
        offline_greedy_translate(model, bad)


def _remote(model, good, bad):
    with StreamTranslationServer(model) as server:
        stream_utterance(server.address, good, PolicyConfig(k=1), timeout_s=10)
        with pytest.raises(ServiceError, match="decoder table"):
            stream_utterance(
                server.address, bad, PolicyConfig(k=1), timeout_s=10
            )


@pytest.mark.parametrize(
    "path", [_evaluate, _offline, _remote],
    ids=["evaluate_corpus", "offline", "remote"],
)
def test_every_path_charges_model_calls_with_the_collector_off(path):
    """The engine holds the collector off for each step, so no collection
    is charged as model compute on any path that drives it.  The caller's
    setting comes back after every step, a failed one too, and a server
    session restores it before its last reply."""
    model = _CollectorRecorder()
    good = aligned_utterance(model, ["da", "esel"], utt_id="good")
    bad = aligned_utterance(model, ["ja", "haus"], utt_id="bad")
    assert gc.isenabled()
    path(model, good, bad)
    assert model.collecting and not any(model.collecting)
    assert gc.isenabled()
    gc.disable()
    try:
        path(model, good, bad)
        assert not gc.isenabled()
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# One adaptive detection per sweep repeat
# ---------------------------------------------------------------------------


@pytest.fixture
def counting_detector(monkeypatch):
    """Every engine's adaptive detector counts its updates (``count``), and
    all of them together (``updates``); ``detectors`` holds every detector,
    in the order the engines made them."""

    class CountingDetector(AdaptiveDetector):
        updates = 0
        detectors = []

        def __init__(self, convention):
            super().__init__(convention)
            self.count = 0
            CountingDetector.detectors.append(self)

        def update(self, posterior, first):
            CountingDetector.updates += 1
            self.count += 1
            return super().update(posterior, first)

    monkeypatch.setattr(policy, "AdaptiveDetector", CountingDetector)
    return CountingDetector


def _assert_updates_past_earlier_reads(detectors, reads):
    """``reads[j][u]`` is the number of chunks the j-th adaptive grid point
    read of utterance u, and ``detectors`` are the sweep's, point by point
    and utterance by utterance.  On each utterance, a point's detector
    updates once per chunk that point read where it read past every earlier
    adaptive point, and never otherwise, wherever the skipped rows wait."""
    expected = [
        n if all(n > earlier[u] for earlier in reads[:j]) else 0
        for j, point_reads in enumerate(reads)
        for u, n in enumerate(point_reads)
    ]
    assert [d.count for d in detectors] == expected


def _gappy(model, words, utt_id):
    gaps = [140 * (i % 3) for i in range(len(words) + 1)]
    return aligned_utterance(model, words, gaps_ms=gaps, utt_id=utt_id)


@pytest.mark.parametrize("k_values", [(3,), (1, 3, 9)])
def test_a_sweep_detects_each_chunk_once_per_repeat(
    counting_detector, k_values
):
    model = make_model()
    utts = _corpus(model, n_utts=2, n_words=5) + [
        _gappy(model, ["da", "esel", "geht", "ja"], "gappy")
    ]
    spec = SweepSpec(k_values=k_values, runs_per_point=3)
    n_chunks = sum(
        len(segment_stream(u, spec.base_config.step_ms)) for u in utts
    )
    sweep(utts, model, spec)
    assert counting_detector.updates == n_chunks * spec.runs_per_point
    # every point reads every chunk, so only the first adaptive one updates
    reads = [
        [len(segment_stream(u, spec.base_config.step_ms)) for u in utts]
    ] * len(k_values)
    repeat = len(reads) * len(utts)
    detectors = counting_detector.detectors
    assert len(detectors) == repeat * spec.runs_per_point
    for start in range(0, len(detectors), repeat):
        _assert_updates_past_earlier_reads(
            detectors[start:start + repeat], reads
        )


#: source words as SentencePiece pieces: a word opens at a ``▁`` piece
SP_SOURCE_LEXICON = {
    "▁da": "there",
    "▁esel": "donkey",
    "geht": "goes",
    "▁haus": "house",
    "hin": "to",
    "▁ja": "yes",
}


class _Reencoder(LexiconMockModel):
    """The mock seen only through ``encode_prefix``: every posterior covers
    the whole prefix."""

    def encode_more(self, states, frames, start):
        return ModelInterface.encode_more(self, states, frames, start)


@pytest.mark.parametrize("step_ms", [140, 280])
@pytest.mark.parametrize("model_class", [LexiconMockModel, _Reencoder])
def test_a_sweep_counts_sentencepiece_source_words_as_plain_runs(
    monkeypatch, model_class, step_ms
):
    """A SentencePiece word closes only at the next word's first piece.  A
    posterior that covers rows the detector has seen makes it take back
    each word whose closing piece it finds again."""
    model = model_class(SP_SOURCE_LEXICON)
    utts = [
        _gappy(model, ["▁da", "geht", "▁ja", "hin", "▁esel"], "a"),
        aligned_utterance(model, ["geht", "▁haus", "▁ja", "hin"], utt_id="b"),
        _gappy(model, ["▁esel", "hin", "geht", "▁da", "▁haus"], "c"),
    ]
    base = PolicyConfig(source_convention="sp", step_ms=step_ms)
    spec = SweepSpec(k_values=(1, 2, 3), runs_per_point=2, base_config=base)
    _assert_sweep_matches_plain_runs(monkeypatch, utts, model, spec)


@pytest.mark.parametrize("model_class", [LexiconMockModel, _Reencoder])
def test_a_point_that_reads_past_the_counted_prefixes_replays_them(
    monkeypatch, counting_detector, model_class
):
    """With a word cap, a point with a small k stops reading early, so a
    later point reads prefixes no earlier point counted: its detector takes
    the rows it skipped, and then counts them for the points after it.  A
    re-encoder's posteriors start at frame 0, so taking them rewinds it."""
    model = model_class(TINY_LEXICON)
    utts = _corpus(model, n_utts=3, n_words=6) + [
        _gappy(model, ["da", "esel", "geht", "ja", "hin"], "gappy")
    ]
    spec = SweepSpec(
        k_values=(1, 2, 4), base_config=PolicyConfig(max_target_words=2)
    )
    _assert_sweep_matches_plain_runs(monkeypatch, utts, model, spec)
    swept = list(counting_detector.detectors)
    reads = [
        [
            sum(e.kind is ActionKind.READ for e in r.events)
            for r in evaluate_corpus(utts, model, config).results
        ]
        for config in spec.grid
        if config.detection is DetectionKind.ADAPTIVE
    ]
    # each adaptive point after the first reads further on every utterance
    # than the points before it, so it takes the rows it skipped
    for shorter, longer in zip(reads, reads[1:]):
        assert all(map(lt, shorter, longer))
    _assert_updates_past_earlier_reads(swept[:len(reads) * len(utts)], reads)


# ---------------------------------------------------------------------------
# File round trips
# ---------------------------------------------------------------------------


def test_curve_csv_round_trips_floats_exactly(tmp_path):
    points = [
        CurvePoint(DetectionKind.FIXED, 3, 38.75385825373298,
                   840.0, 843.3333333333334, 900.123, 910.456),
        CurvePoint(DetectionKind.ADAPTIVE, 5, 66.87403049764218,
                   1400.0, 1400.0, 1402.5, 1403.75),
    ]
    path = tmp_path / "curve.csv"
    write_curve_csv(path, points)
    assert read_curve_csv(path) == sorted(
        points, key=lambda p: (p.strategy.value, p.k)
    )


def test_read_curve_csv_rejects_foreign_headers(tmp_path):
    path = tmp_path / "curve.csv"
    path.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unexpected curve header"):
        read_curve_csv(path)


_CURVE_HEADER_LINE = "strategy,k,bleu,AL_ms,LAAL_ms,AL_CA_ms,LAAL_CA_ms\n"
_CURVE_ROW = "fixed,3,38.5,840.0,843.5,900.0,910.0\n"


@pytest.mark.parametrize(
    "text, complaint",
    [
        ("", "line 1: unexpected curve header ()"),
        (_CURVE_HEADER_LINE + _CURVE_ROW + "adaptive,5,66.0\n",
         "line 3: 7 fields expected, got 3"),
        (_CURVE_HEADER_LINE + "\n" + _CURVE_ROW + _CURVE_ROW + ",x\n",
         "line 5: 7 fields expected, got 2"),
        (_CURVE_HEADER_LINE + _CURVE_ROW.rstrip() + ",1.0\n",
         "line 2: 7 fields expected, got 8"),
        (_CURVE_HEADER_LINE + _CURVE_ROW.replace("fixed", "eager"),
         "line 2: 'eager' is not a valid DetectionKind"),
        (_CURVE_HEADER_LINE + _CURVE_ROW.replace(",3,", ",3.5,"),
         "line 2: invalid literal for int"),
        (_CURVE_HEADER_LINE + _CURVE_ROW.replace("38.5", "n/a"),
         "line 2: could not convert string to float"),
    ],
)
def test_read_curve_csv_names_the_line_of_a_broken_file(
    tmp_path, text, complaint
):
    path = tmp_path / "curve.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(complaint)):
        read_curve_csv(path)


def test_write_eval_outputs_layout(tmp_path):
    model = make_model()
    utts = _corpus(model, n_utts=2)
    bad = aligned_utterance(
        make_model(EXPANDING_LEXICON), ["da"], utt_id="broken"
    )
    corpus = evaluate_corpus(utts + [bad], model, PolicyConfig(k=2))
    write_eval_outputs(tmp_path, corpus)

    report = MetricsReport.from_json(
        (tmp_path / "metrics.json").read_text(encoding="utf-8")
    )
    assert report == corpus.report

    for result in corpus.results[:2]:
        log_path = tmp_path / "logs" / f"{result.utt_id}.jsonl"
        assert read_event_log(log_path) == list(result.events)

    broken_lines = (
        (tmp_path / "logs" / "broken.jsonl")
        .read_text(encoding="utf-8").splitlines()
    )
    assert json.loads(broken_lines[-1])["error"] == corpus.results[2].error


@pytest.mark.parametrize("bad_id", ["../../escaped", "..", "a/b", "x\\y", ""])
def test_write_eval_outputs_refuses_an_id_that_is_no_file_name(
    tmp_path, bad_id
):
    """An id names its log, as in a manifest: one that is no file name
    could write outside ``out_dir`` (or, empty, a hidden ``.jsonl``), so
    nothing is written at all."""
    model = make_model()
    good, bad = _corpus(model, n_utts=2)
    corpus = evaluate_corpus(
        [good, replace(bad, id=bad_id)], model, PolicyConfig(k=2)
    )
    with pytest.raises(ValueError, match="is not a file name"):
        write_eval_outputs(tmp_path / "a" / "b" / "out", corpus)
    assert not list(tmp_path.iterdir())


def test_write_eval_outputs_refuses_duplicate_ids(tmp_path):
    """Two results with one id would write one log over the other, so
    nothing is written at all."""
    model = make_model()
    first, second = _corpus(model, n_utts=2)
    corpus = evaluate_corpus(
        [first, replace(second, id=first.id)], model, PolicyConfig(k=2)
    )
    assert len(corpus.results) == 2
    with pytest.raises(ValueError, match="duplicate id 'utt-0'"):
        write_eval_outputs(tmp_path / "out", corpus)
    assert not list(tmp_path.iterdir())


def test_the_log_of_a_failed_utterance_reads_back(tmp_path):
    model = DecoderFailsOnHaus()
    utt = aligned_utterance(model, ["da", "esel", "haus"], utt_id="broken")
    corpus = evaluate_corpus([utt], model, PolicyConfig(k=1))
    (result,) = corpus.results
    assert result.error == "decoder table out of range"
    assert any(e.kind is ActionKind.WRITE for e in result.events)
    write_eval_outputs(tmp_path, corpus)
    with pytest.raises(SimulRunError, match="decoder table") as info:
        read_event_log(tmp_path / "logs" / "broken.jsonl")
    assert info.value.events == result.events
