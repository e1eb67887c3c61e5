from __future__ import annotations

import json

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
    CurvePoint,
    DelaySequence,
    DetectionKind,
    MetricsReport,
    PolicyConfig,
    SimulRunError,
    SweepSpec,
    aggregate_metrics,
    evaluate_corpus,
    offline_greedy_translate,
    read_curve_csv,
    read_event_log,
    run_simultaneous,
    sweep,
    write_curve_csv,
    write_eval_outputs,
)
from simulharness.harness import evaluate_utterance, score_results


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

    def offline(utterance):
        return offline_greedy_translate(model, utterance), ()

    def broken(utterance):
        raise KeyError("no such table")

    results = [evaluate_utterance(a, offline), evaluate_utterance(b, broken)]
    assert results[1].error == "'no such table'"
    assert results[1].events == () and results[1].delays is None
    corpus = score_results([a, b], results)
    assert corpus.failures == ("b",)
    assert corpus.report.n_utts == 1
    assert corpus.report.bleu == pytest.approx(100.0, abs=1e-9)
    # offline, every word waits for the whole source: AL = LAAL = duration
    assert corpus.report.al_ms == pytest.approx(a.duration_ms)
    assert corpus.report.laal_ms == pytest.approx(a.duration_ms)
    with pytest.raises(ValueError):
        score_results([a], results)


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
    assert SweepSpec(k_values=(5, 1, 3)).k_values == (1, 3, 5)


def test_sweep_fails_loudly_when_nothing_scores():
    model = make_model()
    utt = aligned_utterance(model, ["da"], utt_id="no-ref")
    object.__setattr__(utt, "reference", ())
    with pytest.raises(SimulRunError, match="no scored utterances"):
        sweep([utt], model, SweepSpec(k_values=(1,)))


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
