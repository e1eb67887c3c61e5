"""Ten end-to-end acceptance checks for the streaming translation harness.

Each test is a self-contained criterion with an explicit tolerance and a
runtime budget; the terminal summary prints one PASS/FAIL line per criterion.
All expected values come from closed forms or independent oracles computed in
``helpers`` -- never from the code under test.
"""

from __future__ import annotations

import random
import statistics
import time

import pytest

from helpers import (
    TINY_LEXICON,
    aligned_utterance,
    expected_waitk_delays,
    make_model,
    oracle_bleu,
    oracle_offline,
)
from simulharness import (
    Convention,
    DelaySequence,
    DetectionKind,
    PolicyConfig,
    Regime,
    StreamTranslationServer,
    SweepSpec,
    adaptive_word_count,
    average_lagging,
    build_synthetic_utterance,
    client_evaluate,
    corpus_bleu,
    ctc_greedy_collapse,
    evaluate_corpus,
    fixed_word_count,
    length_adaptive_average_lagging,
    length_difference,
    offline_greedy_translate,
    read_curve_csv,
    report_regimes,
    run_simultaneous,
    sweep,
    synthetic_corpus,
    waitk_attention_mask,
)
from simulharness.core import Frame


class _Budget:
    """Assert the criterion finished inside its stated wall-clock budget."""

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds

    def __enter__(self) -> "_Budget":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, *rest) -> None:
        elapsed = time.perf_counter() - self._start
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion exceeded its {self.seconds:.0f}s budget "
                f"({elapsed:.1f}s)"
            )


def test_criterion_01_waitk_schedule_oracle():
    """Per-word ideal delays equal min((k+i-1)*280, T) exactly for
    k in {3,5,7,9,11} and source lengths 1-20 (fixed detection).
    Tolerance: exact.  Budget: 5 s."""
    with _Budget(5):
        model = make_model()
        vocab = model.source_words
        for k in (3, 5, 7, 9, 11):
            config = PolicyConfig(k=k, detection="fixed")
            for n in range(1, 21):
                words = [vocab[i % len(vocab)] for i in range(n)]
                utt = aligned_utterance(model, words)
                hyp, _ = run_simultaneous(model, utt, config)
                assert len(hyp.words) == n
                assert list(hyp.ideal_delays_ms) == expected_waitk_delays(
                    n, n, k
                ), (k, n)


def test_criterion_02_wait_forever_equals_offline():
    """run_simultaneous with an effectively infinite k is token-identical
    to offline greedy translation, and AL = LAAL = T per utterance, on 100
    random synthetic utterances.  Tolerance: exact.  Budget: 5 s."""
    with _Budget(5):
        model = make_model()
        corpus = synthetic_corpus(
            model, n_utts=100, rng=random.Random(11),
            min_words=1, max_words=12,
        )
        config = PolicyConfig(k=10**9, detection="fixed")
        for utt in corpus:
            streamed, _ = run_simultaneous(model, utt, config)
            offline = offline_greedy_translate(model, utt)
            assert streamed.tokens == offline.tokens
            assert streamed.words == offline.words
            assert (streamed.tokens, streamed.words) == oracle_offline(
                model, utt
            )
            duration = float(utt.duration_ms)
            assert all(d == duration for d in streamed.ideal_delays_ms)
            delays = DelaySequence(
                ideal_ms=streamed.ideal_delays_ms,
                wall_ms=streamed.ideal_delays_ms,
                source_ms=duration,
                hyp_len=len(streamed.words),
                ref_len=len(utt.reference),
            )
            assert average_lagging(delays) == duration
            assert length_adaptive_average_lagging(delays) == duration


def test_criterion_03_lagging_identities():
    """LAAL >= AL on 10,000 random delay sequences; on sequences whose
    delays all undercut the source length, equality holds iff
    |hypothesis| <= |reference|.  Hand fixtures match to 1e-9.  Budget: 5 s.
    """
    with _Budget(5):
        source = 1680.0
        delays = (840.0, 1120.0, 1400.0, 1680.0)
        for ref_len, expected_al, expected_laal in (
            (4, 630.0, 630.0),
            (3, 420.0, 630.0),
            (6, 840.0, 840.0),
        ):
            seq = DelaySequence(
                ideal_ms=delays, wall_ms=delays, source_ms=source,
                hyp_len=4, ref_len=ref_len,
            )
            assert abs(average_lagging(seq) - expected_al) < 1e-9
            assert (
                abs(length_adaptive_average_lagging(seq) - expected_laal)
                < 1e-9
            )

        rng = random.Random(23)
        for case in range(10_000):
            hyp_len = rng.randint(1, 12)
            ref_len = rng.randint(1, 12)
            source_ms = rng.uniform(500.0, 5000.0)
            generic = case % 2 == 0
            if generic:
                samples = [
                    rng.uniform(0.0, source_ms - 1.0) for _ in range(hyp_len)
                ]
            else:
                # let some delays saturate at the source duration
                samples = [
                    min(rng.uniform(0.0, source_ms * 1.5), source_ms)
                    for _ in range(hyp_len)
                ]
            ideal = tuple(sorted(samples))
            seq = DelaySequence(
                ideal_ms=ideal,
                wall_ms=ideal,
                source_ms=source_ms,
                hyp_len=hyp_len,
                ref_len=ref_len,
            )
            al = average_lagging(seq)
            laal = length_adaptive_average_lagging(seq)
            assert laal >= al
            if hyp_len <= ref_len:
                assert laal == al
            elif generic:
                # every delay undercuts the source, so the averaging window
                # spans the whole hypothesis and over-length must cost lag
                assert laal > al


def test_criterion_04_adaptive_detection_oracle():
    """With oracle CTC posteriors the adaptive count after t ms equals the
    number of word spans ending at or before t, over 1,000 random utterances
    with silence runs; appending pure silence never moves the adaptive count
    but always raises the fixed count.  Tolerance: exact.  Budget: 10 s."""
    with _Budget(10):
        model = make_model()
        vocab = model.source_words
        convention = Convention.BPE_SUFFIX
        rng = random.Random(99)
        width = len(model.source_vocab)
        for _ in range(1_000):
            n = rng.randint(1, 5)
            words = [rng.choice(vocab) for _ in range(n)]
            gaps = [rng.choice((0, 0, 50, 120, 300)) for _ in range(n + 1)]
            utt = build_synthetic_utterance(
                words, [280] * n, vocab=model.source_word_index,
                gaps_ms=gaps,
            )
            ends = utt.word_end_frames
            cut = rng.randint(0, len(utt.frames))
            _, posterior = model.encode_prefix(utt.frames[:cut])
            detected = adaptive_word_count(
                ctc_greedy_collapse(posterior, convention), convention
            )
            assert detected.word_count == sum(1 for e in ends if e < cut)

            silence = [Frame((0.0,) * width)] * 56  # 560 ms of nothing
            _, extended = model.encode_prefix(list(utt.frames) + silence)
            after = adaptive_word_count(
                ctc_greedy_collapse(extended, convention), convention
            )
            assert after.word_count == n  # silence adds no adaptive words
            base_ms = utt.duration_ms
            assert (
                fixed_word_count(base_ms + 560).word_count
                > fixed_word_count(base_ms).word_count
            )


def test_criterion_05_attention_mask_properties():
    """Mask rows are nested frame prefixes; an effectively infinite k opens
    every frame; for k in 1..8 the row widths equal the frames the streaming
    policy had read when it emitted that word.  Tolerance: exact.
    Budget: 5 s."""
    with _Budget(5):
        model = make_model()
        vocab = model.source_words
        for n in (6, 10):
            words = [vocab[i % len(vocab)] for i in range(n)]
            utt = aligned_utterance(model, words)
            ends = utt.word_end_frames
            n_frames = len(utt.frames)

            infinite = waitk_attention_mask(ends, 10**6, n, n_frames)
            assert infinite.allowed.all()

            for k in range(1, 9):
                mask = waitk_attention_mask(ends, k, n, n_frames)
                widths = mask.row_widths
                assert list(widths) == sorted(widths)  # nested prefixes
                hyp, _ = run_simultaneous(
                    model, utt, PolicyConfig(k=k, detection="fixed")
                )
                frames_read_ms = [w * utt.frame_ms for w in widths]
                assert frames_read_ms == list(hyp.ideal_delays_ms), (n, k)


def test_criterion_06_bleu_sanity():
    """Identity corpora score 100; an empty hypothesis scores 0; fixture
    corpora match an independent oracle to well within 0.1 BLEU.
    Budget: 5 s."""
    with _Budget(5):
        identity = [
            ["the", "cat", "sat", "on", "the", "mat"],
            ["a", "quick", "brown", "fox", "jumps"],
        ]
        assert corpus_bleu(identity, identity) == pytest.approx(
            100.0, abs=1e-6
        )
        assert corpus_bleu([[]], [["a", "b", "c"]]) == 0.0

        cases = [
            (
                [["the", "cat", "sat", "mat"]],
                [["the", "cat", "sat", "on", "the", "mat"]],
            ),
            (
                [
                    ["the", "cat", "sat", "on", "the", "mat"],
                    ["dogs", "bark", "loud", "at", "night"],
                ],
                [
                    ["the", "cat", "sat", "on", "a", "mat"],
                    ["dogs", "bark", "loudly", "at", "night"],
                ],
            ),
        ]
        for hyps, refs in cases:
            package = corpus_bleu(hyps, refs)
            oracle = oracle_bleu(hyps, refs)
            assert abs(package - oracle) < 0.1  # criterion tolerance
            assert abs(package - oracle) < 1e-9  # actual agreement


def test_criterion_07_computation_aware_overhead():
    """With 50 ms injected per model call, LAAL_CA - LAAL lands within 20%
    of the analytic overhead (350 ms for k=3 over a 6-word utterance), and
    the spread over 3 runs stays in the tens of milliseconds.
    Budget: 30 s."""
    with _Budget(30):
        delta, k, n = 50.0, 3, 6
        model = make_model(compute_delay_ms=delta)
        words = [model.source_words[i % 6] for i in range(n)]
        utt = aligned_utterance(model, words)
        config = PolicyConfig(k=k, detection="fixed")

        # emitted word i has seen k+i-1 encoder calls and i decoder calls;
        # the lagging window covers i = 1..n-k+1
        window = n - k + 1
        expected = delta * sum(
            (k + i - 1) + i for i in range(1, window + 1)
        ) / window
        assert expected == 350.0

        gaps, ca_values = [], []
        for _ in range(3):
            hyp, _ = run_simultaneous(model, utt, config)
            delays = DelaySequence(
                ideal_ms=hyp.ideal_delays_ms,
                wall_ms=hyp.wall_delays_ms,
                source_ms=float(utt.duration_ms),
                hyp_len=len(hyp.words),
                ref_len=n,
            )
            laal = length_adaptive_average_lagging(delays)
            laal_ca = length_adaptive_average_lagging(
                delays, computation_aware=True
            )
            gaps.append(laal_ca - laal)
            ca_values.append(laal_ca)
        for gap in gaps:
            assert 0.8 * expected <= gap <= 1.2 * expected, gaps
        assert statistics.pstdev(ca_values) < 50.0, ca_values


def test_criterion_08_length_statistic():
    """The word-count gap statistic reproduces its defining arithmetic,
    including a corpus built to land exactly on -1.0.  Tolerance: exact.
    Budget: 1 s."""
    with _Budget(1):
        hyps = [["a"] * 3, ["b"] * 5]
        refs = [["x"] * 4, ["y"] * 6]
        assert length_difference(hyps, refs) == -1.0

        assert length_difference([["a"] * 7], [["x"] * 4]) == 3.0
        assert length_difference([["a", "b"]], [["x", "y"]]) == 0.0
        assert length_difference(
            [["a"] * 2, ["b"] * 9], [["x"] * 5, ["y"] * 8]
        ) == -1.0


def test_criterion_09_sweep_shape(tmp_path):
    """The default (strategy, k) sweep yields LAAL strictly increasing in k
    within each strategy, a well-formed 10-row CSV, and regime labels that
    follow the <1000 / 1000-2000 / >2000 ms bands (exact boundaries round
    up to the slower regime, covered by the metrics suite).  Budget: 60 s."""
    with _Budget(60):
        model = make_model()
        vocab = model.source_words
        utts = [
            aligned_utterance(
                model,
                [vocab[(i + j) % len(vocab)] for j in range(14)],
                utt_id=f"sweep-{i}",
            )
            for i in range(3)
        ]
        points = sweep(utts, model, SweepSpec(), out_dir=tmp_path)
        assert len(points) == 10
        for strategy in (DetectionKind.FIXED, DetectionKind.ADAPTIVE):
            laals = [
                p.laal_ms for p in points if p.strategy is strategy
            ]
            assert len(laals) == 5
            assert all(a < b for a, b in zip(laals, laals[1:]))

        rows = read_curve_csv(tmp_path / "curve.csv")
        assert len(rows) == 10
        assert {(p.strategy, p.k) for p in rows} == {
            (s, k)
            for s in (DetectionKind.FIXED, DetectionKind.ADAPTIVE)
            for k in (3, 5, 7, 9, 11)
        }

        regimes = {
            (p.strategy, p.k): regime
            for p, regime in report_regimes(points).items()
        }
        for strategy in (DetectionKind.FIXED, DetectionKind.ADAPTIVE):
            assert regimes[(strategy, 3)] is Regime.LOW      # 840 ms
            assert regimes[(strategy, 5)] is Regime.MEDIUM   # 1400 ms
            assert regimes[(strategy, 7)] is Regime.MEDIUM   # 1960 ms
            assert regimes[(strategy, 9)] is Regime.HIGH     # 2520 ms
            assert regimes[(strategy, 11)] is Regime.HIGH    # 3080 ms


def test_criterion_10_wire_equivalence():
    """Loopback client/server runs reproduce the local hypotheses
    token-for-token and the local BLEU/AL/LAAL to 1e-9 with back-to-back
    pacing.  Budget: 60 s."""
    with _Budget(60):
        model = make_model()
        corpus = synthetic_corpus(
            model, n_utts=5, rng=random.Random(41),
            min_words=2, max_words=9,
        )
        config = PolicyConfig(k=3, detection="adaptive")
        local = evaluate_corpus(corpus, model, config)
        with StreamTranslationServer(make_model()) as server:
            remote = client_evaluate(
                server.address, corpus, config, timeout_s=30
            )
        assert remote.failures == ()
        for local_result, remote_result in zip(
            local.results, remote.results
        ):
            assert (
                remote_result.hypothesis.tokens
                == local_result.hypothesis.tokens
            )
            assert (
                remote_result.hypothesis.words
                == local_result.hypothesis.words
            )
        assert abs(remote.report.bleu - local.report.bleu) < 1e-9
        assert abs(remote.report.al_ms - local.report.al_ms) < 1e-9
        assert abs(remote.report.laal_ms - local.report.laal_ms) < 1e-9
