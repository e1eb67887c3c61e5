"""One differential property over every path that runs the engine.

A drawn corpus, model and policy point go through ``run_simultaneous``,
``evaluate_corpus``, a ``sweep`` whose grid holds the point, and
``stream_utterance`` (fast pacing) against one server.  Every path must give
the same words, tokens and ideal delays, and the same BLEU, AL and LAAL.

Where the model can always produce the word the schedule asks for (BPE
targets, no early EOS, and a word count that counts heard words), the delays
also meet closed forms: the word ends of the synthetic frames, and
``min((k + i - 1) * 280, T)`` on aligned corpora.  There, once k covers
every utterance's words, ``offline_greedy_translate`` gives the same words
and tokens; elsewhere EOS pressure while reading may rightly change them.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import EXPANDING_LEXICON, TINY_LEXICON, make_model
from simulharness import (
    Convention,
    DetectionKind,
    ModelInterface,
    PolicyConfig,
    SimulRunError,
    StreamTranslationServer,
    SweepSpec,
    build_synthetic_utterance,
    evaluate_corpus,
    offline_greedy_translate,
    run_simultaneous,
    score_corpus,
    stream_utterance,
    sweep,
)

_WORD_MS = 280  # an aligned word's length, and PolicyConfig's avg_word_ms


class _Delegate(ModelInterface):
    """The module server's model: each example points it at its own."""

    inner: ModelInterface

    @property
    def target_vocab(self):
        return self.inner.target_vocab

    @property
    def eos_id(self):
        return self.inner.eos_id

    @property
    def target_convention(self):
        return self.inner.target_convention

    def encode_prefix(self, frames):
        return self.inner.encode_prefix(frames)

    def encode_more(self, states, frames, start):
        return self.inner.encode_more(states, frames, start)

    def decoder_step(self, states, target_prefix_ids):
        return self.inner.decoder_step(states, target_prefix_ids)


@pytest.fixture(scope="module")
def server():
    delegate = _Delegate()
    with StreamTranslationServer(delegate) as handle:
        yield handle, delegate


@st.composite
def _cases(draw):
    lexicon = draw(st.sampled_from([TINY_LEXICON, EXPANDING_LEXICON]))
    aligned = draw(st.booleans())  # gapless, every word _WORD_MS long
    corpus = []
    for _ in range(draw(st.integers(1, 3))):
        words = draw(st.lists(st.sampled_from(sorted(lexicon)),
                              min_size=1, max_size=12))
        n = len(words)
        if aligned:
            per_word, gaps = [_WORD_MS] * n, [0] * (n + 1)
        else:
            # two frames at least: CTC merges a repeated word whose end
            # frame directly follows the one before, as no oracle here does
            per_word = draw(st.lists(st.integers(2, 40),
                                     min_size=n, max_size=n))
            gaps = draw(st.lists(st.integers(0, 30),
                                 min_size=n + 1, max_size=n + 1))
            per_word = [10 * d for d in per_word]
            gaps = [10 * g for g in gaps]
        corpus.append((words, per_word, gaps))
    return {
        "lexicon": lexicon,
        "aligned": aligned,
        "corpus": corpus,
        "target_convention": draw(st.sampled_from(list(Convention))),
        "piece_len": draw(st.sampled_from([None, 1, 2, 3])),
        # a model that scores EOS first leaves most runs without a word
        "eos_early": draw(st.sampled_from([False, False, False, True])),
        "k": draw(st.integers(1, 6)),
        "detection": draw(st.sampled_from(list(DetectionKind))),
        "step_ms": 10 * draw(st.sampled_from([1, 7, 14, 28, 30, 56])),
        "avoid_eos": draw(st.sampled_from([None, False, True])),
        "max_target_words": draw(st.sampled_from([None, 1, 2, 3, 5])),
    }


def _outputs(hypotheses):
    return [(h.words, h.tokens, h.ideal_delays_ms) for h in hypotheses]


def _scores(report):
    return report.bleu, report.al_ms, report.laal_ms


def _scored(utterances, hypotheses):
    """BLEU, AL and LAAL of given hypotheses, by the loop every run uses."""
    by_id = {u.id: h for u, h in zip(utterances, hypotheses)}
    result = score_corpus(utterances, lambda u: (by_id[u.id], ()))
    assert result.failures == ()
    return _scores(result.report)


def _heard_delays(utterance, config, n_words):
    """Target word i waits for the first READ after which ``k + i - 1``
    source words have ended, or for the end of the source."""
    total = utterance.duration_ms
    reads = [min(end, total)
             for end in range(config.step_ms, total + config.step_ms,
                              config.step_ms)]
    ends = [(e + 1) * utterance.frame_ms for e in utterance.word_end_frames]
    return tuple(
        next((read for read in reads
              if sum(end <= read for end in ends) >= config.k + i - 1),
             total)
        for i in range(1, n_words + 1)
    )


@settings(max_examples=120)
@given(case=_cases())
def test_every_path_gives_the_same_outputs_and_scores(server, case):
    handle, delegate = server
    model = delegate.inner = make_model(
        case["lexicon"],
        target_convention=case["target_convention"],
        target_piece_len=case["piece_len"],
        eos_early=case["eos_early"],
    )
    utterances = [
        build_synthetic_utterance(
            words, per_word, vocab=model.source_word_index, gaps_ms=gaps,
            reference=model.translate_words(words), utt_id=f"u{index}",
        )
        for index, (words, per_word, gaps) in enumerate(case["corpus"])
    ]
    config = PolicyConfig(
        k=case["k"],
        detection=case["detection"],
        step_ms=case["step_ms"],
        avoid_eos_while_reading=case["avoid_eos"],
        max_target_words=case["max_target_words"],
    )

    local = [run_simultaneous(model, u, config)[0] for u in utterances]
    expected = _outputs(local)
    scores = _scored(utterances, local)

    evaluated = evaluate_corpus(utterances, model, config)
    assert _outputs(r.hypothesis for r in evaluated.results) == expected
    assert _scores(evaluated.report) == scores

    # k=1 stops reading first under a word cap, so an adaptive point reads
    # prefixes that the first adaptive point never counted
    spec = SweepSpec(k_values=tuple({1, config.k}),
                     strategies=(config.detection,),
                     base_config=config)
    if scores[2] is None:  # no utterance has a word: the sweep refuses it
        with pytest.raises(SimulRunError, match="no scored utterances"):
            sweep(utterances, model, spec)
    else:
        point = sweep(utterances, model, spec)[-1]
        assert (point.bleu, point.al_ms, point.laal_ms) == scores

    remote = [stream_utterance(handle.address, u, config, timeout_s=10)[0]
              for u in utterances]
    assert _outputs(remote) == expected
    assert _scored(utterances, remote) == scores

    # adaptive detection counts the words heard so far; on aligned corpora,
    # so does the fixed clock
    counts_heard = (config.detection is DetectionKind.ADAPTIVE
                    or case["aligned"])
    bpe = model.target_convention is Convention.BPE_SUFFIX
    if case["eos_early"] or not bpe or not counts_heard:
        return  # the schedule may ask for a word the model has not heard
    for utterance, hypothesis in zip(utterances, local):
        n_words = len(hypothesis.words)
        assert n_words == min(len(utterance.reference),
                              config.for_utterance(utterance).max_target_words)
        assert hypothesis.ideal_delays_ms == _heard_delays(
            utterance, config, n_words)
        if case["aligned"] and _WORD_MS % config.step_ms == 0:
            assert list(hypothesis.ideal_delays_ms) == [
                min((config.k + i - 1) * _WORD_MS, utterance.duration_ms)
                for i in range(1, n_words + 1)
            ]
    if all(config.k >= len(u.transcript) for u in utterances):
        # no word before the whole source is heard: wait-k is offline
        offline = [
            offline_greedy_translate(
                model, u, max_target_words=config.max_target_words)
            for u in utterances
        ]
        assert [h[:2] for h in _outputs(offline)] == [
            h[:2] for h in expected]
        assert _scored(utterances, offline)[0] == scores[0]
        assert all(set(h.ideal_delays_ms) <= {u.duration_ms}
                   for h, u in zip(offline, utterances))
