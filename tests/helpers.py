"""Shared test utilities: tiny models, aligned corpora, independent oracles.

The oracle functions recompute expected values through deliberately different
code paths (brute-force counting, closed forms) so the package implementation
and its tests cannot share a bug.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from typing import Sequence

import numpy as np

from simulharness import (
    Convention,
    LexiconMockModel,
    ModelInterface,
    SubwordToken,
    Utterance,
    build_synthetic_utterance,
    word_spans,
)

#: 1:1 lexicon over six words; sorted() of the keys is stable and obvious.
TINY_LEXICON = {
    "da": "there",
    "esel": "donkey",
    "geht": "goes",
    "haus": "house",
    "hin": "to",
    "ja": "yes",
}

#: A lexicon with one-to-many entries, for length-mismatch scenarios.
EXPANDING_LEXICON = {
    "da": ["over", "there"],
    "esel": "donkey",
    "geht": ["goes", "on"],
    "haus": "house",
}


def make_model(lexicon=None, **kwargs) -> LexiconMockModel:
    return LexiconMockModel(lexicon or TINY_LEXICON, **kwargs)


class DecoderFailsOnHaus(LexiconMockModel):
    """The tiny mock, except that its decoder raises ``IndexError`` -- an
    exception no model contract names -- once it has heard "haus"."""

    def __init__(self) -> None:
        super().__init__(TINY_LEXICON)

    def decoder_step(self, states, target_prefix_ids):
        if "haus" in states.visible_words:
            raise IndexError("decoder table out of range")
        return super().decoder_step(states, target_prefix_ids)


def aligned_utterance(
    model: LexiconMockModel,
    words: Sequence[str],
    *,
    per_word_ms: int = 280,
    frame_ms: int = 10,
    gaps_ms: Sequence[int] | None = None,
    utt_id: str = "utt",
) -> Utterance:
    """A synthetic utterance whose frames match the model's source vocab."""
    return build_synthetic_utterance(
        list(words),
        [per_word_ms] * len(words),
        frame_ms=frame_ms,
        vocab=model.source_word_index,
        gaps_ms=gaps_ms,
        reference=model.translate_words(list(words)),
        utt_id=utt_id,
    )


def bpe(surface: str) -> SubwordToken:
    return SubwordToken(surface, Convention.BPE_SUFFIX)


def sp(surface: str) -> SubwordToken:
    return SubwordToken(surface, Convention.SP_PREFIX)


def expected_waitk_delays(
    n_source_words: int,
    n_target_words: int,
    k: int,
    per_word_ms: int = 280,
) -> list[int]:
    """Closed-form ideal delays on a gapless, uniformly paced utterance.

    Target word i (1-based) waits for source words 1..k+i-1; each source word
    lasts ``per_word_ms``; nothing can wait past the end of the source.
    """
    total = n_source_words * per_word_ms
    return [
        min((k + i - 1) * per_word_ms, total)
        for i in range(1, n_target_words + 1)
    ]


# ---------------------------------------------------------------------------
# Independent offline oracle (whole-source argmax to EOS)
# ---------------------------------------------------------------------------


def oracle_offline(
    model: ModelInterface, utterance: Utterance
) -> tuple[tuple[SubwordToken, ...], tuple[str, ...]]:
    """Tokens and words of greedy decoding with the whole source encoded at
    once: argmax until EOS, with no engine, chunking or caps (so only for
    models that terminate)."""
    states, _posterior = model.encode_prefix(utterance.frames)
    ids: list[int] = []
    while True:
        next_id = int(np.argmax(model.decoder_step(states, ids)))
        if next_id == model.eos_id:
            break
        ids.append(next_id)
    convention = model.target_convention
    tokens = tuple(
        SubwordToken(model.target_vocab[i], convention) for i in ids
    )
    spans, _ = word_spans(tokens, convention, eos=True)
    return tokens, tuple(word for word, _ in spans)


# ---------------------------------------------------------------------------
# Independent BLEU oracle (brute force, Counter-based)
# ---------------------------------------------------------------------------

_LOG_FLOOR = -9999999999.0


def oracle_bleu(
    hypotheses: Sequence[Sequence[str]],
    references: Sequence[Sequence[str]],
) -> float:
    """Corpus BLEU recomputed from scratch over pre-split word lists.

    Clipped corpus-level 4-gram counts via ``collections.Counter``,
    exponential smoothing of zero counts, exponential brevity penalty, and a
    floored log for never-reached orders.  Assumes tokenization-neutral words
    (no punctuation), which all synthetic corpora here satisfy.
    """
    if len(hypotheses) != len(references):
        raise ValueError("corpus size mismatch")
    correct = [0, 0, 0, 0]
    total = [0, 0, 0, 0]
    hyp_len = 0
    ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        hyp = list(hyp)
        ref = list(ref)
        hyp_len += len(hyp)
        ref_len += len(ref)
        for order in range(1, 5):
            hyp_grams = Counter(
                tuple(hyp[i : i + order])
                for i in range(len(hyp) - order + 1)
            )
            ref_grams = Counter(
                tuple(ref[i : i + order])
                for i in range(len(ref) - order + 1)
            )
            total[order - 1] += max(len(hyp) - order + 1, 0)
            correct[order - 1] += sum(
                min(count, ref_grams[gram])
                for gram, count in hyp_grams.items()
            )
    precisions = [0.0, 0.0, 0.0, 0.0]
    smooth = 1.0
    for order in range(1, 5):
        if total[order - 1] == 0:
            break
        if correct[order - 1] == 0:
            smooth *= 2.0
            precisions[order - 1] = 100.0 / (smooth * total[order - 1])
        else:
            precisions[order - 1] = (
                100.0 * correct[order - 1] / total[order - 1]
            )
    if hyp_len == 0:
        brevity = 0.0
    elif hyp_len < ref_len:
        brevity = math.exp(1.0 - ref_len / hyp_len)
    else:
        brevity = 1.0
    log_sum = sum(
        math.log(p) if p > 0.0 else _LOG_FLOOR for p in precisions
    )
    return brevity * math.exp(log_sum / 4.0)


# ---------------------------------------------------------------------------
# 13a tokenizer oracle (the literal rule set, templates and all)
# ---------------------------------------------------------------------------

#: the ``13a`` rules as published: the symbol class includes the space, and
#: every replacement is a ``\1`` template
_LITERAL_RULES_13A = tuple(
    (re.compile(pattern), replacement)
    for pattern, replacement in (
        (r"([\{-\~\[-\` -\&\(-\+\:-\@\/])", r" \1 "),
        (r"([^0-9])([\.,])", r"\1 \2 "),
        (r"([\.,])([^0-9])", r" \1 \2"),
        (r"([0-9])(-)", r"\1 \2 "),
    )
)


def oracle_tokenize_13a(line: str) -> list[str]:
    """``13a`` tokens from the literal rule set, applied step by step."""
    for old, new in (("<skipped>", ""), ("&quot;", '"'), ("&amp;", "&"),
                     ("&lt;", "<"), ("&gt;", ">")):
        line = line.replace(old, new)
    line = f" {line} "
    for pattern, replacement in _LITERAL_RULES_13A:
        line = pattern.sub(replacement, line)
    return line.split()


# ---------------------------------------------------------------------------
# Independent lagging oracle (literal summation)
# ---------------------------------------------------------------------------


def oracle_lagging(
    delays_ms: Sequence[float],
    source_ms: float,
    oracle_len: int,
    *,
    cutoff_from: Sequence[float] | None = None,
) -> float:
    """Average lagging recomputed literally from its definition.

    ``cutoff_from`` supplies the delays that determine the averaging window
    (the ideal ones, even when ``delays_ms`` is a wall-clock series).
    """
    window_source = cutoff_from if cutoff_from is not None else delays_ms
    cutoff = len(delays_ms)
    for i, d in enumerate(window_source, start=1):
        if d >= source_ms - 1e-9:
            cutoff = i
            break
    step = source_ms / oracle_len
    gaps = [delays_ms[i] - i * step for i in range(cutoff)]
    return sum(gaps) / len(gaps)
