"""Corpus BLEU on the 0-100 scale: 13a tokenization, exponential smoothing.

The scoring recipe is frozen to the standard WMT configuration (mixed case,
``13a`` tokenizer, 4-gram micro-averaged precisions with NIST exponential
smoothing, brevity penalty), so scores are directly comparable with the usual
``BLEU+case.mixed+smooth.exp+tok.13a`` signature:

* each segment is normalized by the ``13a`` rule set below and split on
  whitespace.  The symbol rule's class in ``13a`` includes the space; here it
  does not, because padding a space with spaces only widens a whitespace run,
  which the final split collapses.  The tokens are the same, and a segment
  without punctuation makes the rule match nothing instead of every space;
* n-gram matches are clipped per segment against the reference counts and
  accumulated over the corpus for orders 1..4;
* an order with zero matches contributes ``100 / (2^z * total)`` where ``z``
  counts the zero orders seen so far; an order with zero total ends the
  accumulation;
* brevity penalty is ``exp(1 - ref_len / sys_len)`` when the system output is
  shorter than the references (and 0 for empty output);
* the score is the brevity penalty times the geometric mean of the four
  precisions, with ``log 0`` floored to a very large negative number.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from contextlib import contextmanager
from contextvars import ContextVar
from itertools import chain
from typing import Sequence

MAX_NGRAM_ORDER = 4

_LOG_FLOOR = -9999999999.0
#: the open :func:`shared_references` block's memo: each reference line's 13a
#: length, n-gram counts and each hypothesis line's :func:`_segment_stats`
_references: ContextVar[dict] = ContextVar("references")


#: the ``13a`` symbol, period/comma and dash rules, in the order applied.
#: Each replacement is a callable, so ``re`` expands no template in Python
#: per call or per match.  The symbol class leaves out the space (see the
#: module docstring).
_RULES_13A = (
    (re.compile(r"[\{-\~\[-\`\!-\&\(-\+\:-\@\/]"),
     lambda m: f" {m[0]} "),
    (re.compile(r"([^0-9])([\.,])"), lambda m: f"{m[1]} {m[2]} "),
    (re.compile(r"([\.,])([^0-9])"), lambda m: f" {m[1]} {m[2]}"),
    (re.compile(r"([0-9])(-)"), lambda m: f"{m[1]} {m[2]} "),
)


def tokenize_13a(line: str) -> list[str]:
    """Normalize a segment with the ``13a`` rules and split on whitespace.

    The rules: drop ``<skipped>``, unescape the four XML entities, pad a set
    of ASCII symbol ranges with spaces, split periods and commas unless they
    sit between digits, and split a dash that follows a digit.  Splitting
    collapses every whitespace run, newlines included.
    """
    norm = line
    norm = norm.replace("<skipped>", "")
    norm = norm.replace("&quot;", '"')
    norm = norm.replace("&amp;", "&")
    norm = norm.replace("&lt;", "<")
    norm = norm.replace("&gt;", ">")

    norm = f" {norm} "
    for pattern, replacement in _RULES_13A:
        norm = pattern.sub(replacement, norm)
    return norm.split()


def _ngram_counts(tokens: Sequence[str]) -> Counter:
    """Counts of every n-gram of orders 1..4, as token tuples."""
    return Counter(chain.from_iterable(
        zip(*(tokens[i:] for i in range(order)))
        for order in range(1, MAX_NGRAM_ORDER + 1)
    ))


def _segment_stats(hyp: Sequence[str], ref_len: int,
                   ref_counts: Counter) -> tuple[int, ...]:
    """A segment's hypothesis and reference lengths, then its clipped
    matches and its n-gram totals, one per order."""
    correct = [0] * MAX_NGRAM_ORDER
    for ngram, count in _ngram_counts(hyp).items():
        if most := ref_counts.get(ngram):  # a stored count is never 0
            correct[len(ngram) - 1] += count if count < most else most
    return (len(hyp), ref_len, *correct,
            *(max(len(hyp) - n, 0) for n in range(MAX_NGRAM_ORDER)))


@contextmanager
def shared_references():
    """Tokenize and count each reference, and each hypothesis once per
    reference it is scored against, once in the block's BLEU calls."""
    token = _references.set({})
    try:
        yield
    finally:
        _references.reset(token)


def corpus_bleu(
    hypotheses: Sequence[Sequence[str]],
    references: Sequence[Sequence[str]],
) -> float:
    """Corpus BLEU (0-100) of hypothesis word sequences against references.

    Word sequences are joined on spaces and re-tokenized with ``13a``, so the
    score does not depend on the subword or word segmentation the system
    happened to use.  Scoring is case-sensitive.
    """
    if len(hypotheses) != len(references):
        raise ValueError(
            f"{len(hypotheses)} hypotheses vs {len(references)} references"
        )
    if not hypotheses:
        raise ValueError("BLEU of an empty corpus is undefined")

    memo = _references.get({})
    rows = []
    for hyp_words, ref_words in zip(hypotheses, references):
        ref_line, hyp_line = " ".join(ref_words), " ".join(hyp_words)
        if (entry := memo.get(ref_line)) is None:
            ref = tokenize_13a(ref_line)
            entry = memo[ref_line] = len(ref), _ngram_counts(ref), {}
        ref_len, ref_counts, segments = entry
        if (row := segments.get(hyp_line)) is None:
            row = segments[hyp_line] = _segment_stats(
                tokenize_13a(hyp_line), ref_len, ref_counts)
        rows.append(row)
    sys_len, ref_len, *counts = map(sum, zip(*rows))
    correct, total = counts[:MAX_NGRAM_ORDER], counts[MAX_NGRAM_ORDER:]

    precisions = [0.0] * MAX_NGRAM_ORDER
    smooth = 1.0
    for n in range(MAX_NGRAM_ORDER):
        if total[n] == 0:
            break
        if correct[n] == 0:
            smooth *= 2.0
            precisions[n] = 100.0 / (smooth * total[n])
        else:
            precisions[n] = 100.0 * correct[n] / total[n]

    if sys_len == 0:
        brevity_penalty = 0.0
    elif sys_len < ref_len:
        brevity_penalty = math.exp(1.0 - ref_len / sys_len)
    else:
        brevity_penalty = 1.0

    mean_log = sum(math.log(p) if p else _LOG_FLOOR
                   for p in precisions) / MAX_NGRAM_ORDER
    return brevity_penalty * math.exp(mean_log)
