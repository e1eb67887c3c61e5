"""Output gate: every benchmark run must reproduce the closed forms.

The benchmark's corpora are gapless, uniformly paced and translated by a 1:1
lexicon, so the correct output is known without running the program: each
hypothesis equals its reference, corpus BLEU is 100, and target word ``i``
(1-based) is emitted after ``min((k + i - 1) * word_ms, T)`` ms of source.
The checks take plain data so they can be exercised on hand-built inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class Expected:
    """What the benchmark generated for one utterance."""

    utt_id: str
    reference: tuple[str, ...]
    duration_ms: int


@dataclass(frozen=True)
class Output:
    """What the program returned for one utterance (``error`` if it failed)."""

    utt_id: str
    words: tuple[str, ...]
    ideal_ms: tuple[int, ...]
    error: str | None = None


def waitk_delays(n_words: int, k: int, word_ms: int, duration_ms: int):
    """Closed-form ideal delays of a wait-k schedule on a uniform source."""
    return tuple(
        min((k + i - 1) * word_ms, duration_ms) for i in range(1, n_words + 1)
    )


def check(
    expected: Sequence[Expected],
    outputs: Sequence[Output],
    k: int,
    word_ms: int,
) -> list[str]:
    """Every way one evaluation's outputs miss the closed forms (empty: pass)."""
    errors = []
    if [e.utt_id for e in expected] != [o.utt_id for o in outputs]:
        return [f"k={k}: utterance ids or order differ from the corpus"]
    for exp, out in zip(expected, outputs):
        if out.error is not None:
            errors.append(f"k={k} {out.utt_id}: failed: {out.error}")
            continue
        if out.words != exp.reference:
            errors.append(f"k={k} {out.utt_id}: hypothesis != reference")
        want = waitk_delays(len(exp.reference), k, word_ms, exp.duration_ms)
        if out.ideal_ms != want:
            errors.append(f"k={k} {out.utt_id}: ideal delays != wait-k form")
    return errors


def check_bleu(bleu: float | None, label: str) -> list[str]:
    """BLEU must be 100, up to the float rounding of the n-gram arithmetic
    (relative tolerance 1e-12)."""
    if bleu is None or not math.isclose(bleu, 100.0, rel_tol=1e-12):
        return [f"{label}: BLEU {bleu} != 100"]
    return []


def digest(evaluations: Sequence[tuple[str, Sequence[Output]]]) -> str:
    """SHA-256 over every hypothesis and ideal delay, in evaluation order.

    Each evaluation is labelled by its policy point, e.g. ``adaptive/k3``."""
    payload = [
        [label, [[o.utt_id, list(o.words), list(o.ideal_ms)] for o in outs]]
        for label, outs in evaluations
    ]
    return hashlib.sha256(
        json.dumps(payload, separators=(",", ":")).encode("utf-8")
    ).hexdigest()
