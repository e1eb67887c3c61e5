"""Quality and latency metrics for simultaneous translation output.

Latency is summarized by average lagging (AL) and its length-adaptive variant
(LAAL): the mean amount by which each emitted word trails an ideal translator
that paces itself uniformly over the source.  AL paces the ideal by the
reference length; LAAL paces it by whichever of hypothesis/reference is
longer, which stops over-generation from being rewarded with negative lag.
Both come in a computation-aware flavor that charges measured wall-clock time
instead of source time alone.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from enum import Enum
from itertools import chain, repeat
from operator import gt, lt
from statistics import fmean
from typing import Sequence

from .bleu import corpus_bleu

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class DelaySequence:
    """Per-word emission delays for one utterance.

    ``ideal_ms[i]`` is the source time consumed when word ``i`` was emitted
    (never more than ``source_ms``, the total source duration); ``wall_ms[i]``
    is the matching wall-clock reading, which also includes compute time.
    ``hyp_len``/``ref_len`` are the hypothesis and reference word counts.
    """

    ideal_ms: tuple[float, ...]
    wall_ms: tuple[float, ...]
    source_ms: float
    hyp_len: int
    ref_len: int

    def __post_init__(self) -> None:
        for name in ("ideal_ms", "wall_ms"):
            object.__setattr__(self, name, tuple(map(float, getattr(self, name))))
        ideal = self.ideal_ms
        if len(ideal) != len(self.wall_ms):
            raise ValueError("ideal_ms and wall_ms must have equal length")
        if self.hyp_len != len(ideal):
            raise ValueError("hyp_len must match the delay count")
        if self.ref_len < 0:
            raise ValueError("ref_len must be non-negative")
        if self.source_ms < 0:
            raise ValueError("source_ms must be non-negative")
        # a comparison with NaN is false, so a NaN delay passes each check
        if any(map(gt, ideal, ideal[1:])):
            raise ValueError("ideal delays must be non-decreasing")
        if any(map(gt, ideal, repeat(self.source_ms + 1e-9))):
            raise ValueError("ideal delays cannot exceed the source duration")
        if any(map(lt, chain(ideal, self.wall_ms), repeat(0))):
            raise ValueError("delays must be non-negative")


def _lagging(
    delays: DelaySequence, *variants: tuple[bool, int]
) -> list[float | None]:
    """Lagging in ms over one averaging window for each (computation-aware,
    oracle length) variant, each None for an empty hypothesis."""
    if delays.ref_len < 1:
        raise ValueError("lagging needs a non-empty reference")
    # The averaging window ends at the first word emitted only after the
    # whole source was consumed; it is taken from the ideal delays even for
    # the computation-aware variant.
    cutoff = delays.hyp_len
    for i, ideal in enumerate(delays.ideal_ms, start=1):
        if ideal >= delays.source_ms - 1e-9:
            cutoff = i
            break
    if not cutoff:
        return [None] * len(variants)
    lags = []
    for computation_aware, oracle_len in variants:
        series = delays.wall_ms if computation_aware else delays.ideal_ms
        oracle_step = delays.source_ms / oracle_len
        lags.append(
            sum(series[i] - i * oracle_step for i in range(cutoff)) / cutoff
        )
    return lags


def average_lagging(
    delays: DelaySequence, computation_aware: bool = False
) -> float | None:
    """AL in ms, or None for an empty hypothesis (excluded from averages)."""
    return _lagging(delays, (computation_aware, delays.ref_len))[0]


def length_adaptive_average_lagging(
    delays: DelaySequence, computation_aware: bool = False
) -> float | None:
    """LAAL in ms: AL with the ideal paced by max(|hyp|, |ref|)."""
    longest = max(delays.hyp_len, delays.ref_len)
    return _lagging(delays, (computation_aware, longest))[0]


class Regime(Enum):
    LOW = "low"
    MEDIUM = "medium"
    HIGH = "high"


def latency_regime(latency_ms: float) -> Regime:
    """Band a latency: <1000 ms low, <2000 ms medium, else high.

    A value sitting exactly on a band edge goes to the higher regime.
    """
    if latency_ms < 1000.0:
        return Regime.LOW
    if latency_ms < 2000.0:
        return Regime.MEDIUM
    return Regime.HIGH


def length_difference(
    hypotheses: Sequence[Sequence[str]],
    references: Sequence[Sequence[str]],
) -> float:
    """Mean (hypothesis - reference) word-count gap; negative means short."""
    if len(hypotheses) != len(references):
        raise ValueError(
            f"{len(hypotheses)} hypotheses vs {len(references)} references"
        )
    if not hypotheses:
        raise ValueError("length difference of an empty corpus is undefined")
    return fmean(len(h) - len(r) for h, r in zip(hypotheses, references))


@dataclass(frozen=True)
class MetricsReport:
    """Corpus-level quality/latency summary.

    Latency fields are unweighted means over utterances; ``regime`` bands the
    LAAL.  Fields are ``None`` when no utterance produced a hypothesis.
    """

    bleu: float | None
    al_ms: float | None
    laal_ms: float | None
    al_ca_ms: float | None
    laal_ca_ms: float | None
    regime: Regime | None
    len_diff_words: float | None
    n_utts: int

    def to_dict(self) -> dict:
        data = {key: getattr(self, f) for f, key in _REPORT_KEYS.items()}
        data["regime"] = self.regime.value if self.regime else None
        return data

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "MetricsReport":
        fields = {f: data[key] for f, key in _REPORT_KEYS.items()}
        regime = fields["regime"]
        return cls(**{**fields, "regime": Regime(regime) if regime else None})

    @classmethod
    def from_json(cls, text: str) -> "MetricsReport":
        return cls.from_dict(json.loads(text))


#: each report field's ``metrics.json`` key, in the file's order
_REPORT_KEYS = {
    "bleu": "bleu", "al_ms": "AL", "laal_ms": "LAAL", "al_ca_ms": "AL_CA",
    "laal_ca_ms": "LAAL_CA", "regime": "regime", "len_diff_words": "len_diff",
    "n_utts": "n_utts",
}
EMPTY_REPORT = MetricsReport(None, None, None, None, None, None, None, 0)


def aggregate_metrics(
    hypotheses: Sequence[Sequence[str]],
    references: Sequence[Sequence[str]],
    delays: Sequence[DelaySequence],
) -> MetricsReport:
    """Build a corpus report from per-utterance outputs.

    BLEU and the length gap are corpus-level; latencies are unweighted means
    over utterances.  Utterances with an empty hypothesis are excluded from
    the latency averages (with a warning) but still count against BLEU.
    """
    if not (len(hypotheses) == len(references) == len(delays)):
        raise ValueError("hypotheses, references and delays must align")
    if not hypotheses:
        return EMPTY_REPORT

    lags = []  # AL, LAAL, AL_CA and LAAL_CA of each utterance, in order
    for d in delays:
        longest = max(d.hyp_len, d.ref_len)
        row = _lagging(d, (False, d.ref_len), (False, longest),
                       (True, d.ref_len), (True, longest))
        if row[0] is None:
            logger.warning("empty hypothesis excluded from latency averages")
            continue
        lags.append(row)
    al, laal, al_ca, laal_ca = map(fmean, zip(*lags)) if lags else (None,) * 4
    return MetricsReport(
        bleu=corpus_bleu(hypotheses, references),
        al_ms=al,
        laal_ms=laal,
        al_ca_ms=al_ca,
        laal_ca_ms=laal_ca,
        regime=latency_regime(laal) if laal is not None else None,
        len_diff_words=length_difference(hypotheses, references),
        n_utts=len(hypotheses),
    )
