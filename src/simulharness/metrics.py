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
    delays: DelaySequence, *, computation_aware: bool, oracle_len: int
) -> float | None:
    if delays.ref_len < 1:
        raise ValueError("lagging needs a non-empty reference")
    if delays.hyp_len == 0:
        return None
    # The averaging window ends at the first word emitted only after the
    # whole source was consumed; it is taken from the ideal delays even for
    # the computation-aware variant.
    cutoff = delays.hyp_len
    for i, ideal in enumerate(delays.ideal_ms, start=1):
        if ideal >= delays.source_ms - 1e-9:
            cutoff = i
            break
    series = delays.wall_ms if computation_aware else delays.ideal_ms
    oracle_step = delays.source_ms / oracle_len
    return (
        sum(series[i] - i * oracle_step for i in range(cutoff)) / cutoff
    )


def average_lagging(
    delays: DelaySequence, computation_aware: bool = False
) -> float | None:
    """AL in ms, or None for an empty hypothesis (excluded from averages)."""
    return _lagging(
        delays, computation_aware=computation_aware, oracle_len=delays.ref_len
    )


def length_adaptive_average_lagging(
    delays: DelaySequence, computation_aware: bool = False
) -> float | None:
    """LAAL in ms: AL with the ideal paced by max(|hyp|, |ref|)."""
    return _lagging(
        delays,
        computation_aware=computation_aware,
        oracle_len=max(delays.hyp_len, delays.ref_len),
    )


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
        return {
            "bleu": self.bleu,
            "AL": self.al_ms,
            "LAAL": self.laal_ms,
            "AL_CA": self.al_ca_ms,
            "LAAL_CA": self.laal_ca_ms,
            "regime": self.regime.value if self.regime else None,
            "len_diff": self.len_diff_words,
            "n_utts": self.n_utts,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "MetricsReport":
        return cls(
            bleu=data["bleu"],
            al_ms=data["AL"],
            laal_ms=data["LAAL"],
            al_ca_ms=data["AL_CA"],
            laal_ca_ms=data["LAAL_CA"],
            regime=Regime(data["regime"]) if data["regime"] else None,
            len_diff_words=data["len_diff"],
            n_utts=data["n_utts"],
        )

    @classmethod
    def from_json(cls, text: str) -> "MetricsReport":
        return cls.from_dict(json.loads(text))


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

    al, laal, al_ca, laal_ca = [], [], [], []
    for d in delays:
        value = average_lagging(d)
        if value is None:
            logger.warning(
                "empty hypothesis excluded from latency averages"
            )
            continue
        al.append(value)
        laal.append(length_adaptive_average_lagging(d))
        al_ca.append(average_lagging(d, computation_aware=True))
        laal_ca.append(
            length_adaptive_average_lagging(d, computation_aware=True)
        )

    laal_mean = fmean(laal) if laal else None
    return MetricsReport(
        bleu=corpus_bleu(hypotheses, references),
        al_ms=fmean(al) if al else None,
        laal_ms=laal_mean,
        al_ca_ms=fmean(al_ca) if al_ca else None,
        laal_ca_ms=fmean(laal_ca) if laal_ca else None,
        regime=latency_regime(laal_mean) if laal_mean is not None else None,
        len_diff_words=length_difference(hypotheses, references),
        n_utts=len(hypotheses),
    )
