"""Scoring, corpus evaluation, wait-k sweeps and quality/latency curves.

Local, remote and offline runs are all scored by the same two functions:
:func:`evaluate_utterance` at the utterance boundary and
:func:`score_results` over the corpus.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, replace
from pathlib import Path
from statistics import fmean
from typing import Callable, Sequence

from .core import Hypothesis, Utterance
from .detection import DetectionKind
from .metrics import (
    DelaySequence,
    MetricsReport,
    Regime,
    aggregate_metrics,
    latency_regime,
)
from .model import ModelInterface
from .policy import Event, PolicyConfig, SimulRunError
from .policy import run_simultaneous, write_event_log

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class UtteranceResult:
    """Outcome of one utterance: hypothesis and log, or an error."""

    utt_id: str
    hypothesis: Hypothesis | None
    events: tuple[Event, ...]
    delays: DelaySequence | None
    error: str | None = None


@dataclass(frozen=True)
class CorpusResult:
    report: MetricsReport
    results: tuple[UtteranceResult, ...]

    @property
    def failures(self) -> tuple[str, ...]:
        return tuple(r.utt_id for r in self.results if r.error is not None)


def evaluate_utterance(
    utterance: Utterance,
    translate: Callable[[Utterance], tuple[Hypothesis, Sequence[Event]]],
) -> UtteranceResult:
    """Translate one utterance and record its outcome for scoring.

    This is the utterance boundary of every run -- local, remote or offline:
    whatever exception ``translate`` raises is recorded as this utterance's
    error (with a :class:`SimulRunError`'s partial log), and the rest of the
    corpus still runs.
    """
    if not utterance.reference:
        return UtteranceResult(
            utterance.id, None, (), None,
            error="utterance has an empty reference",
        )
    try:
        hypothesis, events = translate(utterance)
        delays = DelaySequence(
            ideal_ms=hypothesis.ideal_delays_ms,
            wall_ms=hypothesis.wall_delays_ms,
            source_ms=float(utterance.duration_ms),
            hyp_len=len(hypothesis.words),
            ref_len=len(utterance.reference),
        )
    except Exception as exc:
        logger.error(
            "utterance %s failed: %s", utterance.id, exc, exc_info=True
        )
        partial = exc.events if isinstance(exc, SimulRunError) else ()
        return UtteranceResult(
            utterance.id, None, partial, None, error=str(exc)
        )
    return UtteranceResult(utterance.id, hypothesis, tuple(events), delays)


def score_results(
    utterances: Sequence[Utterance], results: Sequence[UtteranceResult]
) -> CorpusResult:
    """Aggregate corpus metrics over the results that carry no error.

    ``results[i]`` is the outcome of ``utterances[i]``; failed utterances
    stay in the returned results but count in no metric.
    """
    scored = [
        (r, u) for r, u in zip(results, utterances, strict=True)
        if r.error is None
    ]
    report = aggregate_metrics(
        [list(r.hypothesis.words) for r, _ in scored],
        [list(u.reference) for _, u in scored],
        [r.delays for r, _ in scored],
    )
    return CorpusResult(report, tuple(results))


def evaluate_corpus(
    utterances: Sequence[Utterance],
    model: ModelInterface,
    config: PolicyConfig,
) -> CorpusResult:
    """Run the policy over every utterance and aggregate corpus metrics.

    Utterances run one after another in the calling thread, so the
    computation-aware numbers time the model and engine alone.  A failing
    utterance is recorded (with its partial log) and the rest of the corpus
    still runs.
    """
    utterances = list(utterances)
    results = [
        evaluate_utterance(u, lambda utt: run_simultaneous(model, utt, config))
        for u in utterances
    ]
    return score_results(utterances, results)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepSpec:
    """Grid of policy points to evaluate."""

    k_values: tuple[int, ...] = (3, 5, 7, 9, 11)
    strategies: tuple[DetectionKind, ...] = (
        DetectionKind.FIXED,
        DetectionKind.ADAPTIVE,
    )
    runs_per_point: int = 1
    base_config: PolicyConfig = PolicyConfig()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "k_values", tuple(sorted(int(k) for k in self.k_values))
        )
        object.__setattr__(self, "strategies", tuple(self.strategies))
        if not self.k_values or any(k < 1 for k in self.k_values):
            raise ValueError("k_values must be positive and non-empty")
        if self.runs_per_point < 1:
            raise ValueError("runs_per_point must be at least 1")


@dataclass(frozen=True)
class CurvePoint:
    """One point of a quality/latency trade-off curve."""

    strategy: DetectionKind
    k: int
    bleu: float
    al_ms: float
    laal_ms: float
    al_ca_ms: float
    laal_ca_ms: float


def sweep(
    utterances: Sequence[Utterance],
    model: ModelInterface,
    spec: SweepSpec = SweepSpec(),
    *,
    out_dir: str | Path | None = None,
) -> list[CurvePoint]:
    """Evaluate every (strategy, k) grid point into a trade-off curve.

    Runs are serialized so wall-clock readings stay clean.  Quality and
    ideal-latency numbers are deterministic per point; the computation-aware
    numbers are averaged over ``runs_per_point`` repeats, with each run's
    values also kept (written to ``runs/<n>/curve.csv`` under ``out_dir``).
    """
    utterances = list(utterances)
    points: list[CurvePoint] = []
    per_run: list[list[CurvePoint]] = [
        [] for _ in range(spec.runs_per_point)
    ]
    for strategy in spec.strategies:
        for k in spec.k_values:
            config = replace(spec.base_config, k=k, detection=strategy)
            reports = []
            for _ in range(spec.runs_per_point):
                reports.append(
                    evaluate_corpus(utterances, model, config).report
                )
            first = reports[0]
            if first.laal_ms is None:
                raise SimulRunError(
                    f"no scored utterances at k={k} ({strategy.value})"
                )
            for run_index, report in enumerate(reports):
                per_run[run_index].append(
                    CurvePoint(
                        strategy, k, report.bleu, report.al_ms,
                        report.laal_ms, report.al_ca_ms, report.laal_ca_ms,
                    )
                )
            points.append(
                CurvePoint(
                    strategy=strategy,
                    k=k,
                    bleu=first.bleu,
                    al_ms=first.al_ms,
                    laal_ms=first.laal_ms,
                    al_ca_ms=fmean(r.al_ca_ms for r in reports),
                    laal_ca_ms=fmean(r.laal_ca_ms for r in reports),
                )
            )
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_curve_csv(out_dir / "curve.csv", points)
        for run_index, run_points in enumerate(per_run, start=1):
            run_dir = out_dir / "runs" / str(run_index)
            run_dir.mkdir(parents=True, exist_ok=True)
            write_curve_csv(run_dir / "curve.csv", run_points)
    return points


def report_regimes(points: Sequence[CurvePoint]) -> dict[CurvePoint, Regime]:
    """Band each curve point by its LAAL."""
    return {point: latency_regime(point.laal_ms) for point in points}


# ---------------------------------------------------------------------------
# File outputs
# ---------------------------------------------------------------------------

CURVE_HEADER = (
    "strategy", "k", "bleu", "AL_ms", "LAAL_ms", "AL_CA_ms", "LAAL_CA_ms"
)


def write_curve_csv(path: str | Path, points: Sequence[CurvePoint]) -> None:
    """Write curve points sorted by strategy then k; floats round-trip."""
    ordered = sorted(points, key=lambda p: (p.strategy.value, p.k))
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CURVE_HEADER)
        for p in ordered:
            writer.writerow(
                [
                    p.strategy.value,
                    p.k,
                    repr(float(p.bleu)),
                    repr(float(p.al_ms)),
                    repr(float(p.laal_ms)),
                    repr(float(p.al_ca_ms)),
                    repr(float(p.laal_ca_ms)),
                ]
            )


def read_curve_csv(path: str | Path) -> list[CurvePoint]:
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = tuple(next(reader))
        if header != CURVE_HEADER:
            raise ValueError(
                f"unexpected curve header {header!r}"
            )
        return [
            CurvePoint(
                strategy=DetectionKind(row[0]),
                k=int(row[1]),
                bleu=float(row[2]),
                al_ms=float(row[3]),
                laal_ms=float(row[4]),
                al_ca_ms=float(row[5]),
                laal_ca_ms=float(row[6]),
            )
            for row in reader
            if row
        ]


def write_eval_outputs(
    out_dir: str | Path, corpus_result: CorpusResult
) -> None:
    """Write ``metrics.json`` plus per-utterance ``logs/<id>.jsonl``."""
    out_dir = Path(out_dir)
    logs_dir = out_dir / "logs"
    logs_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "metrics.json").write_text(
        corpus_result.report.to_json() + "\n", encoding="utf-8"
    )
    for result in corpus_result.results:
        write_event_log(
            logs_dir / f"{result.utt_id}.jsonl", result.events, result.error
        )
