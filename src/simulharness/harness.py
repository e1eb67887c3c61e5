"""Scoring, corpus evaluation, wait-k sweeps and quality/latency curves.

Local, remote and offline runs are all scored by one loop,
:func:`score_corpus`, which takes the run's translator.
"""

from __future__ import annotations

import csv
import logging
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from statistics import fmean
from typing import Callable, Iterable, Sequence

import numpy as np

from .bleu import shared_references
from .core import FrameArray, Hypothesis, Utterance, _is_file_name
from .detection import AdaptiveDetector, CtcPosterior, DetectionKind
from .metrics import DelaySequence, MetricsReport, aggregate_metrics
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


def score_corpus(
    utterances: Iterable[Utterance],
    translate: Callable[[Utterance], tuple[Hypothesis, Sequence[Event]]],
) -> CorpusResult:
    """Translate every utterance and aggregate corpus metrics.

    This is the scoring loop of every run -- local, remote or offline.  An
    utterance with an empty reference is an error, and whatever exception
    ``translate`` raises is recorded as its utterance's error (with a
    :class:`SimulRunError`'s partial log); the rest of the corpus still
    runs.  Failed utterances stay in the results but count in no metric.
    """
    utterances = tuple(utterances)
    results: list[UtteranceResult] = []
    for utterance in utterances:
        hypothesis, events, delays, error = None, (), None, None
        if not utterance.reference:
            error = "utterance has an empty reference"
        else:
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
                    "utterance %s failed: %s", utterance.id, exc,
                    exc_info=True,
                )
                hypothesis, error = None, str(exc)
                events = exc.events if isinstance(exc, SimulRunError) else ()
        results.append(UtteranceResult(
            utterance.id, hypothesis, tuple(events), delays, error
        ))
    scored = [(r, u) for r, u in zip(results, utterances) if r.error is None]
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
    return score_corpus(
        utterances, lambda u: run_simultaneous(model, u, config)
    )


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepSpec:
    """Grid of policy points to evaluate.

    ``grid`` holds one :class:`PolicyConfig` per point, strategy by
    strategy with k ascending; building it checks each k and coerces each
    strategy as :class:`PolicyConfig` does.  A grid point may not repeat.
    """

    k_values: tuple[int, ...] = (3, 5, 7, 9, 11)
    strategies: tuple[DetectionKind, ...] = (
        DetectionKind.FIXED,
        DetectionKind.ADAPTIVE,
    )
    runs_per_point: int = 1
    base_config: PolicyConfig = PolicyConfig()
    grid: tuple[PolicyConfig, ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not isinstance(self.base_config, PolicyConfig):
            raise ValueError(
                f"base_config must be a PolicyConfig, got {self.base_config!r}"
            )
        if type(self.runs_per_point) is not int:
            raise ValueError(
                f"runs_per_point must be int, got {self.runs_per_point!r}"
            )
        if self.runs_per_point < 1:
            raise ValueError("runs_per_point must be at least 1")
        k_values = tuple(sorted(self.k_values))
        if not k_values or not self.strategies:
            raise ValueError("k_values and strategies must not be empty")
        try:
            grid = tuple(
                replace(self.base_config, k=k, detection=strategy)
                for strategy in self.strategies
                for k in k_values
            )
        except ValueError as exc:
            raise ValueError(f"k_values or strategies: {exc}") from None
        strategies = tuple(c.detection for c in grid[::len(k_values)])
        for name, values in (("k_values", k_values),
                             ("strategies", strategies)):
            if len(set(values)) < len(values):
                raise ValueError(f"{name} must be distinct, got {values!r}")
        object.__setattr__(self, "k_values", k_values)
        object.__setattr__(self, "strategies", strategies)
        object.__setattr__(self, "grid", grid)


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


class _Prefix:
    """One source prefix in a :class:`_SharedEncoder`: the model's encoding
    of it, its compute, its word count and the prefixes one chunk longer."""

    __slots__ = ("states", "posterior", "ms", "words", "children", "source")

    def __init__(
        self, states: object, posterior: CtcPosterior | None, ms: float
    ) -> None:
        self.states, self.posterior, self.ms = states, posterior, ms
        self.words: int | None = None
        self.children: dict[tuple[int, int, int], _Prefix] = {}
        self.source: np.ndarray | None = None


class _SharedEncoder:
    """``model`` with each source prefix encoded once, for all the grid
    points of one sweep repeat.

    It is no model: it copies the three values the engine reads once and
    has only the two calls the engine makes after that.

    The encodings form a trie: the root is the empty prefix, and a child
    extends its parent by one chunk, keyed by the identity of the array the
    chunk's rows lie in and their range there.  The child holds that array,
    so no other takes its identity while the trie lives.  The engine gets
    the trie node as its encoder states, so a hit needs the whole path to
    match -- never just the model's own states object, which a model may
    return for more than one prefix.  The model must not change a node's
    states or posterior once it returned them.  A read of a node is charged
    what its encode took in the engine's step, which holds the collector
    off, never the lookup; a failed encode stores nothing, so every point
    that needs it fails on its own.  The first adaptive point to read a node
    counts its words (a sweep has one source convention); a later point gets
    the count and queues the rows.  Its detector takes them, in order, only
    if that point reads past every count.  One engine reads at a time, so
    the queue holds the rows of the last detector to skip any.
    """

    def __init__(self, model: ModelInterface) -> None:
        self._model = model
        self.eos_id = model.eos_id
        self.target_vocab = model.target_vocab
        self.target_convention = model.target_convention
        self._root = _Prefix(None, None, 0.0)
        self._detector: AdaptiveDetector | None = None
        self._skipped: list[tuple[CtcPosterior, int]] = []

    def _read(
        self, states: _Prefix | None, frames: FrameArray, start: int,
        detector: AdaptiveDetector | None,
    ) -> tuple[_Prefix, int | None, float]:
        parent = states or self._root
        source, first = frames._source, frames._start
        key = (id(source), first + start, first + len(frames))
        node = parent.children.get(key)
        if node is None:
            begin = time.perf_counter()
            encoded = self._model.encode_more(parent.states, frames, start)
            ms = (time.perf_counter() - begin) * 1000.0
            node = parent.children[key] = _Prefix(*encoded, ms)
            node.source = source  # so that no other array takes its id
        if detector is None:
            return node, None, node.ms
        rows = (node.posterior, len(frames) - node.posterior.n_frames)
        if detector is not self._detector:
            self._detector, self._skipped = detector, []
        if node.words is None:
            for skipped in self._skipped:
                detector.update(*skipped)
            self._skipped.clear()
            node.words = detector.update(*rows)
        else:
            self._skipped.append(rows)
        return node, node.words, node.ms

    def decoder_step(
        self, states: _Prefix, target_prefix_ids: Sequence[int]
    ) -> np.ndarray:
        return self._model.decoder_step(states.states, target_prefix_ids)


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

    Nothing on the source side depends on the point, so each repeat makes
    one source pass: every source prefix is encoded once, by the first
    point that reads it, and its words are counted once, by the first
    adaptive point (all have ``spec.base_config``'s source convention);
    both are handed to every later point, behind the engine's one source
    call per READ.  This relies on the model being deterministic and on
    its encode calls leaving the states and posteriors they were given or
    returned before unchanged (see :meth:`ModelInterface.encode_more`).
    Each point is still charged the encode time it would have spent alone
    -- the time the shared encode took -- so the computation-aware numbers
    stay per point, and each repeat times its own encodes.

    A repeat holds the states and posterior of every source prefix in the
    corpus until its last point.  For a model whose states or posterior
    cover the whole prefix, as with the default ``encode_more``, that is
    quadratic in utterance length.  One repeat's encodings are alive at a
    time, and nothing outlives the call.  A call scores each reference once:
    the first point to score it tokenizes and counts it for BLEU.
    """
    utterances = list(utterances)
    per_run: list[list[CurvePoint]] = []
    with shared_references():
        for _ in range(spec.runs_per_point):
            shared = _SharedEncoder(model)
            run_points = []
            for config in spec.grid:
                report = evaluate_corpus(utterances, shared, config).report
                if report.laal_ms is None:
                    raise SimulRunError(
                        f"no scored utterances at k={config.k} "
                        f"({config.detection.value})"
                    )
                run_points.append(CurvePoint(
                    config.detection, config.k, report.bleu, report.al_ms,
                    report.laal_ms, report.al_ca_ms, report.laal_ca_ms,
                ))
            per_run.append(run_points)
    points = [
        replace(
            runs[0],
            al_ca_ms=fmean(p.al_ca_ms for p in runs),
            laal_ca_ms=fmean(p.laal_ca_ms for p in runs),
        )
        for runs in zip(*per_run)
    ]
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_curve_csv(out_dir / "curve.csv", points)
        for run_index, run_points in enumerate(per_run, start=1):
            run_dir = out_dir / "runs" / str(run_index)
            run_dir.mkdir(parents=True, exist_ok=True)
            write_curve_csv(run_dir / "curve.csv", run_points)
    return points


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
    """Read a curve written by :func:`write_curve_csv`; a file that is not
    one raises ``ValueError`` naming the first line at fault."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = tuple(next(reader, ()))
        if header != CURVE_HEADER:
            raise ValueError(f"line 1: unexpected curve header {header!r}")
        points = []
        for row in filter(None, reader):
            try:
                if len(row) != len(CURVE_HEADER):
                    raise ValueError(
                        f"{len(CURVE_HEADER)} fields expected, got {len(row)}"
                    )
                points.append(CurvePoint(
                    DetectionKind(row[0]), int(row[1]), *map(float, row[2:])
                ))
            except ValueError as exc:
                raise ValueError(f"line {reader.line_num}: {exc}") from None
        return points


def write_eval_outputs(
    out_dir: str | Path, corpus_result: CorpusResult
) -> None:
    """Write ``metrics.json`` plus per-utterance ``logs/<id>.jsonl``.

    Every id must be a file name, and no two may be equal, as
    :func:`~simulharness.core.load_manifest` requires; otherwise this raises
    ``ValueError`` and writes nothing.
    """
    seen: set[str] = set()
    for result in corpus_result.results:
        if not _is_file_name(result.utt_id):
            raise ValueError(f"id {result.utt_id!r} is not a file name")
        if result.utt_id in seen:
            raise ValueError(f"duplicate id {result.utt_id!r}")
        seen.add(result.utt_id)
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
