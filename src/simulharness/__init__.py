"""Streaming simultaneous-translation engine and evaluation harness.

The package turns an incremental encoder-decoder model into a streaming
translator under a wait-k schedule -- the i-th target word is emitted once
``k + i - 1`` source words have been detected, with detection either on a
fixed word-duration clock or adaptively from the encoder's CTC output -- and
measures the quality/latency trade-off that results: corpus BLEU against
references, average lagging (AL) and its length-adaptive variant (LAAL) in
both ideal and computation-aware readings.  A TCP wire protocol exposes the
same engine as a service, message for message equal to a local run.
"""

from __future__ import annotations

from .bleu import corpus_bleu, tokenize_13a
from .core import (
    BPE_CONTINUATION,
    SP_WORD_START,
    Convention,
    Frame,
    FrameArray,
    Hypothesis,
    ManifestError,
    SubwordToken,
    Utterance,
    default_max_target_words,
    load_manifest,
    segment_stream,
    subword_tokens,
    word_spans,
)
from .detection import (
    AdaptiveDetector,
    CtcPosterior,
    DetectionKind,
    DetectionResult,
    adaptive_word_count,
    ctc_greedy_collapse,
    fixed_word_count,
)
from .harness import (
    CorpusResult,
    CurvePoint,
    SweepSpec,
    UtteranceResult,
    evaluate_corpus,
    read_curve_csv,
    score_corpus,
    sweep,
    write_curve_csv,
    write_eval_outputs,
)
from .metrics import (
    DelaySequence,
    MetricsReport,
    Regime,
    aggregate_metrics,
    average_lagging,
    latency_regime,
    length_adaptive_average_lagging,
    length_difference,
)
from .model import (
    BOUNDARY_GAIN,
    AttentionMask,
    LexiconMockModel,
    ModelInterface,
    build_synthetic_utterance,
    load_model_config,
    synthetic_corpus,
    waitk_attention_mask,
)
from .policy import (
    ActionKind,
    Event,
    PolicyConfig,
    SimulEngine,
    SimulRunError,
    SimulState,
    decide,
    offline_greedy_translate,
    read_event_log,
    run_simultaneous,
    write_event_log,
)
from .service import (
    ServiceError,
    StreamTranslationServer,
    WireMessage,
    client_evaluate,
    stream_utterance,
)

__version__ = "0.1.0"
