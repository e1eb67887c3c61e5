#!/usr/bin/env python3
"""The simulharness benchmark: three workloads, one output gate, one command.

    python3 bench/run.py                     # every workload, one table
    python3 bench/run.py --workload eval-long --seed 3 --seconds 10 --trace 0

Each workload runs in its own process as one closed-loop caller.  A pass is
``load_manifest`` on the manifest written at set-up plus one public API call
over the whole corpus.  A run makes passes for ``--seconds``, and each pass
starts on a freshly built model.  Every time is scaled to the nominal speed of
speed.py, measured on the run's CPU between the calls it times.

With ``--trace 0`` the last line of standard output is a JSON object holding
every end-to-end metric of BENCHMARK.json.  With ``--trace 1`` the run makes
half its passes untraced and half with spans on every layer, and reports the
per-layer metrics instead.  The line before it holds the run's details: the
output digest, the exact per-pass counts, every layer figure (including the
workload-specific ones), and the environment.  Every pass is checked against
the closed forms in gate.py; a failed check exits with status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import simulharness  # noqa: E402
from simulharness import core, harness, service  # noqa: E402
from simulharness.cli import _DEMO_LEXICON  # noqa: E402
from simulharness.detection import DetectionKind  # noqa: E402
from simulharness.metrics import DelaySequence, average_lagging  # noqa: E402
from simulharness.model import BOUNDARY_GAIN, load_model_config  # noqa: E402
from simulharness.policy import PolicyConfig  # noqa: E402

import gate  # noqa: E402
from speed import SpeedMeter  # noqa: E402
from tracing import (  # noqa: E402
    Patches,
    Probes,
    Recorder,
    install_layer_spans,
    install_model_spans,
    layer_totals,
)

#: every synthetic word lasts this long; it is also the default step_ms and
#: avg_word_ms, which makes the wait-k delays a closed form
WORD_MS = 280
FRAME_MS = 10
CONFIG = PolicyConfig(k=3, detection=DetectionKind.ADAPTIVE)
MODEL_CONFIG = {
    "lexicon": _DEMO_LEXICON,
    "target_convention": "bpe",
    "target_piece_len": 3,
}
SETUP_REPEATS = 7
#: The workload process and the wire server both run on the first CPU the
#: run may use, the CPU whose speed the run measures.  Cores of a shared
#: machine differ in speed, and change it independently.
CPU = min(os.sched_getaffinity(0))
#: a run stops itself before the 180 s limit a caller may enforce
WATCHDOG_S = 170
#: a run makes at least this many passes, however long they take
MIN_PASSES = 2
#: how a figure measured in every pass is summarised over a run's passes
OVER_PASSES = statistics.median


@dataclass(frozen=True)
class Workload:
    name: str
    #: the public call a pass makes over the corpus
    api: str
    #: words per utterance; the seed shuffles them and orders the words, so
    #: every seed carries the same amount of work
    lengths: tuple[int, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("eval-long", "evaluate_corpus", (80, 88, 96, 104, 112, 120)),
        Workload("sweep-short", "sweep", tuple(range(3, 13)) * 2),
        Workload("wire-short", "client_evaluate", tuple(range(3, 13)) * 2),
    )
}


# ---------------------------------------------------------------------------
# Set-up: corpus, manifest, model, server
# ---------------------------------------------------------------------------


def make_corpus(workload: Workload, seed: int) -> list[dict]:
    """Manifest records of gapless utterances over the demo lexicon.

    The words run through the lexicon over and over, each round in an order
    of its own, and are cut into the utterances; so every seed uses each word
    (and its target pieces) nearly equally often.  Frames follow the mock
    model's input contract: one channel per source word (1 + its rank in
    sorted order; channel 0 is blank), amplitude 1.0 inside a word and
    BOUNDARY_GAIN on its final frame.
    """
    rng = random.Random(f"{workload.name}/{seed}")
    source_words = sorted(_DEMO_LEXICON)
    dim = len(source_words) + 1
    lengths = list(workload.lengths)
    rng.shuffle(lengths)
    stream: list[str] = []
    while len(stream) < sum(lengths):
        stream += rng.sample(source_words, len(source_words))
    records = []
    for index, n_words in enumerate(lengths):
        words, stream = stream[:n_words], stream[n_words:]
        frames: list[list[float]] = []
        for word in words:
            channel = 1 + source_words.index(word)
            interior = [0.0] * dim
            interior[channel] = 1.0
            final = [0.0] * dim
            final[channel] = BOUNDARY_GAIN
            frames += [interior] * (WORD_MS // FRAME_MS - 1) + [final]
        records.append(
            {
                "id": f"{workload.name}-{index:03d}",
                "frame_ms": FRAME_MS,
                "frames": frames,
                "transcript": words,
                "reference": [_DEMO_LEXICON[w] for w in words],
            }
        )
    return records


class ServerProcess:
    """bench/server.py in a child process, serving until stopped."""

    def __init__(self, model_path: Path, out_path: Path, trace: bool) -> None:
        self.out_path = out_path
        self.proc = subprocess.Popen(
            [
                sys.executable, str(BENCH_DIR / "server.py"),
                "--model", str(model_path),
                "--out", str(out_path),
                "--trace", str(int(trace)),
                "--cpu", str(CPU),
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("PORT "):
            self.kill()
            raise RuntimeError(f"benchmark server did not start: {line!r}")
        self.address = ("127.0.0.1", int(line.split()[1]))

    def restart(self) -> None:
        """Serve on a freshly built model from now on (a new port)."""
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line.startswith("PORT "):
            raise RuntimeError(f"benchmark server did not restart: {line!r}")
        self.address = ("127.0.0.1", int(line.split()[1]))

    def stop(self) -> dict:
        """Shut the server down; return its chunk times, sessions, spans."""
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        self.proc.stdout.close()
        if self.proc.returncode != 0:
            raise RuntimeError(
                f"benchmark server exited with {self.proc.returncode}"
            )
        return json.loads(self.out_path.read_text(encoding="utf-8"))

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            if not pipe.closed:
                pipe.close()


@dataclass
class Setup:
    manifest: Path
    model_path: Path
    model: object
    expected: list[gate.Expected]
    frames: int
    server: ServerProcess | None


def set_up(workload: Workload, seed: int, work_dir: Path,
           server_out: Path | None) -> Setup:
    """Write the model config and manifest, build the model, and start a
    server writing its records to ``server_out`` if one is given; all of it
    is timed as set-up."""
    model_path = work_dir / "model.json"
    model_path.write_text(json.dumps(MODEL_CONFIG), encoding="utf-8")
    model = load_model_config(model_path)
    records = make_corpus(workload, seed)
    manifest = work_dir / "manifest.jsonl"
    with manifest.open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")
    expected = [
        gate.Expected(
            r["id"], tuple(r["reference"]), len(r["frames"]) * FRAME_MS
        )
        for r in records
    ]
    server = (ServerProcess(model_path, server_out, False)
              if server_out is not None else None)
    return Setup(
        manifest, model_path, model, expected,
        sum(len(r["frames"]) for r in records), server,
    )


# ---------------------------------------------------------------------------
# Timed passes
# ---------------------------------------------------------------------------


@dataclass
class Pass:
    """One pass, gated as soon as it ends, with the intervals its metrics
    are computed from once the run's speed marks are all taken."""

    #: the timed window on ``time.perf_counter``
    start_s: float
    end_s: float
    configs: list[PolicyConfig]
    digest: str
    errors: list[str]
    attempted: int
    failed: int
    #: AL_CA - AL of each utterance of each evaluation, in order
    ca_gaps: list[float]
    #: READs and WRITEs from the event logs, target tokens committed
    reads: int
    writes: int
    tokens: int
    #: per-utterance (or session), per-chunk and first-word intervals, in
    #: call order, until :func:`settle` turns them into the two below
    utt: list[tuple[float, float]]
    chunk: list[tuple[float, float]]
    first_word: list[tuple[float, float]]
    #: the pass's latency metrics scaled to the nominal speed, and as read
    scaled: dict | None = None
    read: dict | None = None


def _run_pass(workload: Workload, setup: Setup, probes: Probes,
              meter: SpeedMeter, recorder: Recorder | None,
              patches: Patches | None):
    """One pass between two speed marks; returns its timed window and its
    evaluations.

    Every pass starts on a freshly built model, or on a server restarted on
    one, outside the timed window: one CLI invocation or one server never
    sees the same corpus twice, so no state a model keeps may carry over
    from an earlier pass.  Only reuse within a pass (across the grid points
    of a sweep, across the sessions of a wire pass) counts."""
    if setup.server is None:
        model = load_model_config(setup.model_path)
        if recorder is not None:
            install_model_spans(recorder, patches, model)
    else:
        setup.server.restart()
    meter.mark()
    t0 = time.perf_counter()
    utterances = list(core.load_manifest(setup.manifest))
    if workload.api == "evaluate_corpus":
        harness.evaluate_corpus(utterances, model, CONFIG)
    elif workload.api == "sweep":
        harness.sweep(utterances, model)  # the default grid
    else:
        result = service.client_evaluate(
            setup.server.address, utterances, CONFIG
        )
    window = (t0, time.perf_counter())
    meter.mark()
    if setup.server is not None:
        return window, [(CONFIG, result)]
    evaluations = list(probes.evaluations)
    probes.evaluations.clear()
    return window, evaluations


def measure(workload: Workload, setup: Setup, seconds: float,
            probes: Probes, meter: SpeedMeter,
            recorder: Recorder | None = None,
            patches: Patches | None = None,
            between_passes=None) -> list[Pass]:
    """Run passes for ``seconds`` (at least :data:`MIN_PASSES` of them).

    Untraced passes also mark the speed between utterances.  With a
    ``recorder``, each pass's model is wrapped in spans through ``patches``
    and only the pass's ends are marked, so no span covers a mark.
    ``between_passes(share_done)`` runs after each pass, with the share of
    ``seconds`` gone so far.
    """
    passes: list[Pass] = []
    probes.meter = meter if recorder is None else None
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or \
            time.perf_counter() - start < seconds:
        if recorder is not None:
            recorder.group = len(passes)
        window, evaluations = _run_pass(workload, setup, probes, meter,
                                        recorder, patches)
        passes.append(summarise(window, evaluations, setup.expected,
                                probes.take_timings()))
        if setup.server is None:
            # the pass's marks are all taken; on the wire the server's
            # records arrive when it stops
            settle(passes[-1], setup, meter)
        if between_passes is not None:
            between_passes((time.perf_counter() - start) / seconds)
    probes.meter = None
    return passes


def _label(config: PolicyConfig) -> str:
    return f"{config.detection.value}/k{config.k}"


def _outputs(result) -> list[gate.Output]:
    return [
        gate.Output(
            r.utt_id,
            tuple(r.hypothesis.words) if r.hypothesis else (),
            tuple(r.hypothesis.ideal_delays_ms) if r.hypothesis else (),
            r.error,
        )
        for r in result.results
    ]


def summarise(window: tuple[float, float], evaluations: list, expected,
              timings) -> Pass:
    """Gate every evaluation of a pass and keep only what the metrics need."""
    errors: list[str] = [] if evaluations else ["a pass evaluated nothing"]
    reads = writes = tokens = attempted = failed = 0
    ca_gaps = []
    for config, result in evaluations:
        errors += gate.check(expected, _outputs(result), config.k, WORD_MS)
        errors += gate.check_bleu(result.report.bleu, _label(config))
        attempted += len(result.results)
        failed += len(result.failures)
        for r in result.results:
            kinds = [e.kind.value for e in r.events]
            reads += kinds.count("READ")
            writes += kinds.count("WRITE")
            if r.hypothesis is not None and r.hypothesis.words:
                tokens += len(r.hypothesis.tokens)
                ca_gaps.append(average_lagging(r.delays, True)
                               - average_lagging(r.delays))
    utt, chunk, first_word = timings
    if len(utt) != attempted:
        errors.append(f"timed {len(utt)} utterances of {attempted}")
    return Pass(
        start_s=window[0],
        end_s=window[1],
        configs=[c for c, _ in evaluations],
        digest=gate.digest(
            [(_label(c), _outputs(r)) for c, r in evaluations]
        ),
        errors=errors,
        attempted=attempted,
        failed=failed,
        ca_gaps=ca_gaps,
        reads=reads,
        writes=writes,
        tokens=tokens,
        utt=utt,
        chunk=chunk,
        first_word=first_word,
    )


def check_sessions(sessions: list[dict], expected, n_passes: int) -> list[str]:
    """The server's own engine results must meet the same closed forms."""
    if len(sessions) != n_passes * len(expected):
        return [f"server saw {len(sessions)} sessions, expected "
                f"{n_passes * len(expected)}"]
    errors: list[str] = []
    for p in range(n_passes):
        chunk = sessions[p * len(expected):(p + 1) * len(expected)]
        outputs = [
            gate.Output(e.utt_id, tuple(s["words"]), tuple(s["ideal_ms"]))
            for e, s in zip(expected, chunk)
        ]
        errors += [f"server: {e}" for e in
                   gate.check(expected, outputs, CONFIG.k, WORD_MS)]
    return errors


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def p50(samples) -> float:
    return statistics.median(samples)


def p90(samples) -> float:
    return statistics.quantiles(samples, n=10, method="inclusive")[-1]


def read_s(start: float, end: float) -> float:
    """An interval as the clock read it, unscaled."""
    return end - start


def pass_rtf(p: Pass, setup: Setup, seconds=read_s) -> float:
    """A pass's time (manifest load included) ÷ the audio it processed; a
    sweep counts the audio once per grid point.  ``seconds(start, end)``
    measures an interval: :meth:`SpeedMeter.scaled_s` or :func:`read_s`."""
    audio_s = len(p.configs) * setup.frames * FRAME_MS / 1000.0
    return seconds(p.start_s, p.end_s) / audio_s


def pass_metrics(p: Pass, setup: Setup, seconds=read_s) -> dict:
    """The latency metrics as one pass showed them: its real-time factor,
    the p50 and p90 of its calls, and the mean AL_CA - AL of its
    utterances, each utterance's gap scaled as its own interval is."""

    def ms(intervals) -> list[float]:
        return [seconds(*interval) * 1000.0 for interval in intervals]

    utt_ms, chunk_ms, first_word_ms = ms(p.utt), ms(p.chunk), ms(p.first_word)
    return {
        "rtf": pass_rtf(p, setup, seconds),
        "utt_ms_p50": p50(utt_ms),
        "utt_ms_p90": p90(utt_ms),
        "chunk_ms_p50": p50(chunk_ms),
        "chunk_ms_p90": p90(chunk_ms),
        "first_word_ms_p50": p50(first_word_ms),
        "first_word_ms_p90": p90(first_word_ms),
        "ca_gap_ms": statistics.fmean(
            gap * seconds(*utt) / read_s(*utt)
            for gap, utt in zip(p.ca_gaps, p.utt)
        ),
    }


def attach_server(passes: list[Pass], server: dict, expected) -> None:
    """On the wire, chunk times and the CA gap are read where the engine
    runs: split the server's records into the client's passes.

    Under fast pacing the client's wall delays collapse onto the ideal ones,
    so the gap comes from the server engines' own wall delays."""
    chunks = [tuple(chunk) for chunk in server["chunks"]]
    n = len(expected)
    for i, p in enumerate(passes):
        p.chunk = [c for c in chunks if p.start_s <= c[0] < p.end_s]
        p.ca_gaps = []
        for exp, s in zip(expected, server["sessions"][i * n:(i + 1) * n]):
            delays = DelaySequence(
                ideal_ms=s["ideal_ms"], wall_ms=s["wall_ms"],
                source_ms=float(exp.duration_ms),
                hyp_len=len(s["words"]), ref_len=len(exp.reference),
            )
            p.ca_gaps.append(
                average_lagging(delays, True) - average_lagging(delays)
            )
    if sum(len(p.chunk) for p in passes) != len(chunks):
        raise RuntimeError("server chunks fall outside the client's passes")


def settle(p: Pass, setup: Setup, meter: SpeedMeter) -> None:
    """Compute a pass's metrics, scaled and as read, and drop the intervals
    they come from, so that memory does not grow with the passes."""
    p.scaled = pass_metrics(p, setup, meter.scaled_s)
    p.read = pass_metrics(p, setup)
    p.utt, p.chunk, p.first_word = [], [], []


def end_to_end(passes: list[Pass], setups, seconds, scaled: bool) -> dict:
    """Each latency metric of the settled passes, summarised over them by
    :data:`OVER_PASSES`; ``setup_s`` is the median set-up."""
    per_pass = [p.scaled if scaled else p.read for p in passes]
    metrics = {"setup_s": p50([seconds(*s) for s in setups])}
    metrics.update({
        name: OVER_PASSES([m[name] for m in per_pass])
        for name in per_pass[0]
    })
    return metrics


def pass_tables(recorder: Recorder, server_spans: list, n_utts: int):
    """Per pass, per span name: [calls, work, total_ns, self_ns].

    Server spans are grouped by session ordinal, so session ``s`` belongs to
    pass ``s // n_utts``.  Each is filed under ``server:<name>``; its engine,
    model and detection spans also join the client's names (on the wire
    workload the client runs none of its own), while its wire spans stay
    apart from the client's.
    """
    tables = {g: dict(t) for g, t in layer_totals(recorder.spans).items()}
    for session, table in layer_totals(server_spans).items():
        merged = tables.setdefault(session // n_utts, {})
        for name, row in table.items():
            names = ["server:" + name]
            if not name.startswith("service."):
                names.append(name)
            for key in names:
                into = merged.setdefault(key, [0, 0, 0, 0])
                for i, value in enumerate(row):
                    into[i] += value
    return [tables.get(g, {}) for g in range(max(tables) + 1)]


def pass_counts(p: Pass, table: dict, sessions: list[dict]) -> dict:
    """The exact work counts of one pass.  On the wire the client keeps no
    event log, so READs and WRITEs come from the server's engines."""
    counts = {f"{name}.calls": row[0] for name, row in table.items()}
    counts.update({f"{name}.work": row[1] for name, row in table.items()})
    counts["policy.reads"] = p.reads + sum(s["reads"] for s in sessions)
    counts["policy.writes"] = p.writes + sum(s["writes"] for s in sessions)
    counts["target.tokens"] = p.tokens
    return dict(sorted(counts.items()))


def layer_metrics(tables, factors, counts, setup: Setup, configs,
                  overhead_ratio: float) -> dict:
    """Per-pass layer figures: self times in ms, counts, waste ratios.

    Counts are equal in every pass (the caller checks).  Times are scaled
    to the nominal speed by their pass's ``factors`` and summarised over
    the passes by :data:`OVER_PASSES`."""

    def field(name: str, i: int) -> float:
        return tables[0].get(name, (0, 0, 0, 0))[i]

    def pass_ms(name: str, i: int) -> float:
        per_pass = [t.get(name, (0, 0, 0, 0))[i] * f
                    for t, f in zip(tables, factors)]
        return OVER_PASSES(per_pass) / 1e6

    def self_ms(name: str) -> float:
        return pass_ms(name, 3)

    def total_ms(*names: str) -> float:
        return sum(pass_ms(n, 2) for n in names)

    frames_received = setup.frames * len(configs)
    adaptive_frames = setup.frames * sum(
        c.detection is DetectionKind.ADAPTIVE for c in configs
    )
    tokens = counts["target.tokens"]
    sent = field("service.WireMessage.to_line", 0)
    received = field("service.WireMessage.parse", 0)
    return {
        "core.load_manifest.self_ms": self_ms("core.load_manifest"),
        "core.load_manifest.bytes": field("core.load_manifest", 1),
        "core.word_spans.calls": field("core.word_spans", 0),
        "core.word_spans.tokens": field("core.word_spans", 1),
        "core.word_spans.self_ms": self_ms("core.word_spans"),
        "core.word_spans.rescan_ratio": field("core.word_spans", 1) / tokens,
        "model.encode_prefix.calls": field("model.encode_prefix", 0),
        "model.encode_prefix.frames": field("model.encode_prefix", 1),
        "model.encode_prefix.self_ms": self_ms("model.encode_prefix"),
        "model.encode_prefix.reencode_ratio":
            field("model.encode_prefix", 1) / frames_received,
        "model.decoder_step.calls": field("model.decoder_step", 0),
        "model.decoder_step.self_ms": self_ms("model.decoder_step"),
        "model.decoder_step.steps_per_token":
            field("model.decoder_step", 0) / tokens,
        "detection.ctc_greedy_collapse.calls":
            field("detection.ctc_greedy_collapse", 0),
        "detection.ctc_greedy_collapse.rows":
            field("detection.ctc_greedy_collapse", 1),
        "detection.ctc_greedy_collapse.self_ms":
            self_ms("detection.ctc_greedy_collapse"),
        "detection.ctc_greedy_collapse.rescan_ratio":
            field("detection.ctc_greedy_collapse", 1) / adaptive_frames,
        "detection.adaptive_word_count.self_ms":
            self_ms("detection.adaptive_word_count"),
        "detection.fixed_word_count.calls":
            field("detection.fixed_word_count", 0),
        "detection.fixed_word_count.self_ms":
            self_ms("detection.fixed_word_count"),
        "policy.push_chunk.self_ms": self_ms("policy.push_chunk"),
        "policy.finish_source.self_ms": self_ms("policy.finish_source"),
        "policy.reads": counts["policy.reads"],
        "policy.writes": counts["policy.writes"],
        "harness.evaluate_corpus.self_ms": self_ms("harness.evaluate_corpus"),
        "harness.sweep.self_ms": self_ms("harness.sweep"),
        "metrics.aggregate_metrics.self_ms":
            self_ms("metrics.aggregate_metrics"),
        "bleu.corpus_bleu.self_ms": self_ms("bleu.corpus_bleu"),
        "service.WireMessage.to_line.calls": sent,
        "service.WireMessage.to_line.self_ms":
            self_ms("service.WireMessage.to_line"),
        "service.WireMessage.parse.calls": received,
        "service.WireMessage.parse.self_ms":
            self_ms("service.WireMessage.parse"),
        "service.wire.bytes_sent": field("service.WireMessage.to_line", 1),
        "service.wire.bytes_received": field("service.WireMessage.parse", 1),
        "service.wire.messages": sent + received,
        "service.stream_utterance.self_ms":
            self_ms("service.stream_utterance"),
        "service.server.engine_ms": total_ms(
            "server:policy.push_chunk", "server:policy.finish_source"
        ),
        "service.server.parse_ms": total_ms("server:service.WireMessage.parse"),
        "service.server.send_ms": total_ms("server:service.server.send"),
        "service.server.wait_ms": total_ms("server:service.server.wait"),
        "trace.overhead_ratio": overhead_ratio,
    }


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


def environment() -> dict:
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else None
        commit = ref
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "commit": commit,
    }


def run_workload(workload: Workload, seed: int, seconds: int, trace: bool):
    """Set up, measure and gate one workload.

    Returns ``(metrics, details, errors, attempted, failed)``."""
    wire = workload.api == "client_evaluate"
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work_root))
    servers: list[ServerProcess] = []
    patches = Patches()
    meter = SpeedMeter()
    try:
        meter.mark()
        start = time.perf_counter()
        setup = set_up(workload, seed, work,
                       work / "server.json" if wire else None)
        setups = [(start, time.perf_counter())]
        meter.mark()
        if setup.server is not None:
            servers.append(setup.server)
        again = work / "again"
        again.mkdir()

        def set_up_again(share_done: float = 1.0) -> None:
            # Further set-ups are spread over the run, so their median sees
            # the machine's load across it rather than in one instant.
            while len(setups) < SETUP_REPEATS and \
                    share_done >= len(setups) / SETUP_REPEATS:
                n = len(setups)
                meter.mark()
                t0 = time.perf_counter()
                extra = set_up(workload, seed, again,
                               again / f"server-{n}.json" if wire else None)
                setups.append((t0, time.perf_counter()))
                meter.mark()
                if extra.server is not None:
                    servers.append(extra.server)
                    extra.server.stop()

        errors: list[str] = []
        if wire:
            # the wire must reproduce a local run of the same corpus
            local = harness.evaluate_corpus(
                list(core.load_manifest(setup.manifest)), setup.model, CONFIG
            )
            local_digest = gate.digest([(_label(CONFIG), _outputs(local))])

        probes = Probes()
        if wire:
            probes.install_client(patches)
        else:
            probes.install_local(patches)

        details: dict = {}
        # a traced run spends half its time untraced, half traced
        span = seconds / 2 if trace else seconds
        if trace:
            plain = measure(workload, setup, span, probes, meter)
            halves = [(plain, setup.server.stop() if wire else None)]
            if wire:
                setup.server = ServerProcess(
                    setup.model_path, work / "server-traced.json", True
                )
                servers.append(setup.server)
            traced, server, recorder = measure_traced(
                workload, setup, span, probes, meter
            )
            halves.append((traced, server))
            tables = pass_tables(recorder, server["spans"] if server else [],
                                 len(setup.expected))
            n = len(setup.expected)
            per_pass = [
                pass_counts(p, table, server["sessions"][i * n:(i + 1) * n]
                            if server else [])
                for i, (p, table) in enumerate(zip(traced, tables))
            ]
            if len(tables) != len(traced) or \
                    any(c != per_pass[0] for c in per_pass):
                errors.append("work counts differ between passes")

            def rtf(passes: list[Pass]) -> float:
                return OVER_PASSES(
                    [pass_rtf(p, setup, meter.scaled_s) for p in passes]
                )

            metrics = layer_metrics(
                tables, [meter.factor(p.start_s, p.end_s) for p in traced],
                per_pass[0], setup, traced[0].configs,
                rtf(traced) / rtf(plain),
            )
            details["counts"] = per_pass[0]
            details["layers"] = metrics
            details["spans"] = write_spans(
                workload, seed, recorder, server["spans"] if server else []
            )
        else:
            plain = measure(workload, setup, span, probes, meter,
                            between_passes=set_up_again)
            set_up_again()
            # read before the wire server's records are loaded, whose size
            # grows with the number of passes
            peak_rss_mb = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            )
            halves = [(plain, setup.server.stop() if wire else None)]
            if wire:
                attach_server(plain, halves[0][1], setup.expected)
                for p in plain:
                    settle(p, setup, meter)
            metrics = end_to_end(plain, setups, meter.scaled_s, True)
            metrics["peak_rss_mb"] = peak_rss_mb
            details["as_read"] = end_to_end(plain, setups, read_s, False)
            details["setup_s"] = [meter.scaled_s(*s) for s in setups]

        all_passes = [p for passes, _ in halves for p in passes]
        for p in all_passes:
            errors += p.errors
        digests = {p.digest for p in all_passes}
        if len(digests) > 1:
            errors.append("passes disagree on hypotheses or ideal delays")
        if wire:
            for passes, server in halves:
                errors += check_sessions(
                    server["sessions"], setup.expected, len(passes)
                )
            if digests != {local_digest}:
                errors.append("wire outputs differ from a local run")
            if probes.max_threads > 2:
                errors.append(
                    f"load generator ran {probes.max_threads} threads"
                )

        details.update({
            "workload": workload.name,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "params": {
                "api": workload.api,
                "config": None if workload.api == "sweep"
                else CONFIG.to_dict(),
                "utterances": len(setup.expected),
                "words": sorted(workload.lengths),
                "audio_s": setup.frames * FRAME_MS / 1000.0,
                "evaluations_per_pass": len(plain[0].configs),
            },
            "pass_s": [[read_s(p.start_s, p.end_s) for p in passes]
                       for passes, _ in halves],
            "kernel_ms": meter.kernel_ms,
            "digest": plain[0].digest,
            "environment": environment(),
        })
        attempted = sum(p.attempted for p in all_passes)
        failed = sum(p.failed for p in all_passes)
        return metrics, details, errors, attempted, failed
    finally:
        patches.undo()
        for server in servers:
            server.kill()
        shutil.rmtree(work, ignore_errors=True)


def measure_traced(workload: Workload, setup: Setup, seconds: float,
                   probes: Probes, meter: SpeedMeter):
    """Passes with a span on every layer; returns them with the server's
    records (wire only) and the client's recorder."""
    recorder = Recorder()
    span_patches = Patches()
    install_layer_spans(recorder, span_patches)
    try:
        traced = measure(workload, setup, seconds, probes, meter, recorder,
                         span_patches)
    finally:
        span_patches.undo()
    server = setup.server.stop() if setup.server is not None else None
    return traced, server, recorder


def write_spans(workload: Workload, seed: int, recorder: Recorder,
                server_spans: list) -> str:
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{workload.name}-seed{seed}-spans.json"
    path.write_text(json.dumps({
        "fields": ["name", "start_ns", "end_ns", "parent", "key", "work",
                   "group"],
        "client": recorder.spans,
        "server": server_spans,
    }), encoding="utf-8")
    return str(path.relative_to(ROOT))


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def declared_metrics(trace: bool) -> dict[str, str]:
    return {
        m["name"]: m["unit"]
        for m in spec()["per_layer" if trace else "end_to_end"]
    }


def run_one(args) -> int:
    def timeout(signum, frame):
        raise TimeoutError(f"benchmark run exceeded {WATCHDOG_S} s")

    signal.signal(signal.SIGALRM, timeout)
    signal.alarm(WATCHDOG_S)
    os.sched_setaffinity(0, {CPU})
    units = declared_metrics(bool(args.trace))
    metrics, details, errors, attempted, failed = run_workload(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
    )
    signal.alarm(0)
    for error in errors:
        print(f"gate: {error}", file=sys.stderr)
    print(json.dumps(details))
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 1 if errors else 0


def run_all(args) -> int:
    """Every workload, each in its own process; one table at the end."""
    status = 0
    rows = []
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: failed (exit {proc.returncode})", file=sys.stderr)
            status = 1
        if not lines:
            continue
        result = json.loads(lines[-1])
        for metric, entry in result["metrics"].items():
            rows.append((name, metric, entry["value"], entry["unit"]))
    width = max((len(m) for _, m, _, _ in rows), default=0)
    for workload, metric, value, unit in rows:
        print(f"{workload:12s} {metric:{width}s} {value:14.6g} {unit}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the simulharness benchmark."
    )
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"),
                        default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int,
                        default=spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if Path(simulharness.__file__).resolve().parent != SRC / "simulharness":
        parser.error(f"simulharness must come from {SRC}")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
