"""Span recorder and the wrappers that attach it to simulharness from outside.

Nothing here edits the package: every probe rebinds a public function, method
or model-instance attribute for the life of one benchmark process and can be
undone.  A span keeps its name, start, end, parent span, the utterance or
session id it belongs to, a work count (frames, rows, tokens or bytes) and a
group number (the benchmark pass, or the server's session ordinal).  Spans
stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import itertools
import json
import os
import socketserver
import sys
import threading
import time
from collections import defaultdict

# span row layout
NAME, START, END, PARENT, KEY, WORK, GROUP = range(7)


class Recorder:
    """Collects spans from every thread of one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        #: utterance or session id stamped on spans as they open
        self.key: str | None = None
        #: pass number (client side) or session ordinal (server side)
        self.group = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        # The open utterance/session span.  A span opened on a thread with no
        # open span of its own (the client's reader thread) is its child.
        self._root: int | None = None

    def open(self, name: str, *, root: bool = False) -> int:
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else self._root
        with self._lock:
            index = len(self.spans)
            self.spans.append(
                [name, time.perf_counter_ns(), 0, parent, self.key, 0,
                 self.group]
            )
        stack.append(index)
        if root:
            self._root = index
        return index

    def close(self, index: int, work: int = 0) -> None:
        span = self.spans[index]
        span[END] = time.perf_counter_ns()
        span[WORK] = work
        self._local.stack.pop()
        if self._root == index:
            self._root = None


class Patches:
    """Rebinds attributes and remembers how to put them back."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def function(self, module_name: str, attr: str, make) -> None:
        """Wrap a module-level function in every simulharness module that
        imported it, so calls through any import path are seen."""
        original = getattr(sys.modules[module_name], attr)
        wrapped = make(original)
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] != "simulharness":
                continue
            if module.__dict__.get(attr) is original:
                self._undo.append((module, attr, original))
                setattr(module, attr, wrapped)

    def method(self, owner: type, attr: str, make) -> None:
        """Wrap a method (plain or classmethod) on its class."""
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(make(raw.__func__))
        else:
            wrapped = make(raw)
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def instance(self, obj: object, attr: str, make) -> None:
        """Shadow a bound method on one instance (a model object)."""
        self._undo.append((obj, attr, None))
        setattr(obj, attr, make(getattr(obj, attr)))

    def undo(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


def spanned(recorder: Recorder, name: str, *, work=None, key=None):
    """Wrapper factory: one span per call.

    ``work(args, result)`` gives the call's work count; ``key(args)`` marks an
    utterance/session entry point and stamps its id on the spans below it.
    """

    def make(fn):
        def wrapper(*args, **kwargs):
            if key is not None:
                recorder.key = key(args)
            index = recorder.open(name, root=key is not None)
            count = 0
            try:
                result = fn(*args, **kwargs)
                if work is not None:
                    count = work(args, result)
                return result
            finally:
                recorder.close(index, count)

        return wrapper

    return make


def _stamp_width(message) -> int:
    """Characters the two clock stamps take in a message's JSON line.

    They vary with the clock reading, so wire byte counts leave them out and
    stay exact from run to run."""
    return len(json.dumps(message.t_client_ms)) + len(
        json.dumps(message.t_server_ms)
    )


def install_layer_spans(recorder: Recorder, patches: Patches) -> None:
    """Wrap the public entry points of every simulharness module; a model
    instance is wrapped by :func:`install_model_spans`."""
    from simulharness import policy, service

    fn = patches.function
    fn("simulharness.core", "load_manifest", spanned(
        recorder, "core.load_manifest",
        work=lambda a, r: os.path.getsize(a[0])))
    fn("simulharness.core", "word_spans", spanned(
        recorder, "core.word_spans", work=lambda a, r: len(a[0])))
    fn("simulharness.detection", "ctc_greedy_collapse", spanned(
        recorder, "detection.ctc_greedy_collapse",
        work=lambda a, r: a[0].n_frames))
    fn("simulharness.detection", "adaptive_word_count", spanned(
        recorder, "detection.adaptive_word_count",
        work=lambda a, r: len(a[0])))
    fn("simulharness.detection", "fixed_word_count", spanned(
        recorder, "detection.fixed_word_count"))
    fn("simulharness.policy", "run_simultaneous", spanned(
        recorder, "policy.run_simultaneous", key=lambda a: a[1].id))
    fn("simulharness.harness", "evaluate_corpus", spanned(
        recorder, "harness.evaluate_corpus"))
    fn("simulharness.harness", "sweep", spanned(recorder, "harness.sweep"))
    fn("simulharness.metrics", "aggregate_metrics", spanned(
        recorder, "metrics.aggregate_metrics"))
    fn("simulharness.bleu", "corpus_bleu", spanned(
        recorder, "bleu.corpus_bleu"))
    fn("simulharness.service", "stream_utterance", spanned(
        recorder, "service.stream_utterance", key=lambda a: a[1].id))
    fn("simulharness.service", "client_evaluate", spanned(
        recorder, "service.client_evaluate"))

    patches.method(policy.SimulEngine, "push_chunk", spanned(
        recorder, "policy.push_chunk", work=lambda a, r: len(a[1])))
    patches.method(policy.SimulEngine, "finish_source", spanned(
        recorder, "policy.finish_source"))
    patches.method(service.WireMessage, "to_line", spanned(
        recorder, "service.WireMessage.to_line",
        work=lambda a, r: len(r) - _stamp_width(a[0])))
    patches.method(service.WireMessage, "parse", spanned(
        recorder, "service.WireMessage.parse",
        work=lambda a, r: len(a[1]) - _stamp_width(r)))


def install_model_spans(recorder: Recorder, patches: Patches, model) -> None:
    """Wrap one model instance's ``encode_prefix`` and ``decoder_step``."""
    patches.instance(model, "encode_prefix", spanned(
        recorder, "model.encode_prefix", work=lambda a, r: len(a[0])))
    patches.instance(model, "decoder_step", spanned(
        recorder, "model.decoder_step"))


# ---------------------------------------------------------------------------
# Server-side transport spans
# ---------------------------------------------------------------------------


# Transport spans carry no byte counts: lines include clock stamps whose width
# varies, and the client side already counts the exact bytes.


class _TimedReader:
    """Read side of a session socket; each wait for a line is a span."""

    def __init__(self, raw, recorder: Recorder) -> None:
        self._raw = raw
        self._recorder = recorder

    def __iter__(self):
        while True:
            index = self._recorder.open("service.server.wait")
            line = self._raw.readline()
            self._recorder.close(index)
            if not line:
                return
            yield line

    def __getattr__(self, name):
        return getattr(self._raw, name)


class _TimedWriter:
    """Write side of a session socket; each write and flush is a span."""

    def __init__(self, raw, recorder: Recorder) -> None:
        self._raw = raw
        timed = spanned(recorder, "service.server.send")
        self.write = timed(raw.write)
        self.flush = timed(raw.flush)

    def __getattr__(self, name):
        return getattr(self._raw, name)


def install_session_spans(recorder: Recorder, patches: Patches) -> None:
    """Open a span per server session and time its socket reads and writes.

    Hooks the standard library's stream handler, which the server's session
    handler extends, so the package itself stays untouched."""
    handler = socketserver.StreamRequestHandler
    sessions = itertools.count()

    def make_setup(setup):
        def wrapper(self):
            recorder.group = next(sessions)
            recorder.key = f"session-{recorder.group}"
            self._bench_span = recorder.open(
                "service.server.session", root=True
            )
            setup(self)
            self.rfile = _TimedReader(self.rfile, recorder)
            self.wfile = _TimedWriter(self.wfile, recorder)

        return wrapper

    def make_finish(finish):
        def wrapper(self):
            try:
                finish(self)
            finally:
                recorder.close(self._bench_span)

        return wrapper

    patches.method(handler, "setup", make_setup)
    patches.method(handler, "finish", make_finish)


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------


def layer_totals(spans: list[list]) -> dict[int, dict[str, list[int]]]:
    """Per group and span name: ``[calls, work, total_ns, self_ns]``.

    Self time is a span's duration minus the part of it that its children
    cover; children on other threads may overlap, so their union is taken.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span[PARENT] is not None:
            children[span[PARENT]].append(index)
    totals: dict[int, dict[str, list[int]]] = defaultdict(
        lambda: defaultdict(lambda: [0, 0, 0, 0])
    )
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0
        cursor = start
        for c_start, c_end in sorted(
            (spans[c][START], spans[c][END]) for c in children[index]
        ):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        row = totals[span[GROUP]][span[NAME]]
        row[0] += 1
        row[1] += span[WORK]
        row[2] += end - start
        row[3] += end - start - covered
    return totals


# ---------------------------------------------------------------------------
# Untraced probes: the few timers every run keeps for end-to-end metrics
# ---------------------------------------------------------------------------


class Probes:
    """Times utterances, chunks and first words from outside the package.

    Each timing is kept as its ``(start, end)`` on ``time.perf_counter``, a
    clock every process of the machine shares, so that it can be scaled by
    the machine's speed at that moment.  One caller drives one utterance at
    a time, so a single "current utterance" start is enough.  Server
    processes use only the chunk timer and the session capture.
    """

    def __init__(self) -> None:
        self.utt: list[tuple[float, float]] = []
        self.chunk: list[tuple[float, float]] = []
        self.first_word: list[tuple[float, float]] = []
        #: (config, CorpusResult) of each evaluate_corpus call
        self.evaluations: list[tuple[object, object]] = []
        #: engine results, in session order (server side)
        self.sessions: list[dict] = []
        self.max_threads = 0
        #: a SpeedMeter to mark before each utterance or session, if any
        self.meter = None
        self._utt_start: float | None = None

    def take_timings(self):
        """Hand over the utterance, chunk and first-word intervals so far."""
        taken = (self.utt[:], self.chunk[:], self.first_word[:])
        for samples in (self.utt, self.chunk, self.first_word):
            samples.clear()
        return taken

    def _mark(self) -> None:
        if self.meter is not None:
            self.meter.mark_if_due()

    def _word_seen(self, emissions) -> None:
        if emissions and self._utt_start is not None:
            self.first_word.append((self._utt_start, time.perf_counter()))
            self._utt_start = None

    def install_engine(self, patches: Patches) -> None:
        from simulharness import policy

        def make_push(push_chunk):
            def wrapper(engine, frames):
                start = time.perf_counter()
                emissions = push_chunk(engine, frames)
                self.chunk.append((start, time.perf_counter()))
                self._word_seen(emissions)
                return emissions

            return wrapper

        def make_finish(finish_source):
            def wrapper(engine):
                emissions = finish_source(engine)
                self._word_seen(emissions)
                return emissions

            return wrapper

        patches.method(policy.SimulEngine, "push_chunk", make_push)
        patches.method(policy.SimulEngine, "finish_source", make_finish)

    def install_local(self, patches: Patches) -> None:
        """Per-utterance timers and result capture for in-process runs."""
        self.install_engine(patches)

        def make_run(run_simultaneous):
            def wrapper(model, utterance, config):
                self._mark()
                start = self._utt_start = time.perf_counter()
                try:
                    return run_simultaneous(model, utterance, config)
                finally:
                    self.utt.append((start, time.perf_counter()))

            return wrapper

        def make_evaluate(evaluate_corpus):
            def wrapper(utterances, model, config, **kwargs):
                result = evaluate_corpus(utterances, model, config, **kwargs)
                self.evaluations.append((config, result))
                return result

            return wrapper

        patches.function("simulharness.policy", "run_simultaneous", make_run)
        patches.function(
            "simulharness.harness", "evaluate_corpus", make_evaluate
        )

    def install_client(self, patches: Patches) -> None:
        """Per-session timers for wire runs; also samples the thread count."""
        from simulharness import service

        def make_stream(stream_utterance):
            def wrapper(address, utterance, config, **kwargs):
                self._mark()
                start = time.perf_counter()
                hypothesis, arrivals = stream_utterance(
                    address, utterance, config, **kwargs
                )
                self.utt.append((start, time.perf_counter()))
                if arrivals:
                    self.first_word.append(
                        (start, start + arrivals[0] / 1000.0)
                    )
                return hypothesis, arrivals

            return wrapper

        def make_parse(parse):
            def wrapper(cls, line):
                # runs on the client's reader thread while a session is open
                self.max_threads = max(
                    self.max_threads, threading.active_count()
                )
                return parse(cls, line)

            return wrapper

        patches.function("simulharness.service", "stream_utterance", make_stream)
        patches.method(service.WireMessage, "parse", make_parse)

    def install_server(self, patches: Patches) -> None:
        """Chunk timer plus a copy of every session's engine result."""
        from simulharness import policy

        self.install_engine(patches)

        def make_result(result):
            def wrapper(engine):
                hypothesis, events = result(engine)
                kinds = [event.kind.value for event in events]
                self.sessions.append(
                    {
                        "words": list(hypothesis.words),
                        "ideal_ms": list(hypothesis.ideal_delays_ms),
                        "wall_ms": list(hypothesis.wall_delays_ms),
                        "reads": kinds.count("READ"),
                        "writes": kinds.count("WRITE"),
                    }
                )
                return hypothesis, events

            return wrapper

        patches.method(policy.SimulEngine, "result", make_result)
