"""Command-line harness for streaming translation evaluation.

Subcommands::

    eval         run one policy setting over a manifest, write metrics + logs
    sweep        trace a quality/latency curve over a (strategy, k) grid
    offline      the engine at wait-∞ over one chunk, the quality ceiling
    serve        host the streaming engine behind the TCP wire protocol
    remote-eval  evaluate a manifest against a running server
    make-demo    write a self-contained toy manifest and model config

Exit codes: 0 on success, 1 when some utterances failed (metrics still cover
the rest), 2 on bad arguments or unreadable inputs.
"""

from __future__ import annotations

import json
import logging
import random
import sys
from functools import reduce
from pathlib import Path

import click

from . import __version__
from .core import ManifestError, Utterance, load_manifest
from .harness import (
    CorpusResult,
    SweepSpec,
    evaluate_corpus,
    score_corpus,
    sweep as sweep_grid,
    write_eval_outputs,
)
from .model import LexiconMockModel, load_model_config, synthetic_corpus
from .policy import PolicyConfig, SimulRunError, offline_greedy_translate
from .service import StreamTranslationServer, check_timeout_s, client_evaluate

_PATH_IN = click.Path(exists=True, dir_okay=False, path_type=Path)
_PATH_OUT_DIR = click.Path(file_okay=False, path_type=Path)


@click.group()
@click.version_option(__version__, prog_name="simulharness")
@click.option("-v", "--verbose", is_flag=True, help="Enable debug logging.")
def main(verbose: bool) -> None:
    """Streaming simultaneous-translation engine and evaluation harness."""
    logging.basicConfig(
        level=logging.DEBUG if verbose else logging.WARNING,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )


# ---------------------------------------------------------------------------
# Shared option groups
# ---------------------------------------------------------------------------


_DEFAULTS = PolicyConfig()


def _options(*opts):
    """A decorator adding ``opts`` to a command, listed in this order."""
    return lambda fn: reduce(lambda f, opt: opt(f), reversed(opts), fn)


#: policy knobs shared by every online evaluation command
_policy_options = _options(
    click.option("--step-ms", type=int, default=_DEFAULTS.step_ms,
                 show_default=True,
                 help="Source milliseconds consumed per READ."),
    click.option("--avg-word-ms", type=int, default=_DEFAULTS.avg_word_ms,
                 show_default=True,
                 help="Assumed word duration for the fixed detector."),
    click.option("--force-finish/--no-force-finish",
                 default=_DEFAULTS.force_finish, show_default=True,
                 help="Never accept end-of-sequence while source audio "
                 "remains."),
    click.option("--avoid-eos", type=click.Choice(["auto", "on", "off"]),
                 default="auto", show_default=True,
                 help="Replace a premature end-of-sequence with the "
                 "next-best token instead of forcing a READ (auto: on only "
                 "for adaptive detection)."),
    click.option("--max-target-words", type=int, default=None,
                 help="Hard cap on emitted words "
                 "(default: a per-utterance heuristic)."),
    click.option("--source-convention", type=click.Choice(["bpe", "sp"]),
                 default=_DEFAULTS.source_convention.value, show_default=True,
                 help="Subword boundary convention of the source CTC "
                 "vocabulary."),
)

#: a single policy point: lag plus detection strategy
_point_options = _options(
    click.option("--k", type=int, default=_DEFAULTS.k, show_default=True,
                 help="Lag, in detected source words, before the first "
                 "write."),
    click.option("--detection", type=click.Choice(["fixed", "adaptive"]),
                 default=_DEFAULTS.detection.value, show_default=True,
                 help="Source word detector driving the schedule."),
)


_AVOID_EOS = {"auto": None, "on": True, "off": False}


def _build_config(*, avoid_eos: str, **settings) -> PolicyConfig:
    """The policy the flags set; each flag but ``--avoid-eos`` is named
    after its ``PolicyConfig`` field."""
    try:
        return PolicyConfig(
            avoid_eos_while_reading=_AVOID_EOS[avoid_eos], **settings
        )
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc


def _load_utterances(path: Path) -> list[Utterance]:
    try:
        return list(load_manifest(path))
    except (ManifestError, OSError) as exc:
        raise click.UsageError(f"cannot load manifest {path}: {exc}") from exc


def _load_model(path: Path) -> LexiconMockModel:
    try:
        return load_model_config(path)
    except (ValueError, KeyError, OSError) as exc:
        raise click.UsageError(
            f"cannot load model config {path}: {exc}"
        ) from exc


def _timeout_s(_ctx, _param, value: float) -> float:
    try:
        return check_timeout_s(value)
    except ValueError as exc:
        raise click.BadParameter(str(exc)) from None


def _fmt(value: float | None, digits: int = 0) -> str:
    return "n/a" if value is None else f"{value:.{digits}f}"


def _summary_line(result: CorpusResult) -> str:
    report = result.report
    if report.n_utts == 0:
        return "no utterances scored"
    regime = report.regime.value if report.regime else "n/a"
    return (
        f"BLEU {_fmt(report.bleu, 2)} | "
        f"AL {_fmt(report.al_ms)} ms | LAAL {_fmt(report.laal_ms)} ms | "
        f"AL_CA {_fmt(report.al_ca_ms)} ms | "
        f"LAAL_CA {_fmt(report.laal_ca_ms)} ms | "
        f"regime {regime} | n={report.n_utts}"
    )


def _exit_on_failures(result: CorpusResult) -> None:
    failed = [r for r in result.results if r.error is not None]
    for r in failed:
        click.echo(f"failed: {r.utt_id}: {r.error}", err=True)
    if failed:
        sys.exit(1)


def _report_run(result: CorpusResult, out_dir: Path) -> None:
    """Write a run's metrics and logs, print its summary, and exit 1 if
    any utterance failed."""
    write_eval_outputs(out_dir, result)
    click.echo(_summary_line(result))
    click.echo(f"wrote {out_dir / 'metrics.json'}")
    _exit_on_failures(result)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


@main.command("eval")
@click.option("--manifest", "manifest_path", required=True, type=_PATH_IN,
              help="Line-delimited JSON corpus manifest.")
@click.option("--model-config", "model_path", required=True, type=_PATH_IN,
              help="JSON model configuration.")
@_point_options
@_policy_options
@click.option("--out", "out_dir", type=_PATH_OUT_DIR,
              default=Path("eval_out"), show_default=True,
              help="Directory for metrics.json and per-utterance logs.")
def eval_command(
    manifest_path: Path,
    model_path: Path,
    out_dir: Path,
    **policy_flags,
) -> None:
    """Evaluate a manifest with one policy setting."""
    utterances = _load_utterances(manifest_path)
    model = _load_model(model_path)
    config = _build_config(**policy_flags)
    _report_run(evaluate_corpus(utterances, model, config), out_dir)


@main.command("sweep")
@click.option("--manifest", "manifest_path", required=True, type=_PATH_IN,
              help="Line-delimited JSON corpus manifest.")
@click.option("--model-config", "model_path", required=True, type=_PATH_IN,
              help="JSON model configuration.")
@click.option("--k", "k_values", type=int, multiple=True,
              help="Lag values to trace (repeatable; default "
              f"{' '.join(map(str, SweepSpec.k_values))}).")
@click.option("--strategy", "strategies",
              type=click.Choice(["fixed", "adaptive"]), multiple=True,
              help="Detection strategies to trace (repeatable; default "
              f"{' '.join(s.value for s in SweepSpec.strategies)}).")
@click.option("--runs", type=int, default=SweepSpec.runs_per_point,
              show_default=True,
              help="Repeats per grid point, averaged into the "
              "computation-aware columns.")
@_policy_options
@click.option("--out", "out_dir", type=_PATH_OUT_DIR,
              default=Path("sweep_out"), show_default=True,
              help="Directory for curve.csv and per-run sidecars.")
def sweep_command(
    manifest_path: Path,
    model_path: Path,
    k_values: tuple[int, ...],
    strategies: tuple[str, ...],
    runs: int,
    out_dir: Path,
    **policy_flags,
) -> None:
    """Trace a quality/latency curve over a (strategy, k) grid."""
    utterances = _load_utterances(manifest_path)
    model = _load_model(model_path)
    # only the grid flags given: SweepSpec holds the default grid
    grid = {"k_values": k_values, "strategies": strategies}
    base = _build_config(**policy_flags)
    try:
        spec = SweepSpec(
            **{name: values for name, values in grid.items() if values},
            runs_per_point=runs,
            base_config=base,
        )
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    try:
        points = sweep_grid(utterances, model, spec, out_dir=out_dir)
    except SimulRunError as exc:
        click.echo(f"sweep failed: {exc}", err=True)
        sys.exit(1)
    for point in points:
        click.echo(
            f"{point.strategy.value:8s} k={point.k:<3d} "
            f"BLEU {point.bleu:6.2f}  AL {point.al_ms:8.1f}  "
            f"LAAL {point.laal_ms:8.1f}  AL_CA {point.al_ca_ms:8.1f}  "
            f"LAAL_CA {point.laal_ca_ms:8.1f}"
        )
    click.echo(f"wrote {out_dir / 'curve.csv'}")


@main.command("offline")
@click.option("--manifest", "manifest_path", required=True, type=_PATH_IN,
              help="Line-delimited JSON corpus manifest.")
@click.option("--model-config", "model_path", required=True, type=_PATH_IN,
              help="JSON model configuration.")
@click.option("--max-target-words", type=click.IntRange(min=1),
              default=None, help="Hard cap on emitted words "
              "(default: a per-utterance heuristic).")
@click.option("--out", "out_path", type=click.Path(dir_okay=False,
              path_type=Path), default=None,
              help="Optional JSONL file for the hypotheses.")
def offline_command(
    manifest_path: Path,
    model_path: Path,
    max_target_words: int | None,
    out_path: Path | None,
) -> None:
    """Run the engine at wait-∞ over one chunk per utterance: the whole
    source is read before any word is written -- the quality ceiling."""
    utterances = _load_utterances(manifest_path)
    model = _load_model(model_path)
    result = score_corpus(utterances, lambda u: (
        offline_greedy_translate(model, u, max_target_words=max_target_words),
        (),
    ))
    if out_path is not None:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        with out_path.open("w", encoding="utf-8") as handle:
            for r in result.results:
                if r.error is None:
                    record = {
                        "id": r.utt_id,
                        "words": list(r.hypothesis.words),
                        "tokens": [t.surface for t in r.hypothesis.tokens],
                    }
                    handle.write(json.dumps(record) + "\n")
    report = result.report
    if report.n_utts:
        click.echo(f"offline BLEU {report.bleu:.2f} | n={report.n_utts}")
    else:
        click.echo("no utterances scored")
    _exit_on_failures(result)


@main.command("serve")
@click.option("--model-config", "model_path", required=True, type=_PATH_IN,
              help="JSON model configuration, served to every session.")
@click.option("--host", default="127.0.0.1", show_default=True)
@click.option("--port", type=click.IntRange(0, 65535), default=7070,
              show_default=True, help="TCP port (0 picks a free one).")
def serve_command(model_path: Path, host: str, port: int) -> None:
    """Host the streaming engine behind the TCP wire protocol."""
    model = _load_model(model_path)
    try:
        server = StreamTranslationServer(model, host=host, port=port)
    except OSError as exc:
        raise click.UsageError(f"cannot bind {host}:{port}: {exc}") from exc
    bound_host, bound_port = server.address
    click.echo(f"listening on {bound_host}:{bound_port}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        click.echo("shutting down")


@main.command("remote-eval")
@click.option("--host", default="127.0.0.1", show_default=True)
@click.option("--port", type=click.IntRange(1, 65535), required=True)
@click.option("--manifest", "manifest_path", required=True, type=_PATH_IN,
              help="Line-delimited JSON corpus manifest.")
@_point_options
@_policy_options
@click.option("--pacing", type=click.Choice(["fast", "realtime"]),
              default="fast", show_default=True,
              help="Send chunks back to back, or each once its audio exists.")
@click.option("--timeout-s", type=float, callback=_timeout_s,
              default=30.0, show_default=True,
              help="Wait limit per utterance, in seconds: above 0 and at "
              "most the platform's thread timeout (about 9.2e9 on Linux).")
@click.option("--out", "out_dir", type=_PATH_OUT_DIR,
              default=Path("remote_eval_out"), show_default=True,
              help="Directory for metrics.json and per-utterance logs.")
def remote_eval_command(
    host: str,
    port: int,
    manifest_path: Path,
    pacing: str,
    timeout_s: float,
    out_dir: Path,
    **policy_flags,
) -> None:
    """Evaluate a manifest against a running server."""
    utterances = _load_utterances(manifest_path)
    config = _build_config(**policy_flags)
    result = client_evaluate(
        (host, port), utterances, config, pacing=pacing, timeout_s=timeout_s
    )
    _report_run(result, out_dir)


_DEMO_LEXICON = {
    "hallo": "hello",
    "welt": "world",
    "wie": "how",
    "geht": "goes",
    "es": "it",
    "dir": "you",
    "heute": "today",
    "morgen": "tomorrow",
    "danke": "thanks",
    "gut": "good",
    "sehr": "very",
    "freund": "friend",
}


@main.command("make-demo")
@click.option("--out", "out_dir", type=_PATH_OUT_DIR, default=Path("demo"),
              show_default=True, help="Directory for the demo inputs.")
@click.option("--n-utts", type=int, default=8, show_default=True)
@click.option("--seed", type=int, default=7, show_default=True)
def make_demo_command(out_dir: Path, n_utts: int, seed: int) -> None:
    """Write a self-contained toy manifest and model config."""
    if n_utts < 1:
        raise click.UsageError("--n-utts must be at least 1")
    out_dir.mkdir(parents=True, exist_ok=True)
    model_path = out_dir / "model.json"
    model_path.write_text(
        json.dumps(
            {
                "lexicon": _DEMO_LEXICON,
                "target_convention": "bpe",
                "target_piece_len": 3,
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )
    model = load_model_config(model_path)
    corpus = synthetic_corpus(
        model,
        n_utts=n_utts,
        rng=random.Random(seed),
        min_words=3,
        max_words=8,
        id_prefix="demo",
    )
    manifest_path = out_dir / "manifest.jsonl"
    with manifest_path.open("w", encoding="utf-8") as handle:
        for utterance in corpus:
            handle.write(
                json.dumps(
                    {
                        "id": utterance.id,
                        "frame_ms": utterance.frame_ms,
                        "frames": list(map(list, utterance.frames)),
                        "transcript": list(utterance.transcript or ()),
                        "reference": list(utterance.reference),
                    }
                )
                + "\n"
            )
    click.echo(
        f"wrote {manifest_path} ({len(corpus)} utterances) and {model_path}"
    )
    click.echo("try:")
    click.echo(
        f"  simulharness eval --manifest {manifest_path} "
        f"--model-config {model_path} --k 3 --out {out_dir / 'eval'}"
    )
    click.echo(
        f"  simulharness sweep --manifest {manifest_path} "
        f"--model-config {model_path} --out {out_dir / 'sweep'}"
    )
    click.echo(
        f"  simulharness serve --model-config {model_path} --port 7070 &\n"
        f"  simulharness remote-eval --port 7070 "
        f"--manifest {manifest_path} --out {out_dir / 'remote'}"
    )


if __name__ == "__main__":
    main()
