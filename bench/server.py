"""Benchmark server: a StreamTranslationServer with the benchmark's probes.

    python3 bench/server.py --model MODEL.json --out RECORDS.json --trace 0|1
                            --cpu N

Installs the chunk timer and session capture (and, with ``--trace 1``, the
layer and transport spans), builds the model from its config, starts a
server and prints ``PORT <n>`` once it accepts connections.  Each line read
from standard input starts over: a new server on a freshly built model
prints its ``PORT`` and the old one shuts down.  So no state a model keeps
carries from one benchmark pass to the next.  When standard input closes,
the server shuts down and writes the chunk intervals, session results and
spans of all its sessions to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from simulharness import StreamTranslationServer, load_model_config  # noqa: E402

from tracing import (  # noqa: E402
    Patches,
    Probes,
    Recorder,
    install_layer_spans,
    install_model_spans,
    install_session_spans,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--model", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cpu", type=int, required=True,
                        help="pin the server to this CPU")
    args = parser.parse_args()
    os.sched_setaffinity(0, {args.cpu})

    patches = Patches()
    probes = Probes()
    probes.install_server(patches)
    recorder = Recorder()
    if args.trace:
        install_layer_spans(recorder, patches)
        install_session_spans(recorder, patches)

    def start() -> StreamTranslationServer:
        model = load_model_config(args.model)
        if args.trace:
            install_model_spans(recorder, patches, model)
        server = StreamTranslationServer(model).start()
        print(f"PORT {server.address[1]}", flush=True)
        return server

    def stop(server: StreamTranslationServer) -> None:
        server.shutdown()
        # a session handler may still be closing its last span
        for thread in threading.enumerate():
            if thread is not threading.current_thread():
                thread.join(timeout=5)

    server = start()
    try:
        for _ in sys.stdin:
            # Shutting down waits out the serve loop's half-second poll, so
            # the old server stops in the background while the new one
            # serves; its sessions have all ended.
            threading.Thread(target=server.shutdown).start()
            server = start()
    finally:
        stop(server)
        patches.undo()
    args.out.write_text(
        json.dumps(
            {
                "chunks": probes.chunk,
                "sessions": probes.sessions,
                "spans": recorder.spans,
            }
        ),
        encoding="utf-8",
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
