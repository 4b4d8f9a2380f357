"""Start ``dozznoc serve``, optionally traced; write spans at drain.

Run by the ``serve_mixed`` workload as a child process::

    python3 perfbench/serve_child.py --store S --cache-dir C \\
        --registry R --port P --trace 1 --spans spans.json

With ``--trace 1`` the layer wrappers are installed before the server
starts, and after SIGTERM has drained it the spans go to ``--spans``,
with every program binding still wrapped after the restore (the
launcher refuses to report when there is one).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--store", required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--registry", required=True)
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args()

    tracer = None
    if args.trace:
        from layers import install_serve
        from tracer import Tracer, leftover_wrappers

        tracer = Tracer()
        install_serve(tracer)

    from repro.serve import ServeConfig, serve_forever

    serve_forever(ServeConfig(
        store_path=args.store, cache_dir=args.cache_dir,
        registry_dir=args.registry, port=args.port,
    ))
    if tracer is not None:
        tracer.restore()
        tmp = f"{args.spans}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump({"pid": os.getpid(), "spans": tracer.records(),
                       "leftover": leftover_wrappers()}, fh)
        os.replace(tmp, args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
