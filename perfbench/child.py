"""Child processes of the benchmark, one fresh interpreter each.

    python3 perfbench/child.py setup SRC MODEL
        Import malgebra from SRC, then load and build (or refuse) MODEL through
        ``cli.load_model_file``; print the seconds that took as JSON.

    python3 perfbench/child.py trace SRC SPANDIR ARG...
        Run ``malgebra`` with ARG... in this process, with the spans of
        ``tracer`` installed; write the spans to SPANDIR when it ends.
"""

from __future__ import annotations

import json
import sys
import time


def setup(src, model):
    start = time.perf_counter()
    sys.path.insert(0, src)
    from malgebra import cli

    try:
        cli.load_model_file(model)
        outcome = "built"
    except Exception as exc:  # a refusal, or a known crash: its time counts all the same
        outcome = type(exc).__name__
    print(json.dumps({"seconds": time.perf_counter() - start, "outcome": outcome}))
    return 0


def trace(src, span_dir, argv):
    sys.path.insert(0, src)
    import tracer
    from malgebra import cli

    spans = tracer.install()
    try:
        return cli.main(argv)
    finally:
        spans.dump(span_dir)


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup":
        sys.exit(setup(sys.argv[2], sys.argv[3]))
    sys.exit(trace(sys.argv[2], sys.argv[3], sys.argv[4:]))
