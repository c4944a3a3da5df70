"""The ``batch_plain`` system under test: a default ``AnalysisEngine()``.

Reads one JSON object per stdin line, ``{"phase": "setup"|"op",
"requests": [...]}``, answers it with ``engine.submit_many`` and writes
one envelope per line (``to_dict`` + ``json.dumps``, as ``repro batch``
does), then a ``{"done": ...}`` line with the time spent inside the
engine and in serialization.  EOF ends the worker.

Usage::

    PYTHONPATH=src python benchmarks/e2e/batch_worker.py [--trace-out F]
"""

import argparse
import json
import sys
import time

from repro import obs
from repro.engine import AnalysisEngine
from repro.obs import trace_span


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()
    if args.trace_out:
        obs.reset()
        obs.enable()
    out = sys.stdout
    with AnalysisEngine() as engine:
        out.write(json.dumps({"ready": True}) + "\n")
        out.flush()
        for line in sys.stdin:
            message = json.loads(line)
            t0 = time.perf_counter()
            with trace_span(f"bench.{message['phase']}"):
                with trace_span("bench.engine"):
                    responses = engine.submit_many(message["requests"])
                t1 = time.perf_counter()
                with trace_span("bench.payload"):
                    lines = [json.dumps(r.to_dict()) for r in responses]
            t2 = time.perf_counter()
            lines.append(json.dumps({"done": True, "engine_s": t1 - t0,
                                     "payload_s": t2 - t1}))
            out.write("\n".join(lines) + "\n")
            out.flush()
    if args.trace_out:
        obs.get_tracer().write_chrome_trace(args.trace_out)


if __name__ == "__main__":
    main()
