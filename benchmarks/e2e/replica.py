"""Traced replica of ``repro analyze CIRCUIT --json`` (default flags).

Makes the public calls the CLI makes, in the same order, each inside a
``bench.<layer>`` span, with the program's own spans collected underneath:

    get_benchmark -> compute_weights -> SinglePassAnalyzer(...).plan
    -> .sweep -> SweepResult.point(j) -> analyze_payload + json.dumps

Usage (one fresh process per invocation, like the CLI)::

    PYTHONPATH=src python benchmarks/e2e/replica.py c499 --eps 0.05 \\
        --trace-out trace.json

The last stdout line is a JSON summary: import time, the analyze
document, the weight source and the analyzed gate count.
"""

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402 - timed as part of the import layer
import json  # noqa: E402

from repro import obs  # noqa: E402
from repro.circuits import get_benchmark  # noqa: E402
from repro.engine.requests import analyze_payload  # noqa: E402
from repro.obs import trace_span  # noqa: E402
from repro.probability.weights import compute_weights  # noqa: E402
from repro.reliability import SinglePassAnalyzer  # noqa: E402

_IMPORT_S = time.perf_counter() - _T_START


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("circuit")
    parser.add_argument("--eps", type=float, required=True)
    parser.add_argument("--outputs", default=None)
    parser.add_argument("--trace-out", required=True)
    args = parser.parse_args()
    outputs = args.outputs.split(",") if args.outputs else None
    eps_values = [args.eps]

    obs.reset()
    obs.enable()
    with trace_span("bench.load"):
        circuit = get_benchmark(args.circuit)
    if outputs:
        # A restricted analyzer weights only the union cone of `outputs`,
        # lazily, inside its constructor: that constructor is the weights
        # call on this path.
        with trace_span("bench.weights"):
            analyzer = SinglePassAnalyzer(circuit, outputs=outputs)
        with trace_span("bench.plan"):
            analyzer.plan
    else:
        with trace_span("bench.weights"):
            weights = compute_weights(circuit)
        with trace_span("bench.plan"):
            analyzer = SinglePassAnalyzer(circuit, weights=weights)
            analyzer.plan
    with trace_span("bench.kernel"):
        sweep = analyzer.sweep(eps_values)
    with trace_span("bench.result"):
        results = [sweep.point(j) for j in range(len(eps_values))]
    with trace_span("bench.payload"):
        doc = analyze_payload(circuit.name, eps_values, results)
        json.dumps(doc, indent=2)
    obs.get_tracer().write_chrome_trace(args.trace_out)
    obs.disable()
    print(json.dumps({"import_s": _IMPORT_S, "doc": doc,
                      "weights_source": analyzer.weights.source,
                      "gates": len(analyzer.circuit.topological_gates())}))


if __name__ == "__main__":
    main()
