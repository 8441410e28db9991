"""``python -m repro.server`` with :mod:`perf.trace` available inside.

    python3 perf/serve_traced.py --dump FILE [--trace-on-start] <server args>

Runs ``repro.server.__main__.main`` unchanged, plus two signals:

* ``SIGUSR2`` toggles tracing (installs the wrappers, or removes them) —
  the benchmark turns it on after warm-up so that set-up and warm-up run
  untraced, and off again for its untraced reference block;
* ``SIGUSR1`` writes what was recorded to ``FILE`` (atomically, via a
  rename): per-span-name summary, the summed self time of spans that
  belong to a request, and every span of the first requests.

After each signal is handled ``FILE.ack`` holds the number of signals
handled so far, which is how the benchmark knows it may continue.
"""

from __future__ import annotations

import json
import os
import signal
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if __name__ == "__main__":
    sys.path[0] = _ROOT  # perf/ itself would shadow the stdlib ``trace``
if os.path.join(_ROOT, "src") not in sys.path:
    sys.path.insert(1, os.path.join(_ROOT, "src"))

import numpy as np  # noqa: E402

from perf import trace  # noqa: E402

#: Requests whose spans the dump keeps in full.
DUMP_REQUESTS = 200


def dump(tracer: trace.Tracer, path: str) -> None:
    spans = tracer.collect()
    selfs = trace.self_times(spans.start, spans.end, spans.parent)
    everything = np.ones(len(spans), dtype=bool)
    in_request = spans.op != trace.NO_OP
    first_ops = np.unique(spans.op[in_request])[:DUMP_REQUESTS]
    payload = {
        "summary": trace.summarize(spans, everything, selfs),
        "request_self_s": float(selfs[in_request].sum()),
        "spans": trace.spans_as_records(
            spans, np.flatnonzero(np.isin(spans.op, first_ops) & in_request), selfs
        ),
    }
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(payload, f)
    os.replace(tmp, path)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--dump" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    at = argv.index("--dump")
    dump_path = argv[at + 1]
    del argv[at : at + 2]
    trace_on_start = "--trace-on-start" in argv
    if trace_on_start:
        argv.remove("--trace-on-start")

    tracer = trace.Tracer()
    state = {"on": False, "handled": 0}

    def ack() -> None:
        state["handled"] += 1
        tmp = dump_path + ".ack.tmp"
        with open(tmp, "w") as f:
            f.write(str(state["handled"]))
        os.replace(tmp, dump_path + ".ack")

    def toggle(_signum, _frame) -> None:
        if state["on"]:
            tracer.uninstall()
        else:
            tracer.install()
        state["on"] = not state["on"]
        ack()

    def on_dump(_signum, _frame) -> None:
        dump(tracer, dump_path)
        ack()

    signal.signal(signal.SIGUSR2, toggle)
    signal.signal(signal.SIGUSR1, on_dump)
    if trace_on_start:
        tracer.install()
        state["on"] = True

    from repro.server.__main__ import main as server_main

    return server_main(argv)


if __name__ == "__main__":
    sys.exit(main())
