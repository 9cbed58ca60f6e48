"""One benchmark pass of one workload, in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD ORDER MODE

MODE is ``setup`` (import the library and generate the inputs, then
stop), ``pass`` (also send every request once, sampling the host's speed
as it goes), ``plain`` (the same pass without the sampling) or ``trace``
(the plain pass with spans recorded).  ORDER is the key that shuffles the
requests.  run.py starts one worker per pass, so the library's
process-wide caches start cold in every pass, as they do for each CLI
invocation.  The last line of standard output is one JSON object.
"""

import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MODES = ("setup", "pass", "plain", "trace")


def main(argv):
    workload, order, mode = argv[1:4]
    if mode not in MODES:
        raise SystemExit(f"unknown mode {mode!r}")
    sys.path.insert(0, str(SRC))
    import hostspeed
    import tracer as tracing
    import workloads

    items = workloads.inputs(workload, order)
    tracer = host = None
    if mode == "trace":
        tracer = tracing.Tracer()
        tracer.install()
    ready = time.monotonic()
    setup_probe_s = hostspeed.setup_probe()
    if mode == "pass":
        host = hostspeed.HostSpeed()
        host.start()
    if mode == "setup":
        print(json.dumps({"ready": ready, "setup_probe_s": setup_probe_s}))
        return 0
    try:
        timings, answers = workloads.run_pass(workload, items, order, tracer,
                                              host)
    finally:
        if host is not None:
            host.stop()
        if tracer is not None:
            tracer.uninstall()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    doc = {"ready": ready, "setup_probe_s": setup_probe_s,
           "busy_s": [busy for _, _, busy in timings],
           "answers": answers, "rss_kb": rss_kb}
    if host is not None:
        doc["scaled_s"] = [host.scaled(*t) for t in timings]
        doc["probe_s"] = statistics.median(t for _, t in host.samples)
    if tracer is not None:
        doc["layers"] = tracing.layer_metrics(tracer.spans)
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"spans-{workload}.jsonl")
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
