"""One workload in one child process, driven line by line from run.py.

    python3 perfbench/worker.py --workload NAME --seed N --workdir DIR
        [--setup-only]

The worker builds the workload's inputs, writes ``{"event": "ready"}`` and
then reads one command a line from stdin: ``pass`` runs an untraced pass,
``traced`` a pass under the span tracer, ``quit`` ends the worker, which
writes its versions and peak resident memory last.  Every reply is one
JSON line on stdout; what nvbmesh prints goes to /dev/null.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import sys
import tempfile
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    # end through the finally clauses, which remove the scratch directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    reply_to = sys.stdout
    sys.stdout = open(os.devnull, "w")

    def reply(obj) -> None:
        reply_to.write(json.dumps(obj) + "\n")
        reply_to.flush()

    import numpy
    import scipy

    from tracing import Tracer
    from workloads import WORKLOADS

    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.workdir))
    try:
        workload = WORKLOADS[args.workload](args.seed, tmp)
        reply({"event": "ready"})
        if args.setup_only:
            return 0
        tracer = Tracer()
        for pass_id, line in enumerate(iter(sys.stdin.readline, "")):
            command = line.strip()
            if command == "quit":
                break
            if command == "pass":
                result = workload.run_pass()
            elif command == "traced":
                tracer.pass_id = pass_id
                tracer.install()
                try:
                    result = workload.run_pass()
                finally:
                    tracer.restore()
                result["layers"] = tracer.pass_metrics(pass_id)
                result["restored"] = tracer.restored()
            else:
                raise ValueError(f"unknown command {command!r}")
            reply(result)
        if tracer.spans:
            tracer.dump(args.workdir / f"spans-{args.workload}-"
                        f"seed{args.seed}.jsonl")
        reply({"event": "done",
               "peak_rss_mb": resource.getrusage(
                   resource.RUSAGE_SELF).ru_maxrss / 1024.0,
               "python": platform.python_version(),
               "numpy": numpy.__version__, "scipy": scipy.__version__})
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
