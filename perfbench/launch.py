"""Run the pweil command line with every layer traced.

    python3 perfbench/launch.py SPANS.json -- <pweil arguments>

pweil's output and exit code are unchanged.  The spans of this process and
of its scan workers, and the time ``import pweil.cli`` took, go to
SPANS.json.  The wrappers are removed before the file is written.
"""

import json
import os
import shutil
import sys
import tempfile
import time


def main() -> int:
    spans_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: launch.py SPANS.json -- <pweil arguments>")
    t0 = time.perf_counter()
    import pweil.cli
    import_s = time.perf_counter() - t0

    import tracer

    spool = tempfile.mkdtemp(dir=os.path.dirname(os.path.abspath(spans_path)), prefix="spool-")
    try:
        recorder = tracer.Recorder(spool)
        with tracer.traced(recorder):
            code = pweil.cli.main(argv)
        sys.stdout.flush()
        spans = recorder.spans + tracer.read_spool(spool)
    finally:
        shutil.rmtree(spool, ignore_errors=True)
    with open(spans_path, "w") as fh:
        json.dump({"import_s": import_s, "spans": spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
