"""Start the benchmark's timed processes from a small process.

On Linux a child's peak resident memory (ru_maxrss) counts the memory of
the process it was forked from, because the count carries over exec. The
benchmark process holds workforces, draws and recomputed predictions, so
the subcommands are started from this process instead, which imports only
the standard library: their peaks are then their own.

Reads one JSON request per line on stdin,
{"argv", "log", "env", "cwd", "timeout"}, runs it to completion with its
output in "log", and answers with one JSON line,
{"start", "end", "code", "rss_mb"}; start and end are on
time.perf_counter's clock, which is system-wide on Linux.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(req):
    """Reap the child with os.wait4, which gives its peak memory and does
    not pad the timing with a polling interval; kill it on timeout."""
    with open(req["log"], "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(req["argv"], stdout=log, stderr=subprocess.STDOUT,
                                env=req["env"], cwd=req["cwd"])
        timer = threading.Timer(req["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"start": start, "end": end, "code": proc.returncode,
            "rss_mb": usage.ru_maxrss / 1024.0}


def main():
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
