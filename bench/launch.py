"""Run one command; print its wall time, peak RSS and exit code as JSON.

    python3 bench/launch.py LOG COMMAND...

The command's output goes to LOG. run.py starts this small fresh process
for every CLI call because Linux carries a process's peak RSS across fork
and exec: a command forked straight from the benchmark, which holds the
documents and their expected outputs, would report at least the
benchmark's own size.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    log, command = sys.argv[1], sys.argv[2:]
    with open(log, "wb") as sink:
        start = time.perf_counter()
        proc = subprocess.Popen(command, stdin=subprocess.DEVNULL,
                                stdout=sink, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"wall_s": wall, "maxrss_kib": usage.ru_maxrss,
                      "exit": proc.returncode}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
