"""Run one operation and report its wall time and rusage.

    spawn.py <ceiling_mb> <timeout_s> <stdout file> <stderr file> -- <command...>

The benchmark starts every operation through this small process rather
than forking itself: a child's ``ru_maxrss`` starts at the resident size of
the process it was forked from, and the benchmark process holds numpy and
the generated inputs (about 40 MB, close to the ``bio-scores`` peak).  The
command runs under ``RLIMIT_AS = ceiling_mb`` and is killed after
``timeout_s``.  Prints one JSON object: ``spawned`` (``time.monotonic`` at
fork), ``wall_s``, ``status``, ``maxrss_kb``, ``cpu_s``, ``timed_out``.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import sys
import time


def main(argv: list[str]) -> int:
    if len(argv) < 6 or argv[4] != "--":
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    limit = int(argv[0]) * 1024 * 1024
    timeout_s = max(float(argv[1]), 0.1)
    cmd = argv[5:]
    timed_out = []
    with open(argv[2], "wb") as out, open(argv[3], "wb") as err:
        spawned = time.monotonic()
        pid = os.fork()
        if pid == 0:
            try:
                os.dup2(out.fileno(), 1)
                os.dup2(err.fileno(), 2)
                resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
                os.execvp(cmd[0], cmd)
            finally:
                os._exit(127)

        def on_alarm(signum, frame):
            timed_out.append(True)
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, timeout_s)
        _, status, usage = os.wait4(pid, 0)
        ended = time.monotonic()
        signal.setitimer(signal.ITIMER_REAL, 0)
    print(json.dumps({
        "spawned": spawned,
        "wall_s": ended - spawned,
        "status": status,
        "maxrss_kb": usage.ru_maxrss,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "timed_out": bool(timed_out),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
