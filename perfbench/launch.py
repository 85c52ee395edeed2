"""Launch one command; print its wall time, peak RSS and exit code as JSON.

    python3 perfbench/launch.py STDOUT_FILE STDERR_FILE TIMEOUT_S -- ARGV...

Linux counts the spawning process's RSS high-water mark in a child's
``ru_maxrss``, so a child launched straight from the benchmark (which holds
study results) would report the benchmark's memory. This small process does
the spawning instead, and imports nothing heavy so that its own footprint
stays below any child's.
"""
import json
import os
import signal
import sys
import threading
import time


def main(argv: list[str]) -> int:
    stdout_file, stderr_file, timeout_s, sep, *cmd = argv
    if sep != "--" or not cmd:
        print(__doc__, file=sys.stderr)
        return 2
    out = os.open(stdout_file, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    err = os.open(stderr_file, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    actions = [(os.POSIX_SPAWN_DUP2, out, 1), (os.POSIX_SPAWN_DUP2, err, 2)]
    start = time.perf_counter()
    pid = os.posix_spawn(cmd[0], cmd, os.environ, file_actions=actions)
    killer = threading.Timer(float(timeout_s), os.kill, (pid, signal.SIGKILL))
    killer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        killer.cancel()
    wall_s = time.perf_counter() - start
    os.close(out)
    os.close(err)
    print(json.dumps({"wall_s": wall_s, "maxrss_kib": usage.ru_maxrss,
                      "code": os.waitstatus_to_exitcode(status)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
