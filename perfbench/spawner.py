"""Starts the benchmark's child processes, one at a time, on request.

    python3 -S perfbench/spawner.py        (started by workloads.Context)

A child's peak resident set (`ru_maxrss`) also counts that of the process
that spawned it, since the two share memory until the child execs. The
benchmark's own process grows as it checks outputs, so the children are
started from this small process instead, which imports little and keeps
nothing; a `bgcert` child's figure is then its own.

Each request is one line of JSON on stdin: [argv, stdout path, stderr path,
timeout in seconds]. The child runs in this process's working directory and
environment, with stdin from /dev/null. The reply is one line, "EXIT MAXRSS"
with the child's exit code and its ru_maxrss in KiB, or "timeout 0" once a
child that outlived its timeout has been killed.
"""

import json
import os
import signal
import sys


class Timeout(Exception):
    pass


def on_alarm(signum, frame):
    raise Timeout


def main() -> None:
    signal.signal(signal.SIGALRM, on_alarm)
    for line in sys.stdin:
        argv, out, err, timeout = json.loads(line)
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, out, flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, err, flags, 0o644),
        ]
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
        try:
            signal.alarm(timeout)
            _, status, usage = os.wait4(pid, 0)
            signal.alarm(0)
        except Timeout:
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):  # it ended as the alarm fired
                pass
            reply = "timeout 0"
        else:
            reply = f"{os.waitstatus_to_exitcode(status)} {usage.ru_maxrss}"
        sys.stdout.write(reply + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
