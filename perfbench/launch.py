"""Run one isingspec CLI command in this process and record its timeline.

    python3 launch.py STAMP_JSON MODE -- <isingspec CLI arguments>

MODE is one of
  run    run the command; record when the first ``cli.cmd_*`` call starts
  trace  as ``run``, with every public layer function wrapped in a span

The harness starts this script as a fresh process, so the process pays the
interpreter start, imports and config parsing exactly as a user's run does.
At exit the script writes STAMP_JSON: CLOCK_MONOTONIC times (comparable with
the parent's), the exit code and the peak RSS of this process.
"""

from __future__ import annotations

import json
import resource
import sys
import time

_CMDS = ("cmd_quench", "cmd_ed", "cmd_spectrum", "cmd_sweep", "cmd_correlate")


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def peak_rss_kb() -> int:
    """VmHWM of this process, maxed with the children's ru_maxrss.

    VmHWM resets at exec, so unlike ru_maxrss of RUSAGE_SELF it does not carry
    the high-water mark of the process that forked this one.
    """
    hwm = 0
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                hwm = int(line.split()[1])
                break
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(hwm, children)


def main() -> int:
    stamp_path, mode = sys.argv[1], sys.argv[2]
    if sys.argv[3] != "--" or mode not in ("run", "trace"):
        print(__doc__, file=sys.stderr)
        return 1
    argv = sys.argv[4:]
    stamps: dict = {}

    from isingspec import cli

    tracer = None
    if mode == "trace":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    for name in _CMDS:
        def first_call_stamp(*args, _orig=getattr(cli, name), **kwargs):
            stamps.setdefault("t_cmd", now())
            return _orig(*args, **kwargs)

        setattr(cli, name, first_call_stamp)

    entry = cli.main if tracer is None else tracer.root(cli.main)
    rc = entry(argv)
    stamps["t_exit"] = now()
    stamps["rc"] = rc
    stamps["peak_rss_kb"] = peak_rss_kb()
    # kept only to show, in selftest.py, what peak_rss_kb avoids
    stamps["ru_maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        stamps["trace"] = tracer.summary()
    with open(stamp_path, "w") as fh:
        json.dump(stamps, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
