#!/usr/bin/env python3
"""Run a command and print its peak resident set size in MB.

usage: tools/peak_rss.py CMD [ARGS...]

The peak is the ru_maxrss that wait4 reports for the command: the largest
resident set of the command itself and of every descendant it reaped (a
popsim fleet's worker processes included), the figure perfbench/run.py
records as peak_rss_mb.  The command's stdout is discarded and its stderr
passes through; the one line printed on stdout is the peak, in MB
(ru_maxrss / 1024), so `$(tools/peak_rss.py ...)` captures just the number.
A command that exits nonzero makes this script exit with its code.
"""
import os
import subprocess
import sys


def main(argv):
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        print(f"peak_rss: {' '.join(argv)} exited {code}", file=sys.stderr)
        return code if code > 0 else 1
    print(f"{usage.ru_maxrss / 1024:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
