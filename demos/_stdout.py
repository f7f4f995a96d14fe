"""Runs a demo's main() so that a reader who closes stdout early, as
`python demos/06_stronger_targets.py | head -n 1` does, ends the demo
quietly instead of with a BrokenPipeError traceback."""

import os
import sys


def run_demo(main) -> None:
    """Exit with main()'s status, or 1 when stdout was closed before all
    of the output was written."""
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # write no more to stdout; devnull takes the interpreter's final flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    sys.exit(status)
