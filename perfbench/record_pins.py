"""Record the digests of the answers whose truth is not known independently.

    python3 perfbench/record_pins.py 0 99

runs the pinned ops of every workload for seeds 0..99 once, untimed, and
writes their digests to perfbench/pins.json.  run.py compares a run's
digest with the one recorded for its seed, so a later change that flips
one of these answers shows as a wrong answer.  Re-record only when the
generators change, never to absorb a changed answer.
"""

from __future__ import annotations

import json
import signal
import sys

import run
import workloads


def main(argv: list[str]) -> int:
    lo, hi = int(argv[0]), int(argv[1])
    sys.path.insert(0, run.SRC)
    signal.signal(signal.SIGALRM, run._alarm)
    with open(run.PINS) as f:
        pins = json.load(f)
    for name, build in workloads.WORKLOADS.items():
        for seed in range(lo, hi + 1):
            wl = build(run.fresh_import(), seed)
            if not any(op.pinned for op in wl.ops):
                break
            first = [run.run_op(op, i) if op.pinned else run.Record(0.0, 0.0)
                     for i, op in enumerate(wl.ops)]
            bad = [r.wrong or r.error for r in first if not r.ok]
            if bad:
                print(f"{name} seed {seed}: not recorded, {bad[0]}", file=sys.stderr)
                return 1
            pins.setdefault(name, {})[str(seed)] = run.pin_digest(wl, first)
            print(name, seed, pins[name][str(seed)], flush=True)
    with open(run.PINS, "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
