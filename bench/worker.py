"""Fresh-process side of the benchmark.

    worker.py probe <t0> <src> [<yaml>]
        Set-up probe: import prnn_abc.cli and load the first scenario YAML,
        then print the seconds since <t0>, a time.monotonic() reading the
        parent took just before starting this process.
    worker.py run <src> <work> <seconds> <trace>
        Run the batch in <work>/batch.json: one warm-up operation, then
        closed-loop passes over the batch for <seconds> (and at least the
        workload's minimum operation count).  With <trace> 1, one more pass
        runs with every layer wrapped.  All outputs are then checked, and
        the raw measurements are printed as one JSON line.

Operations call `prnn_abc.cli.main` in-process with their output captured.
"""

from __future__ import annotations

import sys
import time


def probe(t0: float, src: str, config: str | None) -> None:
    sys.path.insert(0, src)
    import prnn_abc.cli

    if config:
        prnn_abc.cli.load_scenario(config)
    print(repr(time.monotonic() - t0))


def main() -> int:
    if sys.argv[1] == "probe":
        probe(float(sys.argv[2]), sys.argv[3], sys.argv[4] if len(sys.argv) > 4 else None)
        return 0
    _, _, src, work, seconds, trace = sys.argv
    sys.path.insert(0, src)
    from runner import run_batch

    print(run_batch(work, float(seconds), trace == "1"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
