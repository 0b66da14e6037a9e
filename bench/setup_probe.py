"""Set-up probe: import linkpred, load one workload's graph files, print the time.

    python3 bench/setup_probe.py DIR

Prints ``time.monotonic()`` and ``time.process_time()`` once the edge and
attribute files in DIR are loaded: bench/run.py subtracts the moment it
started this process from the first, and the second is the CPU time the
process has used since it started. Imports nothing but the program, so the
figures are the program's own set-up.
"""

import os
import sys
import time


def main(workdir: str) -> int:
    from linkpred import graph

    loaded = graph.load_edge_list(os.path.join(workdir, "edges.txt"))
    graph.load_attributes(os.path.join(workdir, "attrs.txt"), loaded)
    print(repr(time.monotonic()), repr(time.process_time()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
