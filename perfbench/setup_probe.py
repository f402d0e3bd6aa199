"""Time the benchmark's set-up in a fresh interpreter.

Measures importing the library, building each ``protocol:n`` given on the
command line through the registry, and constructing its ``Simulator``
(``--served`` also imports the job server, HTTP and client layers).
Prints ``{"setup_s": ...}``.  Interpreter start-up itself is not included.
"""

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from repro.engine import Simulator  # noqa: E402
from repro.experiments.registry import resolve_protocol  # noqa: E402


def main(argv):
    if "--served" in argv:
        import repro.server.app  # noqa: F401
        import repro.server.client  # noqa: F401
        import repro.server.jobs  # noqa: F401
    for item in argv:
        if item.startswith("--"):
            continue
        name, n = item.rsplit(":", 1)
        entry = resolve_protocol(name)
        Simulator(entry.build(int(n), {}), int(n), seed=0, backend="auto")
    print(json.dumps({"setup_s": time.perf_counter() - STARTED}))


if __name__ == "__main__":
    main(sys.argv[1:])
