"""The tuning server the ``tune-service`` workload talks to, run in its
own process.

Usage: ``service_child.py STORE_DIR STATS_JSON [--trace]``.  Serves on
an ephemeral localhost port until SIGTERM, then writes its peak RSS
(and, with ``--trace``, its per-layer span statistics) to
``STATS_JSON``.  The layer wrappers are installed before ``serve()``.
"""

import json
import resource
import sys
from pathlib import Path


def main() -> int:
    store, stats_path = sys.argv[1], Path(sys.argv[2])
    recorder = None
    if "--trace" in sys.argv[3:]:
        import layers

        recorder = layers.install()
    from repro.service import serve

    rc = serve(host="127.0.0.1", port=0, cache_dir=store, drainers=2,
               jobs=1)
    stats_path.write_text(json.dumps({
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": recorder.snapshot() if recorder is not None else None,
    }))
    return rc


if __name__ == "__main__":
    sys.exit(main())
