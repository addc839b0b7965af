"""Run one diqc command as the console script does, with its spans recorded.

    DIQCBENCH_SPANS=spans.json python3 diqcbench/launcher.py cutoff --theta 0.6

Times ``import diqc.cli`` first (so the figure includes numpy's import),
then wraps the layers with ``tracing.install``, calls ``cli.main`` and writes
the import time and the spans to ``$DIQCBENCH_SPANS`` as JSON before exiting
with the command's status.
"""

import json
import os
import sys
import time
from pathlib import Path


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    start = time.perf_counter()
    import diqc.cli
    import_s = time.perf_counter() - start

    import tracing

    tracer = tracing.Tracer()
    with tracing.install(tracer):
        code = diqc.cli.main(sys.argv[1:])
    Path(os.environ["DIQCBENCH_SPANS"]).write_text(
        json.dumps({"import_s": import_s, "spans": tracer.spans}))
    return code


if __name__ == "__main__":
    sys.exit(main())
