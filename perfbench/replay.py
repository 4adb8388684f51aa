"""Traced replay of one benchmark job, in a fresh process like the CLI job.

Usage: python perfbench/replay.py WORKLOAD SPEC_JSON RESULT_JSON JOB_ID

Times ``import outbreakminer.cli`` first (the import every CLI call pays),
then runs the workload's replay with spans around each layer call, and
writes the import time, the spans (tagged with JOB_ID) and the replay's
comparable output to RESULT_JSON when it is done. Needs ``src`` on
PYTHONPATH.
"""

import sys
import time

_start = time.perf_counter()
import outbreakminer.cli  # noqa: E402,F401
_imported = time.perf_counter()

import json  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.spans import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def main(argv: list[str]) -> int:
    name, spec_path, result_path, job = argv
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    tracer = Tracer(job)
    result = WORKLOADS[name].replay(tracer, spec)
    Path(result_path).write_text(json.dumps({
        "import_s": _imported - _start,
        "spans": tracer.spans,
        "result": result,
    }), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
