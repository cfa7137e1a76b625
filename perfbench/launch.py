"""Run one logicad command in this process and record when its work began and ended.

    python3 launch.py TIMING_JSON TRACE_DIR [logicad arguments...]

Importing ``logicad.cli`` (and everything it imports) is the process's
set-up; the work is the call to ``logicad.cli.main``.  Wall-clock times go to
TIMING_JSON so the benchmark can subtract the spawn time it noted.  With no
logicad arguments the process only sets up: a set-up probe.  A TRACE_DIR
other than ``-`` installs the span probes first and writes the spans there.
"""

import json
import sys
import time
from pathlib import Path


def main() -> int:
    timing_path, trace_dir, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    import logicad
    import logicad.cli

    recorder = None
    missing = []
    if trace_dir != "-":
        import probes

        recorder, missing = probes.install(trace_dir)
    work_start = time.time()
    code = 0
    if argv:
        try:
            code = logicad.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        finally:
            if recorder is not None:
                recorder.flush()
    Path(timing_path).write_text(json.dumps({
        "work_start": work_start, "work_end": time.time(), "exit": code,
        "module": logicad.__file__, "missing_probes": missing,
    }), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
