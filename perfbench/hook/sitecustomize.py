"""Start-up hook that traces the fleet's worker processes.

The benchmark puts this directory on ``PYTHONPATH`` and sets
``PERFBENCH_TRACE_OUT`` only while it starts the fleet of a traced run;
every worker process then imports this module at interpreter start-up,
installs the span wrappers of :mod:`perfbench_trace` and writes its spans
to ``$PERFBENCH_TRACE_OUT/worker-<pid>.json`` when it exits.  Without the
variable the hook does nothing.
"""

import os
import sys

if os.environ.get("PERFBENCH_TRACE_OUT"):
    try:
        import perfbench_trace

        perfbench_trace.activate_worker(os.environ["PERFBENCH_TRACE_OUT"])
    except Exception as exc:  # never break the worker's start-up
        sys.stderr.write(f"perfbench: worker tracing disabled: {exc!r}\n")
