"""One set-up pass in a fresh interpreter.

Imports the public entry points every figbench workload uses and builds
what a run starts from: a cold result cache, a ``ParallelRunner`` and a
started ``ServiceApp``.  Prints the seconds that took, then closes the
service outside the timed region.  Work a change moves into import
time or into those constructors shows up as ``setup_s``.

Usage: ``python3 figbench/setup_probe.py <repo-root> <dir>``
"""

import time

t0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

root, scratch = sys.argv[1:3]
sys.path.insert(0, os.path.join(root, "src"))

from repro.experiments import figures  # noqa: E402,F401
from repro.experiments.cache import ResultCache, set_cache  # noqa: E402
from repro.experiments.parallel import ParallelRunner  # noqa: E402
from repro.log import configure  # noqa: E402
from repro.service.http import ServiceApp  # noqa: E402

configure(level="warning")
set_cache(ResultCache(cache_dir=os.path.join(scratch, "cache")))
ParallelRunner(jobs=2)
app = ServiceApp(cache_root=os.path.join(scratch, "service"), workers=1,
                 runner_jobs=1).start()
print(time.perf_counter() - t0)
# not app.stop(): its HTTP shutdown waits out a 0.5 s poll interval
app.pool.stop()
app.httpd.server_close()
