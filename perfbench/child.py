"""One check in a fresh interpreter: import aggcheck, then time cli.main.

Usage: child.py ROOT RESULT_JSON TRACE CHECK_ID -- ARGV...

Writes RESULT_JSON with the moment the check was ready to start
(``ready``, on the same monotonic clock the parent stamped at spawn), the
moment ``aggcheck.cli.main(ARGV)`` returned (``done``), the time to verdict,
the return code, any traceback and the host-speed probes of speed.Probes,
which run from the first line on. With TRACE=1 the spans and counters of
spans.Tracer are added.
Exits with main's return code, or 70 after an uncaught exception.

main is called from module level, as the installed ``aggcheck`` console
script calls it. The stack depth of that call matters: with main called
from inside one more function, enumerate-homs mv4 N=3 took 0.25-0.35 s
instead of 0.10 s on CPython 3.11.7, the extra time spent in the kernel
(likely the interpreter's frame-chunk allocation, as the deep recursion of
enumerate_homomorphisms crosses a chunk boundary again and again).
"""

import time

from speed import Probes  # sys.path[0] is this script's directory

probes = Probes()
probes.start()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

EXIT_CRASH = 70

root, result_path, trace, check_id, sep, *argv = sys.argv[1:]
if sep != "--":
    raise SystemExit("usage: child.py ROOT RESULT_JSON TRACE CHECK_ID -- ARGV...")
src = os.path.join(root, "src")
sys.path.insert(0, src)
import aggcheck.cli  # noqa: E402

if not os.path.abspath(aggcheck.cli.__file__).startswith(os.path.abspath(src) + os.sep):
    raise SystemExit(f"aggcheck imported from {aggcheck.cli.__file__}, not {src}")
tracer = None
if trace == "1":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
result = {"check": check_id, "traceback": None}
result["ready"] = time.perf_counter()
try:
    rc = aggcheck.cli.main(argv)
except SystemExit as exc:  # argparse rejects its input this way
    rc = exc.code if isinstance(exc.code, int) else 1
except Exception:
    rc = EXIT_CRASH
    result["traceback"] = traceback.format_exc()
    sys.stderr.write(result["traceback"])
result["done"] = time.perf_counter()
probes.stop()
result["verdict_s"] = result["done"] - result["ready"]
result["rc"] = rc
result["probes"] = probes.samples
if tracer is not None:
    tracer.restore()
    result["trace"] = tracer.dump()
with open(result_path, "w", encoding="utf-8") as fh:
    json.dump(result, fh)
sys.exit(rc)
