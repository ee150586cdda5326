"""One repetition of the benchmark: a single eulerlp CLI call in this fresh
interpreter.

    python3 perfbench/child.py ROOT T0_NS FLAGS [ARG ...]

ROOT is the checkout whose ``src`` holds eulerlp.  T0_NS is the parent's
``time.monotonic_ns()`` just before it started this process, so ``setup_s``
covers interpreter start-up plus ``import eulerlp.cli``.  FLAGS is a
comma-separated subset of

    setup-only       stop after the import (a set-up probe)
    trace            wrap the layers with tracer.Tracer
    spans            also return the recorded spans
    stdout           also return the captured stdout text
    inject-exit      exit with status 1 after reporting (gate self-test)
    inject-mismatch  flip one report to "match":false (gate self-test)

and the remaining arguments are the eulerlp argv.  The child prints one JSON
object on its real stdout.  It imports nothing but the standard library and
eulerlp before the set-up clock stops, so that interval is what a CLI user
pays on every call.
"""

import sys
import time


def main() -> int:
    root, t0_ns, flags = sys.argv[1], int(sys.argv[2]), set(sys.argv[3].split(","))
    argv = sys.argv[4:]
    sys.path.insert(0, root + "/src")
    import eulerlp.cli

    setup_s = (time.monotonic_ns() - t0_ns) / 1e9

    import contextlib
    import hashlib
    import io
    import json
    import resource

    from eulerlp.euler import euler_number

    def report(result: dict) -> None:
        sys.__stdout__.write(json.dumps(result, separators=(",", ":")) + "\n")
        sys.__stdout__.flush()

    # Cold-start guard: a warm Euler table would hide the cost a CLI user pays.
    if euler_number.cache_info().currsize != 0:
        print("error: euler_number cache is warm before cli.main", file=sys.stderr)
        return 3
    if "setup-only" in flags:
        report({"setup_s": setup_s})
        return 0

    tracer = None
    if "trace" in flags:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    buf = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = eulerlp.cli.main(argv)
    except SystemExit as exc:  # argparse rejects the argv
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # report the crash as a failed repetition
        import traceback

        traceback.print_exc()
        rc, error = None, repr(exc)
    wall_s = time.perf_counter() - start
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu_s = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime

    text = buf.getvalue()
    if "inject-mismatch" in flags:
        text = text.replace('"match":true', '"match":false', 1)
    data = text.encode()
    lines = text.splitlines()
    mismatches = 0
    for line in lines:
        if line.startswith("{") and json.loads(line).get("match") is False:
            mismatches += 1

    result = {
        "rc": rc,
        "error": error,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "rss_kb": max(own.ru_maxrss, kids.ru_maxrss),
        "sha256": hashlib.sha256(data).hexdigest(),
        "reports": len(lines),
        "mismatches": mismatches,
    }
    if "stdout" in flags:
        result["stdout"] = text
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(len(data), euler_number.cache_info())
        if "spans" in flags:
            result["spans"] = tracer.spans
    report(result)
    return 1 if "inject-exit" in flags else 0


if __name__ == "__main__":
    sys.exit(main())
