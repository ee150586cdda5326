"""eulerlp benchmark: CLI workloads, each repetition in a fresh interpreter.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``.  Workloads, their argv families and the stdout digests
recorded for the default argv are in ``perfbench/workloads.json``.

Load is a single-threaded closed loop: one child at a time, each running one
``eulerlp.cli.main(argv)`` call (see child.py), so every repetition pays for
the cold lru-cached Euler table as a CLI user does.  Before each repetition a
set-up probe (a child that only imports ``eulerlp.cli``) adds one more
``setup_s`` sample, and a reference child (reference.py) measures how fast
the host runs a fresh process just then.  Repetitions continue until S
seconds have passed, at least ``MIN_REPS`` of them.

With ``--trace 0`` each end-to-end metric (see ``END_TO_END``) is its median
over the run's samples, each timing scaled to the reference's nominal speed
(see ``REFERENCE_NOMINAL_S``); the run record also gives the minimum, the
maximum and the median as measured.  With ``--trace 1`` repetitions
alternate untraced and traced; each per-layer metric is its median over the
traced repetitions (counts repeat exactly), ``trace.overhead_s`` is the
traced minus the untraced ``wall_s`` median as measured, and the spans of
the first traced repetition are written to ``perfbench/out/`` at the end.

A repetition fails all of its reports when the child or the CLI exits
non-zero, when stdout differs from the recorded digest (default argv only)
or from the first repetition, or, for the ``euler`` command, when a value
differs from an independent tangent-number oracle.  Otherwise only reports
with ``"match": false`` fail.  The second-last stdout line is a JSON record
of the run (commit, Python, nproc, seed, argv, digests, every metric with
its unit and sample count); the last line is the result object.  Exit
status: 0 when nothing failed, 1 when something did, 2 when the benchmark
cannot run here (then no result is printed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_REPS = 3
CHILD_TIMEOUT_S = 120

# metric -> unit; each is reported as its median over the run's samples.
END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# What reference.py reports on a quiet host.  The speed of a fresh process on
# the shared host this was tuned on changes by up to 2x from minute to
# minute, far more than any bound could allow, and a run's median cannot
# average it out.  So each timing is its median times nominal / the median of
# the run's reference children.  The run record also gives the medians as
# measured.
REFERENCE_NOMINAL_S = 0.08


def load_workloads() -> dict:
    with open(os.path.join(HERE, "workloads.json")) as fh:
        return json.load(fh)


def make_argv(spec: dict, seed: int) -> list[str]:
    """Seed 0 gives the default argv; other seeds draw each placeholder of
    the template from its list of same-cost choices."""
    rng = random.Random(seed)
    values = {
        key: choices[0] if seed == 0 else rng.choice(choices)
        for key, choices in sorted(spec["choices"].items())
    }
    return [arg.format(**values) for arg in spec["template"]]


def tangent_numbers(count: int) -> list[int]:
    """T[k] = tangent number T_{2k-1} for k = 1..count (T[0] unused), by the
    integer recurrence of Brent and Harvey (2011)."""
    t = [0] * (count + 1)
    if count:
        t[1] = 1
    for k in range(2, count + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, count + 1):
        for j in range(k, count + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t


def expected_euler_line(n: int, tangent: list[int]) -> str:
    """The `eulerlp euler` line for E_n = E_n(0): 1 at n = 0, 0 at even
    n > 0 and (-1)^k T_n / 2^n at odd n = 2k - 1."""
    if n == 0:
        value = Fraction(1)
    elif n % 2 == 0:
        value = Fraction(0)
    else:
        k = (n + 1) // 2
        value = Fraction((-1) ** k * tangent[k], 2**n)
    return json.dumps(
        {"n": n, "value": f"{value.numerator}/{value.denominator}"}, separators=(",", ":")
    )


def check_euler_table(text: str) -> str | None:
    """Compare `eulerlp euler` output with the oracle; None when it agrees."""
    lines = text.splitlines()
    tangent = tangent_numbers(len(lines) // 2)
    for n, line in enumerate(lines):
        if line != expected_euler_line(n, tangent):
            return f"euler line {n} differs from the tangent-number oracle"
    return None


def judge(
    returncode: int,
    result: dict | None,
    expected_sha256: str | None,
    first_sha256: str | None,
    oracle_error: str | None = None,
) -> tuple[int, int, list[str]]:
    """(reports attempted, reports failed, reasons) for one repetition."""
    if result is None or "rc" not in result:
        return 1, 1, [f"child exited {returncode} without a result"]
    reasons = []
    if returncode != 0:
        reasons.append(f"child exited {returncode}")
    if result["error"] is not None:
        reasons.append(f"eulerlp raised {result['error']}")
    elif result["rc"] != 0:
        reasons.append(f"eulerlp exited {result['rc']}")
    if expected_sha256 is not None and result["sha256"] != expected_sha256:
        reasons.append("stdout differs from the recorded digest")
    if first_sha256 is not None and result["sha256"] != first_sha256:
        reasons.append("stdout differs from the first repetition")
    if oracle_error is not None:
        reasons.append(oracle_error)
    attempted = max(1, result["reports"])
    failed = attempted if reasons else min(attempted, result["mismatches"])
    if failed and not reasons:
        reasons.append(f"{failed} reports have match=false")
    return attempted, failed, reasons


def run_child(flags: list[str], argv: list[str]) -> tuple[int, dict | None]:
    """Start one child, wait for it, and return (exit status, its result)."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), ROOT]
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.monotonic_ns()
    proc = subprocess.Popen(
        [*cmd, str(t0), ",".join(flags), *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        cwd=ROOT,
    )
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
    if err:
        sys.stderr.write(err.decode(errors="replace"))
    lines = out.decode().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def run_reference() -> float | None:
    """What one reference child reports; None if it failed."""
    cmd = [sys.executable, os.path.join(HERE, "reference.py"), str(time.monotonic_ns())]
    try:
        proc = subprocess.run(
            cmd, capture_output=True, env=dict(os.environ, PYTHONHASHSEED="0"),
            cwd=ROOT, timeout=CHILD_TIMEOUT_S,
        )
        return float(proc.stdout) if proc.returncode == 0 else None
    except (subprocess.TimeoutExpired, ValueError):
        return None


def commit_id() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_sha256() -> str:
    """Digest of the eulerlp sources, which identifies the program where the
    checkout is not a git repository."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "eulerlp")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def per_layer_unit(name: str) -> str:
    return "s" if name.endswith("_s") else "bytes" if name.endswith("bytes") else "count"


def run(name: str, spec: dict, seed: int, seconds: int, trace: bool, inject: str | None):
    argv = make_argv(spec, seed)
    expected = spec["stdout_sha256"] if argv == spec["default_argv"] else None
    if inject == "digest":
        expected = "0" * 64
    child_flags = {"exit": ["inject-exit"], "mismatch": ["inject-mismatch"]}.get(inject, [])
    check_euler = argv[0] == "euler"
    if check_euler:
        child_flags = [*child_flags, "stdout"]

    samples = {metric: [] for metric in END_TO_END}
    references = []
    traced_wall, layers, spans = [], {}, None
    attempted = failed = 0
    reasons: list[str] = []
    first_sha256 = None
    run_child(["setup-only"], [])  # warm-up: byte-code cache and file cache
    start = time.monotonic()
    rep = 0
    while rep < (2 * MIN_REPS if trace else MIN_REPS) or time.monotonic() - start < seconds:
        status, probe = run_child(["setup-only"], [])
        ref = run_reference()
        if ref is None:
            reasons.append(f"repetition {rep + 1}: the reference child failed")
            break
        references.append(ref)
        if status == 0 and probe is not None:
            samples["setup_s"].append(probe["setup_s"])
        traced = trace and rep % 2 == 1
        flags = list(child_flags)
        if traced:
            flags += ["trace"] + (["spans"] if spans is None else [])
        status, result = run_child(flags, argv)
        rep += 1
        oracle_error = None
        if check_euler and result is not None and "stdout" in result:
            oracle_error = check_euler_table(result.pop("stdout"))
        n, bad, why = judge(status, result, expected, first_sha256, oracle_error)
        attempted += n
        failed += bad
        reasons += [f"repetition {rep}: {r}" for r in why]
        if result is None or "rc" not in result:
            continue
        first_sha256 = first_sha256 or result["sha256"]
        if traced:
            traced_wall.append(result["wall_s"])
            for metric, value in result["layers"].items():
                layers.setdefault(metric, []).append(value)
            if spans is None:
                spans = result.get("spans", [])
            continue
        samples["setup_s"].append(result["setup_s"])
        samples["wall_s"].append(result["wall_s"])
        samples["cpu_s"].append(result["cpu_s"])
        samples["peak_rss_mb"].append(result["rss_kb"] / 1024)

    if trace:
        layers["trace.overhead_s"] = (
            [statistics.median(traced_wall) - statistics.median(samples["wall_s"])]
            if traced_wall and samples["wall_s"]
            else []
        )
        measured, units = layers, {m: per_layer_unit(m) for m in layers}
        values = {m: statistics.median_low(v) for m, v in layers.items() if v}
    else:
        measured, units, values = samples, END_TO_END, {}
        if references:
            scale = REFERENCE_NOMINAL_S / statistics.median(references)
            values = {
                m: statistics.median(v) * (scale if units[m] == "s" else 1.0)
                for m, v in samples.items()
                if v
            }
    metrics = {m: {"value": values.get(m), "unit": units[m]} for m in sorted(measured)}
    if any(m["value"] is None for m in metrics.values()):
        reasons.append("some metric has no sample")
    if spans:
        write_spans(name, seed, argv, spans)
    record = {
        "workload": name,
        "seed": seed,
        "argv": argv,
        "trace": int(trace),
        "inject": inject,
        "commit": commit_id(),
        "source_sha256": source_sha256(),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "repetitions": rep,
        "reference_median_s": statistics.median(references) if references else None,
        "expected_sha256": expected,
        "observed_sha256": first_sha256,
        "fail_frac": failed / attempted,
        "counts_repeat": all(
            len(set(v)) <= 1 for m, v in layers.items() if per_layer_unit(m) != "s"
        ),
        "failures": reasons[:20],
        "metrics": {
            m: dict(
                metrics[m],
                samples=len(v),
                median=statistics.median(v) if v else None,
                min=min(v, default=None),
                max=max(v, default=None),
            )
            for m, v in sorted(measured.items())
        },
    }
    print(json.dumps(record, separators=(",", ":")))
    correct = not reasons
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1


def write_spans(name: str, seed: int, argv: list[str], spans: list) -> None:
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    t0 = min(span[3] for span in spans)
    doc = {
        "workload": name,
        "seed": seed,
        "argv": argv,
        "fields": ["id", "parent", "name", "start_ns", "end_ns"],
        "spans": [[i, parent, n, s - t0, e - t0] for i, parent, n, s, e in spans],
    }
    with open(os.path.join(out_dir, f"spans-{name}-seed{seed}.json"), "w") as fh:
        json.dump(doc, fh, separators=(",", ":"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--inject",
        choices=("digest", "exit", "mismatch"),
        help="break one gate on purpose (used by selftest.py)",
    )
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "eulerlp", "cli.py")):
        print(f"error: no eulerlp sources under {ROOT}/src", file=sys.stderr)
        return 2
    workloads = load_workloads()
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be >= 1", file=sys.stderr)
        return 2
    spec = workloads[args.workload]
    status = run(args.workload, spec, args.seed, args.seconds, bool(args.trace), args.inject)
    if "eulerlp" in sys.modules:
        raise RuntimeError("run.py itself must not import eulerlp")
    return status


if __name__ == "__main__":
    sys.exit(main())
