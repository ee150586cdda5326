"""Gate self-test: every correctness gate of run.py must be able to fail.

    python3 perfbench/selftest.py

1. ``judge`` on synthetic repetitions: a clean one passes, and each gate
   alone (child exit status, CLI exit status, recorded digest, first
   repetition's digest, ``match=false``, Euler oracle) fails it.
2. The tangent-number oracle accepts the true Euler table and rejects one
   with a single wrong value.
3. Short runs of run.py: a clean run exits 0 with nothing failed, and a wrong
   recorded digest, a child exiting 1 and a report with ``match=false`` each
   give failed reports (``fail_frac > 0``), ``correct: false`` and a
   non-zero exit.  The mismatch case uses a non-default seed, where no digest
   is recorded, so only the ``match`` gate can catch it.
4. The metrics a run prints are exactly those BENCHMARK.json names, for
   ``--trace 0`` and ``--trace 1``.

Exits 0 when every case behaves as stated, 1 otherwise.
"""

import json
import os
import subprocess
import sys

import run

WORKLOAD = "grid-mixed"
GOOD = "a" * 64


def check(ok: bool, what: str, failures: list[str]) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def judge_cases(failures: list[str]) -> None:
    clean = {"rc": 0, "error": None, "sha256": GOOD, "reports": 10, "mismatches": 0}
    attempted, failed, _ = run.judge(0, clean, GOOD, GOOD)
    check((attempted, failed) == (10, 0), "judge: clean repetition passes", failures)
    cases = {
        "child exit status": (1, clean, GOOD, GOOD, None),
        "child without result": (1, None, GOOD, GOOD, None),
        "CLI exit status": (0, dict(clean, rc=1), GOOD, GOOD, None),
        "CLI raised": (0, dict(clean, rc=None, error="ValueError()"), GOOD, GOOD, None),
        "recorded digest": (0, clean, "b" * 64, GOOD, None),
        "first repetition digest": (0, clean, None, "b" * 64, None),
        "match=false": (0, dict(clean, mismatches=1), None, None, None),
        "Euler oracle": (0, clean, None, None, "euler line 3 differs"),
    }
    for gate, args in cases.items():
        _, failed, reasons = run.judge(*args)
        check(failed > 0 and bool(reasons), f"judge: {gate} alone fails", failures)


def oracle_cases(failures: list[str]) -> None:
    tangent = run.tangent_numbers(5)
    table = [run.expected_euler_line(n, tangent) for n in range(10)]
    check(
        table[:4]
        == ['{"n":0,"value":"1/1"}', '{"n":1,"value":"-1/2"}', '{"n":2,"value":"0/1"}',
            '{"n":3,"value":"1/4"}'],
        "oracle: E_0..E_3 are 1, -1/2, 0, 1/4",
        failures,
    )
    check(run.check_euler_table("\n".join(table)) is None, "oracle: accepts the true table", failures)
    table[7] = table[7].replace("/", "1/", 1)
    check(run.check_euler_table("\n".join(table)) is not None, "oracle: rejects one bad value", failures)


def bench(seed: int, inject: str | None, trace: int = 0) -> tuple[int, dict, dict]:
    cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", WORKLOAD,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    if inject:
        cmd += ["--inject", inject]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=run.ROOT, timeout=600)
    lines = proc.stdout.splitlines()
    return proc.returncode, json.loads(lines[-2]), json.loads(lines[-1])


def run_cases(failures: list[str]) -> None:
    spec = run.load_workloads()[WORKLOAD]
    other_seed = next(s for s in range(1, 100) if run.make_argv(spec, s) != spec["default_argv"])
    status, info, result = bench(0, None)
    check(
        status == 0 and result["correct"] and result["failed"] == 0
        and info["observed_sha256"] == spec["stdout_sha256"],
        "run: clean default seed passes and matches its recorded digest",
        failures,
    )
    for inject, seed, gate in (
        ("digest", 0, "recorded digest"),
        ("exit", 0, "child exited 1"),
        ("mismatch", other_seed, "match=false"),
    ):
        status, info, result = bench(seed, inject)
        check(
            status != 0 and not result["correct"] and result["failed"] > 0
            and info["fail_frac"] > 0 and any(gate in r for r in info["failures"]),
            f"run: --inject {inject} (seed {seed}) fails through the {gate} gate",
            failures,
        )


def metric_cases(failures: list[str]) -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        status, _, result = bench(0, None, trace)
        units = {m["name"]: m["unit"] for m in declared[key]}
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        check(status == 0 and printed == units, f"metrics: --trace {trace} prints the {key} list", failures)


def main() -> int:
    failures: list[str] = []
    judge_cases(failures)
    oracle_cases(failures)
    run_cases(failures)
    metric_cases(failures)
    print(f"{len(failures)} gate checks failed" if failures else "all gate checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
