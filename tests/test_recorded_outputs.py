"""Every recorded CLI output, checked by its stdout sha256.

Each row runs ``python -X dev -W error -m eulerlp ARGV`` against the
package in src/, with dev-mode checks on and every warning an error, and
must exit 0, print nothing on stderr and print exactly the recorded stdout.
``perfbench/workloads.json`` is the only record of the benchmark's four
argvs: their rows are its ``default_argv`` and ``stdout_sha256``.  Every
other recorded argv is written once, in ``RECORDED`` below, so re-recording
a digest means editing one line.
"""

import hashlib
import json

import pytest
from conftest import ROOT, run_python

WORKLOADS = json.loads((ROOT / "perfbench" / "workloads.json").read_text())

# argv, as the words of one command line, -> sha256 of its stdout
RECORDED = {
    " ".join(spec["default_argv"]): spec["stdout_sha256"] for spec in WORKLOADS.values()
} | {
    # grid-mixed's argv written as CSV
    "grid --primes 3,5,7,11,13 --r 1..4 --n 2,4,6 --precision 10 --format csv":
        "cef199519708b218590dc20c63e3ec66f8ec3a6a4ae2f59b5b455d640f012224",
    # grid-mixed's argv at 30 digits instead of 10: the shared l-series rows
    # and the main congruence's diagonal l-values at 30 terms
    "grid --primes 3,5,7,11,13 --r 1..4 --n 2,4,6 --precision 30":
        "6b8105a57a0a691311d45b11a80d8f149bf10a744f02356b148482c3c579adbc",
    # the only config with more than 1k reports (1,260) and ten primes: the
    # memo layer (rows, characters, diagonal l-values) across many contexts
    "grid --primes 3,5,7,11,13,17,19,23,29,31 --r 1..6 --n 2,4,6,8 --precision 20":
        "fb7ea32fdba5306c08c9b2375eb0ebaa0cc00248994bfeaab707839f7116a257",
    # unsorted axes with a repeated n, recorded before grid rows carried
    # their n and t tuples: GridConfig sorts and deduplicates every axis, and
    # each row's reports keep the (p, r, n) and (p, n, t) order
    "grid --primes 13,3,7 --r 3,1,2 --n 6,2,4,2 --precision 6":
        "fdd209897cf7129be00f4684decb9b05d6e31bbef16444aa82ec17176c4f1b4a",
    # E_0..E_3000, past the int-to-str digit limit, recorded from the
    # boustrophedon table that the tangent table replaced
    "euler --nmax 3000":
        "07b7dfd6e3cffbd1cc90e982e8f56ae60f4eb4fb181850f348406605d6e97443",
    # the main congruence at p = 1009, M = 20: 20 characters of 1,008 values
    # each, read from one Teichmuller table, and the series rows at 20 terms
    "verify --check theorem6 --p 1009 --n 300 --r 2 --precision 20":
        "cf9817aab05a1173135c0d7fbd87dfa5a63808bfff7e4580e67eb48a338d3beb",
    # 80 terms per l-value, on the row and diagonal caches keyed on the
    # context alone
    "verify --check theorem6 --p 31 --n 4 --r 2 --precision 80":
        "4bd29a8e8975b702f9f1bf8effe7324458dbe93f0e57d73ff93fc9349b47651c",
    # the deep-binomial path: 399 diagonal l-values, each from binomial rows
    # of 400 terms
    "verify --check theorem6 --p 3 --n 4 --r 2 --precision 400":
        "cef3ba2e4b999321fab7b81b42b669c3f32415d06d166f5116d1433a7f445d5b",
    # the large-p row path: a series table of 10,006 units and 19 l-series
    # rows over them
    "verify --check theorem6 --p 10007 --n 20 --r 1 --precision 20":
        "320cb96b56a5d69f87c9841a3b0213a66aa1fd9576368acd56f35b5201a49968",
    # one run of each exact suite; --x as a reduced and an unreduced
    # fraction, which print the same line, a negative one and its default 0
    "verify --check distribution --n 4 --f 3 --x 1/3":
        "a5f0bc2670cfed21741fbdab3cdfcc44ee43f06607ef9516aa814b11330c4890",
    "verify --check distribution --n 4 --f 3 --x 2/6":
        "a5f0bc2670cfed21741fbdab3cdfcc44ee43f06607ef9516aa814b11330c4890",
    "verify --check distribution --n 6 --f 5 --x=-2/7":
        "b3bed517c86a525ac151216b79feeb7eb8d13ae0c7943d5b43364c14d892d55e",
    "verify --check distribution --n 4 --f 3":
        "4d75ba298f4530bac41803b584e54ecfd3c078eef80387c20e8786378fd01aa4",
    "verify --check powersum --n 4 --m 5":
        "cc3975cfbd6285f14cf90b800a5c57fbcb29bfbf8e2455db0da4349a65ccd5dd",
    "verify --check binomial --r 2 --k 3 --j 1":
        "4bff1b7a815c72403bafdac364ad2f59e40d44ef2ef5e8402a81e346190708ee",
    # lp at s > 0 and s < 0, which raise <a>^(-1) and <a>
    "lp --p 7 --s 5 --t 3 --precision 12":
        "e6d5a660402d3f95076392c9f552635cb4b7c155c8c6ab0af773cc86910acd77",
    "lp --p 7 --s -5 --t 3 --precision 12":
        "69fab706169229e0d2a9cb3a8edf3450b37054e0c2d1cb6d555251d598630818",
    # interpolation at odd n with t = n, so that chi_n = w^0 and the Euler
    # factor 1 - p^n multiplies E_3 != 0; at a t given unreduced, which the
    # report prints reduced (3); kummer at t = 4 = 0 mod 4, printed as 0,
    # with k2 at its default k + p = 8
    "verify --check interpolation --p 5 --n 3 --t 3 --precision 6":
        "d3e6b526ce20c640e296c712a2934d3bcb6f05fc5f9f1460a815095c7b304d9d",
    "verify --check interpolation --p 7 --n 5 --t -3 --precision 8":
        "3943b0773337a57e56381c43a773b9fbce7280ff7b3d38d6f1e7a9fa849d3034",
    "verify --check kummer --p 5 --k 3 --t 4":
        "d9db0b95b8a247d9c37b5aa10746c3b60761cdc717d1810f80c84dcfe8522212",
    # an l_p value at p = 7, a prime no other lp test uses
    "lp --p 7 --s -3 --t 5 --precision 8":
        "95ac74eac527d163a9e711341d55af1804b3d3a70605b4f54c5e997d4b3d4f81",
}


@pytest.mark.parametrize("argv", RECORDED)
def test_stdout_is_the_recorded_stream(argv):
    proc = run_python("-X", "dev", "-W", "error", "-m", "eulerlp", *argv.split(), text=False)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stderr == b""
    assert hashlib.sha256(proc.stdout).hexdigest() == RECORDED[argv]
