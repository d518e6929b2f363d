"""The benchmark's workloads: CLI command lists made from a seed, and the
oracle every command's output is checked against.

A task is one ``cmpartitions`` command line plus a check of its exit code and
stdout.  Checks never raise: each returns a Verdict, so a broken output counts
into the failure figures instead of stopping the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from decimal import Decimal
from pathlib import Path
from typing import Callable

# Values printed by the program at the commit that introduced this benchmark.
ORACLE = json.loads((Path(__file__).parent / "oracle.json").read_text())

N_ONE_ORBIT = [1, -529, 82616, -5097973]


@dataclass
class Verdict:
    """Outcome of one task: ``ok`` when the output passed its oracle,
    ``wrong`` when the command claimed success (exit 0) but its output
    disagrees with the oracle.  ``facts`` carries values the traced run
    reads from the output (residuals, precision)."""

    ok: bool
    wrong: bool = False
    reason: str = ""
    facts: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Task:
    label: str
    argv: tuple[str, ...]
    check: Callable[[int, str], Verdict]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def partition_count(n: int) -> int:
    """p(n) by counting partitions part by part; shares no code with the
    program's pentagonal recurrence."""
    counts = [1] + [0] * n
    for part in range(1, n + 1):
        for m in range(part, n + 1):
            counts[m] += counts[m - part]
    return counts[n]


def _checked(check):
    """Turn a check's exceptions (malformed JSON, missing keys) into a wrong
    output, and a nonzero exit into a plain failure."""

    def run(code: int, stdout: str) -> Verdict:
        if code != 0:
            return Verdict(False, reason=f"exit code {code}")
        try:
            return check(json.loads(stdout))
        except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
            return Verdict(False, wrong=True,
                           reason=f"unreadable output: {type(exc).__name__}: {exc}")

    return run


def _mismatch(reason: str) -> Verdict:
    return Verdict(False, wrong=True, reason=reason)


def _check_pn(n: int):
    def check(doc) -> Verdict:
        scale = 24 * n - 1
        pn = partition_count(n)
        poly = [int(c) for c in doc["scaled_poly"]]
        if doc["n"] != n or int(doc["pn"]) != pn:
            return _mismatch(f"p({n}) = {doc['pn']}, expected {pn}")
        # prod(x - scale*P(alpha)) is monic of degree #forms, and its roots
        # sum to scale * (scale * p(n))
        if poly[0] != 1 or len(poly) != len(doc["forms"]) + 1:
            return _mismatch(f"orbit polynomial for n={n} has the wrong shape")
        if -poly[1] != scale * scale * pn:
            return _mismatch(f"orbit polynomial for n={n} has the wrong trace")
        if n == 1 and poly != N_ONE_ORBIT:
            return _mismatch(f"n=1 orbit is {poly}")
        expected = ORACLE["pn_scaled_poly_sha256"].get(str(n))
        if expected is not None and _sha256(" ".join(doc["scaled_poly"])) != expected:
            return _mismatch(f"orbit polynomial for n={n} differs from the recorded one")
        return Verdict(True, facts={"residual": doc["residual"]})

    return _checked(check)


def _check_norms(n: int):
    want = ORACLE["norms"][str(n)]

    def check(doc) -> Verdict:
        j, beta = doc["j_norm"], doc["beta_norm"]
        if doc["n"] != n or j["value"] != want["j_norm"]:
            return _mismatch(f"j-norm for n={n} differs from the recorded one")
        if beta["digits"] != want["beta_digits"] or _sha256(beta["value"]) != want["beta_sha256"]:
            return _mismatch(f"beta-norm for n={n} differs from the recorded one")
        if j["coprime_to_6"] is not True or beta["coprime_to_6"] is not True:
            return _mismatch(f"norms for n={n} not reported coprime to 6")
        return Verdict(True, facts={"beta_bits": beta["achieved_bits"]})

    return _checked(check)


def _check_pass(shape: Callable[[dict], bool]):
    def check(doc) -> Verdict:
        if doc["pass"] is not True:
            return _mismatch("exit code 0 without \"pass\": true")
        if not shape(doc):
            return _mismatch("output does not cover the requested points")
        return Verdict(True)

    return _checked(check)


def _check_hypothesis(order: int):
    def check(doc) -> Verdict:
        if doc["order"] != order or not (doc["f_integral"] and doc["companion_integral"]):
            return _mismatch(f"series not reported integral through {order}")
        return Verdict(True)

    return _checked(check)


def _pn_sweep(seed: int):
    order = list(range(1, 31))
    random.Random(seed).shuffle(order)
    return [Task(f"pn {n}", ("pn", "--n", str(n), "--no-cache", "--json"), _check_pn(n))
            for n in order]


def _norms(seed: int):
    # n = 2 (beta products at 13.5k bits) took 37-64 s a pass on a shared
    # two-core host: too long to repeat within a run, and its single pass
    # spread too widely between runs.  The oracle keeps its values.
    return [Task("norms 1", ("norms", "--n", "1", "--no-cache", "--json"), _check_norms(1))]


def _verify_512(seed: int):
    common = ("--precision-bits", "512", "--seed", str(seed), "--no-cache", "--json")
    masser = [Task(f"masser {n}", ("masser", "--n", str(n), "--tol", "1e-15") + common,
                   _check_pass(lambda doc, n=n: len(doc["rows"]) == ORACLE[f"masser_rows_{n}"]))
              for n in (1, 2)]
    return [
        Task("verify-decomp",
             ("verify-decomp", "--trials", "100", "--n-max", "6", "--tol", "2^-160")
             + common,
             _check_pass(lambda doc: doc["points"] == ORACLE["decomp_points"])),
        Task("verify-appendix",
             ("verify-appendix", "--trials", "25", "--tol", "1e-30") + common,
             _check_pass(lambda doc: doc["points"] == 25
                         and all(len(rows) == 25 for rows in doc["per_polynomial"].values()))),
        *masser,
        Task("hypothesis", ("hypothesis", "--order", "500") + common, _check_hypothesis(500)),
    ]


WORKLOADS = {
    "pn-sweep": _pn_sweep,
    "norms": _norms,
    "verify-512": _verify_512,
}


def build(name: str, seed: int, cache_path: str) -> list[Task]:
    """The workload's tasks for this seed.  Every command also names a cache
    file inside the benchmark's output directory, so even a command that
    ignored ``--no-cache`` could not touch the user's cache."""
    tasks = WORKLOADS[name](seed)
    return [Task(t.label, t.argv + ("--cache-path", cache_path), t.check) for t in tasks]


def margin_bits(residual: str, tol_log2: float) -> float | None:
    """log2(tol / residual) for a residual printed as a decimal string; None
    for a residual printed as zero.  Decimal keeps residuals far below the
    float range."""
    value = Decimal(residual)
    if value <= 0:
        return None
    return tol_log2 - float(value.ln() / Decimal(2).ln())
