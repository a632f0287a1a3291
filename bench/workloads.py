"""The four benchmark workloads: seeded inputs, timed operations, output checks.

Each workload builds a `Plan` from the seed: a list of operations, each a
zero-argument call into one public qprim function, plus the checks that
its outputs are right.  Operations look up the library function through
its module at call time, so a traced run sees them.  Inputs are made here
with the standard library only; the library receives nothing but them.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable


@dataclass
class Plan:
    """One pass of a workload: `ops` run in order by a single caller."""

    ops: list[Callable[[], object]]
    check_op: Callable[[int, object], bool]
    # a small record of one output, kept for the pass-level checks
    summary: Callable[[object], object] = lambda result: None
    # pass-level checks on the summaries; returns the problems found
    check_pass: Callable[[list], list[str]] = lambda summaries: []
    # per-layer figures derived from the summaries, not from spans
    layer_metrics: Callable[[list], dict] = lambda summaries: {}
    # escalation rungs (first, ceiling) of a grid sweep, for the trace
    rungs: tuple[int, int] | None = None


def _primes_up_to(n: int) -> list[int]:
    return [p for p in range(2, n + 1) if all(p % q for q in range(2, math.isqrt(p) + 1))]


def _discriminants(dmin: int, dmax: int) -> list[int]:
    return [D for D in range(dmin, dmax + 1) if D < 0 and D % 4 in (0, 1)]


def _reduced_forms_in(dmin: int, dmax: int) -> dict[int, list[tuple[int, int, int]]]:
    """Primitive reduced forms of every discriminant in [dmin, dmax], in one sweep."""
    out: dict[int, list[tuple[int, int, int]]] = {D: [] for D in _discriminants(dmin, dmax)}
    for a in range(1, math.isqrt(-dmin // 3) + 1):
        for b in range(-a + 1, a + 1):
            # D = b^2 - 4ac falls as c grows; c >= a keeps the form reduced
            for c in range(max(a, (b * b - dmax + 4 * a - 1) // (4 * a)), (b * b - dmin) // (4 * a) + 1):
                if (b < 0 and a == c) or math.gcd(math.gcd(a, b), c) != 1:
                    continue
                out[b * b - 4 * a * c].append((a, b, c))
    return out


def _reduced_forms(D: int) -> list[tuple[int, int, int]]:
    """Independent census of the primitive reduced forms of discriminant D."""
    return _reduced_forms_in(D, D)[D]


# ---------------------------------------------------------------- grid_acceptance

GRID_SIZES = {
    "full": {
        "dmin": -400, "dmax": -3, "pmax": 23, "bound": 5000, "ceiling": 250000,
        "cells": 8395,
        "routes": {"symbol_minus_one": 3799, "order_four_square_failed": 3722,
                   "principal_square": 528, "order_four_square": 346},
        "max_witness": 206839,
    },
    "tiny": {
        "dmin": -60, "dmax": -3, "pmax": 7, "bound": 300, "ceiling": 5000,
        "cells": None, "routes": None, "max_witness": None,
    },
}


def grid_acceptance(q, seed: int, size: str) -> Plan:
    """The ROADMAP acceptance grid, one operation per discriminant.

    `verify_classification_grid` over one discriminant returns exactly
    that discriminant's cells of the whole window, so the cells of all
    operations together are the grid.  The seed only sets the order.
    """
    s = GRID_SIZES[size]
    pmax, bound, ceiling = s["pmax"], s["bound"], s["ceiling"]

    def op(D):
        return lambda: q.oracle.verify_classification_grid(D, D, pmax, bound, ceiling=ceiling)

    def check_op(i, report):
        if not report.ok or report.unconfirmed or not report.cells:
            return False
        for cell in report.cells:
            if cell.cpp:
                if cell.witness is not None:
                    return False
                continue
            rec = q.repcount.rep_counts(cell.form, cell.witness, cell.p)
            if not (rec.r > 0 and rec.r_star_p == 0):
                return False
        return True

    def summary(report):
        witnesses = [c.witness for c in report.cells if c.witness is not None]
        return len(report.cells), Counter(c.route for c in report.cells), max(witnesses, default=0)

    def check_pass(summaries):
        got = {
            "cells": sum(n for n, _, _ in summaries),
            "routes": dict(sum((routes for _, routes, _ in summaries), Counter())),
            "max_witness": max(w for _, _, w in summaries),
        }
        return [f"{key}: expected {s[key]}, got {got[key]}"
                for key in got if s[key] is not None and got[key] != s[key]]

    def layer_metrics(summaries):
        return {"oracle.witness_headroom": max(w for _, _, w in summaries) / ceiling}

    ds = _discriminants(s["dmin"], s["dmax"])
    random.Random(f"grid_acceptance:{seed}").shuffle(ds)
    return Plan(
        [op(D) for D in ds],
        check_op, summary, check_pass, layer_metrics,
        rungs=(min(10 * bound, ceiling), ceiling),
    )


# ---------------------------------------------------------------- classify_large

CLASSIFY_SIZES = {
    "full": {"dmin": -10000, "dmax": -1000, "count": 100, "pmax": 13},
    "tiny": {"dmin": -400, "dmax": -100, "count": 8, "pmax": 7},
}


def classify_large(q, seed: int, size: str) -> Plan:
    """classify_all(D, p) for every prime p <= pmax not dividing D, over
    `count` evenly spaced discriminants of the range; the first call for
    a discriminant in a pass pays its census.

    The seed only sets the order of the (D, p) pairs.  A seed-drawn set
    of discriminants would move the tail more than any bound allows: the
    cost of one discriminant spans 2 ms to 3 s, set by its group structure.
    """
    s = CLASSIFY_SIZES[size]
    population = _discriminants(s["dmin"], s["dmax"])
    width = len(population) / s["count"]
    pairs = [
        (D, p)
        for D in (population[int((k + 0.5) * width)] for k in range(s["count"]))
        for p in _primes_up_to(s["pmax"])
        if D % p
    ]
    random.Random(f"classify_large:{seed}").shuffle(pairs)

    def op(D, p):
        return lambda: q.pprim.classify_all(D, p)

    def check_op(i, verdicts):
        D, p = pairs[i]
        forms = sorted(tuple(v.cls.rep.triple()) for v in verdicts)
        return (
            forms == sorted(_reduced_forms(D))
            and all(v.p == p and v.cls.D == D for v in verdicts)
            and all(q.oracle.revalidate_verdict(v) for v in verdicts)
        )

    return Plan([op(D, p) for D, p in pairs], check_op)


# ---------------------------------------------------------------- represent_points

REPRESENT_SIZES = {
    "full": {"dmin": -4000, "dmax": -3, "per_discriminant": 8, "pmax": 53, "nmax": 10**7},
    "tiny": {"dmin": -60, "dmax": -3, "per_discriminant": 2, "pmax": 13, "nmax": 10**4},
}


def represent_points(q, seed: int, size: str) -> Plan:
    """rep_counts point queries: every discriminant of the window is queried
    `per_discriminant` times, alternating a random n <= nmax with the
    witness-candidate shape n = p^2 f(x, y)."""
    s = REPRESENT_SIZES[size]
    rng = random.Random(f"represent_points:{seed}")
    primes = _primes_up_to(s["pmax"])
    nmax = s["nmax"]
    queries = []  # (form, n, p, (x, y) or None)
    for D, forms in _reduced_forms_in(s["dmin"], s["dmax"]).items():
        for k in range(s["per_discriminant"]):
            a, b, c = rng.choice(forms)
            p = rng.choice(primes)
            if k % 2 == 0:
                queries.append(((a, b, c), rng.randint(1, nmax), p, None))
                continue
            # (x, y) uniform in the ellipse f(x, y) <= nmax / p^2, not (0, 0)
            m = nmax // (p * p)
            xmax = math.isqrt(4 * c * m // -D)
            ymax = math.isqrt(4 * a * m // -D)
            while True:
                x, y = rng.randint(-xmax, xmax), rng.randint(-ymax, ymax)
                v = a * x * x + b * x * y + c * y * y
                if 0 < v <= m:
                    break
            queries.append(((a, b, c), p * p * v, p, (x, y)))
    rng.shuffle(queries)
    forms = {abc: q.qform.BinaryForm(*abc) for abc, _, _, _ in queries}

    def op(form, n, p):
        return lambda: q.repcount.rep_counts(form, n, p)

    def check_op(i, rec):
        (a, b, c), n, p, xy = queries[i]
        sols = rec.solutions
        if rec.n != n or rec.p != p or len(set(sols)) != len(sols) or rec.r != len(sols):
            return False
        if any(a * x * x + b * x * y + c * y * y != n for x, y in sols):
            return False
        if rec.r_star_p != sum(1 for x, y in sols if x % p or y % p):
            return False
        return xy is None or (p * xy[0], p * xy[1]) in sols

    return Plan([op(forms[abc], n, p) for abc, n, p, _ in queries], check_op)


# ---------------------------------------------------------------- ternary_spectra

TERNARY_SIZES = {"full": {"bounds": (2500, 5000, 10000, 20000)}, "tiny": {"bounds": (200, 500)}}


def ternary_spectra(q, seed: int, size: str) -> Plan:
    """One spectrum identity report per operation, at each of a fixed set
    of bounds, so the tail is the largest report rather than timing noise.
    The seed only sets the order."""
    bounds = list(TERNARY_SIZES[size]["bounds"])
    random.Random(f"ternary_spectra:{seed}").shuffle(bounds)

    def op(bound):
        return lambda: q.ternary.spectrum_identity_report(bound=bound)

    def check_op(i, report):
        return (report.bound == bounds[i] and report.ok and report.sym_diff == (1,)
                and report.change_of_basis is not None)

    return Plan([op(b) for b in bounds], check_op)


WORKLOADS = {
    "grid_acceptance": grid_acceptance,
    "classify_large": classify_large,
    "represent_points": represent_points,
    "ternary_spectra": ternary_spectra,
}
