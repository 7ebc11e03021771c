"""Seeded job lists for the benchmark workloads.

A job is a dict in the heisenmod CLI job-file schema (``group``,
``generators``, ``weight``, ``windows``, ``seed``) plus three benchmark
fields: ``cmd`` (the CLI subcommand, cli-jobs only), ``exit`` (the expected
exit code) and ``size``, the descriptors recorded next to each op's time:
|G|, rank, |Delta|, |Delta°| = |G|^2/|Delta|, the redundancy |Delta|/|G| and
the window count k.

Every lattice is {(x, Tx + y) : x in X, y in Y} with X = a_1 Z x ... x a_r Z,
Y = b_1 Z x ... x b_r Z and a seeded symmetric integer matrix T. Its order
|X| |Y| is known here exactly, so the benchmark can check the program's
lattice without asking the program.

A workload is a sequence of rounds. Every round holds each rung of the
workload's table once, in a seeded order, with a fresh seeded shear T,
windows and seed per rung. The steps a and b are fixed per rung (drawn from
the rung itself, not from the seed): how many distinct time shifts a lattice
has changes its cost by up to half, so fixing them keeps the work of a round
the same in every round and for every seed, and copies of a rung alike.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

# (group orders, redundancy |Delta|/|G|, weight). The weight-3 rung is the
# ladder's one non-counting weight. The rungs fall into cost blocks (2-vCPU
# Xeon at 2.1 GHz): fourteen light ones at 0.12-0.33 s, listed twice so that
# the median is taken over many ops spread through the run; two at 0.5-0.7 s;
# five copies of Z6^2 at redundancy 2 at about 1 s; the three heaviest at
# 2.3-6.3 s. The median op falls inside the light block and the tail
# percentile (p86) inside the Z6^2 block, a few ops from its edges, so noise
# that reorders ops of similar cost moves neither much.
VERIFY_RUNGS = 2 * [
    ((12,), 1, "1"), ((12,), 2, "1"), ((18,), 1, "1"), ((20,), 1, "1"), ((20,), 1, "1"),
    ((16,), 2, "1"), ((4, 4), 1, "1"),
    ((18,), 2, "1"), ((18,), 2, "1"), ((24,), 1, "1"), ((24,), 1, "1"),
    ((12,), 4, "1"), ((12,), 4, "1"), ((4, 4), 2, "1"),
] + [
    ((4, 4), 4, "1"), ((6, 6), 1, "1"),
    ((6, 6), 2, "1"), ((6, 6), 2, "1"), ((6, 6), 2, "1"), ((6, 6), 2, "1"), ((6, 6), 2, "1"),
    ((8, 8), 1, "1"), ((80,), 2, "1"), ((96,), 1, "3"),
]

# (group orders, redundancy, window count k)
FRAME_RUNGS = [
    ((240,), 1, 1), ((240,), 1, 2), ((240,), 1, 3),
    ((240,), 2, 1), ((240,), 2, 2), ((240,), 2, 3), ((240,), 4, 3),
    ((16, 16), 1, 1), ((16, 16), 1, 3),
    ((16, 16), 2, 1), ((16, 16), 2, 2), ((16, 16), 2, 3),
    ((480,), 1, 1), ((480,), 1, 2), ((480,), 1, 3),
    ((480,), 2, 1),
]

# (subcommand, group orders, redundancy, window count k, expected exit code).
# The redundancy-1/2 dual-window job is not a frame, so the CLI must exit 3.
CLI_RUNGS = [
    ("adjoint", (12,), 1, 0, 0), ("adjoint", (12,), 2, 0, 0), ("adjoint", (4, 4), 1, 0, 0),
    ("adjoint", (48,), 1, 0, 0), ("adjoint", (240,), 1, 0, 0),
    ("frame-bounds", (12,), 2, 2, 0), ("frame-bounds", (24,), 2, 1, 0), ("frame-bounds", (96,), 2, 2, 0),
    ("frame-bounds", (240,), 1, 1, 0),
    ("dual-window", (12,), 1, 1, 0), ("dual-window", (48,), 2, 2, 0),
    ("dual-window", (240,), 2, 1, 0), ("dual-window", (24,), Fraction(1, 2), 1, 3),
    ("figa", (12,), 2, 4, 0), ("figa", (6, 6), 1, 2, 0), ("figa", (96,), 1, 4, 0),
    ("gen-check", (24,), 1, 2, 0), ("gen-check", (48,), 4, 1, 0),
    ("gen-check", (120,), 1, 3, 0),
    ("janssen", (16,), 2, 1, 0), ("janssen", (60,), 1, 1, 0),
    ("janssen", (120,), 2, 1, 0),
    ("spectrum", (12,), 4, 2, 0), ("spectrum", (16,), 1, 1, 0), ("spectrum", (8, 8), 2, 1, 0),
    ("spectrum", (240,), 1, 1, 0),
    ("verify", (12,), 1, 0, 0), ("verify", (4, 4), 2, 0, 0), ("verify", (24,), 1, 0, 0),
]

WORKLOADS = ("verify-ladder", "frame-ladder", "cli-jobs")


def round_size(workload: str) -> int:
    return len(_rungs(workload))


def round_jobs(workload: str, seed: int, index: int) -> list[dict]:
    """The jobs of round ``index`` for ``workload`` and ``seed``, in run order."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    jobs = []
    for rung in _rungs(workload):
        shape = random.Random(f"{workload}/{rung}")
        if workload == "verify-ladder":
            orders, redundancy, weight = rung
            job = _lattice_job(shape, rng, orders, redundancy, weight, 0)
        elif workload == "frame-ladder":
            orders, redundancy, k = rung
            job = _lattice_job(shape, rng, orders, redundancy, "1", k)
        else:
            cmd, orders, redundancy, k, code = rung
            job = _lattice_job(shape, rng, orders, redundancy, "1", k)
            job["cmd"] = cmd
            job["exit"] = code
        jobs.append(job)
    rng.shuffle(jobs)
    return jobs


def _rungs(workload: str) -> list:
    if workload == "verify-ladder":
        return VERIFY_RUNGS
    if workload == "frame-ladder":
        return FRAME_RUNGS
    if workload == "cli-jobs":
        return CLI_RUNGS
    raise ValueError(f"unknown workload {workload!r}")


def _lattice_job(
    shape: random.Random, rng: random.Random, orders: tuple[int, ...], redundancy, weight: str, k: int
) -> dict:
    order = math.prod(orders)
    rank = len(orders)
    if rank > 1 and len(set(orders)) != 1:
        raise ValueError("the shear T needs equal cyclic factors")
    product = Fraction(order) / Fraction(redundancy)
    if product.denominator != 1:
        raise ValueError(f"redundancy {redundancy} does not fit |G| = {order}")
    divisors = [[d for d in range(1, n + 1) if n % d == 0] for n in orders]
    choices = [t for t in itertools.product(*divisors, *divisors) if math.prod(t) == product]
    if not choices:
        raise ValueError(f"no lattice of redundancy {redundancy} in {orders}")
    steps = shape.choice(choices)
    a, b = steps[:rank], steps[rank:]
    shear = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(i, rank):
            shear[i][j] = shear[j][i] = rng.randrange(orders[0])
    gens = []
    for j in range(rank):
        x = [a[j] if i == j else 0 for i in range(rank)]
        w = [(shear[i][j] * a[j]) % orders[i] for i in range(rank)]
        gens.append([x, w])
    for j in range(rank):
        gens.append([[0] * rank, [b[j] if i == j else 0 for i in range(rank)]])
    delta = math.prod(n // s for n, s in zip(orders + orders, steps))
    return {
        "group": list(orders),
        "generators": gens,
        "weight": weight,
        "windows": [f"randn:{rng.randrange(2**31)}" for _ in range(k)],
        "seed": rng.randrange(2**31),
        "exit": 0,
        "size": {
            "G": order,
            "rank": rank,
            "delta": delta,
            "adjoint": order * order // delta,
            "redundancy": str(Fraction(delta, order)),
            "k": k,
        },
    }
