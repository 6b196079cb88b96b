"""Seeded operation generators for the benchmark workloads.

An operation is the argv of one ``qtoledo`` CLI call.  ``batches`` yields
the batches of one workload forever; the same (workload, seed) always
yields the same batches, and the program only ever sees the argv.
"""

from __future__ import annotations

import random

REPRODUCE = ("reproduce", "--all")

# Every level-9 embedding.  (9,1) is mixed-sign and refused at commit
# 2af1ca3 in 0.2 s; it is the one cheap case whose fix shows in the results.
LEVEL9_EMBEDDINGS = (1, 2, 4)
# Same-sign level-11 embeddings; one per batch, 20 to 45 s each on a 2-core host.
LEVEL11_EMBEDDINGS = (2, 3, 4, 5)
TORUS_LEVEL = 13
TORUS_EMBEDDINGS = (1, 2, 3, 4, 5, 6)
TORUS_COLORS = (0, 1, 2, 3, 4, 5)

WORKLOADS = ("reproduce", "solve", "torus")


def solve_op(level: int, k: int) -> tuple[str, ...]:
    return ("rmatrix", "solve", "--level", str(level), "--embedding", str(k))


def torus_op(k: int, i: int) -> tuple[str, ...]:
    return ("qrep", "torus", "--level", str(TORUS_LEVEL), "--embedding", str(k), "--i", str(i))


def op_key(op) -> str:
    """File-name-safe identifier of an operation."""
    return "_".join(a.lstrip("-") for a in op)


def batches(workload: str, seed: int):
    """Yield the workload's batches of operations, determined by the seed.

    - reproduce: one ``reproduce --all`` per batch.
    - solve: every level-9 embedding plus one level-11 embedding drawn by
      the seed, in seeded order.
    - torus: one operation per color, at embeddings given by a seeded
      permutation, so each batch covers every color once.  The cost of a
      torus operation depends mostly on its color, which keeps batches of
      different seeds comparable.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}/{seed}")
    while True:
        if workload == "reproduce":
            batch = [REPRODUCE]
        elif workload == "solve":
            batch = [solve_op(9, k) for k in LEVEL9_EMBEDDINGS]
            batch.append(solve_op(11, rng.choice(LEVEL11_EMBEDDINGS)))
        else:
            perm = rng.sample(TORUS_EMBEDDINGS, len(TORUS_EMBEDDINGS))
            batch = [torus_op(k, i) for k, i in zip(perm, TORUS_COLORS)]
        rng.shuffle(batch)
        yield batch


def all_ops() -> list[tuple[str, ...]]:
    """Every operation any workload can draw."""
    ops = [REPRODUCE]
    ops += [solve_op(9, k) for k in LEVEL9_EMBEDDINGS]
    ops += [solve_op(11, k) for k in LEVEL11_EMBEDDINGS]
    ops += [torus_op(k, i) for k in TORUS_EMBEDDINGS for i in TORUS_COLORS]
    return ops
