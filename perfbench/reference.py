"""Fixed reference work that gauges how fast the machine runs right now.

    python3 perfbench/reference.py

It uses nothing from hypercut, so no change to the program moves its
time.  Its mix follows the workloads': a fresh process that imports
numpy, a pure-Python loop over a dict (like the enumeration build),
vectorised numpy passes (like the walker steps) and a two-thread section
(like ``map_blocks`` with two workers).  ``run.py`` times it from spawn
to exit between workload samples and scales the workloads' times by it.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np


def python_loop(n: int) -> int:
    table: dict[int, int] = {}
    acc = 0
    for i in range(n):
        key = (i * 2654435761) % 1009
        table[key] = table.get(key, 0) + i
        acc += key * key % 7
    return acc + len(table)


def numpy_pass(seed: int, rounds: int, size: int) -> float:
    x = np.random.default_rng(seed).standard_normal(size)
    acc = 0.0
    for _ in range(rounds):
        y = np.cosh(x) * np.exp(-x * x) + np.sqrt(np.abs(x))
        acc += float(np.sort(y)[size // 2])
        x = np.sin(y) + x
    return acc


def main() -> None:
    total = python_loop(1_200_000) + numpy_pass(0, 12, 400_000)
    with ThreadPoolExecutor(2) as pool:
        total += sum(pool.map(numpy_pass, (1, 2), (12, 12),
                              (400_000, 400_000)))
    print(total)


if __name__ == "__main__":
    main()
