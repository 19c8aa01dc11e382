"""Enumeration helpers: set partitions, slot assignments, unimodular grids."""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Iterator

import numpy as np

from .errors import BudgetError

GRID_BLOCK = 4096  # rows per block of unit_grid


def set_partitions(k: int, max_blocks: int | None = None) -> Iterator[list[list[int]]]:
    """All partitions of {0..k-1} via restricted growth strings."""
    if k > 12:
        raise BudgetError(f"set-partition enumeration capped at 12 elements, got {k}")
    a = [0] * k
    b = [1] * k  # b[i] = 1 + max(a[:i])

    def emit():
        nblocks = max(a) + 1
        if max_blocks is not None and nblocks > max_blocks:
            return None
        blocks: list[list[int]] = [[] for _ in range(nblocks)]
        for i, bi in enumerate(a):
            blocks[bi].append(i)
        return blocks

    if k == 0:
        yield []
        return
    pos = k - 1
    out = emit()
    if out is not None:
        yield out
    while True:
        while pos > 0 and a[pos] >= b[pos]:
            a[pos] = 0
            pos -= 1
        if pos == 0:
            return
        a[pos] += 1
        for i in range(pos + 1, k):
            a[i] = 0
            b[i] = max(b[pos], a[pos] + 1)
        pos = k - 1
        out = emit()
        if out is not None:
            yield out


def slot_assignments(items: int, slots: int, budget: int) -> Iterator[tuple[int, ...]]:
    """All maps {0..items-1} -> {0..slots-1}, i.e. slots**items tuples."""
    total = slots**items
    if total > budget:
        raise BudgetError(f"assignment enumeration needs {total} > budget {budget}")
    return product(range(slots), repeat=items)


def unit_roots(levels: int) -> np.ndarray:
    """The levels-th roots of unity; real +-1 for levels == 2."""
    if levels == 2:
        return np.array([1.0, -1.0])
    return np.exp(2j * np.pi * np.arange(levels) / levels)


def digit_rows(width: int, base: int, start: int, stop: int) -> np.ndarray:
    """Rows start..stop-1 of the base**width digit strings of length width, in itertools.product order (last digit fastest)."""
    return np.arange(start, stop)[:, None] // base ** np.arange(width - 1, -1, -1) % base


def _grid_rows(n: int, levels: int, start: int, stop: int) -> np.ndarray:
    """Rows start..stop-1 of the pinned grid, last coordinate fastest."""
    roots = unit_roots(levels)
    Z = np.ones((stop - start, n), dtype=roots.dtype)
    Z[:, 1:] = roots[digit_rows(n - 1, levels, start, stop)]
    return Z


@lru_cache(maxsize=64)
def _small_grid(n: int, levels: int) -> np.ndarray:
    Z = _grid_rows(n, levels, 0, levels ** (n - 1))
    Z.flags.writeable = False
    return Z


def grid_fits(n: int, levels: int, budget: int) -> bool:
    """Whether unit_grid(n, levels, budget) enumerates, i.e. its levels^(n-1) rows are within budget."""
    return levels ** (n - 1) <= budget


def unit_grid(n: int, levels: int, budget: int) -> Iterator[np.ndarray]:
    """The pinned grid {1} x U_levels^(n-1) as row blocks of at most GRID_BLOCK rows.

    Rows follow itertools.product order (last coordinate fastest).  A grid
    that fits one block is cached read-only; larger grids are built block
    by block and never held whole.
    """
    count = levels ** (n - 1)
    if not grid_fits(n, levels, budget):
        raise BudgetError(f"grid enumeration needs {count} > budget {budget}")
    if count <= GRID_BLOCK:
        return iter((_small_grid(n, levels),))
    return (_grid_rows(n, levels, s, min(s + GRID_BLOCK, count)) for s in range(0, count, GRID_BLOCK))
