"""Value-stream generators.

These produce the data arrays the workload programs traverse.  Each generator
targets one of the locality phenomena the paper exploits:

* :func:`run_lengths`       — values repeat in runs → last-value locality.
* :func:`sparse_values`     — mostly one constant (usually 0) → constant
  locality (the paper's sparse-matrix example, Section 3).
* :func:`zipf_pool`         — draws from a small pool with Zipf popularity →
  a few values dominate (interpreter immediates, board states).
* :func:`correlated_copy`   — second array frequently equal to the first →
  correlated-variable locality (Figure 2a).
* :func:`smooth_field`      — slowly-varying quantised field → neighbouring
  elements often equal (stencil codes: hydro2d, mgrid).
* :func:`cons_heap`         — linked list-of-lists heap with shared atoms
  (the li model).

All functions take a ``numpy.random.Generator`` so workload images are fully
deterministic per seed.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np


def run_lengths(rng: np.random.Generator, count: int, pool: Sequence[int], mean_run: float) -> List[int]:
    """``count`` values drawn from ``pool``, repeated in geometric-length runs."""
    if mean_run < 1:
        raise ValueError("mean_run must be >= 1")
    out: List[int] = []
    p = 1.0 / mean_run
    while len(out) < count:
        value = int(pool[int(rng.integers(len(pool)))])
        run = 1 + int(rng.geometric(p)) - 1 if p < 1.0 else 1
        out.extend([value] * max(1, run))
    return out[:count]


def sparse_values(
    rng: np.random.Generator,
    count: int,
    density: float,
    value_range: Tuple[int, int] = (1, 1 << 20),
    fill: int = 0,
) -> List[int]:
    """Array that is ``fill`` except for a ``density`` fraction of random values."""
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must be in [0, 1]")
    values = np.full(count, fill, dtype=np.int64)
    nonzero = rng.random(count) < density
    lo, hi = value_range
    values[nonzero] = rng.integers(lo, hi, size=int(nonzero.sum()))
    return [int(v) for v in values]


def zipf_pool(rng: np.random.Generator, count: int, pool_size: int, exponent: float = 1.2) -> List[int]:
    """Indices 0..pool_size-1 with Zipf-like popularity (index 0 most common)."""
    ranks = np.arange(1, pool_size + 1, dtype=np.float64)
    probs = ranks ** (-exponent)
    probs /= probs.sum()
    return [int(v) for v in rng.choice(pool_size, size=count, p=probs)]


def correlated_copy(
    rng: np.random.Generator,
    source: Sequence[int],
    correlation: float,
    value_range: Tuple[int, int] = (1, 1 << 20),
) -> List[int]:
    """A second array equal to ``source`` elementwise with probability
    ``correlation``, random otherwise (Figure 2a correlated variables)."""
    if not 0.0 <= correlation <= 1.0:
        raise ValueError("correlation must be in [0, 1]")
    lo, hi = value_range
    out: List[int] = []
    same = rng.random(len(source)) < correlation
    randoms = rng.integers(lo, hi, size=len(source))
    for value, keep, alt in zip(source, same, randoms):
        out.append(int(value) if keep else int(alt))
    return out


def smooth_field(
    rng: np.random.Generator,
    count: int,
    levels: int = 16,
    step_prob: float = 0.15,
    zero_frac: float = 0.0,
) -> List[int]:
    """Quantised slowly-varying field: neighbours usually hold equal values.

    A ``zero_frac`` fraction of positions is forced to zero in runs, modelling
    boundary/padding regions of stencil grids.
    """
    out: List[int] = []
    level = int(rng.integers(levels))
    for _ in range(count):
        if rng.random() < step_prob:
            level = min(max(level + int(rng.integers(-1, 2)), 0), levels - 1)
        out.append(level * 1000 + 7)  # distinctive nonzero encodings
    if zero_frac > 0:
        zero_run = max(1, int(count * zero_frac / max(1, int(count * zero_frac / 8))))
        pos = 0
        while pos < count:
            if rng.random() < zero_frac:
                for i in range(pos, min(count, pos + zero_run)):
                    out[i] = 0
                pos += zero_run
            else:
                pos += zero_run
    return out


def cons_heap(
    rng: np.random.Generator,
    heap_base: int,
    n_cells: int,
    n_atoms: int,
    atom_reuse: float = 0.7,
    repeat_prob: float = 0.55,
    nest_prob: float = 0.25,
) -> Tuple[List[int], int]:
    """Build a list-of-lists cons heap.

    Returns ``(words, root_addr)``.  Each cons cell is two words (car, cdr) at
    ``heap_base + 16*i``.  Car fields hold either a pointer to a nested list or
    a *tagged atom* (odd value, so pointers — always 16-aligned — are
    distinguishable).  With probability ``atom_reuse`` an atom is drawn from a
    small shared pool, giving the heavy value sharing that makes li so
    predictable in the paper.
    """
    atom_pool = [int(a) * 2 + 1 for a in rng.integers(1, 1 << 16, size=max(1, n_atoms // 8))]
    last_atom = 0

    def fresh_atom() -> int:
        """Atoms repeat in runs (``repeat_prob``) and otherwise come mostly
        from a shared pool (``atom_reuse``) — xlisp's interned symbols."""
        nonlocal last_atom
        if last_atom and rng.random() < repeat_prob:
            return last_atom
        if rng.random() < atom_reuse:
            value = int(atom_pool[int(rng.integers(len(atom_pool)))])
        else:
            value = int(rng.integers(1, 1 << 16)) * 2 + 1
        last_atom = value
        return value

    cells: List[Tuple[int, int]] = [(0, 0)] * n_cells
    next_free = 0
    # Reserve the tail quarter of the heap for the master chain of roots.
    data_limit = max(8, (n_cells * 3) // 4)

    def alloc() -> int:
        nonlocal next_free
        index = next_free
        next_free += 1
        return index

    def addr(index: int) -> int:
        return heap_base + 16 * index

    def build_list(length: int, depth: int) -> int:
        """Build a proper list of ``length`` cells; returns its address (or 0)."""
        head = 0
        for _ in range(length):
            if next_free >= data_limit:
                break
            index = alloc()
            if depth > 0 and rng.random() < nest_prob and data_limit - next_free > 16:
                car = build_list(int(rng.integers(1, 4)), depth - 1)
            else:
                car = fresh_atom()
            cells[index] = (car, head)
            head = addr(index)
        return head

    roots: List[int] = []
    while next_free < data_limit and len(roots) < n_cells - data_limit:
        roots.append(build_list(int(rng.integers(20, 44)), depth=2))
    # Chain the roots themselves into one master list in the reserved tail.
    master = 0
    next_free = max(next_free, data_limit)
    for root in reversed(roots):
        index = alloc()
        cells[index] = (root, master)
        master = addr(index)

    words: List[int] = []
    for car, cdr in cells:
        words.extend((car, cdr))
    return words, master
