"""Exact brute-force solving and solution-quality metrics.

Everything here enumerates the full configuration space, so it is the
ground truth the obfuscation schemes are verified against.  The hard
problem-size cap is n <= 24.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .core import IsingModel, Model, OutcomeDistribution, eval_ising, eval_qubo
from .util import bitstrings_to_array, indices_to_bitstrings

BRUTE_FORCE_CAP = 24
DEGENERACY_TOL = 1e-9  # ground-state tolerance, relative to the coefficient magnitudes

# energy_table fills the table in blocks of 2^BLOCK_BITS entries (512
# KiB), each kept in cache while every term makes its pass over it
BLOCK_BITS = 16
# a pass runs over a block of 2^B entries as rows of 2^K contiguous
# entries, K = max(TILE_BITS, B - 3) and at most B.  A full block has 8
# rows of 2^13 entries, numpy's default ufunc buffer size, from which an
# in-place add over rows runs about as fast per entry as over a flat
# array (rows of 2^10 to 2^12 took about 1.6x as long, numpy 2.4); the
# tile vectors each pass computes stay at an eighth of the block.  In a
# smaller table shorter rows keep those vectors cheap to compute
TILE_BITS = 10


@dataclass(frozen=True)
class SpectrumReport:
    """Exhaustive spectrum of a model.

    ``table`` holds all 2^n energies in enumeration order (index k is
    the configuration whose variable i is bit i of k); ``energies`` is
    the same spectrum in ascending order, sorted on first read and
    cached.  ``argmin_set`` holds the bitstrings attaining the global
    minimum; ``gap`` the distance from the ground energy to the first
    strictly higher level (+inf for a flat spectrum).  Levels closer
    than a degeneracy tolerance are treated as equal, since scaled or
    converted models reproduce exact ties only up to roundoff.
    """

    n: int
    table: np.ndarray
    argmin_set: frozenset
    global_min: float
    gap: float

    @cached_property
    def energies(self) -> np.ndarray:
        return np.sort(self.table)


@cache
def _tiles(levels: tuple, k: int) -> list:
    """Read-only level vectors of bits 0..k-1 over a tile of 2^k entries."""
    tile = np.array(levels)[(np.arange(1 << k) >> np.arange(k)[:, None]) & 1]
    tile.flags.writeable = False
    return list(tile)


def _block_passes(model: Model, b: int) -> list:
    """Each term's in-place pass over one block of 2^b table entries.

    A pass is ``(shape, vectors, high, v)``.  The term's bits at or
    above b are fixed by the block's number: ``high`` lists them minus
    b, and the pass scales v by their levels.  The block seen as
    ``shape`` then receives that coefficient times each of the level
    ``vectors`` of the term's bits below b, or the coefficient alone
    when it has none.
    """
    k = min(b, max(TILE_BITS, b - 3))
    tiles = _tiles(model.levels, k)
    levels = np.array(model.levels)
    rows = (-1, 1 << k)
    column, column3 = levels[:, None], levels[:, None, None]
    pair = np.multiply.outer(levels, levels)[:, None, :, None]

    def layout(i, j):
        # shape and level vectors of a pass over block bits i <= j
        if j < k:
            return rows, (tiles[i],) if i == j else (tiles[i], tiles[j])
        if i == j:
            return (-1, 2, 1 << i), (column,)
        if i < k:
            return (-1, 2, 1 << (j - k), 1 << k), (column3, tiles[i])
        return (-1, 2, 1 << (j - i - 1), 2, 1 << i), (pair,)

    passes = []
    for i, j, v in model.terms():
        bits = (i,) if i == j else (i, j)
        low = [t for t in bits if t < b]
        high = tuple(t - b for t in bits if t >= b)
        shape, vectors = layout(low[0], low[-1]) if low else ((-1,), ())
        passes.append((shape, vectors, high, v))
    return passes


def energy_table(model: Model, include_offset: bool = True) -> np.ndarray:
    """Energies of all 2^n configurations, indexed by bit pattern.

    Index k corresponds to the configuration whose variable i is bit i
    of k, at value ``model.levels[bit]`` (spin -1 or binary 0 for bit
    0).  The table is one preallocated array, filled block by block: a
    block is 2^B contiguous entries (B = min(n, BLOCK_BITS)), small
    enough to stay in cache while every term of ``model.terms()``, in
    order, makes one in-place pass over it.  Inside a block the entries
    are rows of a fixed tile of 2^K entries (K <= B, see TILE_BITS):

    * a term whose bits all lie below K adds its values over the tile
      (coefficient times the tile vectors ``levels[bits]``) to every
      row;
    * a pair with i < K <= j < B adds v * levels[b] times the tile
      vector of bit i along the bit-j axis, for each bit-j value b;
    * a term on bits K <= i <= j < B adds a 2- or 2x2-entry block of v
      times levels along the bit-i (and bit-j) axes;
    * a term's bits at or above B are fixed by the block's number: v
      is multiplied by their levels, and the pass is that of the
      term's bits below B, or adds the one value to the whole block
      when there are none.

    At a bit-0 level of 0 a term adds +-0.0, which leaves the entry
    unchanged, so an entry is never -0.0 (``qaoa._phase_energies``
    relies on that).  Every entry receives the same float additions of
    exact products of v and levels, in the same term order, as the
    scalar evaluators, so table entries are bit-identical to
    per-configuration :func:`eval_ising` / :func:`eval_qubo` calls,
    whatever B and K are.
    """
    n = model.n
    if n > BRUTE_FORCE_CAP:
        raise ValueError(f"n={n} exceeds the enumeration cap of {BRUTE_FORCE_CAP}")
    b = min(n, BLOCK_BITS)
    e = np.zeros(1 << n)
    blocks = e.reshape(-1, 1 << b)
    passes = _block_passes(model, b)
    levels = model.levels
    for number, block in enumerate(blocks):
        for shape, vectors, high, op in passes:
            for bit in high:
                op = op * levels[number >> bit & 1]
            for vector in vectors:  # made per pass, so it is still in cache
                op = op * vector
            view = block.reshape(shape)
            view += op
        if include_offset:
            block += model.offset
    return e


def brute_force(model: Model) -> SpectrumReport:
    """Exhaustively enumerate a model and report its exact spectrum.

    A level is a ground state when it lies within ``DEGENERACY_TOL``
    times the sum of coefficient magnitudes of the minimum.  That sum
    bounds |energy - offset|, so the tolerance follows the scale of the
    coefficients and ignores the offset.  The ground set and gap come
    from reductions over the offset-free table, so a large offset cannot
    round small energy differences away; the offset is added afterwards,
    and since rounding is monotone the minimum equals the least entry of
    the finished table.  Nothing is sorted unless ``.energies`` is read.
    """
    table = energy_table(model, include_offset=False)
    gmin = float(table.min())
    tol = DEGENERACY_TOL * math.fsum(abs(v) for _, _, v in model.terms())
    ground = table <= gmin + tol
    argmin_set = frozenset(indices_to_bitstrings(np.flatnonzero(ground), model.n))
    gap = float(np.min(table, where=~ground, initial=math.inf)) - gmin
    table += model.offset
    return SpectrumReport(model.n, table, argmin_set, gmin + model.offset, gap)


def argmin_distribution(report: SpectrumReport) -> OutcomeDistribution:
    """Uniform distribution over the ground-state bitstrings."""
    w = 1.0 / len(report.argmin_set)
    return OutcomeDistribution(report.n, {b: w for b in report.argmin_set})


def _top_k_expectation(dist: OutcomeDistribution, model: Model, global_min: float, k: int):
    """Expected energy over the k top-ranked outcomes, divided by ``global_min``."""
    if dist.n != model.n:
        raise ValueError(f"distribution has n={dist.n}, model has n={model.n}")
    if global_min == 0.0:
        raise ValueError("approximation ratio is undefined for a zero global minimum")
    if not dist.is_normalized:
        raise ValueError("distribution must be normalized")
    # one evaluator call on the (N, n) matrix of all outcomes, rows in
    # the distribution's bitstring order
    x = bitstrings_to_array(list(dist.weights), dist.n)
    values = np.asarray(model.levels)[x]
    if isinstance(model, IsingModel):
        e = eval_ising(model, values)
    else:
        e = eval_qubo(model, values)
    w = np.fromiter(dist.weights.values(), np.float64, len(x))
    # rank by weight desc, then energy asc; the stable sort leaves ties
    # in bitstring order.  The expectation is normalized by the selected
    # weight so the full-k case coincides bitwise with the unrestricted
    # metric
    chosen = np.lexsort((e, -w))[:k]
    num = 0.0
    den = 0.0
    for wi, ei in zip(w[chosen].tolist(), e[chosen].tolist()):
        num += wi * ei
        den += wi
    if den <= 0.0:
        raise ValueError("selected outcomes carry zero total weight")
    return num / den / global_min


def ar(dist: OutcomeDistribution, model: Model, global_min: float) -> float:
    """Approximation ratio: expected energy divided by the global minimum.

    At most 1 for models with a negative global minimum; higher is
    better.
    """
    return _top_k_expectation(dist, model, global_min, len(dist.weights))


def rar(dist: OutcomeDistribution, model: Model, global_min: float, k: int = 5) -> float:
    """Restricted approximation ratio over the k most probable outcomes.

    The k highest-weight outcomes (ties broken by lower energy, then
    lexicographic bitstring) are renormalized before taking the
    expectation.  With k covering the whole support this equals
    :func:`ar` exactly.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    return _top_k_expectation(dist, model, global_min, k)
