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

    ``argmin_set`` holds the bitstrings attaining the global minimum;
    ``gap`` the distance from the ground energy to the first strictly
    higher level (+inf for a flat spectrum).  Levels closer than a
    degeneracy tolerance are treated as equal, since scaled or converted
    models reproduce exact ties only up to roundoff.  ``table`` holds all
    2^n energies of ``model`` in enumeration order (index k is the
    configuration whose variable i is bit i of k), and ``energies`` the
    same spectrum in ascending order; each is computed on first read and
    cached, so a report costs no table until one is read.
    """

    n: int
    model: Model
    argmin_set: frozenset
    global_min: float
    gap: float

    @cached_property
    def table(self) -> np.ndarray:
        return energy_table(self.model)

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

    A pass is ``(shape, vectors, high, v)``, built from the term's bits
    in ascending order; each bit contributes one level factor, placed by
    its position alone.  ``shape`` starts as one tile row of 2^k
    entries, and a bit below k contributes its tile vector along it.  A
    bit t with k <= t < b puts an axis of length 2 for itself, and one
    for the bits below it down to the previous such bit (or to k), in
    front of ``shape``, and contributes a column of ``levels`` along
    its own axis.  A bit at or above b is fixed by the block's number: ``high``
    lists it minus b, and the pass scales v by its level.  The columns
    come ahead of the tile vectors, since a 2-entry product costs less
    than a tile's.
    """
    k = min(b, max(TILE_BITS, b - 3))
    tiles = _tiles(model.levels, k)
    levels = np.array(model.levels)
    passes = []
    for i, j, v in model.terms():
        shape, top = (1 << k,), k
        columns, vectors, high = [], [], []
        for t in (i,) if i == j else (i, j):
            if t < k:
                vectors.append(tiles[t])
            elif t < b:
                columns.append(levels.reshape((2,) + (1,) * (len(shape) + 1)))
                shape, top = (2, 1 << (t - top)) + shape, t + 1
            else:
                high.append(t - b)
        passes.append(((-1,) + shape, columns + vectors, high, v))
    return passes


def _coefficient_sum(model: Model) -> float:
    """Sum of the coefficient magnitudes, which bounds |energy - offset|.

    Raises ValueError when that sum plus |offset| passes the float
    range, where energies could overflow to inf.
    """
    try:
        total = math.fsum(abs(v) for _, _, v in model.terms())
        if total + abs(model.offset) < math.inf:
            return total
    except OverflowError:  # fsum's partial sums passed the float range
        pass
    raise ValueError("the model's coefficient magnitudes and offset sum past the float range")


def energy_table(model: Model, include_offset: bool = True, consume=None) -> np.ndarray | None:
    """Energies of all 2^n configurations, indexed by bit pattern.

    Index k corresponds to the configuration whose variable i is bit i
    of k, at value ``model.levels[bit]`` (spin -1 or binary 0 for bit
    0).  The table is one preallocated array, filled block by block: a
    block is 2^B contiguous entries (B = min(n, BLOCK_BITS)), small
    enough to stay in cache while every term of ``model.terms()``, in
    order, makes one in-place pass over it.  Given ``consume``, no table
    is allocated and None is returned: the blocks are filled in turn in
    one buffer, zeroed before each, and ``consume(block, start)``
    receives each finished block and the index of its first entry while
    it is still in cache (the buffer is reused, so ``consume`` copies
    what it keeps).  Inside a block the entries are rows of a fixed
    tile of 2^K entries (K <= B, see TILE_BITS).  Each bit of a term
    contributes one level factor to the term's coefficient v, placed by
    the bit's position alone:

    * a bit below K multiplies by its tile vector, ``levels[bit]``
      over the 2^K entries of every row;
    * a bit in [K, B) multiplies by a 2-entry column of levels along
      that bit's axis of the block;
    * a bit at or above B is fixed by the block's number and multiplies
      by its one level, so a term with no bit below B adds one value to
      the whole block.

    At a bit-0 level of 0 a term adds +-0.0, which leaves the entry
    unchanged, so an entry is never -0.0 (``qaoa._phase_energies``
    relies on that).  Every entry receives the same float additions of
    exact products of v and levels, in the same term order, as the
    scalar evaluators, so table entries are bit-identical to
    per-configuration :func:`eval_ising` / :func:`eval_qubo` calls,
    whatever B and K are, and whether or not ``consume`` is given.  A
    model whose coefficient magnitudes and offset sum past the float
    range is rejected with ValueError.
    """
    n = model.n
    if n > BRUTE_FORCE_CAP:
        raise ValueError(f"n={n} exceeds the enumeration cap of {BRUTE_FORCE_CAP}")
    _coefficient_sum(model)
    b = min(n, BLOCK_BITS)
    e = np.zeros(1 << (n if consume is None else b))
    blocks = e.reshape(-1, 1 << b)
    passes = _block_passes(model, b)
    levels = model.levels
    for number in range(1 << (n - b)):
        if consume is None:
            block = blocks[number]
        else:
            block = e
            block.fill(0.0)  # so that entries start at +0.0, as in a fresh table
        for shape, vectors, high, op in passes:
            for bit in high:
                op = op * levels[number >> bit & 1]
            for vector in vectors:  # made per pass, so it is still in cache
                op = op * vector
            view = block.reshape(shape)
            view += op
        if include_offset:
            block += model.offset
        if consume is not None:
            consume(block, number << b)
    return e if consume is None else None


def brute_force(model: Model) -> SpectrumReport:
    """Exhaustively enumerate a model and report its exact spectrum.

    A level is a ground state when it lies within ``DEGENERACY_TOL``
    times the sum of coefficient magnitudes of the minimum.  That sum
    bounds |energy - offset|, so the tolerance follows the scale of the
    coefficients and ignores the offset.  The ground set and gap come
    from reductions over the offset-free energies, so a large offset
    cannot round small energy differences away; the offset is added to
    the minimum afterwards, and since rounding is monotone that equals
    the least entry of the table with the offset.

    No table is kept: each block of :func:`energy_table` is reduced
    while it is in cache, to the running minimum, the entries within
    the tolerance of it (the candidates) and the least entry above that
    window.  The running minimum only falls and ``fl(a + tol)`` is
    monotone in a, so every entry left out of the candidates lies above
    the final window too; the candidates the final minimum leaves
    outside it join the gap's minimum.  The results are those of the
    same comparisons over the whole table.  ``.table`` and
    ``.energies`` build a table only when read.
    """
    tol = DEGENERACY_TOL * _coefficient_sum(model)
    lowest = above = math.inf
    candidates = []  # (indices, energies) per block

    def reduce(block, start):
        nonlocal lowest, above
        least = float(block.min())
        if least > lowest + tol:  # nothing in this block can be a ground state
            above = min(above, least)
            return
        lowest = min(lowest, least)
        inside = block <= lowest + tol
        where = np.flatnonzero(inside)
        candidates.append((where + start, block[where]))
        above = min(above, float(np.min(block, where=~inside, initial=math.inf)))

    energy_table(model, include_offset=False, consume=reduce)
    indices, energies = (np.concatenate(parts) for parts in zip(*candidates))
    ground = energies <= lowest + tol
    argmin_set = frozenset(indices_to_bitstrings(indices[ground], model.n))
    gap = min(above, float(np.min(energies, where=~ground, initial=math.inf))) - lowest
    return SpectrumReport(model.n, model, argmin_set, lowest + model.offset, gap)


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
