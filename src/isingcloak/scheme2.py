"""Scheme II: decoy-variable embedding behind a variable permutation.

The pipeline converts the Ising problem to QUBO form, appends m decoy
binary variables whose couplings are drawn from a roulette wheel built
over the existing coefficient magnitudes, permutes all n+m variables,
converts back to Ising form, and finally applies the scheme-I cipher.

Recovery rests on the decoy coupling signs: every primary-to-decoy
weight is strictly positive and every decoy-block weight nonnegative,
so for any binary (x, y) the augmented energy is the original energy at
x plus nonnegative terms, with equality at y = 0.  Every global
minimizer of the augmented problem therefore projects onto a global
minimizer of the original problem, and decryption simply reverses the
cipher, the permutation and the projection.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .core import (
    IsingModel,
    OutcomeDistribution,
    QuboModel,
    _integral,
    _known_fields,
    _real,
    ising_to_qubo,
    qubo_to_ising,
)
from .scheme1 import KeyI, decrypt1, encrypt1, gen_key1, key1_from_dict, key1_to_dict, key_scheme
from .util import as_rng


@dataclass(frozen=True)
class RouletteWheel:
    """Binned sampler over the magnitude range of existing coefficients.

    ``bin_edges`` are b+1 ascending reals; ``sector_weights`` the b
    selection weights.  ``mode`` records whether sampling preserves the
    observed magnitude histogram or inverts it to flatten the combined
    coefficient distribution.
    """

    bin_edges: tuple
    sector_weights: tuple
    mode: str

    def __post_init__(self):
        edges = tuple(_real(e, "bin edge") for e in self.bin_edges)
        weights = tuple(_real(w, "sector weight") for w in self.sector_weights)
        if len(edges) != len(weights) + 1 or len(weights) < 1:
            raise ValueError("bin_edges must have exactly one more entry than sector_weights")
        if any(b >= a for a, b in zip(edges[1:], edges[:-1])):
            raise ValueError("bin_edges must be strictly ascending")
        if not math.isfinite(edges[-1] - edges[0]):  # a draw scales the bin width
            raise ValueError("bin_edges must span a finite range")
        if any(w < 0.0 for w in weights) or sum(weights) <= 0.0:
            raise ValueError("sector weights must be nonnegative with a positive sum")
        _check_roulette(len(weights), self.mode)
        object.__setattr__(self, "bin_edges", edges)
        object.__setattr__(self, "sector_weights", weights)

    @cached_property
    def cdf(self) -> list:
        """Cumulative sector probabilities, formed as ``Generator.choice(p=...)`` forms them."""
        w = np.asarray(self.sector_weights)
        cdf = (w / w.sum()).cumsum()
        cdf /= cdf[-1]
        return cdf.tolist()


def _check_roulette(bins, mode: str) -> int:
    """``bins`` as an int; rejects a bin count or a mode that no roulette wheel can have."""
    bins = _integral(bins, "bins")
    if bins < 1:
        raise ValueError("bins must be at least 1")
    if mode not in ("preserve", "inverse"):
        raise ValueError(f"unknown roulette mode {mode!r}")
    return bins


@dataclass(frozen=True)
class DecoyPlacement:
    """Where the decoy couplings landed.

    ``B_entries`` maps (primary index, decoy column) to the strictly
    positive primary-to-decoy weight; ``C_entries`` maps decoy-block
    cells (i <= j, decoy-local indices, the diagonal being a decoy
    linear term) to nonnegative weights.
    """

    B_entries: dict
    C_entries: dict

    def __post_init__(self):
        B = {}
        for key in sorted(self.B_entries):
            v = _real(self.B_entries[key], f"primary-decoy weight at {key}")
            if v <= 0.0:
                raise ValueError(f"primary-decoy weight at {key} must be strictly positive")
            B[key] = v
        C = {}
        for key in sorted(self.C_entries):
            i, j = key
            if i > j:
                raise ValueError(f"decoy-block key {key} must satisfy i <= j")
            v = _real(self.C_entries[key], f"decoy-block weight at {key}")
            if v < 0.0:
                raise ValueError(f"decoy-block weight at {key} must be nonnegative")
            C[key] = v
        object.__setattr__(self, "B_entries", B)
        object.__setattr__(self, "C_entries", C)


def _checked_permutation(perm: Sequence[int], size: int) -> tuple:
    """``perm`` as a tuple of ints, which must be a bijection on 0..size-1."""
    perm = tuple(_integral(p, "perm entry") for p in perm)
    if len(perm) != size or sorted(perm) != list(range(size)):  # a huge size builds no range
        raise ValueError(f"perm must be a bijection on 0..{size - 1}")
    return perm


@dataclass(frozen=True)
class KeyII:
    """Client-secret key for the decoy schemes II and III.

    ``perm`` maps pre-permutation variable index i to its disclosed
    position perm[i]; ``key1`` is the scheme-I key over all n+m
    variables; ``offset`` the original client offset; ``d_star`` the
    target degree of a scheme-III key and None for scheme II.
    """

    n: int
    m: int
    perm: tuple
    key1: KeyI
    offset: float = 0.0
    d_star: int | None = None

    def __post_init__(self):
        n, m = _integral(self.n, "n", least=1), _integral(self.m, "m", least=0)
        perm = _checked_permutation(self.perm, n + m)
        if not isinstance(self.key1, KeyI) or self.key1.n != n + m:
            raise ValueError("inner scheme I key must cover all n+m variables")
        if self.d_star is not None:
            object.__setattr__(self, "d_star", _integral(self.d_star, "d_star", least=0))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "offset", _real(self.offset, "offset"))


def build_roulette(coeffs: Sequence[float], bins: int = 10, mode: str = "inverse") -> RouletteWheel:
    """Histogram the coefficient magnitudes into equal-width bins.

    ``preserve`` weights each bin by its normalized frequency, so decoy
    draws mimic the existing magnitude profile; ``inverse`` weights
    nonempty bins by the reciprocal frequency, steering draws toward
    rare magnitudes so the combined (existing + decoy) distribution
    flattens.  Empty bins get zero weight in both modes.
    """
    coeffs = np.asarray(list(coeffs), dtype=np.float64)
    if coeffs.size == 0:
        raise ValueError(
            "cannot build a roulette wheel from an empty coefficient set: decoy weights "
            "are drawn from the problem's coefficients, so it needs a nonzero coefficient"
        )
    bins = _check_roulette(bins, mode)
    mags = np.abs(coeffs)
    lo, hi = float(mags.min()), float(mags.max())
    if hi - lo <= 1e-9 * hi:
        # magnitudes equal up to roundoff: widen in proportion to them so
        # bins have positive width and decoys keep the problem's scale
        lo, hi = (0.5 * hi, 1.5 * hi) if hi > 0.0 else (-0.5, 0.5)
    counts, edges = np.histogram(mags, bins=bins, range=(lo, hi))
    p = counts / counts.sum()
    if mode == "inverse":
        weights = np.divide(1.0, p, out=np.zeros_like(p), where=p > 0.0)
    else:  # "preserve"
        weights = p
    return RouletteWheel(tuple(edges), tuple(weights), mode)


def sample_weight(wheel: RouletteWheel, rng=None) -> float:
    """Draw one strictly positive coupling weight from the wheel.

    Picks a bin with probability proportional to its sector weight and
    samples uniformly within it; draws at or below zero (possible only
    when the lowest edge is not positive) are clamped to half the bin
    width.  The draw takes the same two doubles, with the same results,
    as ``rng.choice(len(weights), p=weights / weights.sum())`` followed
    by ``rng.uniform(lo, hi)``, without rebuilding the CDF each time.
    """
    rng = as_rng(rng)
    k = bisect_right(wheel.cdf, rng.random())
    lo, hi = wheel.bin_edges[k], wheel.bin_edges[k + 1]
    w = lo + (hi - lo) * rng.random()
    if w <= 0.0:
        w = 0.5 * (hi - lo)
    return w


def embed_decoys(
    q: QuboModel,
    m: int,
    wheel: RouletteWheel,
    rng=None,
    kmax_out: int = 1,
    kmax_in: int = 1,
):
    """Append m decoy variables with wheel-drawn couplings.

    Decoys occupy indices n..n+m-1.  Column j receives k_out ~
    uniform{1..kmax_out} strictly positive links to distinct primary
    rows, and k_in ~ uniform{1..kmax_in} nonnegative decoy-block
    entries in column j (possibly its diagonal; the first column has
    only the diagonal available, so k_in is clamped to the cell count).
    The original coefficient block is left untouched.

    Returns the augmented model and the placement record.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if kmax_out < 1 or kmax_in < 1:
        raise ValueError("kmax_out and kmax_in must be at least 1")
    if kmax_out > q.n:
        raise ValueError(
            f"kmax_out={kmax_out} could require more distinct primary rows than n={q.n}"
        )
    rng = as_rng(rng)
    n = q.n
    B = {}
    C = {}
    for j in range(m):
        k_out = int(rng.integers(1, kmax_out + 1))
        rows = sorted(int(r) for r in rng.choice(n, size=k_out, replace=False))
        for r in rows:
            B[(r, j)] = sample_weight(wheel, rng)
        cells = j + 1  # decoy-block column j has entries (0..j, j)
        k_in = min(int(rng.integers(1, kmax_in + 1)), cells)
        picked = sorted(int(c) for c in rng.choice(cells, size=k_in, replace=False))
        for i2 in picked:
            C[(i2, j)] = sample_weight(wheel, rng)
    placement = DecoyPlacement(B, C)
    return _augment(q, m, placement), placement


def _augment(q: QuboModel, m: int, placement: DecoyPlacement) -> QuboModel:
    """``q`` with m decoys at indices n..n+m-1, coupled as ``placement`` records."""
    n = q.n
    A = dict(q.A)
    for (r, j), w in placement.B_entries.items():
        A[(r, n + j)] = w
    for (i2, j), w in placement.C_entries.items():
        A[(n + i2, n + j)] = w
    return QuboModel(n + m, A, q.offset)


def gen_permutation(size: int, rng=None) -> tuple:
    """Uniformly random permutation of 0..size-1 (Fisher-Yates)."""
    if size < 1:
        raise ValueError("size must be at least 1")
    rng = as_rng(rng)
    return tuple(int(p) for p in rng.permutation(size))


def invert_permutation(perm: Sequence[int]) -> tuple:
    inv = [0] * len(perm)
    for i, p in enumerate(perm):
        inv[p] = i
    return tuple(inv)


def apply_permutation(q: QuboModel, perm: Sequence[int]) -> QuboModel:
    """Relabel variables: entry (i, j) moves to (perm[i], perm[j]).

    Energies are preserved under the matching vector relabeling
    x_new[perm[i]] = x_old[i], so the full spectrum is unchanged as a
    multiset.
    """
    perm = _checked_permutation(perm, q.n)
    A = {}
    for (i, j), v in q.A.items():
        a, b = perm[i], perm[j]
        A[(min(a, b), max(a, b))] = v
    return QuboModel(q.n, A, q.offset)


def permute_bits(bits: str, perm: Sequence[int]) -> str:
    """Undo a variable permutation on a measured bitstring.

    Position i of the result is the bit the disclosed problem holds at
    position perm[i], so a prefix of perm undoes that prefix only.
    """
    return "".join([bits[p] for p in perm])


def _seal(model: IsingModel, aug: QuboModel, rng, d_star: int | None = None):
    """Shared tail of schemes II and III: permute, convert, cipher, build the key."""
    perm = gen_permutation(aug.n, rng)
    disclosed = apply_permutation(aug, perm)
    ising = qubo_to_ising(disclosed)
    key1 = gen_key1(aug.n, rng)
    key = KeyII(n=model.n, m=aug.n - model.n, perm=perm, key1=key1, offset=model.offset,
                d_star=d_star)
    return encrypt1(ising, key1), key


def encrypt2(
    model: IsingModel,
    m: int,
    rng=None,
    kmax_out: int = 1,
    kmax_in: int = 1,
    bins: int = 10,
    mode: str = "inverse",
):
    """Full scheme-II encryption of an Ising problem.

    Pipeline: Ising -> QUBO, roulette wheel over the QUBO coefficient
    values, decoy embedding, variable permutation, QUBO -> Ising, then
    the scheme-I cipher over all n+m qubits.  The returned model's
    offset is zero; the key records the permutation, decoy count, inner
    scheme-I key and the original offset.
    """
    rng = as_rng(rng)
    q = ising_to_qubo(model)
    wheel = build_roulette(list(q.A.values()), bins=bins, mode=mode)
    aug, _ = embed_decoys(q, m, wheel, rng, kmax_out=kmax_out, kmax_in=kmax_in)
    return _seal(model, aug, rng)


def decrypt2(dist: OutcomeDistribution, key: KeyII) -> OutcomeDistribution:
    """Reverse the scheme-II (and scheme-III) layers on a measured distribution.

    Undoes the scheme-I bit flips, un-permutes bit positions, truncates
    to the first n (primary) bits and merges the weights of outcomes
    that collide there.  Total weight is preserved.
    """
    unflipped = decrypt1(dist, key.key1)  # checks dist.n against n+m
    primary_perm = key.perm[: key.n]
    merged = {}
    for bits, w in unflipped.weights.items():
        primary = permute_bits(bits, primary_perm)
        merged[primary] = merged.get(primary, 0.0) + w
    return OutcomeDistribution(key.n, merged)


def attack_complexity2(n: int, m: int) -> float:
    """log2 of (n+m) * (n+m)! * 2^(n+m), via exact integer arithmetic.

    m = 0 is accepted so already-regular scheme-III problems (which
    need no decoys but are still permuted and ciphered) can be scored.
    """
    if n < 1 or m < 0:
        raise ValueError("n must be at least 1 and m nonnegative")
    size = n + m
    return math.log2(size * math.factorial(size) * (1 << size))


def key2_to_dict(key: KeyII) -> dict:
    """Key record: scheme III's is scheme II's plus a trailing ``"d_star"``."""
    record = {
        "scheme": "II" if key.d_star is None else "III",
        "n": key.n,
        "m": key.m,
        "perm": list(key.perm),
        "key1": key1_to_dict(key.key1),
        "offset": key.offset,
    }
    if key.d_star is not None:
        record["d_star"] = key.d_star
    return record


def key2_from_dict(data: Mapping) -> KeyII:
    """Parse a scheme II or scheme III key record."""
    scheme = key_scheme(data)
    if scheme not in ("II", "III"):
        raise ValueError(f"expected a scheme II or III key, got {scheme!r}")
    try:
        d_star = data["d_star"] if scheme == "III" else None
        if scheme == "III" and d_star is None:
            raise ValueError("d_star of a scheme III key must be an integer, got None")
        key = KeyII(data["n"], data["m"], data["perm"], key1_from_dict(data["key1"]),
                    data["offset"], d_star)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed scheme {scheme} key: {exc}") from exc
    fields = ("scheme", "n", "m", "perm", "key1", "offset") + ("d_star",) * (scheme == "III")
    _known_fields(data, fields, f"scheme {scheme} key")
    return key
