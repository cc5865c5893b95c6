"""Shared helpers: RNG coercion and the bitstring convention.

Bitstring convention used throughout the package: character ``i`` of a
bitstring is variable ``i``, and under the affine map z = 2x - 1 the
character ``'0'`` corresponds to spin -1 and ``'1'`` to spin +1.
Enumeration index ``k`` maps to the bitstring whose character ``i`` is
bit ``i`` of ``k``.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

def as_rng(rng: np.random.Generator | int | None = None) -> np.random.Generator:
    """Coerce a seed or Generator into a numpy Generator."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def index_to_bitstring(index: int, n: int) -> str:
    """Bitstring for enumeration index ``index`` (character i = bit i)."""
    return "".join("1" if (index >> i) & 1 else "0" for i in range(n))


def bitstring_to_array(bits: str) -> np.ndarray:
    """Bitstring to a 0/1 integer array (entry i = variable i)."""
    return np.frombuffer(bits.encode("ascii"), dtype=np.uint8) - ord("0")


def flip_positions(bits: str, positions: Iterable[int]) -> str:
    """Toggle the characters of ``bits`` at the given positions."""
    chars = list(bits)
    for p in positions:
        chars[p] = "1" if chars[p] == "0" else "0"
    return "".join(chars)


def validate_bitstring(bits: str, n: int) -> None:
    if not isinstance(bits, str):
        raise ValueError(f"bitstring {bits!r} is not a string")
    if len(bits) != n:
        raise ValueError(f"bitstring length {len(bits)} does not match n={n}")
    if bits.strip("01"):
        raise ValueError(f"bitstring {bits!r} contains characters outside 0/1")
