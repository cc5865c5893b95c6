"""Shared helpers: RNG coercion and the bitstring convention.

Bitstring convention used throughout the package: character ``i`` of a
bitstring is variable ``i``, and under the affine map z = 2x - 1 the
character ``'0'`` corresponds to spin -1 and ``'1'`` to spin +1.
Enumeration index ``k`` maps to the bitstring whose character ``i`` is
bit ``i`` of ``k``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np


def as_rng(rng: np.random.Generator | int | None = None) -> np.random.Generator:
    """Coerce a seed or Generator into a numpy Generator."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def indices_to_bitstrings(indices: Sequence[int], n: int) -> list:
    """Bitstrings for enumeration indices (character i = bit i), in one numpy pass.

    Indices must fit in int64.
    """
    k = np.asarray(indices, dtype=np.int64).reshape(-1, 1)
    return chars_to_bitstrings(((k >> np.arange(n)) & 1).astype(np.uint8) + ord("0"))


def chars_to_bitstrings(chars: np.ndarray) -> list:
    """The rows of an (N, n) uint8 matrix of ASCII ``'0'``/``'1'`` as bitstrings."""
    n = chars.shape[1]
    text = chars.tobytes().decode("ascii")
    return [text[start : start + n] for start in range(0, len(text), n)]


def index_to_bitstring(index: int, n: int) -> str:
    """Bitstring for enumeration index ``index`` (character i = bit i)."""
    return indices_to_bitstrings([index], n)[0]


def bitstrings_to_array(bits: Sequence[str], n: int) -> np.ndarray:
    """Bitstrings of length ``n`` to an (N, n) 0/1 uint8 matrix (row r = ``bits[r]``)."""
    text = "".join(bits).encode("ascii")
    return (np.frombuffer(text, dtype=np.uint8) - ord("0")).reshape(len(bits), n)


def bitstring_to_array(bits: str) -> np.ndarray:
    """Bitstring to a 0/1 integer array (entry i = variable i)."""
    return bitstrings_to_array([bits], len(bits))[0]


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
