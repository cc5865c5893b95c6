"""Problem representations and exact transformations between them.

Two equivalent quadratic forms are supported:

* :class:`IsingModel` over spin variables z_i in {-1, +1} with linear
  coefficients h, sparse pair couplings J and a constant offset,
* :class:`QuboModel` over binary variables x_i in {0, 1} with a sparse
  upper-triangular coefficient map A (diagonal entries are the linear
  terms) and a constant offset.

The conversion between them uses the affine map z = 2x - 1:

    A_ii      = 2 h_i - 2 * sum_{j != i} J_ij
    A_ij      = 4 J_ij                       (i < j)
    offset_x  = offset_z - sum_i h_i + sum_{i<j} J_ij

which makes the two energy functions agree pointwise under x = (z+1)/2.

Both models describe their energy the same way: ``terms()`` lists the
coefficients ``(i, j, v)`` in the one summation order (linear terms by
ascending index as ``i == j``, then pair terms by ascending pair), and
the class constant ``levels`` holds the value a variable takes at bit 0
and at bit 1.  A term adds ``v * s_i`` (``i == j``) or ``v * s_i * s_j``,
where ``s_i = levels[bit i]``; the offset comes last.  The evaluators
(on one configuration or a stack of them), the oracle's energy table and
the graph view all read this one description, so their results agree bit
for bit.
"""

from __future__ import annotations

import contextlib
import json
import math
import numbers
import operator
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

import numpy as np

from .util import validate_bitstring


def _integral(value, what: str, least: int | None = None) -> int:
    """``value`` as an int, at least ``least`` when given.

    Integral floats pass; strings, booleans and other values are rejected.
    """
    number = None
    if isinstance(value, float) and value.is_integer():
        number = int(value)
    elif not isinstance(value, bool):
        with contextlib.suppress(TypeError):
            number = operator.index(value)
    if number is None:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if least is not None and number < least:
        bound = "nonnegative" if least == 0 else f"at least {least}"
        raise ValueError(f"{what} must be {bound}, got {value!r}")
    return number


def _real(value, what: str) -> float:
    """``value`` as a finite float; strings, booleans and non-finite values are rejected."""
    if type(value) is float:  # the common case, kept cheap
        real = value
    elif isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            real = float(value)
        except OverflowError:
            real = math.inf
    else:
        real = math.nan
    if math.isfinite(real):
        return real
    raise ValueError(f"{what} must be a finite real number, got {value!r}")


def _checked_pairs(pairs: Mapping, n: int, diagonal: bool) -> dict:
    """``pairs`` by ascending key, with int keys and float values.

    Keys must satisfy 0 <= i < j < n, or 0 <= i <= j < n with
    ``diagonal``; values must be finite and nonzero (absent means zero).
    """
    name, rel = ("key", "<=") if diagonal else ("pair", "<")
    checked = {}
    for key, v in pairs.items():
        i, j = key
        if type(i) is not int or type(j) is not int:
            i, j = _integral(i, f"{name} index"), _integral(j, f"{name} index")
        if not 0 <= i <= j < n or (i == j and not diagonal):
            raise ValueError(f"{name} {key} is not 0 <= i {rel} j < n")
        if type(v) is not float or not math.isfinite(v):
            v = _real(v, f"{name} {key} value")
        if v == 0.0:
            raise ValueError(f"{name} {key} stores an exact zero (omit it instead)")
        checked[i, j] = v
    return {key: checked[key] for key in sorted(checked)}


@dataclass(frozen=True)
class IsingModel:
    """Quadratic spin model  f(z) = sum_i h_i z_i + sum_{i<j} J_ij z_i z_j + offset.

    Parameters
    ----------
    n : int
        Number of spin variables.
    h : sequence of float
        Dense linear coefficients, length n.
    J : mapping (i, j) -> float
        Pair couplings with 0 <= i < j < n.  Zero couplings must be
        absent rather than stored.
    offset : float
        Constant energy shift.  Kept client-side by the obfuscation
        schemes; never disclosed to a solver.
    """

    n: int
    h: tuple
    J: dict
    offset: float = 0.0

    levels = (-1.0, 1.0)  # spin at bit 0 and bit 1

    def __post_init__(self):
        n = _integral(self.n, "n", least=1)
        h = tuple(_real(v, "h entry") for v in self.h)
        if len(h) != n:
            raise ValueError(f"h has length {len(h)}, expected n={n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "J", _checked_pairs(self.J, n, diagonal=False))
        object.__setattr__(self, "offset", _real(self.offset, "offset"))

    def terms(self) -> list:
        """``(i, j, v)`` in summation order: nonzero h as ``i == j``, then J by pair."""
        linear = [(i, i, v) for i, v in enumerate(self.h) if v != 0.0]
        return linear + [(i, j, v) for (i, j), v in self.J.items()]


@dataclass(frozen=True)
class QuboModel:
    """Quadratic binary model  g(x) = sum_i A_ii x_i + sum_{i<j} A_ij x_i x_j + offset.

    Only upper-triangular-or-diagonal keys (i <= j) may be stored;
    absent entries are zero.
    """

    n: int
    A: dict
    offset: float = 0.0

    levels = (0.0, 1.0)  # binary value at bit 0 and bit 1

    def __post_init__(self):
        n = _integral(self.n, "n", least=1)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "A", _checked_pairs(self.A, n, diagonal=True))
        object.__setattr__(self, "offset", _real(self.offset, "offset"))

    def diagonal_items(self):
        return [(k, v) for k, v in self.A.items() if k[0] == k[1]]

    def offdiagonal_items(self):
        return [(k, v) for k, v in self.A.items() if k[0] != k[1]]

    def terms(self) -> list:
        """``(i, j, v)`` in summation order: diagonal entries, then off-diagonal ones by pair."""
        diagonal = [(i, j, v) for (i, j), v in self.A.items() if i == j]
        return diagonal + [(i, j, v) for (i, j), v in self.A.items() if i != j]


@dataclass(frozen=True)
class ProblemGraph:
    """Graph view of a model: nodes are variables, edges the quadratic support."""

    n: int
    edges: tuple
    degrees: tuple


@dataclass(frozen=True)
class OutcomeDistribution:
    """Map from measured bitstrings to nonnegative weights.

    All bitstrings must share length ``n``.  A distribution is
    considered normalized when its total weight is within 1e-9 of 1.
    """

    n: int
    weights: dict

    def __post_init__(self):
        n = _integral(self.n, "n", least=1)
        weights = {}
        for bits, w in self.weights.items():
            validate_bitstring(bits, n)
            if type(w) is not float:  # the common case is kept cheap: this runs per outcome
                w = _real(w, f"weight of {bits!r}")
            if not 0.0 <= w < math.inf:
                raise ValueError(f"weight of {bits!r} must be finite and nonnegative")
            weights[bits] = w
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "weights", {bits: weights[bits] for bits in sorted(weights)})

    @property
    def total(self) -> float:
        return float(sum(self.weights.values()))

    @property
    def is_normalized(self) -> bool:
        return abs(self.total - 1.0) <= 1e-9

    def normalized(self) -> "OutcomeDistribution":
        t = self.total
        if t <= 0.0:
            raise ValueError("cannot normalize a distribution with zero total weight")
        return OutcomeDistribution(self.n, {b: w / t for b, w in self.weights.items()})

    @property
    def support(self) -> frozenset:
        return frozenset(b for b, w in self.weights.items() if w > 0.0)


Model = Union[IsingModel, QuboModel]


def _energy(model: Model, values: Sequence) -> float | np.ndarray:
    """Sum of ``model.terms()`` in order at the variable ``values``, then the offset.

    ``values`` holds one configuration of ``model.n`` entries, or a stack
    of them along the last axis; every entry must be one of
    ``model.levels``.  One configuration gives a float.  A stack gives
    an array of the stack's shape, computed by the same loop on column
    vectors, so each entry is bit-identical to the call on its row.
    """
    values = np.asarray(values)
    if values.ndim == 0 or values.shape[-1] != model.n:
        raise ValueError(f"configuration length {values.shape} does not match n={model.n}")
    low, high = model.levels
    if not ((values == low) | (values == high)).all():
        kind = "spin" if isinstance(model, IsingModel) else "binary"
        raise ValueError(f"{kind} values must be {low:g} or {high:g}")
    if values.ndim == 1:
        s, e = values.astype(np.float64).tolist(), 0.0
    else:  # s[i] is the contiguous column of variable i
        s = np.moveaxis(values, -1, 0).astype(np.float64, order="C")
        e = np.zeros(values.shape[:-1])
    for i, j, v in model.terms():
        e += v * s[i] if i == j else v * s[i] * s[j]
    return e + model.offset


def eval_ising(model: IsingModel, z: Sequence[int]) -> float | np.ndarray:
    """Energy of a spin configuration, or of a stack of them, summed in ``terms()`` order."""
    return _energy(model, z)


def eval_qubo(model: QuboModel, x: Sequence[int]) -> float | np.ndarray:
    """Energy of a binary configuration, or of a stack of them, summed in ``terms()`` order."""
    return _energy(model, x)


def _coupling_row_sums(model: IsingModel) -> np.ndarray:
    # per-endpoint accumulation in ascending pair order; qubo_to_ising
    # accumulates in the same order so the round trip cancels exactly
    sums = np.zeros(model.n)
    for (i, j), v in model.J.items():
        sums[i] += v
        sums[j] += v
    return sums


def ising_to_qubo(model: IsingModel) -> QuboModel:
    """Equivalent binary model under z = 2x - 1.

    For every z and x = (z + 1) / 2 the two energies agree.
    """
    row = _coupling_row_sums(model)
    A = {}
    for i in range(model.n):
        v = 2.0 * model.h[i] - 2.0 * row[i]
        if v != 0.0:
            A[(i, i)] = v
    for (i, j), v in model.J.items():
        A[(i, j)] = 4.0 * v
    offset = model.offset - sum(model.h) + sum(model.J.values())
    return QuboModel(model.n, A, offset)


def qubo_to_ising(model: QuboModel) -> IsingModel:
    """Exact inverse of :func:`ising_to_qubo`."""
    J = {}
    acc = np.zeros(model.n)
    for (i, j), v in model.offdiagonal_items():
        J[(i, j)] = v / 4.0
        acc[i] += v / 4.0
        acc[j] += v / 4.0
    diag = dict(model.diagonal_items())
    h = []
    for i in range(model.n):
        h.append(diag.get((i, i), 0.0) / 2.0 + acc[i])
    offset = model.offset + sum(h) - sum(J.values())
    return IsingModel(model.n, tuple(h), J, offset)


def problem_graph(model: Model) -> ProblemGraph:
    """Graph whose edge set is the support of the quadratic terms."""
    pairs = tuple((i, j) for i, j, _ in model.terms() if i != j)
    degrees = [0] * model.n
    for i, j in pairs:
        degrees[i] += 1
        degrees[j] += 1
    return ProblemGraph(model.n, pairs, tuple(degrees))


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------
# IsingModel: {"n": int, "h": [float], "J": [[i, j, v]], "offset": float}
# QuboModel:  {"n": int, "A": [[i, j, v]], "offset": float}
# OutcomeDistribution: {"n": int, "counts": {bitstring: weight}}
# Pair lists are sorted lexicographically; field order is fixed.  The records
# check their own fields, so the parsers only map JSON fields onto them and
# reject a field that they do not read.


def ising_to_dict(model: IsingModel) -> dict:
    return {
        "n": model.n,
        "h": list(model.h),
        "J": [[i, j, v] for (i, j), v in model.J.items()],
        "offset": model.offset,
    }


def _pair_map(entries, what: str) -> dict:
    """``[[i, j, v], ...]`` as ``{(i, j): v}``, rejecting repeated pairs."""
    pairs = {}
    for i, j, v in entries:
        if (i, j) in pairs:
            raise ValueError(f"{what} lists pair {(i, j)} more than once")
        pairs[i, j] = v
    return pairs


def _known_fields(data: Mapping, fields: tuple, record: str) -> None:
    """Reject a field of ``data`` outside ``fields``.

    Parsers call it once ``data`` has parsed, so a record that is not a
    JSON object keeps its own error.
    """
    for name in data:
        if name not in fields:
            raise ValueError(f"malformed {record}: unknown field {name!r}")


def ising_from_dict(data: Mapping) -> IsingModel:
    try:
        model = IsingModel(data["n"], data["h"], _pair_map(data["J"], "J"), data["offset"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed Ising model record: {exc}") from exc
    _known_fields(data, ("n", "h", "J", "offset"), "Ising model record")
    return model


def qubo_to_dict(model: QuboModel) -> dict:
    return {
        "n": model.n,
        "A": [[i, j, v] for (i, j), v in model.A.items()],
        "offset": model.offset,
    }


def qubo_from_dict(data: Mapping) -> QuboModel:
    try:
        model = QuboModel(data["n"], _pair_map(data["A"], "A"), data["offset"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed QUBO model record: {exc}") from exc
    _known_fields(data, ("n", "A", "offset"), "QUBO model record")
    return model


def distribution_to_dict(dist: OutcomeDistribution) -> dict:
    return {"n": dist.n, "counts": dict(dist.weights)}


def distribution_from_dict(data: Mapping) -> OutcomeDistribution:
    try:
        dist = OutcomeDistribution(data["n"], data["counts"])
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed distribution record: {exc}") from exc
    _known_fields(data, ("n", "counts"), "distribution record")
    return dist


def _finite_floats(values) -> bool:
    """Whether every value is a finite ``float``, which json writes as ``repr``."""
    return set(map(type, values)) <= {float} and math.isfinite(sum(values))


def _json_array(items: list, indent: str) -> str:
    """JSON texts ``items`` as an array indented like ``json.dumps(..., indent=2)``."""
    if not items:
        return "[]"
    inner = indent + "  "
    return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"


def _dumps_distribution(n, counts) -> str | None:
    """A ``distribution_to_dict`` record's text, or None unless its values are plain."""
    if not (type(n) is int and type(counts) is dict and set(map(type, counts)) <= {str}
            and _finite_floats(counts.values())):
        return None
    keys = "".join(counts)  # bitstring keys need no escaping
    if not keys.isascii() or keys.encode().translate(None, b"01"):
        return None
    if not counts:
        return f'{{\n  "n": {n},\n  "counts": {{}}\n}}\n'
    lines = [f'    "{bits}": {w!r}' for bits, w in counts.items()]
    lines[0] = f'{{\n  "n": {n},\n  "counts": {{\n' + lines[0]
    lines[-1] += "\n  }\n}\n"
    return ",\n".join(lines)  # one copy of the text, not two


def _dumps_ising(n, h, J, offset) -> str | None:
    """An ``ising_to_dict`` record's text, or None unless its values are plain."""
    if not (type(n) is int and type(h) is list and type(J) is list
            and set(map(type, J)) <= {list} and set(map(len, J)) <= {3}):
        return None
    i, j, v = zip(*J) if J else ((), (), ())
    if not (set(map(type, i + j)) <= {int} and _finite_floats([*h, *v, offset])):
        return None
    pairs = [f"[\n      {a},\n      {b},\n      {w!r}\n    ]" for a, b, w in J]
    return (f'{{\n  "n": {n},\n  "h": {_json_array(list(map(repr, h)), "  ")},\n'
            f'  "J": {_json_array(pairs, "  ")},\n  "offset": {offset!r}\n}}\n')


# the bulk layouts that dumps formats itself, by their field names
_DIRECT = {("n", "counts"): _dumps_distribution, ("n", "h", "J", "offset"): _dumps_ising}


def dumps(payload: dict) -> str:
    """Canonical JSON encoding: fixed field order, two-space indent.

    The text is always ``json.dumps(payload, indent=2)`` plus a newline.
    The two bulk layouts, distribution and Ising records, are formatted
    here directly when their values have the plain types that
    ``*_to_dict`` gives them, since json's indented encoder is pure
    Python; every other payload goes to json.
    """
    write = _DIRECT.get(tuple(payload)) if type(payload) is dict else None
    text = write(*payload.values()) if write else None
    return text if text is not None else json.dumps(payload, indent=2) + "\n"
