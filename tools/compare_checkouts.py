"""Check that two checkouts of isingcloak produce byte-identical outputs.

Usage, from anywhere:

    python3 tools/compare_checkouts.py OLD_CHECKOUT NEW_CHECKOUT [--seed 1]

Each checkout runs in its own interpreter, importing the package from
its ``src/``.  Both runs use the same work directory, because the
manifests record input paths.  A run is a JSON object of sections:

* ``pipelines``: the first pipelines of each benchmark workload
  (instance mixes from ``perfbench/workloads.py`` of the checkout,
  driven through ``cli.main``), keyed by name, hashing every written
  file and manifest and keeping the stdout of ``verify`` and ``stats``;

then one list of items per entry of ``SECTIONS``, in its order:

* ``tables``: ``energy_table`` on seeded random Ising and QUBO models
  (n <= 12, plus 200 more with 11 <= n <= 18 so that both sides of the
  2^10-entry tile width and the 2^16-entry block width are covered, and
  12 more with 19 <= n <= 22, tables of 8 to 64 blocks; coefficient
  scales 1e-12 to 1e12, offsets up to 1e10), hashing each table's
  bytes;
* ``encrypts``: ``encrypt2``/``encrypt3`` called directly on seeded
  random Ising models, with the settings the command-line mixes never
  use (``kmax_out``/``kmax_in`` > 1, ``preserve`` roulette, a
  ``d_star`` override, ``m = 0``), hashing each key record and
  encrypted model, or keeping the ``ValueError`` message of a rejected
  call;
* ``evaluations``: ``eval_ising``/``eval_qubo`` on sampled
  configurations of seeded random models (n <= 40), hashing the
  energies, and each model's ``problem_graph``;
* ``parses``: the five JSON parsers (``ising_from_dict``,
  ``qubo_from_dict``, ``distribution_from_dict``, ``key1_from_dict``,
  ``key2_from_dict``) on seeded valid records with one field replaced
  by each value of ``BAD_VALUES`` (a field is a record field, one entry
  of a list or of the counts, or a field of a nested key);
* ``decodes``: ``decrypt1``/``decrypt2`` on seeded keys of all three
  schemes (``n + m`` up to 220) and distributions of up to 2000
  outcomes drawn around a few patterns with random decoy bits, so that
  many outcomes collide once decoded, hashing each decoded
  ``distribution_to_dict``;
* ``records``: the strict records and functions (``RouletteWheel``,
  ``DecoyPlacement``, ``QaoaParams``, ``apply_permutation``,
  ``minimal_decoy_count``, ``regular_edge_set``) on seeded valid
  inputs, and on each input with one of its real fields, permutation
  entries or degrees (or the roulette mode) replaced by each value of
  ``BAD_VALUES``; ``d_star`` and ``m`` are not replaced, since
  ``minimal_decoy_count`` searches up to ``d_star`` and
  ``regular_edge_set`` allocates ``m`` entries, so 10**400 would run
  without end or overflow;
* ``metrics``: ``ar`` and ``rar`` (k = 1, 5 and the support size) on
  seeded random Ising and QUBO models with n <= 16, every other one
  with its coefficients replaced by +-1 times one scale so that many
  energies tie, under distributions whose weights are counts of 0 to 3,
  so that many weights tie, hashing each model's results; and
  ``sample`` on seeded random states with 1 <= n <= 16, hashing each
  ``distribution_to_dict``;
* ``placements``: ``regular_edge_set`` on the degree sequences of
  seeded random graphs (n <= 30) with ``d_star`` from the maximum
  degree to 10 above it and ``m`` from ``minimal_decoy_count`` to 3
  above it, hashing the ``repr`` of each plan;
* ``qaoa``: ``optimize`` (p = 1 to 3, with evaluation budgets that
  stop it after its first probe, after a grid scan, after a golden
  refine and at 200) and ``simulate`` at the parameters found, on
  seeded random models with n <= 13 (QUBOs converted to Ising),
  hashing each run's parameters and trace as ``float.hex`` and the
  state's bytes.

Each section draws from its own seeds.  Where a call may be rejected,
the type of the exception it raises stands in for its result.  An
accepted parse, record input or plan is ``"accepted "`` and a hash of
the result (for a parse, of its canonical ``*_to_dict`` form), and an
``ar``/``rar`` value is kept as its ``float.hex``.

Written files are hashed with the work directory, which manifests
record in their input paths, replaced by a fixed placeholder, so two
invocations on the same pair of checkouts print the same lines.

The script prints one line per differing item (tables are only
counted) and a JSON summary, and exits nonzero if anything differs, if
a pipeline fails its output check, or if a pipeline leaves a ``*.tmp``
file in the work directory.  If a section's producer raises in either
checkout, it prints one line naming the checkout, the section and the
exception instead, and exits 1.  An item may change only where its
``SECTIONS`` entry allows it: a parsed record may move from another
exception to ``ValueError``, the one error the parsers report, and a
record input may move to ``ValueError`` from anything, but may raise
nothing else at the new checkout.  Adding a section takes a producer
and one ``SECTIONS`` entry.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import hashlib
import io
import itertools
import json
import math
import shutil
import subprocess
import sys
import tempfile
from operator import methodcaller
from pathlib import Path

import numpy as np

PIPELINES = {"exact-verify": 30, "qaoa-decode": 12, "client-large": 6}
WIDE_MODELS = 200  # tables with 11 <= n <= 18, after the --models ones
WIDER_MODELS = 12  # tables with 19 <= n <= 22 (8 to 64 blocks), after those
ENCRYPTS = 400  # library-level encryptions
EVALUATED_MODELS = 300  # models whose scalar energies and graph are hashed
CONFIGS = 16  # sampled configurations per evaluated model
FILES = ("problem", "encrypted", "key", "dist", "decoded")
PARSED_RECORDS = 20  # valid records per parser in the rejection section
BAD_VALUES = ("1", True, None, 2.5, 2.0, -1, 0, math.nan, math.inf, 10**400, [])
DECODES = 60  # keys whose decoding is hashed, one scheme in turn
MAX_OUTCOMES = 2000  # outcomes per decoded distribution, at most
RECORD_MODELS = 40  # models the strict-record inputs are drawn from
METRIC_MODELS = 120  # models whose ar/rar results are hashed
MAX_METRIC_OUTCOMES = 3000  # outcomes per ranked distribution, at most
SAMPLED_STATES = 48  # states whose sample is hashed
PLACEMENTS = 300  # decoy-edge plans hashed
QAOA_MODELS = 120  # models whose optimize and simulate outputs are hashed
QAOA_BUDGETS = (1, 11, 27, 200)  # max_iters: 1 start, + 1 grid scan, + 1 golden refine
WORKDIR = b"<workdir>"  # stands in for the work directory in hashed files


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _accepted_repr(result) -> str:
    return "accepted " + _digest(repr(result).encode())


def _outcome(call, *args, show=_accepted_repr, **kwargs) -> str:
    """``show(call(*args, **kwargs))``, or the type of the exception either raised."""
    try:
        return show(call(*args, **kwargs))
    except Exception as exc:  # the exception type is the outcome
        return type(exc).__name__


def _replaced(record, paths):
    """Copies of ``record`` with the field at each path replaced by each of ``BAD_VALUES``."""
    for path in paths:
        for value in BAD_VALUES:
            changed = copy.deepcopy(record)
            target = changed
            for step in path[:-1]:
                target = target[step]
            target[path[-1]] = value
            yield changed


def _pipeline_outputs(workloads, cli, workdir: Path, seed: int) -> dict:
    class Recording(workloads.Pipeline):
        def __init__(self, *args):
            super().__init__(*args)
            self.stdout = {}

        def _command(self, argv, reads=(), writes=()):
            stdout, seconds = super()._command(argv, reads, writes)
            if stdout:
                self.stdout[argv[0]] = stdout
            return stdout, seconds

    here = str(workdir).encode()  # manifests record input paths under it
    out = {}
    for name, count in PIPELINES.items():
        for i in range(count):
            if workdir.exists():
                shutil.rmtree(workdir)
            workdir.mkdir()
            pipeline = Recording(cli, str(workdir))
            result = pipeline.run(workloads.instance(name, seed, i))
            record = {"ok": result.ok, "stdout": pipeline.stdout,
                      "tmp": sorted(p.name for p in workdir.glob("*.tmp"))}
            for f in FILES:
                path = Path(pipeline.path[f])
                for p in (path, Path(str(path) + ".manifest.json")):
                    data = p.read_bytes().replace(here, WORKDIR) if p.exists() else None
                    record[p.name] = None if data is None else _digest(data)
            out[f"{name}[{i}]"] = record
    return out


def _random_models(count: int, seed, min_n: int = 1, max_n: int = 12):
    from isingcloak import IsingModel, QuboModel

    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(min_n, max_n + 1))
        scale = 10.0 ** rng.integers(-12, 13)
        offset = float(rng.uniform(-1e10, 1e10)) if rng.random() < 0.5 else 0.0
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
        values = rng.uniform(-1.0, 1.0, len(pairs) + n) * scale
        values[values == 0.0] = scale
        couplings = dict(zip(pairs, values[: len(pairs)].tolist()))
        linear = values[len(pairs):] * (rng.random(n) < 0.7)
        if rng.random() < 0.5:
            yield IsingModel(n, tuple(linear.tolist()), couplings, offset)
        else:
            diagonal = {(i, i): float(v) for i, v in enumerate(linear) if v != 0.0}
            yield QuboModel(n, {**diagonal, **couplings}, offset)


def _table_outputs(seed: int, models: int) -> list:
    from isingcloak import energy_table

    small = _random_models(models, seed)
    wide = _random_models(WIDE_MODELS, [seed, 1], min_n=11, max_n=18)
    wider = _random_models(WIDER_MODELS, [seed, 18], min_n=19, max_n=22)
    return [_digest(energy_table(m).tobytes()) for m in itertools.chain(small, wide, wider)]


def _encrypt_outputs(seed: int, models: int) -> list:
    from isingcloak import IsingModel, encrypt2, encrypt3, ising_to_dict, problem_graph, qubo_to_ising
    from isingcloak.core import dumps
    from isingcloak.scheme2 import key2_to_dict

    out = []
    for i, model in enumerate(_random_models(ENCRYPTS, [seed, 2], max_n=10)):
        if not isinstance(model, IsingModel):
            model = qubo_to_ising(model)
        rng = np.random.default_rng([seed, 3, i])
        mode = ("inverse", "preserve")[i % 2]
        bins = int(rng.integers(1, 13))
        try:
            if i % 3:
                m = int(rng.integers(0, 4))
                kmax_out = int(rng.integers(1, min(3, model.n) + 1))
                kmax_in = int(rng.integers(1, 4))
                enc, key = encrypt2(model, m, rng, kmax_out=kmax_out, kmax_in=kmax_in,
                                    bins=bins, mode=mode)
            else:
                d_star = None
                if rng.random() < 0.5:
                    d_star = max(problem_graph(model).degrees) + int(rng.integers(-1, 3))
                enc, key = encrypt3(model, rng, d_star=d_star, bins=bins, mode=mode)
            out.append({"key": _digest(dumps(key2_to_dict(key)).encode()),
                        "encrypted": _digest(dumps(ising_to_dict(enc)).encode())})
        except ValueError as exc:
            out.append({"error": str(exc)})
    return out


def _evaluation_outputs(seed: int, models: int) -> list:
    from isingcloak import IsingModel, eval_ising, eval_qubo, problem_graph

    out = []
    for i, model in enumerate(_random_models(EVALUATED_MODELS, [seed, 4], max_n=40)):
        bits = np.random.default_rng([seed, 5, i]).integers(0, 2, (CONFIGS, model.n))
        if isinstance(model, IsingModel):
            energies = [eval_ising(model, 2 * x - 1) for x in bits]
        else:
            energies = [eval_qubo(model, x) for x in bits]
        graph = repr(problem_graph(model)).encode()
        out.append({"energies": _digest(np.array(energies).tobytes()), "graph": _digest(graph)})
    return out


def _valid_records(count: int, seed: int):
    """``(parser name, record)`` pairs: ``count`` seeded valid records per parser."""
    from isingcloak import IsingModel, encrypt2, encrypt3, gen_key1, qubo_to_ising
    from isingcloak.core import ising_to_dict, qubo_to_dict
    from isingcloak.scheme1 import key1_to_dict
    from isingcloak.scheme2 import key2_to_dict

    rng = np.random.default_rng([seed, 6])
    for i, model in enumerate(_random_models(2 * count, [seed, 7], max_n=5)):
        if isinstance(model, IsingModel):
            yield "ising", ising_to_dict(model)
        else:
            yield "qubo", qubo_to_dict(model)
            model = qubo_to_ising(model)
        n = model.n
        picked = rng.integers(1 << n, size=4)
        counts = {format(int(k), f"0{n}b"): float(rng.random()) for k in picked}
        yield "distribution", {"n": n, "counts": counts}
        yield "key1", {**key1_to_dict(gen_key1(n, rng)), "offset": model.offset}
        try:
            _, key = encrypt2(model, 1, rng) if i % 2 else encrypt3(model, rng)
        except ValueError:  # an all-zero model has no coefficients to draw decoys from
            continue
        yield "key2", key2_to_dict(key)


def _fields(record, rng, path=()):
    """Paths of the fields to replace: every field of a record, one entry of anything else."""
    if path:
        yield path
    if isinstance(record, dict) and "n" in record:
        for name, value in record.items():
            yield from _fields(value, rng, path + (name,))
    elif isinstance(record, (dict, list)) and record:
        entries = list(record) if isinstance(record, dict) else range(len(record))
        entry = entries[int(rng.integers(len(entries)))]
        yield from _fields(record[entry], rng, path + (entry,))


def _parse_outcomes(seed: int, models: int) -> list:
    from isingcloak import core, scheme1, scheme2

    codecs = {
        "ising": (core.ising_from_dict, core.ising_to_dict),
        "qubo": (core.qubo_from_dict, core.qubo_to_dict),
        "distribution": (core.distribution_from_dict, core.distribution_to_dict),
        "key1": (scheme1.key1_from_dict, scheme1.key1_to_dict),
        "key2": (scheme2.key2_from_dict, scheme2.key2_to_dict),
    }
    rng = np.random.default_rng([seed, 8])
    out = []
    for name, record in _valid_records(PARSED_RECORDS, seed):
        parse, canonical = codecs[name]

        def show(parsed):
            return "accepted " + _digest(core.dumps(canonical(parsed)).encode())

        out += [_outcome(parse, changed, show=show)
                for changed in _replaced(record, _fields(record, rng))]
    return out


def _decode_outputs(seed: int, models: int) -> list:
    from isingcloak import KeyII, OutcomeDistribution, decrypt1, decrypt2, gen_key1, gen_permutation
    from isingcloak.core import distribution_to_dict, dumps

    out = []
    for i in range(DECODES):
        rng = np.random.default_rng([seed, 9, i])
        scheme = ("I", "II", "III")[i % 3]
        n = int(rng.integers(1, 201))
        m = 0 if scheme == "I" else int(rng.integers(0, 21))
        key1 = gen_key1(n + m, rng)
        key = key1
        if scheme != "I":
            d_star = int(rng.integers(0, 8)) if scheme == "III" else None
            key = KeyII(n, m, gen_permutation(n + m, rng), key1, float(rng.normal()), d_star)
        # rows repeat a few patterns with the decoy positions (under
        # scheme I, all but the first three) drawn afresh, so many
        # outcomes share their primary bits
        patterns = rng.integers(0, 2, (int(rng.integers(1, 9)), n + m), dtype=np.uint8)
        rows = patterns[rng.integers(len(patterns), size=int(rng.integers(1, MAX_OUTCOMES + 1)))]
        free = list(key.perm[n:]) if scheme != "I" else list(range(min(3, n), n))
        rows[:, free] = rng.integers(0, 2, (len(rows), len(free)), dtype=np.uint8)
        weights = rng.random(len(rows))
        weights[rng.random(len(rows)) < 0.05] = 0.0
        bits = [row.tobytes().decode() for row in rows + ord("0")]
        dist = OutcomeDistribution(n + m, dict(zip(bits, weights.tolist())))
        decoded = decrypt1(dist, key) if scheme == "I" else decrypt2(dist, key)
        out.append(_digest(dumps(distribution_to_dict(decoded)).encode()))
    return out


def _record_inputs(count: int, seed: int):
    """``(call, args, paths)``: seeded valid inputs and the fields to replace in them.

    A path is ``(k,)`` for argument k itself or ``(k, entry)`` for one
    entry of it.
    """
    from isingcloak import (
        DecoyPlacement,
        IsingModel,
        QaoaParams,
        RouletteWheel,
        apply_permutation,
        build_roulette,
        embed_decoys,
        gen_permutation,
        ising_to_qubo,
        minimal_decoy_count,
        problem_graph,
        qubo_to_ising,
        regular_edge_set,
    )

    for i, model in enumerate(_random_models(count, [seed, 10], max_n=8)):
        rng = np.random.default_rng([seed, 11, i])
        ising = model if isinstance(model, IsingModel) else qubo_to_ising(model)
        q = ising_to_qubo(ising)

        def entry(values):
            return list(values)[int(rng.integers(len(values)))]

        if q.A:
            mode = ("inverse", "preserve")[i % 2]
            wheel = build_roulette(q.A.values(), bins=int(rng.integers(1, 6)), mode=mode)
            edges, weights = list(wheel.bin_edges), list(wheel.sector_weights)
            yield RouletteWheel, [edges, weights, mode], [(0, entry(range(len(edges)))),
                                                          (1, entry(range(len(weights)))), (2,)]
            _, placement = embed_decoys(q, int(rng.integers(1, 4)), wheel, rng)
            B, C = dict(placement.B_entries), dict(placement.C_entries)
            yield DecoyPlacement, [B, C], [(0, entry(B)), (1, entry(C))]
        p = int(rng.integers(1, 4))
        gammas, betas = rng.uniform(0.0, np.pi, (2, p)).tolist()
        yield QaoaParams, [gammas, betas], [(0, entry(range(p))), (1, entry(range(p)))]
        perm = list(gen_permutation(q.n, rng))
        yield apply_permutation, [q, perm], [(1, entry(range(q.n)))]
        degrees = list(problem_graph(ising).degrees)
        d_star = max(degrees) + int(rng.integers(0, 3))
        yield minimal_decoy_count, [degrees, d_star], [(0, entry(range(q.n)))]
        m = minimal_decoy_count(degrees, d_star)
        yield regular_edge_set, [degrees, d_star, m], [(0, entry(range(q.n)))]


def _record_outcomes(seed: int, models: int) -> list:
    out = []
    for call, args, paths in _record_inputs(RECORD_MODELS, seed):
        out += [_outcome(call, *changed)
                for changed in itertools.chain([args], _replaced(args, paths))]
    return out


def _tied(model, scale: float):
    """``model`` with every coefficient replaced by +-``scale``, keeping signs and offset."""
    from isingcloak import IsingModel, QuboModel

    def signed(pairs):
        return {key: math.copysign(scale, v) for key, v in pairs.items()}

    if isinstance(model, IsingModel):
        h = tuple(math.copysign(scale, v) if v else 0.0 for v in model.h)
        return IsingModel(model.n, h, signed(model.J), model.offset)
    return QuboModel(model.n, signed(model.A), model.offset)


def _metric_outputs(seed: int, models: int) -> list:
    from isingcloak import OutcomeDistribution, ar, brute_force, rar, sample
    from isingcloak.core import distribution_to_dict, dumps

    hexed = methodcaller("hex")
    out = []
    for i, model in enumerate(_random_models(METRIC_MODELS, [seed, 12], max_n=16)):
        rng = np.random.default_rng([seed, 13, i])
        n = model.n
        if i % 2:
            model = _tied(model, float(10.0 ** rng.integers(-12, 13)))
        size = int(rng.integers(1, min(1 << n, MAX_METRIC_OUTCOMES) + 1))
        picked = rng.choice(1 << n, size=size, replace=False)
        counts = rng.integers(0, 4, size).astype(float)
        counts[int(rng.integers(size))] += 1.0
        keys = [format(int(k), f"0{n}b")[::-1] for k in picked]
        dist = OutcomeDistribution(n, dict(zip(keys, (counts / counts.sum()).tolist())))
        gmin = brute_force(model).global_min
        results = [_outcome(ar, dist, model, gmin, show=hexed)]
        results += [_outcome(rar, dist, model, gmin, k=k, show=hexed) for k in (1, 5, size)]
        out.append(_digest(json.dumps(results).encode()))
    for i in range(SAMPLED_STATES):
        rng = np.random.default_rng([seed, 14, i])
        n = i % 16 + 1
        state = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        dist = sample(state, int(rng.integers(1, 100_001)), rng)
        out.append(_digest(dumps(distribution_to_dict(dist)).encode()))
    return out


def _placement_outputs(seed: int, models: int) -> list:
    from isingcloak import minimal_decoy_count, regular_edge_set

    out = []
    for i in range(PLACEMENTS):
        rng = np.random.default_rng([seed, 15, i])
        n = int(rng.integers(1, 31))
        adjacency = np.triu(rng.random((n, n)) < rng.random(), 1)
        degrees = (adjacency.sum(0) + adjacency.sum(1)).tolist()
        d_star = max(degrees) + int(rng.integers(0, 11))
        m = minimal_decoy_count(degrees, d_star) + int(rng.integers(0, 4))
        out.append(_outcome(regular_edge_set, degrees, d_star, m))
    return out


def _qaoa_outputs(seed: int, models: int) -> list:
    from isingcloak import IsingModel, optimize, qubo_to_ising, simulate

    out = []
    for i, model in enumerate(_random_models(QAOA_MODELS, [seed, 16], max_n=13)):
        if not isinstance(model, IsingModel):
            model = qubo_to_ising(model)
        params, trace = optimize(model, i % 3 + 1, max_iters=QAOA_BUDGETS[i % 4],
                                 rng=np.random.default_rng([seed, 17, i]))
        hexed = [x.hex() for x in params.gammas + params.betas + tuple(trace)]
        out.append(_digest(json.dumps(hexed).encode() + simulate(model, params).tobytes()))
    return out


# The one change a differing item may make, besides None (no change).
FROM_ERROR = "from another exception to ValueError"
TO_VALUE_ERROR = "to ValueError"  # and no item raises anything else

# Section key, item label (None: differing items are counted, not
# listed), producer, the one change a differing item may make, and the
# run ("old" or "new") whose accepted items are counted, if any.  A
# producer takes the seed and the --models count, which only the tables
# use, and returns the section's list of items.
SECTIONS = (
    ("tables", None, _table_outputs, None, None),
    ("encrypts", "encrypt", _encrypt_outputs, None, None),
    ("evaluations", "evaluation", _evaluation_outputs, None, None),
    ("parses", "parsed record", _parse_outcomes, FROM_ERROR, "old"),
    ("decodes", "decode", _decode_outputs, None, None),
    ("records", "record input", _record_outcomes, TO_VALUE_ERROR, "new"),
    ("metrics", "metric item", _metric_outputs, None, None),
    ("placements", "placement", _placement_outputs, None, "new"),
    ("qaoa", "qaoa run", _qaoa_outputs, None, None),
)
# summary counts that fail the check when nonzero
PROBLEMS = ("_differing", "_failed", "_leaving_tmp", "_other_error")


def _accepted(item) -> bool:
    return item.startswith("accepted")


def _allowed(change, a, b) -> bool:
    """Whether item ``a`` may become the different item ``b`` under ``change``."""
    return (change is not None and b == "ValueError"
            and (change == TO_VALUE_ERROR or not _accepted(a)))


def _produce(producers, seed: int, models: int) -> dict:
    """Each ``(key, produce)``'s items under its key; a producer that raises ends the run.

    The run ends with exit status 1 and one line on stderr naming the
    section and the exception.
    """
    run = {}
    for key, produce in producers:
        try:
            run[key] = produce(seed, models)
        except Exception as exc:  # reported as one line, not a traceback
            raise SystemExit(f"section {key} raised {exc!r}") from exc
    return run


def child(checkout: Path, workdir: Path, seed: int, models: int) -> None:
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    import workloads

    cli = workloads.import_cli(checkout)

    def pipelines(seed, models):
        with contextlib.redirect_stderr(io.StringIO()):
            return _pipeline_outputs(workloads, cli, workdir, seed)

    producers = [("pipelines", pipelines)] + [(key, produce) for key, _, produce, _, _ in SECTIONS]
    json.dump(_produce(producers, seed, models), sys.stdout)


def compare(old: dict, new: dict, checkouts) -> tuple[list, dict]:
    """The problem lines and the summary for the runs ``old`` and ``new`` of ``checkouts``."""
    runs = {"old": old, "new": new}
    diffs = [k for k in old["pipelines"] if old["pipelines"][k] != new["pipelines"].get(k)]
    failed = [k for k in new["pipelines"] if not new["pipelines"][k]["ok"]]
    leftover = [
        (checkout, k, run["pipelines"][k]["tmp"])
        for checkout, run in zip(checkouts, (old, new))
        for k in run["pipelines"]
        if run["pipelines"][k]["tmp"]
    ]
    lines = [f"pipeline {k} differs: {old['pipelines'][k]} != {new['pipelines'][k]}"
             for k in diffs]
    summary = {"pipelines": len(old["pipelines"]), "pipelines_differing": len(diffs),
               "pipelines_failed": len(failed), "pipelines_leaving_tmp": len(leftover)}
    for key, label, _, change, counted in SECTIONS:
        pairs = list(zip(old[key], new[key]))
        differing = [i for i, (a, b) in enumerate(pairs) if a != b and not _allowed(change, a, b)]
        moved = [a for a, b in pairs if a != b and _allowed(change, a, b)]
        summary[key] = len(old[key])
        if counted:
            summary[f"{key}_accepted"] = sum(map(_accepted, runs[counted][key]))
        summary[f"{key}_differing"] = len(differing)
        if label:
            lines += [f"{label} {i} differs: {old[key][i]} != {new[key][i]}" for i in differing]
        if change == TO_VALUE_ERROR:
            others = [i for i, b in enumerate(new[key]) if not _accepted(b) and b != "ValueError"]
            lines += [f"{label} {i} raises {new[key][i]}, not ValueError" for i in others]
            summary[f"{key}_newly_rejected"] = sum(map(_accepted, moved))
            summary[f"{key}_now_value_error"] = len(moved) - summary[f"{key}_newly_rejected"]
            summary[f"{key}_other_error"] = len(others)
        elif change:
            summary[f"{key}_now_value_error"] = len(moved)
    lines += [f"pipeline {k} failed its output check" for k in failed]
    lines += [f"pipeline {k} of {checkout} left temporaries {names}"
              for checkout, k, names in leftover]
    return lines, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--models", type=int, default=2000)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", type=Path, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child(args.old.resolve(), args.workdir, args.seed, args.models)
        return 0

    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        for checkout in (args.old, args.new):
            proc = subprocess.run(
                [sys.executable, __file__, str(checkout), str(checkout), "--child",
                 "--workdir", str(Path(tmp) / "work"), "--seed", str(args.seed),
                 "--models", str(args.models)],
                capture_output=True, text=True,
            )
            if proc.returncode:
                lines = proc.stderr.strip().splitlines() or [f"exit status {proc.returncode}"]
                print(f"{checkout}: {lines[-1]}")
                return 1
            runs.append(json.loads(proc.stdout))
    lines, summary = compare(*runs, (args.old, args.new))
    for line in lines:
        print(line)
    print(json.dumps(summary))
    return 1 if any(v for k, v in summary.items() if k.endswith(PROBLEMS)) else 0


if __name__ == "__main__":
    sys.exit(main())
