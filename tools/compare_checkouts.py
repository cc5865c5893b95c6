"""Check that two checkouts of isingcloak produce byte-identical outputs.

Usage, from anywhere:

    python3 tools/compare_checkouts.py OLD_CHECKOUT NEW_CHECKOUT [--seed 1]

Each checkout runs in its own interpreter, importing the package from
its ``src/``.  Both runs use the same work directory, because the
manifests record input paths.  A run covers:

* the first pipelines of each benchmark workload (instance mixes from
  ``perfbench/workloads.py`` of the checkout, driven through
  ``cli.main``), hashing every written file and manifest and keeping
  the stdout of ``verify`` and ``stats``;
* ``energy_table`` on seeded random Ising and QUBO models (n <= 12,
  plus 200 more with 11 <= n <= 18 so that both sides of the
  2^10-entry tile width are covered; coefficient scales 1e-12 to 1e12,
  offsets up to 1e10), hashing each table's bytes;
* ``encrypt2``/``encrypt3`` called directly on seeded random Ising
  models, with the settings the command-line mixes never use
  (``kmax_out``/``kmax_in`` > 1, ``preserve`` roulette, a ``d_star``
  override, ``m = 0``), hashing each key record and encrypted model,
  or keeping the ``ValueError`` message of a rejected call;
* ``eval_ising``/``eval_qubo`` on sampled configurations of more
  seeded random models (n <= 40, drawn from their own seeds so the
  items above stay the same), hashing the energies, and each model's
  ``problem_graph``;
* the five JSON parsers (``ising_from_dict``, ``qubo_from_dict``,
  ``distribution_from_dict``, ``key1_from_dict``, ``key2_from_dict``)
  on seeded valid records with one field replaced by each value of
  ``BAD_VALUES`` (a field is a record field, one entry of a list or of
  the counts, or a field of a nested key), keeping per record whether
  it was accepted, with a hash of its canonical ``*_to_dict`` form, or
  the type of the exception that rejected it; these records come from
  their own seeds too;
* ``decrypt1``/``decrypt2`` on seeded keys of all three schemes
  (``n + m`` up to 220) and distributions of up to 2000 outcomes drawn
  around a few patterns with random decoy bits, so that many outcomes
  collide once decoded, hashing each decoded ``distribution_to_dict``;
* the strict records and functions (``RouletteWheel``,
  ``DecoyPlacement``, ``QaoaParams``, ``apply_permutation``,
  ``minimal_decoy_count``, ``regular_edge_set``) on seeded valid
  inputs, and on each input with one of its real fields, permutation
  entries or degrees (or the roulette mode) replaced by each value of
  ``BAD_VALUES``, keeping a hash of the result or the exception type;
  ``d_star`` and ``m`` are not replaced, since ``minimal_decoy_count``
  searches up to ``d_star`` and ``regular_edge_set`` allocates ``m``
  entries, so 10**400 would run without end or overflow.

* ``ar`` and ``rar`` (k = 1, 5 and the support size) on seeded random
  Ising and QUBO models with n <= 16, every other one with its
  coefficients replaced by +-1 times one scale so that many energies
  tie, under distributions whose weights are counts of 0 to 3, so that
  many weights tie, hashing each model's results (a value, or the type
  of the exception that rejected the call); and ``sample`` on seeded
  random states with 1 <= n <= 16, hashing each ``distribution_to_dict``.

* ``regular_edge_set`` on the degree sequences of seeded random graphs
  (n <= 30) with ``d_star`` from the maximum degree to 10 above it and
  ``m`` from ``minimal_decoy_count`` to 3 above it, hashing the
  ``repr`` of each plan or keeping the type of the exception.

The last four sections draw from their own seeds too.

The script prints one line per differing item and exits nonzero if
anything differs, if a pipeline fails its output check, or if a
pipeline leaves a ``*.tmp`` file in the work directory.  A parsed
record, or an input to a strict record or function, may change in one
way only: it may now raise ``ValueError``, the one error they report,
where it raised another exception or (inputs only) was accepted.  The
script also fails if such an input raises anything but ``ValueError``
at the new checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import hashlib
import io
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

PIPELINES = {"exact-verify": 30, "qaoa-decode": 12, "client-large": 6}
WIDE_MODELS = 200  # tables with 11 <= n <= 18, after the --models ones
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


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


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
                    record[p.name] = _digest(p.read_bytes()) if p.exists() else None
            out[f"{name}[{i}]"] = record
    return out


def _random_models(count: int, seed, min_n: int = 1, max_n: int = 12):
    import numpy as np

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


def _encrypt_outputs(count: int, seed: int) -> list:
    import numpy as np

    from isingcloak import IsingModel, encrypt2, encrypt3, ising_to_dict, problem_graph, qubo_to_ising
    from isingcloak.core import dumps
    from isingcloak.scheme2 import key2_to_dict
    from isingcloak.scheme3 import key3_to_dict

    out = []
    for i, model in enumerate(_random_models(count, [seed, 2], max_n=10)):
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
                record = key2_to_dict(key)
            else:
                d_star = None
                if rng.random() < 0.5:
                    d_star = max(problem_graph(model).degrees) + int(rng.integers(-1, 3))
                enc, key = encrypt3(model, rng, d_star=d_star, bins=bins, mode=mode)
                record = key3_to_dict(key)
            out.append({"key": _digest(dumps(record).encode()),
                        "encrypted": _digest(dumps(ising_to_dict(enc)).encode())})
        except ValueError as exc:
            out.append({"error": str(exc)})
    return out


def _evaluation_outputs(count: int, seed: int) -> list:
    import numpy as np

    from isingcloak import IsingModel, eval_ising, eval_qubo, problem_graph

    out = []
    for i, model in enumerate(_random_models(count, [seed, 4], max_n=40)):
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
    import numpy as np

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


def _parse_outcomes(count: int, seed: int) -> list:
    import numpy as np

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
    for name, record in _valid_records(count, seed):
        parse, canonical = codecs[name]
        for path in _fields(record, rng):
            for value in BAD_VALUES:
                changed = copy.deepcopy(record)
                target = changed
                for step in path[:-1]:
                    target = target[step]
                target[path[-1]] = value
                try:
                    parsed = canonical(parse(changed))
                except Exception as exc:  # the exception type is the outcome
                    out.append(type(exc).__name__)
                else:
                    out.append("accepted " + _digest(core.dumps(parsed).encode()))
    return out


def _decode_outputs(count: int, seed: int) -> list:
    import numpy as np

    from isingcloak import KeyII, OutcomeDistribution, decrypt1, decrypt2, gen_key1, gen_permutation
    from isingcloak.core import distribution_to_dict, dumps

    out = []
    for i in range(count):
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
    """``(name, args, paths)``: seeded valid inputs and the fields to replace in them.

    A path is ``(k,)`` for argument k itself or ``(k, entry)`` for one
    entry of it.
    """
    import numpy as np

    from isingcloak import (
        IsingModel,
        build_roulette,
        embed_decoys,
        gen_permutation,
        ising_to_qubo,
        minimal_decoy_count,
        problem_graph,
        qubo_to_ising,
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
            yield "wheel", [edges, weights, mode], [(0, entry(range(len(edges)))),
                                                    (1, entry(range(len(weights)))), (2,)]
            _, placement = embed_decoys(q, int(rng.integers(1, 4)), wheel, rng)
            B, C = dict(placement.B_entries), dict(placement.C_entries)
            yield "placement", [B, C], [(0, entry(B)), (1, entry(C))]
        p = int(rng.integers(1, 4))
        gammas, betas = rng.uniform(0.0, np.pi, (2, p)).tolist()
        yield "params", [gammas, betas], [(0, entry(range(p))), (1, entry(range(p)))]
        perm = list(gen_permutation(q.n, rng))
        yield "permutation", [q, perm], [(1, entry(range(q.n)))]
        degrees = list(problem_graph(ising).degrees)
        d_star = max(degrees) + int(rng.integers(0, 3))
        yield "decoy_count", [degrees, d_star], [(0, entry(range(q.n)))]
        m = minimal_decoy_count(degrees, d_star)
        yield "edge_set", [degrees, d_star, m], [(0, entry(range(q.n)))]


def _record_outcomes(count: int, seed: int) -> list:
    from isingcloak import (
        DecoyPlacement,
        QaoaParams,
        RouletteWheel,
        apply_permutation,
        minimal_decoy_count,
        regular_edge_set,
    )

    calls = {"wheel": RouletteWheel, "placement": DecoyPlacement, "params": QaoaParams,
             "permutation": apply_permutation, "decoy_count": minimal_decoy_count,
             "edge_set": regular_edge_set}

    def outcome(name, args):
        try:
            result = calls[name](*args)
        except Exception as exc:  # the exception type is the outcome
            return type(exc).__name__
        return "accepted " + _digest(repr(result).encode())

    out = []
    for name, args, paths in _record_inputs(count, seed):
        out.append(outcome(name, args))
        for path in paths:
            for value in BAD_VALUES:
                changed = list(args)
                if len(path) == 1:
                    changed[path[0]] = value
                else:
                    k, entry = path
                    changed[k] = copy.copy(args[k])
                    changed[k][entry] = value
                out.append(outcome(name, changed))
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


def _metric_outputs(count: int, states: int, seed: int) -> list:
    import numpy as np

    from isingcloak import OutcomeDistribution, ar, brute_force, rar, sample
    from isingcloak.core import distribution_to_dict, dumps

    def outcome(call, *args, **kwargs):
        try:
            return call(*args, **kwargs).hex()
        except Exception as exc:  # the exception type is the outcome
            return type(exc).__name__

    out = []
    for i, model in enumerate(_random_models(count, [seed, 12], max_n=16)):
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
        results = [outcome(ar, dist, model, gmin)]
        results += [outcome(rar, dist, model, gmin, k=k) for k in (1, 5, size)]
        out.append(_digest(json.dumps(results).encode()))
    for i in range(states):
        rng = np.random.default_rng([seed, 14, i])
        n = i % 16 + 1
        state = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        dist = sample(state, int(rng.integers(1, 100_001)), rng)
        out.append(_digest(dumps(distribution_to_dict(dist)).encode()))
    return out


def _placement_outputs(count: int, seed: int) -> list:
    import numpy as np

    from isingcloak import minimal_decoy_count, regular_edge_set

    out = []
    for i in range(count):
        rng = np.random.default_rng([seed, 15, i])
        n = int(rng.integers(1, 31))
        adjacency = np.triu(rng.random((n, n)) < rng.random(), 1)
        degrees = (adjacency.sum(0) + adjacency.sum(1)).tolist()
        d_star = max(degrees) + int(rng.integers(0, 11))
        m = minimal_decoy_count(degrees, d_star) + int(rng.integers(0, 4))
        try:
            plan = regular_edge_set(degrees, d_star, m)
        except Exception as exc:  # the exception type is the outcome
            out.append(type(exc).__name__)
        else:
            out.append("accepted " + _digest(repr(plan).encode()))
    return out


def child(checkout: Path, workdir: Path, seed: int, models: int) -> None:
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    import workloads

    from isingcloak import energy_table

    cli = workloads.import_cli(checkout)
    with contextlib.redirect_stderr(io.StringIO()):
        outputs = _pipeline_outputs(workloads, cli, workdir, seed)
    tables = [_digest(energy_table(m).tobytes()) for m in _random_models(models, seed)]
    tables += [
        _digest(energy_table(m).tobytes())
        for m in _random_models(WIDE_MODELS, [seed, 1], min_n=11, max_n=18)
    ]
    encrypts = _encrypt_outputs(ENCRYPTS, seed)
    evaluations = _evaluation_outputs(EVALUATED_MODELS, seed)
    parses = _parse_outcomes(PARSED_RECORDS, seed)
    decodes = _decode_outputs(DECODES, seed)
    records = _record_outcomes(RECORD_MODELS, seed)
    metrics = _metric_outputs(METRIC_MODELS, SAMPLED_STATES, seed)
    placements = _placement_outputs(PLACEMENTS, seed)
    json.dump({"pipelines": outputs, "tables": tables, "encrypts": encrypts,
               "evaluations": evaluations, "parses": parses, "decodes": decodes,
               "records": records, "metrics": metrics, "placements": placements}, sys.stdout)


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
                capture_output=True, text=True, check=True,
            )
            runs.append(json.loads(proc.stdout))
    old, new = runs
    diffs = [k for k in old["pipelines"] if old["pipelines"][k] != new["pipelines"].get(k)]
    failed = [k for k in new["pipelines"] if not new["pipelines"][k]["ok"]]
    leftover = [
        (checkout, k, run["pipelines"][k]["tmp"])
        for checkout, run in zip((args.old, args.new), runs)
        for k in run["pipelines"]
        if run["pipelines"][k]["tmp"]
    ]
    tables = sum(a != b for a, b in zip(old["tables"], new["tables"]))
    encrypts = [i for i, (a, b) in enumerate(zip(old["encrypts"], new["encrypts"])) if a != b]
    evaluations = [
        i for i, (a, b) in enumerate(zip(old["evaluations"], new["evaluations"])) if a != b
    ]
    # a record may only move from another exception to ValueError
    parses = [
        i for i, (a, b) in enumerate(zip(old["parses"], new["parses"]))
        if a != b and (a.startswith("accepted") or b != "ValueError")
    ]
    retyped = sum(a != b for a, b in zip(old["parses"], new["parses"])) - len(parses)
    decodes = [i for i, (a, b) in enumerate(zip(old["decodes"], new["decodes"])) if a != b]
    # an input may only move to ValueError, and may raise nothing else
    records = [i for i, (a, b) in enumerate(zip(old["records"], new["records"]))
               if a != b and b != "ValueError"]
    other_errors = [i for i, b in enumerate(new["records"])
                    if not b.startswith("accepted") and b != "ValueError"]
    moved = [a for a, b in zip(old["records"], new["records"]) if a != b and b == "ValueError"]
    metrics = [i for i, (a, b) in enumerate(zip(old["metrics"], new["metrics"])) if a != b]
    placements = [
        i for i, (a, b) in enumerate(zip(old["placements"], new["placements"])) if a != b
    ]
    for k in diffs:
        print(f"pipeline {k} differs: {old['pipelines'][k]} != {new['pipelines'][k]}")
    for i in encrypts:
        print(f"encrypt {i} differs: {old['encrypts'][i]} != {new['encrypts'][i]}")
    for i in evaluations:
        print(f"evaluation {i} differs: {old['evaluations'][i]} != {new['evaluations'][i]}")
    for i in parses:
        print(f"parsed record {i} differs: {old['parses'][i]} != {new['parses'][i]}")
    for i in decodes:
        print(f"decode {i} differs: {old['decodes'][i]} != {new['decodes'][i]}")
    for i in records:
        print(f"record input {i} differs: {old['records'][i]} != {new['records'][i]}")
    for i in other_errors:
        print(f"record input {i} raises {new['records'][i]}, not ValueError")
    for i in metrics:
        print(f"metric item {i} differs: {old['metrics'][i]} != {new['metrics'][i]}")
    for i in placements:
        print(f"placement {i} differs: {old['placements'][i]} != {new['placements'][i]}")
    for k in failed:
        print(f"pipeline {k} failed its output check")
    for checkout, k, names in leftover:
        print(f"pipeline {k} of {checkout} left temporaries {names}")
    print(json.dumps({
        "pipelines": len(old["pipelines"]),
        "pipelines_differing": len(diffs),
        "pipelines_failed": len(failed),
        "pipelines_leaving_tmp": len(leftover),
        "tables": len(old["tables"]),
        "tables_differing": tables,
        "encrypts": len(old["encrypts"]),
        "encrypts_differing": len(encrypts),
        "evaluations": len(old["evaluations"]),
        "evaluations_differing": len(evaluations),
        "parses": len(old["parses"]),
        "parses_accepted": sum(a.startswith("accepted") for a in old["parses"]),
        "parses_differing": len(parses),
        "parses_now_value_error": retyped,
        "decodes": len(old["decodes"]),
        "decodes_differing": len(decodes),
        "records": len(old["records"]),
        "records_accepted": sum(b.startswith("accepted") for b in new["records"]),
        "records_differing": len(records),
        "records_newly_rejected": sum(a.startswith("accepted") for a in moved),
        "records_now_value_error": sum(not a.startswith("accepted") for a in moved),
        "records_other_error": len(other_errors),
        "metrics": len(old["metrics"]),
        "metrics_differing": len(metrics),
        "placements": len(old["placements"]),
        "placements_accepted": sum(b.startswith("accepted") for b in new["placements"]),
        "placements_differing": len(placements),
    }))
    return 1 if (diffs or failed or leftover or tables or encrypts or evaluations or parses
                 or decodes or records or other_errors or metrics or placements) else 0


if __name__ == "__main__":
    sys.exit(main())
