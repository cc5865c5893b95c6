"""Workloads: instance mixes, the delegation pipeline, and output checks.

A workload is a mix of three instance kinds, taken in turn.  Pipeline
i of a run gets a fresh instance of kind i mod 3 whose generator and
encryption seed derive from ``--seed`` and i, so the same seed gives
the same inputs.  One client runs them in a closed loop: each pipeline
starts when the previous one ends.

Every pipeline goes through the real command line
(``isingcloak.cli.main(argv)``, in process, on files in a temporary
directory).  The program only ever sees the generated argv and files.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# client-large: a remote solver's 10^4-shot answer over the disclosed
# qubits.  PLANTED_COUNTS are the shots given to forward images of known
# original configurations; the rest are distinct random outcomes.
REMOTE_SHOTS = 10_000
PLANTED_COUNTS = (400, 300, 200, 100)


@dataclass(frozen=True)
class Kind:
    """One entry of a workload's instance mix."""

    family: str
    n: int
    scheme: str
    encrypt: tuple = ()
    solve: tuple | None = None  # None: the benchmark plays the remote solver
    post: str | None = None  # "verify", "stats" or None
    shots: int = REMOTE_SHOTS  # remote solver only

    @property
    def label(self) -> str:
        return f"{self.family}{self.n}-{self.scheme}"


_BRUTE = ("--method", "brute")
_QAOA = ("--method", "qaoa", "--iters", "200", "--shots", "100000")

WORKLOADS = {
    # 16-20 disclosed qubits; traced, energy_table takes ~89% of the wall
    # time and the brute_force reduction ~3%; decrypt sees only tiny
    # argmin supports
    "exact-verify": (
        Kind("regular3", 16, "II", ("--m", "3"), _BRUTE, "verify"),
        Kind("ba2", 18, "II", ("--m", "2"), _BRUTE, "verify"),
        Kind("sk", 16, "III", (), _BRUTE, "verify"),
    ),
    # 10-13 disclosed qubits; traced, optimize takes ~37-41% of the wall
    # time, ar/rar ~34%, the decrypt stages ~11% and sample ~6%; supports
    # of about 3.5k outcomes, which decoy projection merges to about 1.3k
    "qaoa-decode": (
        Kind("regular3", 10, "III", (), _QAOA + ("--layers", "1"), "stats"),
        Kind("ba2", 10, "II", ("--m", "2"), _QAOA + ("--layers", "1"), "stats"),
        Kind("ba2", 11, "II", ("--m", "2"), _QAOA + ("--layers", "1"), "stats"),
    ),
    # remote solver: no oracle, no qaoa; traced, string decoding of 10^4
    # outcomes with 60-220 bits takes ~74% of the wall time, cli ~12%, the
    # solver stand-in ~7% and encrypt ~5%
    "client-large": (
        Kind("ba2", 200, "II", ("--m", "20")),
        Kind("er", 80, "III"),
        Kind("sk", 60, "I"),
    ),
}

_DECRYPT = ("scheme1.decrypt1", "scheme2.permute_bits", "scheme2.decrypt2",
            "core.distribution_from_dict", "core.distribution_to_dict")
_ENCRYPT = ("core.ising_to_qubo", "scheme2.build_roulette", "scheme2.embed_decoys",
            "scheme2.sample_weight", "scheme3.regular_edge_set", "scheme3.encrypt3",
            "scheme2.apply_permutation", "core.qubo_to_ising", "scheme1.gen_key1",
            "scheme1.encrypt1", "benchmarks.generate")
_ORACLE = ("oracle.energy_table", "oracle.brute_force", "oracle.argmin_distribution",
           "oracle.ar", "oracle.rar", "core.eval_ising")
_QAOA_LAYERS = ("qaoa.optimize", "qaoa.simulate", "qaoa.sample")

# traced-run checks: span names every traced pass must call, names it
# must never call, and the least share of the traced wall time that the
# layer spans (all but the "pipeline" root and "cli" itself) must cover
TRACE_EXPECT = {
    "exact-verify": (("oracle.energy_table", "oracle.brute_force", "scheme2.decrypt2"),
                     _QAOA_LAYERS, 0.75),
    "qaoa-decode": (_QAOA_LAYERS + ("oracle.ar", "oracle.rar", "core.eval_ising") + _DECRYPT,
                    (), 0.75),
    "client-large": (_DECRYPT + _ENCRYPT, _ORACLE + _QAOA_LAYERS, 0.65),
}

# one tiny pipeline per workload, run during set-up to finish lazy
# imports and warm the allocator before timing starts
WARMUP = {
    "exact-verify": Kind("ba2", 8, "II", ("--m", "2"), _BRUTE, "verify"),
    "qaoa-decode": Kind(
        "ba2", 6, "II", ("--m", "2"),
        ("--method", "qaoa", "--iters", "20", "--shots", "1000", "--layers", "1"), "stats",
    ),
    "client-large": Kind("ba2", 20, "II", ("--m", "2"), shots=2000),
}


def import_cli(root: Path):
    """Import ``isingcloak.cli`` and check that it comes from ``root/src``."""
    cli = importlib.import_module("isingcloak.cli")
    if Path(cli.__file__).resolve().parent.parent != root / "src":
        raise ImportError(f"isingcloak was imported from {cli.__file__}, not from {root / 'src'}")
    return cli


@dataclass(frozen=True)
class Instance:
    kind: Kind
    seed: int


def instance(workload: str, seed: int, i: int) -> Instance:
    """Input of the run's i-th pipeline."""
    kinds = WORKLOADS[workload]
    derived = np.random.SeedSequence([seed, i]).generate_state(1, dtype=np.uint32)[0]
    return Instance(kinds[i % len(kinds)], int(derived))


def warmup_instance(workload: str, seed: int) -> Instance:
    return Instance(WARMUP[workload], seed)


@dataclass
class Result:
    """Outcome of one pipeline: timings (program steps only) and check."""

    kind: str
    wall: float = 0.0
    client: float = 0.0
    ok: bool = True
    error: str = ""
    quality: dict = field(default_factory=dict)


class Pipeline:
    """Runs the delegation pipeline for one instance through ``cli.main``."""

    def __init__(self, cli, workdir: str, tracer=None):
        self.cli = cli
        self.tracer = tracer
        self.path = {
            name: os.path.join(workdir, name + ".json")
            for name in ("problem", "encrypted", "key", "dist", "decoded")
        }

    def _command(self, argv, reads=(), writes=()):
        out = io.StringIO()
        tracer = self.tracer
        span = tracer.open("cli") if tracer else None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = self.cli.main(list(argv))
        except SystemExit as exc:  # argparse rejected the argv
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash counts as a failed pipeline, not a failed run
            traceback.print_exc(file=sys.stderr)
            code = "an uncaught exception"
        finally:
            seconds = time.perf_counter() - start
            if tracer:
                tracer.close(span)
        if code != 0:
            raise PipelineError(f"{argv[0]} exited with {code}")
        if tracer:
            tracer.counts["cli.bytes_read"] += sum(os.path.getsize(p) for p in reads)
            tracer.counts["cli.bytes_written"] += sum(
                os.path.getsize(p) + os.path.getsize(p + ".manifest.json") for p in writes
            )
        return out.getvalue(), seconds

    def run(self, inst: Instance, pipeline_id: int = 0) -> Result:
        kind, seed, p = inst.kind, str(inst.seed), self.path
        result = Result(kind.label)
        root = self.tracer.begin_pipeline(pipeline_id) if self.tracer else None
        try:
            _, t = self._command(
                ["gen", "--family", kind.family, "--n", str(kind.n), "--seed", seed,
                 "--out", p["problem"]],
                writes=[p["problem"]],
            )
            result.wall += t
            _, t = self._command(
                ["encrypt", "--problem", p["problem"], "--scheme", kind.scheme,
                 "--out", p["encrypted"], "--key-out", p["key"], "--seed", seed, *kind.encrypt],
                reads=[p["problem"]], writes=[p["encrypted"], p["key"]],
            )
            result.wall += t
            result.client += t
            if kind.solve is None:
                start = time.perf_counter()
                remote_solve(p["encrypted"], p["key"], p["dist"], inst.seed, kind.shots)
                result.wall += time.perf_counter() - start
            else:
                _, t = self._command(
                    ["solve", "--problem", p["encrypted"], "--out", p["dist"], "--seed", seed,
                     *kind.solve],
                    reads=[p["encrypted"]], writes=[p["dist"]],
                )
                result.wall += t
            _, t = self._command(
                ["decrypt", "--dist", p["dist"], "--key", p["key"], "--out", p["decoded"]],
                reads=[p["dist"], p["key"]], writes=[p["decoded"]],
            )
            result.wall += t
            result.client += t
            if kind.post == "verify":
                stdout, t = self._command(
                    ["verify", "--problem", p["problem"], "--key", p["key"], "--dist", p["dist"]],
                    reads=[p["problem"], p["key"], p["dist"]],
                )
                result.wall += t
                result.quality = json.loads(stdout)
            elif kind.post == "stats":
                stdout, t = self._command(
                    ["stats", "--key", p["key"], "--problem", p["problem"],
                     "--dist", p["decoded"], "--k", "5"],
                    reads=[p["key"], p["problem"], p["decoded"]],
                )
                result.wall += t
                result.quality = json.loads(stdout)
        except (PipelineError, ValueError, OSError) as exc:  # unreadable stdout or files
            result.ok, result.error = False, str(exc)
        finally:
            if root is not None:
                self.tracer.close(root)
        if result.ok:
            try:
                check(inst, p, result.quality)
            except (CheckError, ValueError, KeyError, TypeError, OSError) as exc:
                # a missing or malformed output file fails the check too
                result.ok, result.error = False, f"{type(exc).__name__}: {exc}"
        return result


class PipelineError(RuntimeError):
    pass


class CheckError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# remote solver stand-in and reference decoder (numpy, independent of the
# program's string-based decoding)
# ---------------------------------------------------------------------------


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _decode_plan(key: dict):
    """(flip mask, column gather, primary count) over the disclosed bits."""
    if key["scheme"] == "I":
        n = size = key["n"]
        targets, perm = key["targets"], list(range(size))
    else:
        n, size = key["n"], key["n"] + key["m"]
        targets, perm = key["key1"]["targets"], key["perm"]
    mask = np.zeros(size, dtype=np.uint8)
    mask[targets] = 1
    return mask, np.asarray(perm), n


def _bits(strings, width):
    raw = np.frombuffer("".join(strings).encode("ascii"), dtype=np.uint8)
    return (raw.reshape(-1, width) - ord("0")).astype(np.uint8)


def _strings(rows):
    width = rows.shape[1]
    text = (rows + ord("0")).astype(np.uint8).tobytes().decode("ascii")
    return [text[i:i + width] for i in range(0, len(text), width)]


def reference_decode(dist: dict, key: dict) -> dict:
    """Flip the targets, un-permute and project/merge, with numpy."""
    mask, perm, n = _decode_plan(key)
    outcomes = list(dist["counts"])
    if not outcomes:
        return {}
    rows = _bits(outcomes, dist["n"]) ^ mask
    primary = np.ascontiguousarray(rows[:, perm[:n]])
    weights = np.array([dist["counts"][b] for b in outcomes], dtype=np.float64)
    # each row as one n-byte item: sorting these compares rows bytewise,
    # much faster than np.unique(axis=0) on wide rows
    merged, inverse = np.unique(primary.view(np.dtype((np.void, n))).ravel(), return_inverse=True)
    totals = np.bincount(inverse, weights=weights, minlength=len(merged))
    return dict(zip(_strings(merged.view(np.uint8).reshape(-1, n)), totals.tolist()))


def planted_configs(seed: int, n: int) -> np.ndarray:
    rng = np.random.default_rng([seed, n, len(PLANTED_COUNTS)])
    return rng.integers(0, 2, size=(len(PLANTED_COUNTS), n), dtype=np.uint8)


def remote_solve(encrypted_path, key_path, out_path, seed: int, shots: int) -> None:
    """Write a shot distribution over the disclosed qubits.

    Planted outcomes are forward images (pad with zero decoys, permute,
    flip) of known original configurations; the others are distinct
    random outcomes, one shot each.
    """
    size = _read(encrypted_path)["n"]
    mask, perm, n = _decode_plan(_read(key_path))
    planted = np.zeros((len(PLANTED_COUNTS), size), dtype=np.uint8)
    planted[:, perm[:n]] = planted_configs(seed, n)
    planted ^= mask
    rng = np.random.default_rng([seed, size])
    extra = shots - sum(PLANTED_COUNTS)
    seen = set(_strings(planted))
    counts = {}
    while len(counts) < extra:
        for bits in _strings(rng.integers(0, 2, size=(extra - len(counts), size), dtype=np.uint8)):
            if bits not in seen:
                seen.add(bits)
                counts[bits] = 1 / shots
    for bits, c in zip(_strings(planted), PLANTED_COUNTS):
        counts[bits] = c / shots
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"n": size, "counts": counts}, fh)


def check(inst: Instance, path: dict, quality: dict) -> None:
    """Raise CheckError unless the pipeline's outputs are correct."""
    key = _read(path["key"])
    decoded = _read(path["decoded"])["counts"]
    expected = reference_decode(_read(path["dist"]), key)
    if decoded.keys() != expected.keys():
        raise CheckError("decoded support differs from the reference decoder")
    worst = max((abs(decoded[b] - w) for b, w in expected.items()), default=0.0)
    if worst > 1e-12:
        raise CheckError(f"decoded weight differs from the reference by {worst:g}")
    kind = inst.kind
    if kind.post == "verify" and quality.get("verified") is not True:
        raise CheckError("verify did not report success")
    if kind.post == "stats":
        for name in ("ar", "rar"):
            value = quality.get(name)
            if not isinstance(value, float) or not value <= 1.0 + 1e-9:
                raise CheckError(f"stats reported {name}={value!r}")
    if kind.solve is None:
        for bits, c in zip(_strings(planted_configs(inst.seed, key["n"])), PLANTED_COUNTS):
            if decoded.get(bits, 0.0) < c / kind.shots - 1e-12:
                raise CheckError(f"planted configuration lost weight ({c} shots)")
