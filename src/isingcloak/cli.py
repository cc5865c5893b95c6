"""Command-line workflow driver with JSON persistence.

Subcommands: ``gen`` (benchmark instances), ``encrypt`` (scheme I, II
or III), ``solve`` (exact oracle or the QAOA simulator), ``decrypt``,
``verify`` (recomputes the true optimum and asserts recovery),
``stats`` (attack complexity and AR/RAR) and ``qaoa-sim``.

Every command is deterministic given ``--seed``.  Each written file
gets a ``<file>.manifest.json`` sidecar recording the command, the
SHA-256 of every input, the seed and the package version, so runs can
be replayed byte for byte; the sidecar of the encrypted problem, which
goes to the solver, leaves out the inputs and the seed, since either
would give the key away.  Outputs replace old files instead of
truncating them: each is written as a temporary and renamed into
place, and ``encrypt`` places the key before the encrypted problem.
Keys are never written into the same file as an encrypted problem.
Errors are emitted as one-line JSON on stderr with a nonzero exit
code.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .benchmarks import FAMILIES, generate
from .core import (
    OutcomeDistribution,
    distribution_from_dict,
    distribution_to_dict,
    dumps,
    ising_from_dict,
    ising_to_dict,
)
from .oracle import argmin_distribution, ar, brute_force, rar
from .qaoa import optimize, sample, simulate
from .scheme1 import (KeyI, attack_complexity1, decrypt1, encrypt1, gen_key1, key1_from_dict,
                      key1_to_dict, key_scheme)
from .scheme2 import attack_complexity2, decrypt2, encrypt2, key2_from_dict, key2_to_dict
# decrypt3 (an alias of decrypt2) stays bound here: perfbench's tracer hooks cli.decrypt3
from .scheme3 import decrypt3, encrypt3  # noqa: F401
from .util import as_rng


class VerificationError(RuntimeError):
    pass


def _unique_keys(pairs: list) -> dict:
    """A JSON object's members as a dict; a repeated key is an error, not a silent overwrite."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"repeated key {key!r} in a JSON object")
            seen.add(key)
    return obj


def _read_json(path: str, digests: dict | None = None) -> dict:
    """Parse a JSON input file, recording the SHA-256 of the bytes parsed."""
    data = Path(path).read_bytes()
    if digests is not None:
        digests[path] = hashlib.sha256(data).hexdigest()
    return json.loads(data.decode("utf-8"), object_pairs_hook=_unique_keys)


def _write_outputs(outputs: list, command: str, digests: dict, seed, disclosed=None) -> None:
    """Write each ``(path, payload)`` and its manifest, replacing old files.

    ``digests`` maps every input the command read to its SHA-256, in
    read order.  The manifest of the output at path ``disclosed``, the
    one handed to the solver, records neither the inputs nor the seed,
    since either would give the key away.  All files are first written
    as ``<file>.tmp``.  The old targets are then unlinked, last output
    first, and the temporaries renamed into place in the order given,
    so a target never holds a partial file and a failure leaves later
    outputs absent rather than stale.  Renaming onto a free name also
    avoids the flush that truncating or replacing an existing file
    costs.  Every target and temporary must be a file of its own, or one
    write would unlink or rename another's: a collision is rejected
    before anything is written.
    """
    files = []
    for path, payload in outputs:
        inputs, replay = ({}, None) if path == disclosed else (digests, seed)
        manifest = {"command": command, "inputs": inputs, "seed": replay, "version": __version__}
        files += [(path, dumps(payload)), (path + ".manifest.json", dumps(manifest))]
    names = [os.path.abspath(name) for target, _ in files for name in (target, target + ".tmp")]
    if len(set(names)) < len(names):
        raise ValueError("outputs collide: every output, its manifest and their .tmp "
                         "files must name different files")
    staged = []
    try:
        for target, text in files:
            tmp = target + ".tmp"
            staged.append((tmp, target))
            Path(tmp).write_text(text, encoding="utf-8")
        for _, target in reversed(staged):
            with contextlib.suppress(FileNotFoundError):
                os.unlink(target)
        for tmp, target in staged:
            os.rename(tmp, target)
    except BaseException:
        for tmp, _ in staged:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
        raise


def _load_key(path: str, digests: dict | None = None):
    data = _read_json(path, digests)
    return key1_from_dict(data) if key_scheme(data) == "I" else key2_from_dict(data)


def _check_key_size(key, model) -> None:
    if key.n != model.n:
        raise ValueError(f"key is for n={key.n}, problem has n={model.n}")


def _decrypt_any(dist: OutcomeDistribution, key) -> OutcomeDistribution:
    return decrypt1(dist, key) if isinstance(key, KeyI) else decrypt2(dist, key)


def cmd_gen(args) -> int:
    model = generate(args.family, args.n, as_rng(args.seed))
    _write_outputs([(args.out, ising_to_dict(model))], "gen", {}, args.seed)
    return 0


# each flag that only some schemes (encrypt) or methods (solve) read: those
# that read it, its value when omitted, its argparse type (a tuple: its
# choices) and what an omitted value means where the default (None) does not
ENCRYPT_FLAGS = {
    "tau": (("I",), None, float, "drawn with the key"),
    "m": (("II",), 1, int, None),
    "kmax_out": (("II",), 1, int, None),
    "kmax_in": (("II",), 1, int, None),
    "bins": (("II", "III"), 10, int, None),
    "roulette": (("II", "III"), "inverse", ("preserve", "inverse"), None),
    "d_star": (("III",), None, int, "the problem graph's maximum degree"),
}
SOLVE_FLAGS = {
    "layers": (("qaoa",), 1, int, None),
    "iters": (("qaoa",), 200, int, None),
    "shots": (("qaoa",), 10000, int, None),
}


def _add_flags(p: argparse.ArgumentParser, table: dict, kind: str) -> None:
    # no parser default, so that _flags tells a flag given from one omitted
    for name, (readers, default, value_type, omitted) in table.items():
        typed = {"choices": value_type} if isinstance(value_type, tuple) else {"type": value_type}
        p.add_argument("--" + name.replace("_", "-"), dest=name, **typed,
                       help=f"{kind} {' or '.join(readers)}, default: {omitted or default}")


def _flags(args, table: dict, kind: str, choice: str) -> argparse.Namespace:
    """The flags of ``table`` in ``args``, omitted ones at their defaults.

    A flag given for a ``choice`` of ``kind`` (a scheme or a method)
    that does not read it is an error.
    """
    flags = {}
    for name, (readers, default, _, _) in table.items():
        value = getattr(args, name)
        if value is not None and choice not in readers:
            flag = "--" + name.replace("_", "-")
            raise ValueError(f"{flag} applies to {kind} {' or '.join(readers)} only")
        flags[name] = default if value is None else value
    return argparse.Namespace(**flags)


def cmd_encrypt(args) -> int:
    flags = _flags(args, ENCRYPT_FLAGS, "scheme", args.scheme)
    digests = {}
    model = ising_from_dict(_read_json(args.problem, digests))
    rng = as_rng(args.seed)
    if args.scheme == "I":
        key = gen_key1(model.n, rng)
        if flags.tau is not None:
            key = replace(key, tau=flags.tau)
        encrypted = encrypt1(model, key)
        key = replace(key, offset=model.offset)
    elif args.scheme == "II":
        encrypted, key = encrypt2(
            model,
            flags.m,
            rng,
            kmax_out=flags.kmax_out,
            kmax_in=flags.kmax_in,
            bins=flags.bins,
            mode=flags.roulette,
        )
    else:
        encrypted, key = encrypt3(
            model, rng, d_star=flags.d_star, bins=flags.bins, mode=flags.roulette
        )
    key_payload = key1_to_dict(key) if args.scheme == "I" else key2_to_dict(key)
    # the key is placed first, so --out never holds a problem without its key
    outputs = [(args.key_out, key_payload), (args.out, ising_to_dict(encrypted))]
    _write_outputs(outputs, "encrypt", digests, args.seed, disclosed=args.out)
    return 0


def _qaoa_solve(model, flags, seed):
    """Optimize, simulate and sample ``model`` as ``flags`` ask: ``(params, trace, dist)``."""
    rng = as_rng(seed)
    params, trace = optimize(model, flags.layers, max_iters=flags.iters, rng=rng)
    return params, trace, sample(simulate(model, params), flags.shots, rng)


def cmd_solve(args) -> int:
    flags = _flags(args, SOLVE_FLAGS, "method", args.method)
    digests = {}
    model = ising_from_dict(_read_json(args.problem, digests))
    if args.method == "brute":
        dist = argmin_distribution(brute_force(model))
    else:
        _, _, dist = _qaoa_solve(model, flags, args.seed)
    _write_outputs([(args.out, distribution_to_dict(dist))], "solve", digests, args.seed)
    return 0


def cmd_decrypt(args) -> int:
    digests = {}
    dist = distribution_from_dict(_read_json(args.dist, digests))
    key = _load_key(args.key, digests)
    decoded = _decrypt_any(dist, key)
    _write_outputs([(args.out, distribution_to_dict(decoded))], "decrypt", digests, None)
    return 0


def cmd_verify(args) -> int:
    model = ising_from_dict(_read_json(args.problem))
    dist = distribution_from_dict(_read_json(args.dist))
    key = _load_key(args.key)
    _check_key_size(key, model)
    decoded = _decrypt_any(dist, key)
    truth = brute_force(model).argmin_set
    if decoded.support != truth:
        raise VerificationError(
            f"decoded support {sorted(decoded.support)} does not match the "
            f"oracle argmin set {sorted(truth)}"
        )
    print(dumps({"verified": True, "argmin": sorted(truth)}), end="")
    return 0


def cmd_stats(args) -> int:
    if (args.problem is None) != (args.dist is None):
        raise ValueError("--problem and --dist must be given together")
    if args.k is not None and args.problem is None:
        raise ValueError("--k applies with --problem and --dist only")
    key = _load_key(args.key)
    if isinstance(key, KeyI):
        scheme, m = "I", 0
        complexity = attack_complexity1(key.n)
    else:
        scheme, m = ("II" if key.d_star is None else "III"), key.m
        complexity = attack_complexity2(key.n, key.m)
    payload = {"scheme": scheme, "n": key.n, "m": m, "attack_complexity_log2": complexity}
    if args.problem is not None:
        model = ising_from_dict(_read_json(args.problem))
        _check_key_size(key, model)
        dist = distribution_from_dict(_read_json(args.dist))
        gmin = brute_force(model).global_min
        payload["global_min"] = gmin
        payload["ar"] = ar(dist, model, gmin)
        payload["rar"] = rar(dist, model, gmin, k=5 if args.k is None else args.k)
    print(dumps(payload), end="")
    return 0


def cmd_qaoa_sim(args) -> int:
    flags = _flags(args, SOLVE_FLAGS, "method", "qaoa")
    digests = {}
    model = ising_from_dict(_read_json(args.problem, digests))
    params, trace, dist = _qaoa_solve(model, flags, args.seed)
    if args.out:
        _write_outputs([(args.out, distribution_to_dict(dist))], "qaoa-sim", digests, args.seed)
    print(
        dumps(
            {
                "layers": flags.layers,
                "gammas": list(params.gammas),
                "betas": list(params.betas),
                "best_expectation": trace[-1],
                "evaluations": len(trace),
            }
        ),
        end="",
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isingcloak",
        description="Obfuscate Ising problems for untrusted solvers and decode the results.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a benchmark problem")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("encrypt", help="encrypt a problem under scheme I, II or III")
    p.add_argument("--problem", required=True)
    p.add_argument("--scheme", required=True, choices=("I", "II", "III"))
    p.add_argument("--out", required=True, help="encrypted problem (never contains the key)")
    p.add_argument("--key-out", required=True, dest="key_out")
    p.add_argument("--seed", type=int, default=None)
    _add_flags(p, ENCRYPT_FLAGS, "scheme")
    p.set_defaults(func=cmd_encrypt)

    p = sub.add_parser("solve", help="solve a problem exactly or with the QAOA simulator")
    p.add_argument("--problem", required=True)
    p.add_argument("--method", required=True, choices=("brute", "qaoa"))
    p.add_argument("--out", required=True)
    _add_flags(p, SOLVE_FLAGS, "method")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("decrypt", help="decode a measured distribution with a key")
    p.add_argument("--dist", required=True)
    p.add_argument("--key", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_decrypt)

    p = sub.add_parser("verify", help="assert that decoding recovers the true optimum")
    p.add_argument("--problem", required=True)
    p.add_argument("--key", required=True)
    p.add_argument("--dist", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("stats", help="attack complexity and solution-quality metrics")
    p.add_argument("--key", required=True)
    p.add_argument("--problem", default=None, help="original problem (with --dist: AR/RAR)")
    p.add_argument("--dist", default=None, help="decoded (primary-space) distribution")
    p.add_argument("--k", type=int, help="RAR's top-k (with --problem and --dist), default 5")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("qaoa-sim", help="optimize and sample the QAOA simulator")
    p.add_argument("--problem", required=True)
    _add_flags(p, SOLVE_FLAGS, "method")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_qaoa_sim)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process; parse_args leaves the parser unchanged
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(json.dumps({"type": type(exc).__name__, "error": str(exc)}) + "\n")
        return 1


def qaoa_sim_main(argv=None) -> int:
    """Entry point exposing the simulator directly as ``qaoa-sim``."""
    argv = sys.argv[1:] if argv is None else list(argv)
    return main(["qaoa-sim"] + argv)
