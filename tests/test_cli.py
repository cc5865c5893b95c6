"""End-to-end command-line workflows."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import subcommands
import isingcloak
from isingcloak.benchmarks import FAMILIES
from isingcloak.cli import ENCRYPT_FLAGS, SOLVE_FLAGS, main, qaoa_sim_main


def run(*argv):
    return main([str(a) for a in argv])


def read(path):
    return json.loads(path.read_text())


@pytest.mark.parametrize("scheme,extra", [("I", []), ("II", ["--m", "2"]), ("III", [])])
def test_full_workflow(tmp_path, scheme, extra):
    problem = tmp_path / "problem.json"
    enc = tmp_path / "enc.json"
    key = tmp_path / "key.json"
    dist = tmp_path / "dist.json"
    decoded = tmp_path / "decoded.json"

    assert run("gen", "--family", "ba2", "--n", 6, "--seed", 7, "--out", problem) == 0
    assert (
        run(
            "encrypt", "--problem", problem, "--scheme", scheme, "--seed", 9,
            "--out", enc, "--key-out", key, *extra,
        )
        == 0
    )
    assert run("solve", "--problem", enc, "--method", "brute", "--out", dist) == 0
    assert run("decrypt", "--dist", dist, "--key", key, "--out", decoded) == 0
    assert run("verify", "--problem", problem, "--key", key, "--dist", dist) == 0

    assert read(key)["scheme"] == scheme
    assert "targets" not in read(enc)  # key material never lands in the problem file
    assert (tmp_path / "enc.json.manifest.json").exists()


@pytest.mark.parametrize("scheme,extra", [("I", []), ("II", ["--m", "2"]), ("III", [])])
def test_every_output_is_what_json_writes(tmp_path, capsys, scheme, extra):
    # the directory name puts non-ASCII input paths in the manifests
    base = tmp_path / "\u00e9t\u00e9 \u4e2d"
    base.mkdir()
    p, e, k, b, d, dec = (base / x for x in ("p.json", "e.json", "k.json", "b.json", "d.json",
                                              "dec.json"))
    run("gen", "--family", "ba2", "--n", 6, "--seed", 3, "--out", p)
    run("encrypt", "--problem", p, "--scheme", scheme, "--seed", 4, "--out", e, "--key-out", k,
        *extra)
    run("solve", "--problem", e, "--method", "brute", "--out", b)
    run("solve", "--problem", e, "--method", "qaoa", "--iters", 20, "--shots", 500, "--seed", 5,
        "--out", d)
    run("decrypt", "--dist", d, "--key", k, "--out", dec)
    capsys.readouterr()
    assert run("verify", "--problem", p, "--key", k, "--dist", b) == 0
    assert run("stats", "--key", k, "--problem", p, "--dist", dec) == 0
    assert run("qaoa-sim", "--problem", p, "--iters", 5, "--shots", 10, "--seed", 1) == 0
    printed = capsys.readouterr().out.replace("}\n{", "}\n\0{").split("\0")
    written = [path.read_text(encoding="utf-8") for path in sorted(base.iterdir())]
    assert len(written) == 12 and len(printed) == 3
    for text in written + printed:
        assert text == json.dumps(json.loads(text), indent=2) + "\n"


def test_twenty_seeded_runs_per_family(tmp_path):
    for family in ("regular3", "sk", "er", "ba1", "ba2"):
        for seed in range(20):
            base = tmp_path / f"{family}{seed}"
            base.mkdir()
            p, e, k, d = (base / x for x in ("p.json", "e.json", "k.json", "d.json"))
            assert run("gen", "--family", family, "--n", 6, "--seed", seed, "--out", p) == 0
            assert run(
                "encrypt", "--problem", p, "--scheme", "I", "--seed", seed,
                "--out", e, "--key-out", k,
            ) == 0
            assert run("solve", "--problem", e, "--method", "brute", "--out", d) == 0
            assert run("verify", "--problem", p, "--key", k, "--dist", d) == 0


def test_verify_with_wrong_key_fails(tmp_path, capsys):
    p, e, k, k2, d = (tmp_path / x for x in ("p.json", "e.json", "k.json", "k2.json", "d.json"))
    run("gen", "--family", "ba1", "--n", 6, "--seed", 3, "--out", p)
    run("encrypt", "--problem", p, "--scheme", "I", "--seed", 5, "--out", e, "--key-out", k)
    run("solve", "--problem", e, "--method", "brute", "--out", d)
    # a key drawn from a different seed decodes to the wrong bitstrings
    run("encrypt", "--problem", p, "--scheme", "I", "--seed", 6,
        "--out", tmp_path / "e2.json", "--key-out", k2)
    capsys.readouterr()
    assert run("verify", "--problem", p, "--key", k2, "--dist", d) == 1
    err = capsys.readouterr().err
    assert json.loads(err)["type"] == "VerificationError"


def test_verify_with_a_key_for_another_size_names_both_sizes(tmp_path, capsys):
    p6, p7, e, k, d = (tmp_path / x for x in ("p6.json", "p7.json", "e.json", "k.json", "d.json"))
    run("gen", "--family", "ba2", "--n", 6, "--seed", 1, "--out", p6)
    run("gen", "--family", "ba2", "--n", 7, "--seed", 1, "--out", p7)
    run("encrypt", "--problem", p7, "--scheme", "I", "--seed", 2, "--out", e, "--key-out", k)
    run("solve", "--problem", e, "--method", "brute", "--out", d)
    capsys.readouterr()
    assert run("verify", "--problem", p6, "--key", k, "--dist", d) == 1
    payload = json.loads(capsys.readouterr().err)
    assert payload == {"type": "ValueError", "error": "key is for n=7, problem has n=6"}


def test_stats_with_a_key_for_another_size_names_both_sizes(tmp_path, capsys, monkeypatch):
    p6, p7, e, k, d = (tmp_path / x for x in ("p6.json", "p7.json", "e.json", "k.json", "d.json"))
    run("gen", "--family", "ba2", "--n", 6, "--seed", 1, "--out", p6)
    run("gen", "--family", "ba2", "--n", 7, "--seed", 1, "--out", p7)
    run("encrypt", "--problem", p7, "--scheme", "I", "--seed", 2, "--out", e, "--key-out", k)
    run("solve", "--problem", p6, "--method", "brute", "--out", d)
    capsys.readouterr()

    def no_solve(model):
        raise AssertionError("stats solved before checking the key's size")

    monkeypatch.setattr("isingcloak.cli.brute_force", no_solve)
    assert run("stats", "--key", k, "--problem", p6, "--dist", d) == 1
    payload = json.loads(capsys.readouterr().err)
    assert payload == {"type": "ValueError", "error": "key is for n=7, problem has n=6"}


def test_stats_reports_attack_complexity(tmp_path, capsys):
    p, e, k = tmp_path / "p.json", tmp_path / "e.json", tmp_path / "k.json"
    run("gen", "--family", "sk", "--n", 3, "--seed", 1, "--out", p)
    run("encrypt", "--problem", p, "--scheme", "II", "--m", 1, "--seed", 2,
        "--out", e, "--key-out", k)
    capsys.readouterr()
    assert run("stats", "--key", k) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["scheme"] == "II"
    assert payload["attack_complexity_log2"] == pytest.approx(math.log2(1536), abs=1e-9)


def test_stats_with_metrics(tmp_path, capsys):
    p, e, k, d, dec = (tmp_path / x for x in ("p.json", "e.json", "k.json", "d.json", "dec.json"))
    run("gen", "--family", "ba2", "--n", 5, "--seed", 11, "--out", p)
    run("encrypt", "--problem", p, "--scheme", "I", "--seed", 12, "--out", e, "--key-out", k)
    run("solve", "--problem", e, "--method", "brute", "--out", d)
    run("decrypt", "--dist", d, "--key", k, "--out", dec)
    capsys.readouterr()
    assert run("stats", "--key", k, "--problem", p, "--dist", dec) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ar"] == pytest.approx(1.0)
    assert payload["rar"] == pytest.approx(1.0)


def test_qaoa_sim_subcommand(tmp_path, capsys):
    p, d = tmp_path / "p.json", tmp_path / "d.json"
    run("gen", "--family", "ba1", "--n", 4, "--seed", 2, "--out", p)
    capsys.readouterr()
    assert run(
        "qaoa-sim", "--problem", p, "--layers", 1, "--iters", 120,
        "--shots", 2000, "--seed", 3, "--out", d,
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["evaluations"] <= 120
    assert read(d)["n"] == 4


def test_qaoa_sim_entry_point_matches_the_subcommand(tmp_path, capsys):
    p = tmp_path / "p.json"
    run("gen", "--family", "sk", "--n", 4, "--seed", 1, "--out", p)
    argv = ["--problem", str(p), "--iters", "5", "--shots", "10", "--seed", "1"]
    capsys.readouterr()
    assert qaoa_sim_main(argv) == 0
    direct = capsys.readouterr()
    assert main(["qaoa-sim", *argv]) == 0
    assert capsys.readouterr() == direct and direct.out
    assert json.loads(direct.out)["layers"] == 1  # the default, printed although omitted


def test_module_entry_point_prints_help():
    paths = [str(Path(isingcloak.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    done = subprocess.run([sys.executable, "-m", "isingcloak", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "usage:" in done.stdout


def test_qaoa_solve_decode(tmp_path):
    p, e, k, d, dec = (tmp_path / x for x in ("p.json", "e.json", "k.json", "d.json", "dec.json"))
    run("gen", "--family", "ba1", "--n", 4, "--seed", 8, "--out", p)
    run("encrypt", "--problem", p, "--scheme", "I", "--seed", 8, "--out", e, "--key-out", k)
    assert run(
        "solve", "--problem", e, "--method", "qaoa", "--layers", 1,
        "--iters", 150, "--shots", 4000, "--seed", 8, "--out", d,
    ) == 0
    assert run("decrypt", "--dist", d, "--key", k, "--out", dec) == 0
    assert abs(sum(read(dec)["counts"].values()) - 1.0) < 1e-9


def test_byte_for_byte_reproducibility(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run("gen", "--family", "er", "--n", 7, "--seed", 21, "--out", a)
    run("gen", "--family", "er", "--n", 7, "--seed", 21, "--out", b)
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.json.manifest.json").read_bytes() == (
        tmp_path / "b.json.manifest.json"
    ).read_bytes()
    ea, eb = tmp_path / "ea.json", tmp_path / "eb.json"
    run("encrypt", "--problem", a, "--scheme", "III", "--seed", 4, "--out", ea,
        "--key-out", tmp_path / "ka.json")
    run("encrypt", "--problem", a, "--scheme", "III", "--seed", 4, "--out", eb,
        "--key-out", tmp_path / "kb.json")
    assert ea.read_bytes() == eb.read_bytes()
    assert (tmp_path / "ka.json").read_bytes() == (tmp_path / "kb.json").read_bytes()


def test_fixed_tau_override(tmp_path):
    p, e, k = tmp_path / "p.json", tmp_path / "e.json", tmp_path / "k.json"
    run("gen", "--family", "sk", "--n", 4, "--seed", 1, "--out", p)
    run("encrypt", "--problem", p, "--scheme", "I", "--tau", 2.5, "--seed", 2,
        "--out", e, "--key-out", k)
    assert read(k)["tau"] == 2.5


def test_error_json_on_missing_file(tmp_path, capsys):
    assert run("solve", "--problem", tmp_path / "nope.json", "--method", "brute",
               "--out", tmp_path / "d.json") == 1
    err = capsys.readouterr().err
    payload = json.loads(err)
    assert "error" in payload and "type" in payload


def test_parser_reused_across_calls(tmp_path, capsys):
    from isingcloak import cli

    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()
    p, e, k = tmp_path / "p.json", tmp_path / "e.json", tmp_path / "k.json"
    assert run("gen", "--family", "sk", "--n", 4, "--seed", 1, "--out", p) == 0
    # no --seed here: a value left over from the previous call would show
    # up in the manifest
    assert run("encrypt", "--problem", p, "--scheme", "I", "--out", e, "--key-out", k) == 0
    assert read(tmp_path / "e.json.manifest.json")["seed"] is None
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run("solve", "--problem", p)
    assert exc.value.code == 2
    assert run("stats", "--key", k) == 0
    assert json.loads(capsys.readouterr().out)["scheme"] == "I"


@pytest.mark.parametrize("tau", [0.5, 0.0, -2.0, "nan"])
def test_tau_below_one_rejected(tmp_path, capsys, tau):
    p, e, k = tmp_path / "p.json", tmp_path / "e.json", tmp_path / "k.json"
    run("gen", "--family", "sk", "--n", 4, "--seed", 1, "--out", p)
    capsys.readouterr()
    assert run("encrypt", "--problem", p, "--scheme", "I", "--tau", tau, "--seed", 2,
               "--out", e, "--key-out", k) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err)["type"] == "ValueError"
    assert not e.exists() and not k.exists()


def test_rerun_replaces_outputs_and_leaves_no_temporaries(tmp_path):
    p, e, k = tmp_path / "p.json", tmp_path / "e.json", tmp_path / "k.json"
    fe, fk = tmp_path / "fresh_e.json", tmp_path / "fresh_k.json"
    assert run("gen", "--family", "ba2", "--n", 6, "--seed", 1, "--out", p) == 0
    assert run("encrypt", "--problem", p, "--scheme", "II", "--seed", 1,
               "--out", e, "--key-out", k) == 0
    assert run("encrypt", "--problem", p, "--scheme", "II", "--seed", 2,
               "--out", e, "--key-out", k) == 0
    assert run("encrypt", "--problem", p, "--scheme", "II", "--seed", 2,
               "--out", fe, "--key-out", fk) == 0
    assert e.read_bytes() == fe.read_bytes()
    assert k.read_bytes() == fk.read_bytes()
    assert not list(tmp_path.glob("*.tmp"))


def test_failed_problem_rename_never_leaves_a_stale_or_partial_problem(tmp_path, monkeypatch):
    import os

    p, e, k = tmp_path / "p.json", tmp_path / "e.json", tmp_path / "k.json"
    fe, fk = tmp_path / "fresh_e.json", tmp_path / "fresh_k.json"
    run("gen", "--family", "ba2", "--n", 6, "--seed", 3, "--out", p)
    # a previous run's files, then what a complete second run writes
    run("encrypt", "--problem", p, "--scheme", "II", "--seed", 4, "--out", e, "--key-out", k)
    run("encrypt", "--problem", p, "--scheme", "II", "--seed", 5, "--out", fe, "--key-out", fk)
    stale = e.read_bytes()

    real_rename = os.rename
    failed = []

    def rename(src, dst):
        if os.fspath(dst) == str(e):
            failed.append(dst)
            raise OSError("simulated crash while placing the encrypted problem")
        return real_rename(src, dst)

    monkeypatch.setattr(os, "rename", rename)
    assert run("encrypt", "--problem", p, "--scheme", "II", "--seed", 5,
               "--out", e, "--key-out", k) == 1
    monkeypatch.undo()
    assert failed
    assert stale != fe.read_bytes()
    assert k.read_bytes() == fk.read_bytes()
    assert not e.exists() or e.read_bytes() == fe.read_bytes()
    assert not list(tmp_path.glob("*.tmp"))


def test_encrypt_over_its_own_problem_records_the_problem_it_read(tmp_path):
    import hashlib

    p, k = tmp_path / "p.json", tmp_path / "k.json"
    run("gen", "--family", "sk", "--n", 5, "--seed", 6, "--out", p)
    digest = hashlib.sha256(p.read_bytes()).hexdigest()
    assert run("encrypt", "--problem", p, "--scheme", "I", "--seed", 7,
               "--out", p, "--key-out", k) == 0
    assert read(tmp_path / "p.json.manifest.json")["inputs"] == {}
    assert read(tmp_path / "k.json.manifest.json")["inputs"] == {str(p): digest}


@pytest.mark.parametrize("scheme,extra", [("I", []), ("II", ["--m", "2"]), ("III", [])])
def test_encrypted_problem_sidecar_holds_no_seed_and_no_input_digest(tmp_path, scheme, extra):
    import hashlib

    # the seed replays the key, and the digest confirms a guess of the original
    p, e, k = tmp_path / "p.json", tmp_path / "e.json", tmp_path / "k.json"
    run("gen", "--family", "ba2", "--n", 7, "--seed", 1, "--out", p)
    digest = hashlib.sha256(p.read_bytes()).hexdigest()
    assert run("encrypt", "--problem", p, "--scheme", scheme, "--seed", 2,
               "--out", e, "--key-out", k, *extra) == 0
    sidecar = tmp_path / "e.json.manifest.json"
    assert read(sidecar)["inputs"] == {} and read(sidecar)["seed"] is None
    assert digest not in e.read_text() and digest not in sidecar.read_text()
    key_sidecar = read(tmp_path / "k.json.manifest.json")
    assert key_sidecar["inputs"] == {str(p): digest} and key_sidecar["seed"] == 2


def test_encrypt_rejects_one_file_for_problem_and_key(tmp_path, capsys):
    p, e = tmp_path / "p.json", tmp_path / "e.json"
    run("gen", "--family", "sk", "--n", 4, "--seed", 1, "--out", p)
    capsys.readouterr()
    assert run("encrypt", "--problem", p, "--scheme", "I", "--out", e, "--key-out", e) == 1
    assert json.loads(capsys.readouterr().err)["type"] == "ValueError"
    assert not e.exists()


# one output's manifest or temporary named as another output: the write
# would unlink or rename the other's files after placing some of them
@pytest.mark.parametrize("out,key_out", [
    ("e.json", "e.json.manifest.json"),
    ("e.json.manifest.json", "e.json"),
    ("e.json", "e.json.tmp"),
])
def test_encrypt_rejects_colliding_output_files(tmp_path, capsys, out, key_out):
    p = tmp_path / "p.json"
    run("gen", "--family", "sk", "--n", 4, "--seed", 1, "--out", p)
    capsys.readouterr()
    assert run("encrypt", "--problem", p, "--scheme", "I", "--seed", 2,
               "--out", tmp_path / out, "--key-out", tmp_path / key_out) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and json.loads(err)["type"] == "ValueError"
    assert sorted(f.name for f in tmp_path.iterdir()) == ["p.json", "p.json.manifest.json"]


def test_encrypt2_all_zero_model_is_a_one_line_error(tmp_path, capsys):
    p, e, k = tmp_path / "p.json", tmp_path / "e.json", tmp_path / "k.json"
    p.write_text(json.dumps({"n": 3, "h": [0.0, 0.0, 0.0], "J": [], "offset": 1.0}))
    assert run("encrypt", "--problem", p, "--scheme", "II", "--m", 1, "--seed", 1,
               "--out", e, "--key-out", k) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    payload = json.loads(err)
    assert payload["type"] == "ValueError" and "nonzero coefficient" in payload["error"]
    assert sorted(x.name for x in tmp_path.iterdir()) == ["p.json"]


def test_brute_solve_of_an_overflowing_model_is_a_one_line_error(tmp_path, capsys):
    # every coefficient is finite, but their magnitudes sum past the float range
    p, d = tmp_path / "p.json", tmp_path / "d.json"
    p.write_text(json.dumps({"n": 2, "h": [1e308, 1e308], "J": [[0, 1, 1e308]], "offset": 0.0}))
    assert run("solve", "--problem", p, "--method", "brute", "--out", d) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    payload = json.loads(err)
    assert payload["type"] == "ValueError" and "float range" in payload["error"]
    assert sorted(x.name for x in tmp_path.iterdir()) == ["p.json"]


def test_encrypt3_all_zero_model_is_a_one_line_error(tmp_path, capsys):
    p, e, k = tmp_path / "p.json", tmp_path / "e.json", tmp_path / "k.json"
    p.write_text(json.dumps({"n": 3, "h": [0.0, 0.0, 0.0], "J": [], "offset": 1.0}))
    assert run("encrypt", "--problem", p, "--scheme", "III", "--d-star", 1, "--seed", 1,
               "--out", e, "--key-out", k) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    payload = json.loads(err)
    assert payload["type"] == "ValueError" and "nonzero coefficient" in payload["error"]
    assert sorted(x.name for x in tmp_path.iterdir()) == ["p.json"]


def test_encrypt3_without_decoys_checks_its_roulette_options(tmp_path, capsys):
    # regular3 is already regular, so scheme III draws no decoy weights
    p, e, k = tmp_path / "p.json", tmp_path / "e.json", tmp_path / "k.json"
    run("gen", "--family", "regular3", "--n", 8, "--seed", 1, "--out", p)
    capsys.readouterr()
    assert run("encrypt", "--problem", p, "--scheme", "III", "--bins", 0, "--seed", 1,
               "--out", e, "--key-out", k) == 1
    payload = json.loads(capsys.readouterr().err)
    assert payload == {"type": "ValueError", "error": "bins must be at least 1"}
    assert sorted(x.name for x in tmp_path.iterdir()) == ["p.json", "p.json.manifest.json"]


def _encrypt_solve_verify(tmp_path, problem, *encrypt_args):
    p, e, k, d = (tmp_path / x for x in ("p.json", "e.json", "k.json", "d.json"))
    p.write_text(json.dumps(problem))
    assert run("encrypt", "--problem", p, "--seed", 1, "--out", e, "--key-out", k,
               *encrypt_args) == 0
    assert run("solve", "--problem", e, "--method", "brute", "--out", d) == 0
    return run("verify", "--problem", p, "--key", k, "--dist", d)


@pytest.mark.parametrize(
    "problem,encrypt_args,argmin",
    [
        # the offset would round the 1e-8 field away inside the oracle's table
        ({"n": 2, "h": [1e-08, 0.0], "J": [], "offset": 2e9}, ("--scheme", "I"), ["00", "01"]),
        # decoy weights of a one-coefficient model must keep its 1e-12 scale
        ({"n": 2, "h": [1e-12, 0.0], "J": [], "offset": 0.0}, ("--scheme", "II", "--m", 1),
         ["00", "01"]),
        # magnitudes 4e-6 and 4.000000000000001e-6 are equal up to roundoff
        ({"n": 2, "h": [3e-6, -1e-6], "J": [[0, 1, 1e-6]], "offset": 0.0}, ("--scheme", "II"),
         ["01"]),
    ],
)
def test_verify_recovers_argmin_at_extreme_scales(tmp_path, capsys, problem, encrypt_args, argmin):
    assert _encrypt_solve_verify(tmp_path, problem, *encrypt_args) == 0
    assert json.loads(capsys.readouterr().out)["argmin"] == argmin


def test_encrypt_rejects_non_real_coefficients(tmp_path, capsys):
    p, e, k = tmp_path / "p.json", tmp_path / "e.json", tmp_path / "k.json"
    p.write_text(json.dumps({"n": 2, "h": ["1.5", True], "J": [[0, 1, "2"]], "offset": "3"}))
    assert run("encrypt", "--problem", p, "--scheme", "I", "--out", e, "--key-out", k) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "finite real number" in json.loads(err)["error"]
    assert sorted(x.name for x in tmp_path.iterdir()) == ["p.json"]


@pytest.mark.parametrize("record", [[1], "x", 3])
def test_non_object_key_file_is_a_one_line_error(tmp_path, capsys, record):
    d, k, out = tmp_path / "d.json", tmp_path / "k.json", tmp_path / "out.json"
    d.write_text(json.dumps({"n": 2, "counts": {"01": 1.0}}))
    k.write_text(json.dumps(record))
    for argv in (("decrypt", "--dist", d, "--key", k, "--out", out), ("stats", "--key", k)):
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        payload = json.loads(err)
        assert payload["type"] == "ValueError" and "JSON object" in payload["error"]
    assert not out.exists()


def _scheme1_key(tmp_path):
    p, e, k = tmp_path / "p.json", tmp_path / "e.json", tmp_path / "k.json"
    run("gen", "--family", "sk", "--n", 3, "--seed", 1, "--out", p)
    run("encrypt", "--problem", p, "--scheme", "I", "--seed", 2, "--out", e, "--key-out", k)
    return k


@pytest.mark.parametrize("counts,repeat_tau,repeated", [
    ('{"000": 0.5, "000": 0.25, "111": 0.25}', False, "000"),
    ('{"000": 0.5, "111": 0.5}', True, "tau"),
], ids=["outcome", "key-field"])
def test_repeated_json_key_is_a_one_line_error(tmp_path, capsys, counts, repeat_tau, repeated):
    k, d, out = _scheme1_key(tmp_path), tmp_path / "d.json", tmp_path / "out.json"
    d.write_text(f'{{"n": 3, "counts": {counts}}}')
    if repeat_tau:
        tau = json.dumps(read(k)["tau"])
        k.write_text(k.read_text().replace('"tau": ', f'"tau": {tau}, "tau": ', 1))
    capsys.readouterr()
    assert run("decrypt", "--dist", d, "--key", k, "--out", out) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    payload = json.loads(err)
    assert payload["type"] == "ValueError" and repr(repeated) in payload["error"]
    assert not out.exists() and not Path(f"{out}.manifest.json").exists()


def test_encrypt3_huge_d_star_is_a_one_line_error(tmp_path, capsys):
    p, e, k = tmp_path / "p.json", tmp_path / "e.json", tmp_path / "k.json"
    p.write_text(json.dumps({"n": 3, "h": [0.0, 0.0, 0.0], "J": [[0, 1, 1.0], [1, 2, -1.0]],
                             "offset": 0.0}))
    assert run("encrypt", "--problem", p, "--scheme", "III", "--d-star", 10**400, "--seed", 1,
               "--out", e, "--key-out", k) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    payload = json.loads(err)
    assert payload["type"] == "ValueError" and "at most" in payload["error"]
    assert sorted(x.name for x in tmp_path.iterdir()) == ["p.json"]


@pytest.mark.parametrize("given", ["--problem", "--dist"])
def test_stats_needs_problem_and_dist_together(tmp_path, capsys, given):
    p, e, k = tmp_path / "p.json", tmp_path / "e.json", tmp_path / "k.json"
    run("gen", "--family", "sk", "--n", 3, "--seed", 1, "--out", p)
    run("encrypt", "--problem", p, "--scheme", "I", "--seed", 2, "--out", e, "--key-out", k)
    capsys.readouterr()
    d = tmp_path / "d.json"
    d.write_text(json.dumps({"n": 3, "counts": {"011": 1.0}}))
    assert run("stats", "--key", k, given, p if given == "--problem" else d) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    payload = json.loads(err)
    assert payload["type"] == "ValueError" and "together" in payload["error"]


@pytest.mark.parametrize(
    "scheme_args,option",
    [
        (("--scheme", "II", "--m", 2, "--tau", 3), "--tau"),
        (("--scheme", "III", "--tau", 3), "--tau"),
        (("--scheme", "I", "--d-star", 7), "--d-star"),
        (("--scheme", "II", "--d-star", 7), "--d-star"),
        (("--scheme", "I", "--m", 7), "--m"),
        (("--scheme", "I", "--kmax-out", 3), "--kmax-out"),
        (("--scheme", "I", "--bins", 2), "--bins"),
        (("--scheme", "I", "--roulette", "preserve"), "--roulette"),
        (("--scheme", "III", "--m", 7), "--m"),
        (("--scheme", "III", "--kmax-in", 3), "--kmax-in"),
    ],
)
def test_encrypt_rejects_options_of_other_schemes(tmp_path, capsys, scheme_args, option):
    p, e, k = tmp_path / "p.json", tmp_path / "e.json", tmp_path / "k.json"
    run("gen", "--family", "sk", "--n", 4, "--seed", 1, "--out", p)
    capsys.readouterr()
    assert run("encrypt", "--problem", p, "--seed", 1, "--out", e, "--key-out", k,
               *scheme_args) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    payload = json.loads(err)
    assert payload["type"] == "ValueError" and payload["error"].startswith(option)
    assert not e.exists() and not k.exists()


@pytest.mark.parametrize("option,value", [("--layers", 0), ("--layers", 2), ("--iters", -4),
                                          ("--shots", 0), ("--shots", 100)])
def test_brute_solve_rejects_qaoa_options(tmp_path, capsys, option, value):
    p, d = tmp_path / "p.json", tmp_path / "d.json"
    run("gen", "--family", "sk", "--n", 4, "--seed", 1, "--out", p)
    capsys.readouterr()
    assert run("solve", "--problem", p, "--method", "brute", "--seed", 1, "--out", d,
               option, value) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    payload = json.loads(err)
    assert payload == {"type": "ValueError", "error": f"{option} applies to method qaoa only"}
    assert not d.exists()
    # --seed alone is accepted, as the exact solver ignores it
    assert run("solve", "--problem", p, "--method", "brute", "--seed", 1, "--out", d) == 0


@pytest.mark.parametrize("k", [-3, 5])
def test_stats_k_needs_problem_and_dist(tmp_path, capsys, k):
    p, e, key = tmp_path / "p.json", tmp_path / "e.json", tmp_path / "k.json"
    run("gen", "--family", "sk", "--n", 3, "--seed", 1, "--out", p)
    run("encrypt", "--problem", p, "--scheme", "I", "--seed", 2, "--out", e, "--key-out", key)
    capsys.readouterr()
    assert run("stats", "--key", key, "--k", k) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    payload = json.loads(err)
    assert payload["type"] == "ValueError" and payload["error"].startswith("--k ")


def test_stats_on_an_encrypted_space_distribution_names_both_lengths(tmp_path, capsys):
    p, e, k, d = (tmp_path / x for x in ("p.json", "e.json", "k.json", "d.json"))
    run("gen", "--family", "ba2", "--n", 8, "--seed", 3, "--out", p)
    run("encrypt", "--problem", p, "--scheme", "II", "--m", 2, "--seed", 4,
        "--out", e, "--key-out", k)
    run("solve", "--problem", e, "--method", "brute", "--out", d)
    capsys.readouterr()
    # d is the undecoded distribution over the 10 encrypted variables
    assert run("stats", "--key", k, "--problem", p, "--dist", d) == 1
    payload = json.loads(capsys.readouterr().err)
    assert payload == {"type": "ValueError", "error": "distribution has n=10, model has n=8"}


@pytest.mark.parametrize("scheme,extra", [("I", []), ("II", ["--m", "2"]), ("III", [])])
def test_encrypted_zeros_carry_no_sign(tmp_path, scheme, extra):
    # a -0.0 in the disclosed h would mark its index as a flip target
    for family in FAMILIES:
        p, e, k = (tmp_path / f"{family}{x}" for x in ("p.json", "e.json", "k.json"))
        assert run("gen", "--family", family, "--n", 8, "--seed", 1, "--out", p) == 0
        assert run(
            "encrypt", "--problem", p, "--scheme", scheme, "--seed", 2,
            "--out", e, "--key-out", k, *extra,
        ) == 0
        h = read(e)["h"]
        assert not any(v == 0.0 and math.copysign(1.0, v) < 0 for v in h), (family, h)
        assert "-0.0" not in e.read_text()


@pytest.mark.parametrize("table,kind,commands", [
    (ENCRYPT_FLAGS, "scheme", ("encrypt",)),
    (SOLVE_FLAGS, "method", ("solve", "qaoa-sim")),
], ids=["encrypt", "solve"])
def test_flag_tables_declare_the_options(table, kind, commands):
    parsers = subcommands()
    for command in commands:
        options = {a.dest: a for a in parsers[command]._actions}
        for name, (readers, default, value_type, omitted) in table.items():
            action = options[name]
            assert action.option_strings == ["--" + name.replace("_", "-")]
            # no parser default: an omitted flag is told from one given
            assert action.default is None
            if isinstance(value_type, tuple):
                assert action.choices == value_type and action.type is None
            else:
                assert action.type is value_type and action.choices is None
            assert f"{kind} {' or '.join(readers)}," in action.help
            assert str(default if omitted is None else omitted) in action.help


@pytest.mark.parametrize("scheme,target,field", [
    ("I", "problem", "A"),
    ("I", "dist", "shots"),
    ("I", "key", "perm"),
    ("II", "key", "d_star"),
    ("III", "key", "kmax_in"),
    ("II", "key1", "perm"),
])
def test_records_with_unknown_fields_are_one_line_errors(tmp_path, capsys, scheme, target, field):
    p, e, k, d, out = (tmp_path / x for x in ("p.json", "e.json", "k.json", "d.json", "out.json"))
    run("gen", "--family", "sk", "--n", 4, "--seed", 1, "--out", p)
    run("encrypt", "--problem", p, "--scheme", scheme, "--seed", 2, "--out", e, "--key-out", k)
    run("solve", "--problem", e, "--method", "brute", "--out", d)
    path = {"problem": p, "dist": d, "key": k, "key1": k}[target]
    record = read(path)
    (record["key1"] if target == "key1" else record)[field] = 3
    path.write_text(json.dumps(record))
    capsys.readouterr()
    decrypt = ("decrypt", "--dist", d, "--key", k, "--out", out)
    commands = {"problem": [("solve", "--problem", p, "--method", "brute", "--out", out)],
                "dist": [decrypt]}.get(target, [decrypt, ("stats", "--key", k)])
    for argv in commands:
        assert run(*argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        payload = json.loads(captured.err)
        assert payload["type"] == "ValueError" and f"unknown field {field!r}" in payload["error"]
    assert not out.exists() and not Path(f"{out}.manifest.json").exists()
