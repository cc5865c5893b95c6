"""The comparison rules of tools/compare_checkouts.py, on small synthetic runs."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "compare_checkouts", ROOT / "tools" / "compare_checkouts.py"
)
tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tool)

CHECKOUTS = ("OLD", "NEW")
PIPELINE = {"ok": True, "stdout": {}, "tmp": []}
PLAIN = [(key, label) for key, label, _, change, _ in tool.SECTIONS if change is None]


def _run(pipelines=None, **sections):
    """A child run: one clean pipeline and two items per section, unless given."""
    run = {"pipelines": pipelines or {"exact-verify[0]": PIPELINE}}
    for key, *_ in tool.SECTIONS:
        run[key] = sections.get(key, ["accepted 0a", "ValueError"])
    return run


def _fails(summary):
    return any(v for k, v in summary.items() if k.endswith(tool.PROBLEMS))


def test_identical_runs_pass_with_every_summary_key():
    lines, summary = tool.compare(_run(), _run(), CHECKOUTS)
    assert lines == [] and not _fails(summary)
    assert list(summary) == [
        "pipelines", "pipelines_differing", "pipelines_failed", "pipelines_leaving_tmp",
        "tables", "tables_differing",
        "spectra", "spectra_differing",
        "encrypts", "encrypts_differing",
        "evaluations", "evaluations_differing",
        "parses", "parses_accepted", "parses_differing", "parses_now_value_error",
        "decodes", "decodes_differing",
        "records", "records_accepted", "records_differing", "records_newly_rejected",
        "records_now_value_error", "records_other_error",
        "metrics", "metrics_differing",
        "placements", "placements_accepted", "placements_differing",
        "qaoa", "qaoa_differing",
    ]


@pytest.mark.parametrize("key,label", PLAIN)
def test_plain_section_flags_any_difference(key, label):
    # even a move from accepted to ValueError is a difference here
    old = _run(**{key: ["accepted 0a", "accepted 0b", "x"]})
    new = _run(**{key: ["accepted 0a", "ValueError", "y"]})
    lines, summary = tool.compare(old, new, CHECKOUTS)
    assert summary[key] == 3 and summary[f"{key}_differing"] == 2 and _fails(summary)
    if label is None:  # tables are counted, not listed
        assert lines == []
    else:
        assert lines == [f"{label} 1 differs: accepted 0b != ValueError",
                         f"{label} 2 differs: x != y"]


def test_parses_may_only_move_from_another_exception_to_value_error():
    old = _run(parses=["TypeError", "accepted 0a", "TypeError", "ValueError", "accepted 0b"])
    new = _run(parses=["ValueError", "ValueError", "KeyError", "ValueError", "accepted 0b"])
    lines, summary = tool.compare(old, new, CHECKOUTS)
    assert lines == ["parsed record 1 differs: accepted 0a != ValueError",
                     "parsed record 2 differs: TypeError != KeyError"]
    assert summary["parses_now_value_error"] == 1
    assert summary["parses_differing"] == 2
    assert summary["parses_accepted"] == 2  # counted in the old run


def test_parses_move_to_value_error_alone_passes():
    old = _run(parses=["TypeError", "accepted 0a"])
    new = _run(parses=["ValueError", "accepted 0a"])
    lines, summary = tool.compare(old, new, CHECKOUTS)
    assert lines == [] and not _fails(summary)
    assert summary["parses_now_value_error"] == 1


def test_records_may_move_to_value_error_and_raise_nothing_else():
    old = _run(records=["accepted 0a", "TypeError", "accepted 0b", "ValueError", "accepted 0c"])
    new = _run(records=["ValueError", "ValueError", "TypeError", "ValueError", "accepted 0c"])
    lines, summary = tool.compare(old, new, CHECKOUTS)
    assert lines == ["record input 2 differs: accepted 0b != TypeError",
                     "record input 2 raises TypeError, not ValueError"]
    assert summary["records_newly_rejected"] == 1
    assert summary["records_now_value_error"] == 1
    assert summary["records_other_error"] == 1
    assert summary["records_differing"] == 1
    assert summary["records_accepted"] == 1  # counted in the new run


def test_records_flag_another_error_even_when_unchanged():
    old = new = _run(records=["accepted 0a", "TypeError"])
    lines, summary = tool.compare(old, new, CHECKOUTS)
    assert lines == ["record input 1 raises TypeError, not ValueError"]
    assert summary["records_other_error"] == 1 and summary["records_differing"] == 0
    assert _fails(summary)


def test_records_newly_rejected_alone_passes():
    old = _run(records=["accepted 0a", "accepted 0b"])
    new = _run(records=["ValueError", "accepted 0b"])
    lines, summary = tool.compare(old, new, CHECKOUTS)
    assert lines == [] and not _fails(summary)
    assert summary["records_newly_rejected"] == 1 and summary["records_accepted"] == 1


def test_failed_pipeline_is_flagged():
    failed = {"exact-verify[0]": {**PIPELINE, "ok": False}}
    lines, summary = tool.compare(_run(), _run(failed), CHECKOUTS)
    assert lines == [
        f"pipeline exact-verify[0] differs: {PIPELINE} != {failed['exact-verify[0]']}",
        "pipeline exact-verify[0] failed its output check",
    ]
    assert summary["pipelines_failed"] == 1 and summary["pipelines_differing"] == 1


def test_leftover_temporaries_are_flagged_for_each_checkout():
    leaving = _run({"qaoa-decode[3]": {**PIPELINE, "tmp": ["dist.json.tmp"]}})
    lines, summary = tool.compare(leaving, leaving, CHECKOUTS)
    assert lines == ["pipeline qaoa-decode[3] of OLD left temporaries ['dist.json.tmp']",
                     "pipeline qaoa-decode[3] of NEW left temporaries ['dist.json.tmp']"]
    assert summary["pipelines_leaving_tmp"] == 2 and summary["pipelines_differing"] == 0
    assert _fails(summary)


def test_lines_follow_the_section_order():
    old = _run(encrypts=["a"], placements=["b"], records=["accepted 0a"])
    new = _run({"exact-verify[0]": {**PIPELINE, "ok": False}},
               encrypts=["A"], placements=["B"], records=["KeyError"])
    lines, _ = tool.compare(old, new, CHECKOUTS)
    assert [line.split(" ")[0] for line in lines] == [
        "pipeline", "encrypt", "record", "record", "placement", "pipeline",
    ]


def test_a_raising_producer_ends_the_run_naming_its_section():
    def raising(seed, models):
        raise ValueError("no wheel\nfor mode 'preserve'")

    producers = [("tables", lambda seed, models: ["a"]), ("records", raising),
                 ("metrics", lambda seed, models: pytest.fail("ran past the raising section"))]
    with pytest.raises(SystemExit) as info:
        tool._produce(producers, 1, 10)
    message = "section records raised ValueError(\"no wheel\\nfor mode 'preserve'\")"
    assert info.value.code == message
    assert tool._produce(producers[:1], 1, 10) == {"tables": ["a"]}


def test_a_failed_child_run_is_one_line_and_exit_status_1(monkeypatch, capsys):
    stderr = "Traceback (most recent call last):\n  ...\nsection records raised KeyError('x')\n"
    monkeypatch.setattr(tool.subprocess, "run",
                        lambda argv, **kwargs: subprocess.CompletedProcess(argv, 1, "", stderr))
    assert tool.main(["OLD", "NEW"]) == 1
    assert capsys.readouterr().out == "OLD: section records raised KeyError('x')\n"


def test_pipeline_records_do_not_depend_on_the_work_directory(tmp_path, monkeypatch):
    # manifests record input paths under the work directory, which is a
    # fresh temporary directory in every invocation of the tool
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    cli = workloads.import_cli(ROOT)
    monkeypatch.setattr(tool, "PIPELINES", {"exact-verify": 1, "qaoa-decode": 1})
    runs = [tool._pipeline_outputs(workloads, cli, tmp_path / name, 5)
            for name in ("work", "a-longer-work-directory")]
    assert runs[0] == runs[1]
    assert all(r["ok"] and r["problem.json.manifest.json"] for r in runs[0].values())
    failed = {k: {**record, "ok": False} for k, record in runs[0].items()}
    lines = [tool.compare(_run(run), _run(failed), CHECKOUTS)[0] for run in runs]
    assert lines[0] == lines[1] and len(lines[0]) == 4


def _git(repo, *args):
    done = subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t",
                           *args], check=True, capture_output=True, text=True)
    return done.stdout


def _worktrees(repo):
    return _git(repo, "worktree", "list", "--porcelain").count("worktree ")


@pytest.fixture
def repo(tmp_path):
    """A throwaway repository: f.txt reads "one" at HEAD and "two" in the working tree."""
    repo = tmp_path / "repo"
    repo.mkdir()
    _git(repo, "init", "--quiet")
    (repo / "f.txt").write_text("one\n")
    _git(repo, "add", "f.txt")
    _git(repo, "commit", "--quiet", "-m", "one")
    (repo / "f.txt").write_text("two\n")
    return repo


def test_base_worktree_checks_out_the_ref_and_removes_it(repo, tmp_path):
    with tool.base_worktree(repo, "HEAD", tmp_path) as path:
        assert (path / "f.txt").read_text() == "one\n" and _worktrees(repo) == 2
    assert not path.exists() and _worktrees(repo) == 1


def test_base_worktree_is_removed_when_the_run_fails(repo, tmp_path):
    with pytest.raises(RuntimeError), tool.base_worktree(repo, "HEAD", tmp_path) as path:
        raise RuntimeError
    assert not path.exists() and _worktrees(repo) == 1


def test_base_takes_the_place_of_the_old_checkout(repo, monkeypatch, capsys):
    # the child runs are stubbed: only the checkouts they are given are checked
    real, seen = subprocess.run, []

    def run(argv, **kwargs):
        if argv[0] != sys.executable:
            return real(argv, **kwargs)
        seen.append((Path(argv[2]), (Path(argv[2]) / "f.txt").read_text()))
        return subprocess.CompletedProcess(argv, 0, json.dumps(_run()), "")

    monkeypatch.setattr(tool.subprocess, "run", run)
    assert tool.main(["--base", "HEAD", str(repo)]) == 0
    assert [text for _, text in seen] == ["one\n", "two\n"]
    assert not seen[0][0].exists() and _worktrees(repo) == 1
    assert capsys.readouterr().out.count("\n") == 1  # the summary alone


def test_an_unknown_base_is_one_line_and_exit_status_1(repo, capsys):
    assert tool.main(["--base", "no-such-ref", str(repo)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("--base no-such-ref: ") and out.count("\n") == 1
    assert _worktrees(repo) == 1


@pytest.mark.parametrize("argv", [["NEW"], ["OLD", "NEW", "--base", "HEAD"]])
def test_base_and_an_old_checkout_exclude_each_other(argv, capsys):
    with pytest.raises(SystemExit) as info:
        tool.main(argv)
    assert info.value.code == 2
    assert "give either an old checkout or --base REF" in capsys.readouterr().err
