"""Smoke test of ``tools/samebytes.py``: this tree against its own HEAD.

The comparison runs the full command sequence under both trees; with the
working tree at HEAD it must report no difference, and with uncommitted
changes that keep every byte it must too.  A differing stdout is shown as
a unified diff, checked here on planted outputs.
"""

import importlib.util
import os
import shutil
import subprocess

import pytest

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "samebytes.py")

_spec = importlib.util.spec_from_file_location("samebytes", TOOL)
samebytes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(samebytes)


def _in_git_checkout() -> bool:
    if shutil.which("git") is None:
        return False
    probe = subprocess.run(["git", "-C", samebytes.ROOT, "rev-parse", "--verify", "HEAD"],
                           capture_output=True)
    return probe.returncode == 0


needs_git = pytest.mark.skipif(not _in_git_checkout(),
                               reason="needs a git checkout with a HEAD commit")


def test_first_difference_names_the_first_differing_artifact():
    a = {"<stdout of synth>": b"x", "toy.tsv": b"ab", "run/seed0.ckpt": b"c"}
    assert samebytes.first_difference(a, dict(a)) is None
    planted = dict(a, **{"toy.tsv": b"aB", "run/seed0.ckpt": b"d"})
    assert samebytes.first_difference(a, planted) == "toy.tsv"
    assert samebytes.first_difference(a, {k: a[k] for k in list(a)[:2]}) == "run/seed0.ckpt"
    assert samebytes.first_difference(a, dict(a, extra=b"")) == "extra"


@needs_git
def test_unknown_revision_exit_2(capsys):
    assert samebytes.main(["--against", "no-such-revision"]) == 2
    assert "not a commit" in capsys.readouterr().err


@needs_git
def test_against_head_reports_same_bytes(capsys):
    def worktrees():
        return subprocess.run(["git", "-C", samebytes.ROOT, "worktree", "list"],
                              capture_output=True, text=True, check=True).stdout

    before = worktrees()
    assert samebytes.main(["--against", "HEAD"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("same bytes:"), out
    assert worktrees() == before   # the temporary worktree is gone



MINE = {"toy.tsv": b"same", "<stdout of gradcheck>": b"matmul ok\n"}


@needs_git
@pytest.mark.parametrize("theirs, first, diff_lines", [
    (dict(MINE, **{"<stdout of gradcheck>": b"matmul ok\nsum ok\n"}), "<stdout of gradcheck>",
     ["--- HEAD: <stdout of gradcheck>", "+++ this tree: <stdout of gradcheck>",
      "@@ -1,2 +1 @@", " matmul ok", "-sum ok"]),
    # a stdout only the other tree has diffs against nothing
    (dict(MINE, **{"<stdout of probe>": b"tree ok\n"}), "<stdout of probe>",
     ["--- HEAD: <stdout of probe>", "+++ this tree: <stdout of probe>",
      "@@ -1 +0,0 @@", "-tree ok"]),
    (dict(MINE, **{"toy.tsv": b"changed"}), "toy.tsv", []),
])
def test_a_differing_stdout_prints_a_unified_diff(capsys, monkeypatch, theirs, first, diff_lines):
    monkeypatch.setattr(samebytes, "run_steps",
                        lambda tree, workdir: MINE if tree == samebytes.ROOT else theirs)
    assert samebytes.main(["--against", "HEAD"]) == 1
    head, *rest = capsys.readouterr().out.splitlines()
    assert head.startswith(f"DIFFERENT: {first} (this tree vs HEAD at ")
    assert rest == diff_lines
