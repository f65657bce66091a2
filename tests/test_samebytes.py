"""Smoke test of ``tools/samebytes.py``: this tree against its own HEAD.

The comparison runs the full command sequence under both trees; with the
working tree at HEAD it must report no difference, and with uncommitted
changes that keep every byte it must too.
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
