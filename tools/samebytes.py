"""Check that this tree writes the same bytes as another revision.

    python tools/samebytes.py --against REV

Checks REV out into a temporary git worktree, then runs one fixed sequence
of ``protoform`` commands under each tree, with ``PYTHONPATH`` at that
tree's ``src/``, each in a fresh directory:

- the determinism sequence of acceptance criterion C8 (``synth``, a
  one-seed ``train``, ``evaluate`` with three baselines);
- a float32 two-seed ``train`` with two worker processes, and the same
  ``train`` serially;
- a float64 ``train`` with an odd batch size, head count and feed-forward
  width, so that dropout draws masks of odd sizes;
- an orthographic ``train`` and ``evaluate`` with three baselines;
- ``probe --gold-tree`` on those two checkpoints;
- ``baseline``;
- ``synth`` of a monosyllabic corpus from ``sinitic_style.rules`` and
  ``baseline`` on it with all four kinds, the only step that runs the
  majority-constituent baseline;
- ``synth`` of a 300-set corpus from ``sinitic_style.rules`` and ``baseline``
  on it with the two classifier kinds, so that the progressive alignment
  meets many repeated (consensus, word) pairs in one call and the linear
  classifier's 50 epoch shuffles run over several hundred columns;
- ``synth`` of an 800-set corpus from ``sinitic_style.rules`` at seed 121,
  the shape the ``train-sinitic`` benchmark builds: 557 distinct protos of
  800 and 2,068 distinct cells of 10,400, so that ``generate_tsv`` meets
  repeated protos at scale (``synth-300`` has 250 distinct of 300);
- ``baseline`` on the hand-written IPA table ``IPA_TSV`` three times: with
  the default tokenizer, with ``[corpus] stress = strip``, and with
  ``stress = strip`` plus ``strip_length = true``, so that every branch of
  the phonetic tokenizer but its errors and tone runs (which the
  monosyllabic corpus has) reaches a compared file;
- ``synth`` of 60-set corpora from ``sinitic_style.rules`` and
  ``synth5.rules``, and one epoch of ``train --preset sinitic`` and of
  ``train --preset romance`` on them: the only steps at the presets'
  shapes (``d_model`` 128; Sinitic's ``d_feedforward`` 647 and batch 32
  with a partial last batch, Romance's batch 1 with 3 + 3 layers);
- a float32 ``evaluate`` of the Sinitic-preset checkpoint through the
  ``config.ini`` its ``train`` echoed: the only step that loads a preset's
  checkpoint, and the only one that loads a checkpoint in another dtype
  than it was trained in, as the ``evaluate`` benchmark does;
- ``synth`` of a 700-set corpus from ``synth5.rules``, a ``train`` on it and
  an ``evaluate`` of its 140-set test split: the only step whose greedy
  decode runs more than one chunk of ``DECODE_CHUNK`` (128) rows, as the
  ``evaluate`` benchmark's does;
- ``gradcheck``, whose stdout prints every op's worst relative error.

Every file written and every command's stdout are compared byte for byte.
Exit status: 0 when all are identical; 1 on a difference, naming the first
differing file in the order the commands wrote them, followed by a unified
diff from REV's output to this tree's when that file is a command's stdout;
2 when REV cannot be checked out or a command fails.
"""

from __future__ import annotations

import argparse
import difflib
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Two decoder layers, so that greedy decoding carries its key/value cache
# from one layer to the next.
TINY_INI = """\
[transformer]
d_model = 16
n_heads = 2
n_encoder_layers = 1
n_decoder_layers = 2
d_feedforward = 32
dropout_p = 0.1
lr = 0.002
warmup_epochs = 1
total_epochs = 3
weight_decay = 0
batch_size = 8
"""

# Odd batch size, head count and feed-forward width, so that dropout
# draws masks of odd sizes, whose last raw 64-bit Philox output is half used.
ODD_INI = """\
[transformer]
d_model = 18
n_heads = 3
n_encoder_layers = 1
n_decoder_layers = 1
d_feedforward = 33
dropout_p = 0.1
lr = 0.002
warmup_epochs = 1
total_epochs = 2
weight_decay = 0
batch_size = 3
"""

# One epoch of a preset: the preset's shapes at the cost of one pass.
ONE_EPOCH_INI = """\
[transformer]
total_epochs = 1
warmup_epochs = 1
"""

# A phylogeny over the five daughters of synth5.rules.
GOLD_TREE = "((Alba,Bruna),(Cara,(Dola,Esta)));\n"

# Hand-written IPA forms for the phonetic tokenizer: combining marks, both
# tie bars, modifier letters, length and stress marks, precomposed
# letters, a two-word form and a missing cell.  Every token, under each of
# the three tokenizer settings below, is covered by features.csv.
IPA_TSV = (
    "set_id\tIta\tSpa\tFra\tLat\n"
    "s01\tˈkaːne\tˈkan\tʃjɛ̃\tˈkanem\n"
    "s02\tˈt͡ʃɛnto\tˈθjen\ts\u00e3\tˈkentum\n"
    "s03\tˈnɔtte\tˈnot͡ʃe\tnɥi\tˈnoktem\n"
    "s04\tˈlatte\tˈlet͡ʃe\tlɛ\tˈlakte\n"
    "s05\tˈfɔʎʎa\tˈoxa\tfœj\tˈfoli̯a\n"
    "s06\tˈd͡ʒɛnte\tˈxente\tʒɑ̃\tˈgentem\n"
    "s07\tˈpaːne\tˈpan\tpɛ̃\tˈpaːnem\n"
    "s08\tˈt̪ɛrra\tˈt̪jera\ttɛʁ\tˈterra\n"
    "s09\tˈkʷattro\tˈkʷatro\tkatʁ̥\tˈkʷattu̯or\n"
    "s10\tˈkɔːza\tˈkosa\tʃoːz\tˈkau̯sam\n"
    "s11\tˈoːro\tˈoro\tɔʁ\tˈau̯rum\n"
    "s12\tˈpjede\tˈpje\tpʲe\tˈpedem\n"
    "s13\tˌkʷattorˈdit͡ʃi\tˈkatorθe\tkatɔʁz\tˌkʷattu̯orˈdekim\n"
    "s14\tˈmaːno\tˈmano\tmɛ̃\tˈmanum\n"
    "s15\tˈfratello\t\tfʁɛʁ\tˈfraːter\n"
    "s16\tˈdɔnna\tˈdu̯eɲa\tdam\tˈdomina\n"
    "s17\tˈkwi ˈsta\tˈest̪a\tsɛt\tˈiˑsta\n"
    "s18\tˈt͡sukkero\tˈaθukar\tsykʁ\tˈsakkʰarum\n"
    "s19\tˈs\u00f5ːno\tˈsu̯eɲo\tsɔ̃\tˈsomnum\n"
    "s20\tˈl̩ana\tˈlana\tlɛn\tˈlaːnam\n"
    "s21\tˈmɛd͜zo\tˈmeðjo\tmi\tˈmedi̯um\n"
)

# The files each tree's working directory starts with.
INPUTS = {
    "tiny.ini": TINY_INI,
    "odd.ini": ODD_INI,
    "one_epoch.ini": ONE_EPOCH_INI,
    "gold.nwk": GOLD_TREE,
    "ipa.tsv": IPA_TSV,
    "strip.ini": "[corpus]\nstress = strip\n",
    "strip_length.ini": "[corpus]\nstress = strip\nstrip_length = true\n",
}

DATA = os.path.join("src", "protoform", "data")

# (step name, extra environment, arguments); "{data}" is the tree's data directory.
STEPS = [
    ("synth", {}, ["synth", "--rules", "{data}/synth5.rules", "--n-sets", "40", "--seed", "3",
                   "--out-file", "toy.tsv"]),
    ("train", {}, ["train", "--dataset", "toy.tsv", "--config", "tiny.ini",
                   "--seeds", "1@0", "--out", "run"]),
    ("evaluate", {}, ["evaluate", "--dataset", "toy.tsv", "--config", "tiny.ini",
                      "--seeds", "1@0", "--checkpoints", "run",
                      "--baselines", "random,pattern,linear", "--out", "run"]),
    ("train-float32", {"PROTOFORM_DTYPE": "float32", "PROTOFORM_WORKERS": "2"},
     ["train", "--dataset", "toy.tsv", "--config", "tiny.ini", "--seeds", "2@0",
      "--out", "run32"]),
    ("train-float32-serial", {"PROTOFORM_DTYPE": "float32"},
     ["train", "--dataset", "toy.tsv", "--config", "tiny.ini", "--seeds", "2@0",
      "--out", "run32serial"]),
    ("train-odd", {}, ["train", "--dataset", "toy.tsv", "--config", "odd.ini",
                       "--seeds", "1@0", "--out", "odd"]),
    ("train-orthographic", {}, ["train", "--dataset", "toy.tsv", "--config", "tiny.ini",
                                "--orthographic", "--seeds", "1@0", "--out", "orth"]),
    ("evaluate-orthographic", {}, ["evaluate", "--dataset", "toy.tsv", "--config", "tiny.ini",
                                   "--orthographic", "--seeds", "1@0", "--checkpoints", "orth",
                                   "--baselines", "random,pattern,linear", "--out", "orth"]),
    ("probe", {}, ["probe", "--checkpoints", "run32", "--seeds", "2@0",
                   "--gold-tree", "gold.nwk", "--out", "probe"]),
    ("baseline", {}, ["baseline", "--dataset", "toy.tsv", "--kinds", "random,pattern,linear",
                      "--out", "base"]),
    ("synth-mono", {}, ["synth", "--rules", "{data}/sinitic_style.rules", "--n-sets", "40",
                        "--seed", "3", "--out-file", "mono.tsv"]),
    ("baseline-mono", {}, ["baseline", "--dataset", "mono.tsv",
                           "--kinds", "random,majority,pattern,linear", "--out", "mono_base"]),
    ("synth-300", {}, ["synth", "--rules", "{data}/sinitic_style.rules", "--n-sets", "300",
                       "--seed", "5", "--out-file", "mono300.tsv"]),
    ("baseline-300", {}, ["baseline", "--dataset", "mono300.tsv", "--kinds", "pattern,linear",
                          "--out", "base300"]),
    ("synth-800", {}, ["synth", "--rules", "{data}/sinitic_style.rules", "--n-sets", "800",
                       "--seed", "121", "--out-file", "sinitic800.tsv"]),
    ("baseline-ipa", {}, ["baseline", "--dataset", "ipa.tsv", "--out", "ipa_base"]),
    ("baseline-ipa-strip", {}, ["baseline", "--dataset", "ipa.tsv", "--config", "strip.ini",
                                "--out", "ipa_strip"]),
    ("baseline-ipa-strip-length", {}, ["baseline", "--dataset", "ipa.tsv",
                                       "--config", "strip_length.ini", "--out", "ipa_strip_length"]),
    ("synth-sinitic", {}, ["synth", "--rules", "{data}/sinitic_style.rules", "--n-sets", "60",
                           "--seed", "3", "--out-file", "sinitic60.tsv"]),
    ("train-sinitic", {}, ["train", "--dataset", "sinitic60.tsv", "--preset", "sinitic",
                           "--config", "one_epoch.ini", "--seeds", "1@0", "--out", "sinitic"]),
    ("evaluate-sinitic-float32", {"PROTOFORM_DTYPE": "float32"},
     ["evaluate", "--config", "sinitic/config.ini", "--checkpoints", "sinitic",
      "--baselines", "random", "--out", "sinitic_eval32"]),
    ("synth-romance", {}, ["synth", "--rules", "{data}/synth5.rules", "--n-sets", "60",
                           "--seed", "3", "--out-file", "romance60.tsv"]),
    ("train-romance", {}, ["train", "--dataset", "romance60.tsv", "--preset", "romance",
                           "--config", "one_epoch.ini", "--seeds", "1@0", "--out", "romance"]),
    ("synth-700", {}, ["synth", "--rules", "{data}/synth5.rules", "--n-sets", "700",
                       "--seed", "3", "--out-file", "toy700.tsv"]),
    ("train-700", {}, ["train", "--dataset", "toy700.tsv", "--config", "tiny.ini",
                       "--seeds", "1@0", "--out", "run700"]),
    ("evaluate-700", {}, ["evaluate", "--dataset", "toy700.tsv", "--config", "tiny.ini",
                          "--seeds", "1@0", "--checkpoints", "run700", "--out", "run700"]),
    ("gradcheck", {}, ["gradcheck"]),
]


class StepFailed(Exception):
    pass


def run_steps(tree: str, workdir: str) -> dict[str, bytes]:
    """Runs ``STEPS`` under ``tree`` in ``workdir``; returns every stdout and
    every file written, keyed in the order they first appeared."""
    os.makedirs(workdir)
    for name, text in INPUTS.items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    env = {k: v for k, v in os.environ.items() if not k.startswith("PROTOFORM_")}
    env["PYTHONPATH"] = os.path.join(tree, "src")
    order = []
    seen = set(INPUTS)
    stdout = {}
    for name, extra, args in STEPS:
        argv = [a.replace("{data}", os.path.join(tree, DATA)) for a in args]
        proc = subprocess.run([sys.executable, "-m", "protoform.cli", *argv], cwd=workdir,
                              env=env | extra, capture_output=True)
        if proc.returncode != 0:
            err = proc.stderr.decode(errors="replace").strip().splitlines()
            raise StepFailed(f"step {name!r} exited {proc.returncode} under {tree}: "
                             + (err[-1] if err else "no output"))
        key = f"<stdout of {name}>"
        stdout[key] = proc.stdout
        order.append(key)
        for dirpath, _, files in sorted(os.walk(workdir)):
            for f in sorted(files):
                rel = os.path.relpath(os.path.join(dirpath, f), workdir)
                if rel not in seen:
                    seen.add(rel)
                    order.append(rel)
    out = {}
    for key in order:
        if key in stdout:
            out[key] = stdout[key]
        else:
            with open(os.path.join(workdir, key), "rb") as fh:
                out[key] = fh.read()
    return out


def first_difference(mine: dict, theirs: dict) -> str | None:
    """The first artifact of ``mine`` (then of ``theirs``) that is missing
    from the other or differs from it byte for byte."""
    for key in list(mine) + [k for k in theirs if k not in mine]:
        if mine.get(key) != theirs.get(key):
            return key
    return None


def stdout_diff(key: str, mine: dict, theirs: dict, rev: str) -> str:
    """Unified diff of the stdout ``key`` from ``rev``'s run to this tree's."""
    def lines(out):
        return (out.get(key) or b"").decode(errors="replace").splitlines()

    return "\n".join(difflib.unified_diff(lines(theirs), lines(mine), f"{rev}: {key}",
                                          f"this tree: {key}", lineterm=""))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, help="git revision to compare with")
    args = parser.parse_args(argv)
    rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify", "--quiet",
                          args.against + "^{commit}"], capture_output=True, text=True)
    if rev.returncode != 0:
        print(f"error: {args.against!r} is not a commit of {ROOT}", file=sys.stderr)
        return 2
    commit = rev.stdout.strip()
    tmp = tempfile.mkdtemp(prefix="samebytes-")
    other = os.path.join(tmp, "tree")
    try:
        add = subprocess.run(["git", "-C", ROOT, "worktree", "add", "--detach", other, commit],
                             capture_output=True, text=True)
        if add.returncode != 0:
            print(f"error: cannot check out {args.against}: {add.stderr.strip()}",
                  file=sys.stderr)
            return 2
        try:
            mine = run_steps(ROOT, os.path.join(tmp, "mine"))
            theirs = run_steps(other, os.path.join(tmp, "theirs"))
        except StepFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    finally:
        subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force", other],
                       capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)
    diff = first_difference(mine, theirs)
    if diff is not None:
        print(f"DIFFERENT: {diff} (this tree vs {args.against} at {commit[:12]})")
        if diff.startswith("<stdout of "):
            print(stdout_diff(diff, mine, theirs, args.against))
        return 1
    print(f"same bytes: {len(mine)} artifacts of {len(STEPS)} commands match "
          f"{args.against} at {commit[:12]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
