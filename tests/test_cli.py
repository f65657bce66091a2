import json
import os
import struct
import subprocess
import sys
from importlib import resources

import numpy as np
import pytest

from protoform import cli
from protoform import engine as E

RULES = resources.files("protoform.data").joinpath("synth5.rules")

TINY_INI = """\
[transformer]
d_model = 32
n_heads = 4
n_encoder_layers = 1
n_decoder_layers = 1
d_feedforward = 64
dropout_p = 0.1
lr = 0.002
warmup_epochs = 2
total_epochs = 6
weight_decay = 0
batch_size = 8
"""


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    rules = root / "rules.txt"
    rules.write_text(RULES.read_text("utf-8"), encoding="utf-8")
    ini = root / "tiny.ini"
    ini.write_text(TINY_INI, encoding="utf-8")
    assert cli.main(["synth", "--rules", str(rules), "--n-sets", "60",
                     "--seed", "1", "--out-file", str(root / "toy.tsv")]) == 0
    return root


def run(args):
    return cli.main([str(a) for a in args])


def run_fails(args, code, capsys):
    """Runs a command that must exit with ``code`` after one stderr line and
    leave no ``--out`` behind; returns the line."""
    out = args[args.index("--out") + 1]
    assert run(args) == code
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:" if code == 2 else "failure:")
    assert not out.exists()
    return err[0]


class TestSynthCommand:
    def test_byte_identical_reruns(self, workdir):
        a, b = workdir / "a.tsv", workdir / "b.tsv"
        for out in (a, b):
            assert run(["synth", "--rules", workdir / "rules.txt", "--n-sets", 30,
                        "--seed", 7, "--out-file", out]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_rules_exit_2(self, workdir, capsys):
        assert run(["synth", "--rules", workdir / "nope.rules", "--n-sets", 5,
                    "--out-file", "-"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [0, -1, 99])
    def test_daughter_count_out_of_range_exit_2(self, workdir, tmp_path, capsys, n):
        out = tmp_path / "out.tsv"
        assert run(["synth", "--rules", workdir / "rules.txt", "--n-sets", 5,
                    "--n-daughters", n, "--out-file", out]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "n_daughters" in err[0]
        assert not out.exists()


class TestTrainEvaluate:
    def test_train_writes_artifacts(self, workdir):
        out = workdir / "run"
        assert run(["train", "--dataset", workdir / "toy.tsv", "--config",
                    workdir / "tiny.ini", "--seeds", "2@0", "--out", out]) == 0
        for name in ("config.ini", "seed0.ckpt", "seed0.json", "seed0_history.csv",
                     "seed1.ckpt"):
            assert (out / name).exists(), name
        history = (out / "seed0_history.csv").read_text().splitlines()
        assert history[0] == "epoch,lr,train_loss,val_ped"
        assert len(history) == 1 + 6

    def test_train_rerun_is_byte_identical(self, workdir):
        out2 = workdir / "run_again"
        assert run(["train", "--dataset", workdir / "toy.tsv", "--config",
                    workdir / "tiny.ini", "--seeds", "2@0", "--out", out2]) == 0
        for name in ("seed0.ckpt", "seed1.ckpt", "seed0_history.csv", "config.ini"):
            assert (out2 / name).read_bytes() == (workdir / "run" / name).read_bytes()

    def test_evaluate_with_baselines(self, workdir):
        out = workdir / "run"
        assert run(["evaluate", "--dataset", workdir / "toy.tsv", "--config",
                    workdir / "tiny.ini", "--seeds", "2@0", "--checkpoints", out,
                    "--baselines", "random,pattern,linear", "--out", out]) == 0
        table = (out / "results.txt").read_text()
        assert "transformer" in table and "random-daughter" in table
        assert "svm-style" in table
        csv = (out / "results.csv").read_text().splitlines()
        assert csv[0].startswith("system,ped,ped_sd,nped")
        assert len(csv) == 1 + 4

    def test_evaluate_vocab_mismatch_exit_1(self, workdir):
        other_rules = workdir / "other.rules"
        other_rules.write_text(
            "proto: Proto\ninventory: b d g f v a i u e ə\ndaughter Alba:\n"
            "daughter Bruna:\ndaughter Cara:\ndaughter Dola:\ndaughter Esta:\n",
            encoding="utf-8")
        other = workdir / "other.tsv"
        assert run(["synth", "--rules", other_rules, "--n-sets", "60",
                    "--seed", "99", "--out-file", other]) == 0
        assert run(["evaluate", "--dataset", other, "--config", workdir / "tiny.ini",
                    "--seeds", "2@0", "--checkpoints", workdir / "run",
                    "--out", workdir / "evalbad"]) == 1

    def test_missing_dataset_exit_2(self, workdir):
        assert run(["train", "--dataset", workdir / "missing.tsv", "--seeds", "1@0",
                    "--out", workdir / "x"]) == 2

    def test_missing_checkpoint_exit_2(self, workdir, tmp_path, capsys):
        err = run_fails(["evaluate", "--dataset", workdir / "toy.tsv", "--config",
                         workdir / "tiny.ini", "--seeds", "5@0",
                         "--checkpoints", workdir / "run", "--out", tmp_path / "y"], 2, capsys)
        assert "seed2" in err


    def _copy_run(self, workdir, name):
        dst = workdir / name
        dst.mkdir()
        for f in ("seed0.ckpt", "seed0.json"):
            (dst / f).write_bytes((workdir / "run" / f).read_bytes())
        return dst

    def test_truncated_checkpoint_exit_2(self, workdir, capsys):
        ckpts = self._copy_run(workdir, "truncated")
        blob = (ckpts / "seed0.ckpt").read_bytes()
        (ckpts / "seed0.ckpt").write_bytes(blob[:len(blob) - 100])
        assert run(["evaluate", "--dataset", workdir / "toy.tsv", "--config",
                    workdir / "tiny.ini", "--seeds", "1@0", "--checkpoints", ckpts,
                    "--out", workdir / "eval_truncated"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "truncated" in err[0]

    def test_corrupt_sidecar_exit_2(self, workdir, capsys):
        ckpts = self._copy_run(workdir, "corrupt_sidecar")
        text = (ckpts / "seed0.json").read_text(encoding="utf-8")
        (ckpts / "seed0.json").write_text(text[:len(text) // 2], encoding="utf-8")
        assert run(["probe", "--checkpoints", ckpts, "--seeds", "1@0",
                    "--out", workdir / "probe_corrupt"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    @pytest.mark.parametrize("case", ["transposed", "extra"])
    def test_mismatched_checkpoint_exit_2(self, workdir, tmp_path, capsys, case):
        ckpts = self._copy_run(workdir, f"mismatched_{case}")
        state = E.load_checkpoint(str(ckpts / "seed0.ckpt"))
        if case == "transposed":
            state["enc0.ff.w1"] = state["enc0.ff.w1"].T
        else:
            state["bogus"] = np.zeros(3)
        E.save_checkpoint(str(ckpts / "seed0.ckpt"), state)
        err = run_fails(["evaluate", "--dataset", workdir / "toy.tsv", "--config",
                         workdir / "tiny.ini", "--seeds", "1@0", "--checkpoints", ckpts,
                         "--out", tmp_path / "eval"], 2, capsys)
        assert ("enc0.ff.w1" if case == "transposed" else "bogus") in err

    @pytest.mark.parametrize("value", ["x", None, 0, True])
    def test_bad_max_decode_len_exit_2(self, workdir, tmp_path, capsys, value):
        ckpts = self._copy_run(workdir, f"max_decode_len_{value}")
        sidecar = json.loads((ckpts / "seed0.json").read_text(encoding="utf-8"))
        sidecar["max_decode_len"] = value
        (ckpts / "seed0.json").write_text(json.dumps(sidecar), encoding="utf-8")
        err = run_fails(["evaluate", "--dataset", workdir / "toy.tsv", "--config",
                         workdir / "tiny.ini", "--seeds", "1@0", "--checkpoints", ckpts,
                         "--out", tmp_path / "eval"], 2, capsys)
        assert "max_decode_len" in err

    LANGUAGES = {"ints": [1, 2, 3, 4, 5], "repeated": ["A", "A", "B", "C", "D"],
                 "string": "ABCDE"}

    def _fails_on_sidecar(self, workdir, tmp_path, capsys, command, name, edit):
        """Runs ``command`` (evaluate or probe) on a copy of the run whose
        sidecar ``edit`` changed in place; it must exit 2. Returns the line."""
        ckpts = self._copy_run(workdir, name)
        sidecar = json.loads((ckpts / "seed0.json").read_text(encoding="utf-8"))
        edit(sidecar)
        (ckpts / "seed0.json").write_text(json.dumps(sidecar), encoding="utf-8")
        return self._fails_on(workdir, tmp_path, capsys, command, ckpts)

    @staticmethod
    def _fails_on(workdir, tmp_path, capsys, command, ckpts):
        """Runs ``command`` (evaluate or probe) on ``ckpts``; it must exit 2.
        Returns the line."""
        if command == "evaluate":
            args = ["evaluate", "--dataset", workdir / "toy.tsv", "--config",
                    workdir / "tiny.ini", "--seeds", "1@0", "--checkpoints", ckpts]
        else:
            args = ["probe", "--checkpoints", ckpts, "--seeds", "1@0"]
        return run_fails(args + ["--out", tmp_path / command], 2, capsys)

    @pytest.mark.parametrize("command", ["evaluate", "probe"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_checkpoint_exit_2(self, workdir, tmp_path, capsys, value, command):
        # one payload double of the last tensor, the manifest untouched
        ckpts = self._copy_run(workdir, f"non_finite_{value}_{command}")
        path = ckpts / "seed0.ckpt"
        blob = path.read_bytes()
        start = blob.index(b"\nend\n") + len(b"\nend\n")
        _, name, _, offset, count = blob[:start].decode("ascii").splitlines()[-2].split(" ")
        at = start + int(offset) + 8 * (int(count) // 2)
        path.write_bytes(blob[:at] + struct.pack("<d", float(value)) + blob[at + 8:])
        err = self._fails_on(workdir, tmp_path, capsys, command, ckpts)
        assert str(path) in err and repr(name) in err

    @pytest.mark.parametrize("command", ["evaluate", "probe"])
    @pytest.mark.parametrize("case", sorted(LANGUAGES))
    def test_bad_languages_exit_2(self, workdir, tmp_path, capsys, case, command):
        err = self._fails_on_sidecar(
            workdir, tmp_path, capsys, command, f"languages_{case}_{command}",
            lambda sidecar: sidecar.update(languages=self.LANGUAGES[case]))
        assert "languages" in err

    CONFIG_TYPES = {"n_heads": True, "batch_size": True, "d_model": 16.0, "lr": "0.001"}

    @pytest.mark.parametrize("command", ["evaluate", "probe"])
    @pytest.mark.parametrize("key", sorted(CONFIG_TYPES))
    def test_bad_config_type_exit_2(self, workdir, tmp_path, capsys, key, command):
        value = self.CONFIG_TYPES[key]
        err = self._fails_on_sidecar(
            workdir, tmp_path, capsys, command, f"config_{key}_{command}",
            lambda sidecar: sidecar["config"].update({key: value}))
        kind = "a number" if key == "lr" else "an integer"
        assert err.endswith(f": {key} {value!r} is not {kind}")


class TestNotUtf8:
    """A text input that is not UTF-8 (here a UTF-16 byte-order mark) ends
    with exit 2 and one line naming the file, and nothing is written."""

    BLOB = b"\xff\xfe" + "set_id\tA\n".encode("utf-16-le")

    @pytest.mark.parametrize("flag", ["--dataset", "--config", "--gold-tree"])
    def test_exit_2_with_one_line(self, workdir, tmp_path, capsys, flag):
        bad = tmp_path / "utf16.txt"
        bad.write_bytes(self.BLOB)
        args = {
            "--dataset": ["baseline", "--dataset", bad, "--kinds", "random"],
            "--config": ["baseline", "--dataset", workdir / "toy.tsv", "--config", bad,
                         "--kinds", "random"],
            "--gold-tree": ["probe", "--checkpoints", workdir / "run", "--seeds", "1@0",
                            "--gold-tree", bad],
        }[flag]
        err = run_fails(args + ["--out", tmp_path / "out"], 2, capsys)
        assert str(bad) in err and "UTF-8" in err

    def test_synth_rules_exit_2_with_one_line(self, tmp_path, capsys):
        bad, out = tmp_path / "utf16.rules", tmp_path / "out.tsv"
        bad.write_bytes(self.BLOB)
        assert run(["synth", "--rules", bad, "--n-sets", 5, "--out-file", out]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and str(bad) in err[0]
        assert not out.exists()


class TestBadConfig:
    @pytest.mark.parametrize("line", [
        "n_heads = 0",
        "batch_size = 0",
        "total_epochs = 0",
        "d_model = 16.5",
        "n_heads = abc",
        "d_feedforward = 0",
        "n_decoder_layers = -1",
        "warmup_epochs = -1",
        "lr = 0",
        "lr = inf",
        "lr = 1e400",
        "weight_decay = -1e-3",
        "weight_decay = inf",
        "seed = 7",
    ])
    def test_exit_2_with_one_line(self, workdir, tmp_path, capsys, line):
        key = line.split(" = ")[0]
        kept = [ln for ln in TINY_INI.splitlines() if not ln.startswith(key + " ")]
        ini = tmp_path / "bad.ini"
        ini.write_text("\n".join(kept + [line]) + "\n", encoding="utf-8")
        assert run(["train", "--dataset", workdir / "toy.tsv", "--config", ini,
                    "--seeds", "1@0", "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert key in err[0]
        assert not (tmp_path / "out").exists()

    def test_out_of_memory_exit_1_with_one_line(self, workdir, tmp_path):
        # 10**15 columns of float64 weights exceed any address space
        ini = tmp_path / "huge.ini"
        ini.write_text(TINY_INI.replace("d_feedforward = 64",
                                        "d_feedforward = 1000000000000000"),
                       encoding="utf-8")
        proc = run_fresh(["train", "--dataset", workdir / "toy.tsv", "--config", ini,
                          "--seeds", "1@0", "--out", tmp_path / "out"])
        assert proc.returncode == 1
        err = proc.stderr.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("failure: Unable to allocate"), err

    def test_preset_flag_wins_over_config_preset(self, workdir, tmp_path):
        ini = tmp_path / "preset.ini"
        ini.write_text("[transformer]\npreset = romance\n", encoding="utf-8")
        args = cli.build_parser().parse_args(
            ["train", "--config", str(ini), "--preset", "sinitic", "--out", "unused"])
        cp = cli._read_config(args.config)
        assert cli.transformer_config_from(args, cp) == cli.T.SINITIC


class TestBadCorpusConfig:
    @pytest.mark.parametrize("line", ["mode = bogus", "stress = nope", "strip_length = yes"])
    def test_exit_2_with_one_line(self, workdir, tmp_path, capsys, line):
        ini = tmp_path / "bad.ini"
        ini.write_text("[corpus]\n" + line + "\n" + TINY_INI, encoding="utf-8")
        assert run(["train", "--dataset", workdir / "toy.tsv", "--config", ini,
                    "--seeds", "1@0", "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert line.split(" = ")[0] in err[0]
        assert not (tmp_path / "out").exists()

    def test_accepted_values_echoed(self, workdir, tmp_path):
        ini = tmp_path / "ok.ini"
        ini.write_text("[corpus]\nmode = phonetic\nstress = strip\nstrip_length = true\n"
                       + TINY_INI.replace("total_epochs = 6", "total_epochs = 1"),
                       encoding="utf-8")
        assert run(["train", "--dataset", workdir / "toy.tsv", "--config", ini,
                    "--seeds", "1@0", "--out", tmp_path / "out"]) == 0
        echo = (tmp_path / "out" / "config.ini").read_text(encoding="utf-8")
        assert "stress = strip" in echo and "strip_length = true" in echo


BASELINE_TXT = """\
system                             PED              NPED              Acc%               FER              BCFS
random-daughter                 0.2500            0.0667           75.0000            0.0069            0.9643
majority-constituent            0.0000            0.0000          100.0000            0.0000            1.0000
"""

BASELINE_CSV = """\
system,ped,ped_sd,nped,nped_sd,acc,acc_sd,fer,fer_sd,bcfs,bcfs_sd
random-daughter,0.250000,,0.066667,,75.000000,,0.006944,,0.964286,
majority-constituent,0.000000,,0.000000,,100.000000,,0.000000,,1.000000,
"""


class TestReportFormat:
    def test_baseline_report_bytes(self, tmp_path):
        # DetRng draws and pure-Python metrics: no BLAS result reaches these numbers
        rules = tmp_path / "sinitic_style.rules"
        rules.write_text(resources.files("protoform.data").joinpath("sinitic_style.rules")
                         .read_text("utf-8"), encoding="utf-8")
        tsv, out = tmp_path / "mono.tsv", tmp_path / "out"
        assert run(["synth", "--rules", rules, "--n-sets", 40, "--seed", 3,
                    "--out-file", tsv]) == 0
        assert run(["baseline", "--dataset", tsv, "--kinds", "random,majority",
                    "--out", out]) == 0
        assert (out / "results.txt").read_text(encoding="utf-8") == BASELINE_TXT
        assert (out / "results.csv").read_text(encoding="utf-8") == BASELINE_CSV

    def test_two_seed_orthographic_report_structure(self, workdir, tmp_path):
        ini = tmp_path / "one_epoch.ini"
        ini.write_text(TINY_INI.replace("total_epochs = 6", "total_epochs = 1"),
                       encoding="utf-8")
        common = ["--dataset", workdir / "toy.tsv", "--config", ini, "--orthographic",
                  "--seeds", "2@0"]
        ckpts, out = tmp_path / "run", tmp_path / "eval"
        assert run(["train", *common, "--out", ckpts]) == 0
        assert run(["evaluate", *common, "--checkpoints", ckpts, "--baselines", "random",
                    "--out", out]) == 0
        fer = cli.COLUMNS.index("FER")
        table = [line.split() for line in
                 (out / "results.txt").read_text(encoding="utf-8").splitlines()]
        assert table[0] == ["system", *cli.COLUMNS]
        assert [row[0] for row in table[1:]] == ["transformer", "random-daughter"]
        for row, spread in zip(table[1:], (True, False)):
            cells = row[1:]
            assert cells[fer] == "-", row
            assert all(("±" in c) == spread for i, c in enumerate(cells) if i != fer), row
        results = [line.split(",") for line in
                   (out / "results.csv").read_text(encoding="utf-8").splitlines()]
        assert all(row[1 + 2 * fer] == row[2 + 2 * fer] == "" for row in results[1:])
        assert all(cell for i, cell in enumerate(results[1][1:]) if i // 2 != fer)
        per_seed = [line.split(",") for line in
                    (out / "per_seed.csv").read_text(encoding="utf-8").splitlines()]
        assert per_seed[0] == ["seed", "ped", "nped", "acc", "fer", "bcfs"]
        assert [row[0] for row in per_seed[1:]] == ["0", "1"]
        assert all(row[1 + fer] == "" for row in per_seed[1:])
        assert all(all(cell for i, cell in enumerate(row[1:]) if i != fer)
                   for row in per_seed[1:])


class TestMajorityBaseline:
    def test_set_without_monosyllabic_daughter_scored_as_miss(self, workdir, tmp_path):
        # set s0032 of this corpus has no monosyllabic daughter
        tsv = tmp_path / "toy.tsv"
        assert run(["synth", "--rules", workdir / "rules.txt", "--n-sets", 40,
                    "--seed", 3, "--out-file", tsv]) == 0
        assert run(["baseline", "--dataset", tsv, "--kinds", "random,majority",
                    "--out", tmp_path / "out"]) == 0
        rows = (tmp_path / "out" / "results.csv").read_text().splitlines()
        assert [r.split(",")[0] for r in rows[1:]] == ["random-daughter",
                                                       "majority-constituent"]


class TestProbe:
    def test_probe_outputs_and_gqd(self, workdir):
        gold = workdir / "gold.nwk"
        gold.write_text("((Alba,Bruna),(Cara,(Dola,Esta)));", encoding="utf-8")
        out = workdir / "probe"
        assert run(["probe", "--checkpoints", workdir / "run", "--seeds", "2@0",
                    "--gold-tree", gold, "--out", out]) == 0
        assert (out / "consensus.nwk").exists()
        assert (out / "seed0.nwk").exists()
        assert (out / "seed0_distances.csv").exists()
        summary = (out / "summary.txt").read_text()
        assert "gqd_consensus:" in summary

    def test_gold_leaf_mismatch_exit_1(self, workdir, tmp_path, capsys):
        gold = workdir / "bad_gold.nwk"
        gold.write_text("((A,B),(C,D));", encoding="utf-8")
        run_fails(["probe", "--checkpoints", workdir / "run", "--seeds", "2@0",
                   "--gold-tree", gold, "--out", tmp_path / "probe_bad"], 1, capsys)

    def test_unparseable_gold_exit_2(self, workdir, tmp_path, capsys):
        gold = workdir / "broken.nwk"
        gold.write_text("((A,B", encoding="utf-8")
        run_fails(["probe", "--checkpoints", workdir / "run", "--seeds", "2@0",
                   "--gold-tree", gold, "--out", tmp_path / "probe_broken"], 2, capsys)

    def test_missing_gold_exit_2(self, workdir, tmp_path, capsys):
        err = run_fails(["probe", "--checkpoints", workdir / "run", "--seeds", "2@0",
                         "--gold-tree", workdir / "nope.nwk", "--out", tmp_path / "probe_nogold"],
                        2, capsys)
        assert "nope.nwk" in err

    # Recorded when probe still took a consensus threshold, at its default
    # 0.5: three random-init models on the toy corpus, whose dendrograms
    # disagree, so the majority rule decides which clades are kept.
    MAJORITY_SUMMARY = ("runs: 3\n"
                        "consensus: ((Alba,Cara),(Bruna,Esta),Dola);\n"
                        "gqd_consensus: 0.800000\n"
                        "gqd_per_seed: 0.800000,0.800000,0.800000\n")

    def test_majority_rule_summary_matches_recorded(self, workdir, tmp_path):
        C, T = cli.C, cli.T
        train, _, _ = C.split_dataset(C.parse_dataset(
            (workdir / "toy.tsv").read_text(encoding="utf-8")), 0)
        vocab = C.build_vocab(train)
        ckpts = tmp_path / "random_init"
        ckpts.mkdir()
        cfg = T.TransformerConfig(d_model=8, n_heads=2, n_encoder_layers=1,
                                  n_decoder_layers=1, d_feedforward=8)
        for seed in range(3):
            model = T.Model(cfg.with_seed(seed), vocab, train.languages)
            T.TrainedModel(model, cfg.with_seed(seed), vocab, [], 0, 0.0, 20,
                           train.proto_name).save(str(ckpts / f"seed{seed}"))
        gold = tmp_path / "gold.nwk"
        gold.write_text("((Alba,Bruna),(Cara,(Dola,Esta)));", encoding="utf-8")
        out = tmp_path / "probe"
        assert run(["probe", "--checkpoints", ckpts, "--seeds", "3@0",
                    "--gold-tree", gold, "--out", out]) == 0
        summary = (out / "summary.txt").read_text(encoding="utf-8")
        assert summary == self.MAJORITY_SUMMARY


class TestFailureWritesNothing:
    def test_unknown_baseline_exit_2(self, workdir, tmp_path, capsys):
        err = run_fails(["evaluate", "--dataset", workdir / "toy.tsv", "--config",
                          workdir / "tiny.ini", "--seeds", "2@0", "--checkpoints",
                          workdir / "run", "--baselines", "random,bogus",
                          "--out", tmp_path / "out"], 2, capsys)
        assert "'bogus'" in err

    def test_unknown_baseline_kind_exit_2(self, workdir, tmp_path, capsys):
        err = run_fails(["baseline", "--dataset", workdir / "toy.tsv",
                          "--kinds", "random,bogus", "--out", tmp_path / "out"], 2, capsys)
        assert "'bogus'" in err

    def test_linear_decay_bound_exit_1(self, workdir, tmp_path, capsys, monkeypatch):
        # with L2 = 1 the per-epoch decay 1 - 0.1 * columns is not positive
        # from 10 aligned columns on
        monkeypatch.setattr(cli.B.LinearClassifier, "L2", 1.0)
        err = run_fails(["baseline", "--dataset", workdir / "toy.tsv",
                          "--kinds", "random,linear", "--out", tmp_path / "out"], 1, capsys)
        assert "aligned columns" in err and "bound of 10" in err

    def test_unsupported_majority_exit_1(self, workdir, tmp_path, capsys):
        # synth5 forms are polysyllabic, so the majority baseline refuses them
        err = run_fails(["evaluate", "--dataset", workdir / "toy.tsv", "--config",
                          workdir / "tiny.ini", "--seeds", "2@0", "--checkpoints",
                          workdir / "run", "--baselines", "random,majority",
                          "--out", tmp_path / "out"], 1, capsys)
        assert "monosyllabic" in err

    def test_dataset_too_small_to_split_exit_1(self, workdir, tmp_path, capsys):
        tsv = tmp_path / "five.tsv"
        assert run(["synth", "--rules", workdir / "rules.txt", "--n-sets", 5,
                    "--seed", 1, "--out-file", tsv]) == 0
        capsys.readouterr()
        err = run_fails(["train", "--dataset", tsv, "--config", workdir / "tiny.ini",
                          "--seeds", "1@0", "--out", tmp_path / "out"], 1, capsys)
        assert "too small" in err

    @pytest.mark.parametrize("command", ["train", "baseline", "probe"])
    def test_out_naming_a_file_exit_2(self, workdir, tmp_path, capsys, command):
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        args = {
            "train": ["train", "--dataset", workdir / "toy.tsv", "--config",
                      workdir / "tiny.ini", "--seeds", "1@0"],
            "baseline": ["baseline", "--dataset", workdir / "toy.tsv", "--kinds", "random"],
            "probe": ["probe", "--checkpoints", workdir / "run", "--seeds", "1@0"],
        }[command]
        assert run(args + ["--out", taken]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "taken" in err[0]
        assert taken.read_text(encoding="utf-8") == ""


class TestOneParsePerRun:
    def test_train_parses_the_dataset_once(self, workdir, tmp_path, monkeypatch):
        calls = []
        real = cli.C.parse_dataset

        def counted(*a, **k):
            calls.append(1)
            return real(*a, **k)

        monkeypatch.setattr(cli.C, "parse_dataset", counted)
        ini = tmp_path / "one_epoch.ini"
        ini.write_text(TINY_INI.replace("total_epochs = 6", "total_epochs = 1"),
                       encoding="utf-8")
        assert run(["train", "--dataset", workdir / "toy.tsv", "--config", ini,
                    "--seeds", "2@0", "--out", tmp_path / "out"]) == 0
        assert len(calls) == 1


class TestGradcheckCommand:
    def test_passes_and_prints_per_op(self, capsys):
        assert cli.main(["gradcheck"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines[:-1]] == list(E.OP_KINDS)
        assert all(line.endswith("  ok") for line in lines[:-1])
        assert lines[-1].startswith("overall max rel err ")
        assert lines[-1].endswith(f" over {len(E.OP_KINDS)} ops, 3 seeds")

    def test_float32_default_prints_the_float64_report(self, capsys, monkeypatch):
        # the check builds its tensors in float64 whatever the engine default
        prev = cli.E.default_dtype().__name__
        out = {}
        try:
            for dtype in ("float64", "float32"):
                monkeypatch.setenv(cli.DTYPE_ENV, dtype)
                assert cli.main(["gradcheck"]) == 0
                out[dtype] = capsys.readouterr().out
        finally:
            cli.E.set_default_dtype(prev)
        assert out["float32"] == out["float64"]

    def test_corrupted_gradient_reported(self, capsys, monkeypatch):
        from protoform.engine import gradcheck
        real = gradcheck.grad_check

        def corrupted(kind, seed=0):
            return 1.0 if kind == "softmax" else real(kind, seed)

        # run_suite looks grad_check up in its own module
        monkeypatch.setattr(gradcheck, "grad_check", corrupted)
        assert cli.main(["gradcheck"]) == 1
        out = capsys.readouterr().out
        assert "FAILED: softmax" in out


class TestSeedSpecs:
    def test_forms(self):
        assert cli.parse_seeds("0-3") == [0, 1, 2, 3]
        assert cli.parse_seeds("5") == [5]
        assert cli.parse_seeds("1,4,7") == [1, 4, 7]
        assert cli.parse_seeds("3@10") == [10, 11, 12]

    def test_duplicates_rejected(self):
        with pytest.raises(cli.CliInputError):
            cli.parse_seeds("1,1")

    @pytest.mark.parametrize("spec", ["x", "1-x", "3@", "1,y"])
    def test_malformed_rejected(self, spec):
        with pytest.raises(cli.CliInputError, match="seed list"):
            cli.parse_seeds(spec)

    def test_malformed_exit_2_with_one_line(self, workdir, tmp_path, capsys):
        assert run(["train", "--dataset", workdir / "toy.tsv", "--config",
                    workdir / "tiny.ini", "--seeds", "x", "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "'x'" in err[0]


def run_fresh(args, **env):
    """The CLI in a new interpreter, so environment variables are read anew."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ, "PYTHONPATH": src, **env}
    return subprocess.run([sys.executable, "-m", "protoform.cli", *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=300)


class TestEnvironment:
    @pytest.mark.parametrize("command", ["gradcheck", "synth", "train"])
    def test_bad_dtype_exit_2_with_one_line(self, workdir, tmp_path, command):
        out = tmp_path / "out"
        args = {
            "gradcheck": ["gradcheck"],
            "synth": ["synth", "--rules", workdir / "rules.txt", "--n-sets", 5,
                      "--out-file", out],
            "train": ["train", "--dataset", workdir / "toy.tsv", "--config",
                      workdir / "tiny.ini", "--seeds", "1@0", "--out", out],
        }[command]
        proc = run_fresh(args, PROTOFORM_DTYPE="f16")
        assert proc.returncode == 2
        err = proc.stderr.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "PROTOFORM_DTYPE" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("value", ["two", "0", "-1", "1.5"])
    def test_bad_workers_exit_2_before_any_output(self, workdir, tmp_path, capsys,
                                                  monkeypatch, value):
        monkeypatch.setenv(cli.WORKERS_ENV, value)
        out = tmp_path / "out"
        assert run(["train", "--dataset", workdir / "toy.tsv", "--config",
                    workdir / "tiny.ini", "--seeds", "2@0", "--out", out]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and repr(value) in err[0]
        assert not out.exists()

    def test_workers_train_in_the_named_dtype(self, workdir, tmp_path):
        ini = tmp_path / "one_epoch.ini"
        ini.write_text(TINY_INI.replace("total_epochs = 6", "total_epochs = 1"),
                       encoding="utf-8")
        train = ["train", "--dataset", workdir / "toy.tsv", "--config", ini, "--seeds", "2@0"]
        runs = {"parallel32": {"PROTOFORM_DTYPE": "float32", "PROTOFORM_WORKERS": "2"},
                "serial32": {"PROTOFORM_DTYPE": "float32", "PROTOFORM_WORKERS": "1"},
                "serial64": {"PROTOFORM_DTYPE": "float64", "PROTOFORM_WORKERS": "1"}}
        for name, env in runs.items():
            assert run_fresh(train + ["--out", tmp_path / name], **env).returncode == 0
        for seed in (0, 1):
            ckpt = {name: (tmp_path / name / f"seed{seed}.ckpt").read_bytes() for name in runs}
            assert ckpt["parallel32"] == ckpt["serial32"] != ckpt["serial64"]
