"""The benchmark workloads.

Each workload has a set-up (corpus generation, parsing, split,
vocabulary, model initialisation and, for ``evaluate``, checkpoint
writing) and one timed operation.  Both drive the program only through the
public entry points the CLI calls, looked up on the module at call time
so that tracing can wrap them.  ``check`` runs outside the timed region;
it returns the operation's fingerprint and how many of its units failed,
either a correctness check or the byte-identity contract (outputs equal
to those of the first repetition, same code and seed).
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, replace
from importlib import resources

import numpy as np

from protoform import baselines as B
from protoform import corpus as C
from protoform import engine as E
from protoform import metrics as M
from protoform import phylo as P
from protoform import synth as S
from protoform import transformer as T

SPLIT_SEED = 0

# Rows teacher-forced at once by the decode check; small, so that the check
# does not set the process's peak memory.
CHECK_CHUNK = 32

# The untimed warm-up runs the operation on small splits: this many
# validation or test sets, and four times as many training sets.
WARM_UP_SETS = 16

# A fixed gold phylogeny over the twelve Sinitic-style varieties, for GQD.
GOLD_TREE = "((((V01,V02),(V03,V04)),((V05,V06),(V07,V08))),((V09,V10),(V11,V12)));\n"


def _rules(name: str):
    return S.parse_rules(resources.files("protoform.data").joinpath(name).read_text("utf-8"))


def _corpus(rules_file: str, n_sets: int, n_daughters: int, seed: int):
    tsv = S.generate_tsv(_rules(rules_file), n_sets, n_daughters, seed)
    ds = C.parse_dataset(tsv)
    train, val, test = C.split_dataset(ds, SPLIT_SEED)
    return ds, train, val, test, C.build_vocab(train)


@dataclass(frozen=True)
class Train:
    """One epoch of ``transformer.train`` with a preset, in float64."""

    rules_file: str
    n_sets: int
    n_daughters: int
    preset: str
    dtype: str = "float64"
    step_scope: str = "transformer.loss_batch"

    def setup(self, seed: int, workdir: str) -> dict:
        ds, train, val, _, vocab = _corpus(self.rules_file, self.n_sets, self.n_daughters, seed)
        cfg = replace(T.PRESETS[self.preset], total_epochs=1)
        model = T.Model(cfg, vocab, ds.languages)
        return {"train": train, "val": val, "cfg": cfg, "model": model}

    def warm_up(self, seed: int, workdir: str) -> None:
        st = self.setup(seed, workdir)
        st["train"] = st["train"].subset(range(min(4 * WARM_UP_SETS, len(st["train"]))))
        st["val"] = st["val"].subset(range(min(WARM_UP_SETS, len(st["val"]))))
        self.run(st)

    def sets(self, st) -> int:
        return len(st["train"].sets)

    def steps(self, st) -> int:
        return math.ceil(len(st["train"].sets) / st["cfg"].batch_size) * st["cfg"].total_epochs

    def units(self, st) -> int:
        return self.steps(st)

    def run(self, st):
        return T.train(st["model"], st["train"], st["val"], st["cfg"])

    def check(self, st, trained, ref):
        """Fingerprint: loss history and a digest of the final parameters.
        Failed units: the steps of every epoch whose loss is not finite, and
        every step when the fingerprint differs from ``ref``."""
        digest = hashlib.sha256()
        for name, arr in trained.model.state().items():
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(arr).tobytes())
        history = tuple(tuple(sorted(row.items())) for row in trained.history)
        fingerprint = (history, digest.hexdigest())
        if ref is not None and fingerprint != ref:
            return fingerprint, self.units(st)
        per_epoch = self.steps(st) // st["cfg"].total_epochs
        return fingerprint, sum(per_epoch for row in trained.history
                                if not math.isfinite(row["train_loss"]))


@dataclass(frozen=True)
class Evaluate:
    """Decode, baselines, metrics and probe on two random-init checkpoints,
    in float32 (the dtype the C5 recipe evaluates in)."""

    rules_file: str = "sinitic_style.rules"
    n_sets: int = 800
    n_daughters: int = 12
    model_seeds: tuple = (0, 1)
    max_decode_len: int = 20
    baselines: tuple = ("random", "majority", "pattern", "linear")
    dtype: str = "float32"
    step_scope: str | None = None

    def setup(self, seed: int, workdir: str) -> dict:
        ds, train, _, test, vocab = _corpus(self.rules_file, self.n_sets, self.n_daughters, seed)
        prefixes = []
        for s in self.model_seeds:
            cfg = T.SINITIC.with_seed(s)
            prefix = os.path.join(workdir, f"seed{s}")
            T.TrainedModel(T.Model(cfg, vocab, ds.languages), cfg, vocab, [], 0, 0.0,
                           self.max_decode_len, ds.proto_name).save(prefix)
            prefixes.append(prefix)
        gold_path = os.path.join(workdir, "gold.nwk")
        with open(gold_path, "w", encoding="utf-8") as fh:
            fh.write(GOLD_TREE)
        return {"train": train, "test": test, "test_enc": C.encode_dataset(test, vocab),
                "prefixes": prefixes, "gold_path": gold_path}

    def warm_up(self, seed: int, workdir: str) -> None:
        st = self.setup(seed, workdir)
        st["train"] = st["train"].subset(range(min(4 * WARM_UP_SETS, len(st["train"]))))
        st["test"] = st["test"].subset(range(min(WARM_UP_SETS, len(st["test"]))))
        st["test_enc"] = st["test_enc"][:len(st["test"])]
        self.run(st)

    def sets(self, st) -> int:
        return len(st["test"].sets)

    def steps(self, st) -> int:
        return 1

    def units(self, st) -> int:
        return len(st["test"].sets) * (len(self.model_seeds) + len(self.baselines))

    def run(self, st) -> dict:
        train, test = st["train"], st["test"]
        golds = [cs.proto for cs in test.sets]
        ft = M.FeatureTable.bundled()
        models = [T.TrainedModel.load(p) for p in st["prefixes"]]
        decoded = [T.greedy_decode(tm.model, st["test_enc"], tm.max_decode_len) for tm in models]
        reports = [M.evaluate(words, golds, ft) for words in decoded]
        baseline_preds = {}
        for kind in self.baselines:
            if kind == "random":
                preds = [B.random_daughter(cs, self.model_seeds[0]) for cs in test.sets]
            elif kind == "majority":
                preds = [B.majority_constituent(train, cs) for cs in test.sets]
            else:
                sites = B.align_cognates(train)
                clf = B.train_site_classifier(sites, kind, B.ContextConfig(),
                                              seed=self.model_seeds[0])
                preds = [B.reconstruct_with_classifier(clf, cs) for cs in test.sets]
            baseline_preds[kind] = preds
            reports.append(M.evaluate(preds, golds, ft))
        trees = [P.ward_cluster(P.cosine_distance_matrix(T.extract_language_embeddings(tm.model)))
                 for tm in models]
        cons = P.consensus(trees)
        gold = P.load_newick(st["gold_path"])
        probe = (P.serialize_newick(cons), P.gqd(gold, cons), tuple(P.gqd(gold, t) for t in trees))
        return {"models": models, "decoded": decoded, "baselines": baseline_preds,
                "reports": reports, "probe": probe}

    def check(self, st, out, ref):
        """Fingerprint: decoded words, baseline predictions, metric reports
        and probe results.  Failed units: decoded words that their own
        model does not reproduce under teacher forcing, and every word,
        prediction or scored system (its test sets) that differs from
        ``ref``; a differing probe result fails one unit."""
        failed = sum(inconsistent_words(tm.model, st["test_enc"], words, tm.max_decode_len)
                     for tm, words in zip(out["models"], out["decoded"]))
        fingerprint = (tuple(map(tuple, out["decoded"])),
                       tuple(tuple(v) for v in out["baselines"].values()),
                       tuple(out["reports"]), out["probe"])
        if ref is not None and fingerprint != ref:
            pairs = [(a, b) for mine, theirs in zip(fingerprint[:2], ref[:2])
                     for rows, ref_rows in zip(mine, theirs) for a, b in zip(rows, ref_rows)]
            failed += sum(a != b for a, b in pairs)
            failed += len(st["test"].sets) * sum(a != b for a, b in zip(out["reports"], ref[2]))
            failed += out["probe"] != ref[3]
        return fingerprint, failed


def inconsistent_words(model, examples, words, max_len: int) -> int:
    """Number of greedy-decoded words that teacher forcing does not reproduce.

    Each word is fed back through ``encode_batch``/``decode_batch``; with
    PAD/BOS/UNK masked, the argmax at every position must give the word's
    next token, and EOS after a word shorter than ``max_len``.  A position
    whose decoded token ties the maximum to within a few ulps of the dtype
    passes: batch shape may change the last bits of a GEMM.  Any exact
    greedy decoder, KV-cached included, passes this.
    """
    tol = 64 * np.finfo(E.default_dtype()).eps
    bad = 0
    for lo in range(0, len(words), CHECK_CHUNK):
        chunk = words[lo:lo + CHECK_CHUNK]
        batch = T.collate(examples[lo:lo + CHECK_CHUNK])
        tgt = np.full((len(chunk), max_len + 1), C.PAD_ID, dtype=np.int64)
        for r, word in enumerate(chunk):
            ids = [C.BOS_ID] + [model.vocab.tgt_id(t) for t in word]
            if len(word) < max_len:
                ids.append(C.EOS_ID)
            tgt[r, :len(ids)] = ids
        with E.no_grad():
            memory = model.encode_batch(batch)
            logits = model.decode_batch(memory, tgt[:, :-1], batch.src_pad).data
        logits = logits.astype(np.float64)
        logits[..., [C.PAD_ID, C.BOS_ID, C.UNK_ID]] = -np.inf
        for r, word in enumerate(chunk):
            n = len(word) + (len(word) < max_len)
            rows = logits[r, :n]
            best = rows.max(axis=-1)
            got = rows[np.arange(n), tgt[r, 1:n + 1]]
            bad += bool(np.any(got < best - tol * np.maximum(1.0, np.abs(best))))
    return bad


WORKLOADS = {
    "train-sinitic": Train("sinitic_style.rules", 800, 12, "sinitic"),
    "train-romance": Train("synth5.rules", 500, 5, "romance"),
    "evaluate": Evaluate(),
}
