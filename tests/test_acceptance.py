"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  The full Sinitic reproduction (criterion 5) needs
the real cognate TSV, which cannot be redistributed here; point
PROTOFORM_SINITIC_TSV at it (or place it at data/sinitic.tsv) to run that
criterion, otherwise it reports SKIPPED.
"""

import itertools
import os
import subprocess
import sys
import time
from dataclasses import replace
from functools import lru_cache
from importlib import resources

import numpy as np
import pytest

import protoform.engine as E
from protoform import baselines as B
from protoform import cli
from protoform import corpus as C
from protoform import metrics as M
from protoform import phylo as P
from protoform import synth as S
from protoform import transformer as T
from protoform.engine.gradcheck import central_difference
from test_phylo import topologies_equal


def report(cid: str, ok: bool, detail: str):
    line = f"[ACCEPTANCE] {cid}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line, flush=True)
    assert ok, line


def sinitic_tsv_path():
    cand = os.environ.get("PROTOFORM_SINITIC_TSV", os.path.join("data", "sinitic.tsv"))
    return cand if os.path.exists(cand) else None


# ---------------------------------------------------------------------------


def test_c1_gradient_correctness():
    t0 = time.time()
    suite = E.run_suite(seeds=(0, 1, 2))
    worst_op = max(suite.values())

    # end-to-end: tiny transformer, 20 sampled parameters, 1e-3 relative
    rows = ["id\tA\tB\tP"] + [f"s{i}\tka{i % 4}\tan\tka{i % 4}" for i in range(8)]
    ds = C.parse_dataset("\n".join(rows),
                         C.ParseOptions(tokenizer=C.TokenizerOptions(mode="orthographic")))
    vocab = C.build_vocab(ds)
    cfg = T.TransformerConfig(d_model=8, n_heads=2, n_encoder_layers=2,
                              n_decoder_layers=2, d_feedforward=16, dropout_p=0.0,
                              lr=1e-3, warmup_epochs=1, total_epochs=1,
                              weight_decay=0.0, batch_size=4, seed=3)
    model = T.Model(cfg, vocab, ds.languages)
    batch = T.collate(C.encode_dataset(ds, vocab))
    E.backward(model.loss_batch(batch))

    def loss_value():
        with E.no_grad():
            return float(model.loss_batch(batch).data)

    rng = E.philox(2024)
    names = sorted(model.params)
    worst_e2e, checked, attempts = 0.0, 0, 0
    while checked < 20 and attempts < 300:
        attempts += 1
        p = model.params[names[int(rng.integers(0, len(names)))]]
        flat = p.data.reshape(-1)
        i = int(rng.integers(0, flat.size))
        analytic = 0.0 if p.grad is None else float(p.grad.reshape(-1)[i])
        numeric = central_difference(loss_value, flat, i)
        if abs(analytic) < 1e-7 and abs(numeric) < 1e-7:
            continue
        worst_e2e = max(worst_e2e, abs(analytic - numeric) / max(abs(analytic), abs(numeric)))
        checked += 1
    elapsed = time.time() - t0
    ok = worst_op < 1e-4 and checked == 20 and worst_e2e < 1e-3 and elapsed < 60
    report("C1 gradient correctness",
           ok,
           f"per-op max rel err {worst_op:.2e} (<1e-4), e2e max {worst_e2e:.2e} "
           f"(<1e-3, {checked} params), {elapsed:.1f}s (<60s)")


def test_c2_metric_oracles():
    # edit distance vs exhaustive recursion, all pairs len<=5 over 3 tokens
    words = [w for n in range(6) for w in itertools.product(("a", "b", "c"), repeat=n)]

    def oracle(a, b):
        @lru_cache(maxsize=None)
        def d(i, j):
            if i == 0:
                return j
            if j == 0:
                return i
            return min(d(i - 1, j - 1) + (a[i - 1] != b[j - 1]),
                       d(i - 1, j) + 1, d(i, j - 1) + 1)
        return d(len(a), len(b))

    mismatches = sum(
        M.edit_distance(wa, wb) != oracle(wa, wb) for wa in words for wb in words
    )

    ft = M.FeatureTable.bundled()
    fer_sub = M.feature_error_rate(("p", "a", "t", "a"), ("b", "a", "t", "a"), ft)
    fer_del = M.feature_error_rate(("k", "a", "t", "a", "s"), ("k", "a", "t", "a"), ft)
    fer_ok = (abs(fer_sub - (1 / 24) / 4) <= 1e-12 and abs(fer_del - 0.25) <= 1e-12
              and M.feature_error_rate(("m", "a"), ("m", "a"), ft) == 0.0)

    bc_identity = M.bcubed_f([("k", "a")] * 3, [("k", "a")] * 3)
    bc_relabel = M.bcubed_f([("b", "b"), ("b",)], [("a", "a"), ("a",)])
    # hand enumeration for a mixed 3-pair set (quadratic-time double loop)
    preds = [("a", "b"), ("a",), ("c", "b")]
    golds = [("a", "b"), ("a", "b"), ("a", "b")]
    items = []
    for p, g in zip(preds, golds):
        cp = [{t: i for i, t in enumerate(dict.fromkeys(p))}[t] for t in p]
        cg = [{t: i for i, t in enumerate(dict.fromkeys(g))}[t] for t in g]
        for pi, gi in M.nw_align(tuple(range(len(p))), tuple(range(len(g))),
                                 lambda i, j: 0 if cp[i] == cg[j] else 1):
            items.append((g[gi] if gi is not None else M.GAP,
                          p[pi] if pi is not None else M.GAP))
    pr = sum(sum(1 for o in items if o == it) / sum(1 for o in items if o[1] == it[1])
             for it in items) / len(items)
    rc = sum(sum(1 for o in items if o == it) / sum(1 for o in items if o[0] == it[0])
             for it in items) / len(items)
    bc_hand = 2 * pr * rc / (pr + rc)
    bc_ok = (abs(bc_identity - 1.0) <= 1e-12 and abs(bc_relabel - 1.0) <= 1e-12
             and abs(M.bcubed_f(preds, golds) - bc_hand) <= 1e-12)

    # relabel invariance over 100 random bijections
    rng = E.DetRng(606)
    alphabet = list("abcdef")
    golds_r, preds_r = [], []
    for _ in range(30):
        golds_r.append(tuple(alphabet[rng.randint(6)] for _ in range(rng.randint(5) + 1)))
        preds_r.append(tuple(alphabet[rng.randint(6)] for _ in range(rng.randint(5) + 1)))
    base = M.bcubed_f(preds_r, golds_r)
    drift = 0.0
    for _ in range(100):
        perm = list(alphabet)
        rng.shuffle(perm)
        table = dict(zip(alphabet, perm))
        drift = max(drift, abs(M.bcubed_f([tuple(table[t] for t in w) for w in preds_r],
                                          golds_r) - base))

    ok = mismatches == 0 and fer_ok and bc_ok and drift <= 1e-12
    report("C2 metric oracles", ok,
           f"edit-distance mismatches {mismatches}/{len(words) ** 2}, FER exact "
           f"{fer_ok}, BCFS exact {bc_ok}, relabel drift {drift:.1e} over 100 bijections")


def overfit_corpus():
    """Real 50-set Sinitic subset when available, else the bundled
    deterministic Sinitic-style synthetic corpus (see decisions ledger)."""
    real = sinitic_tsv_path()
    if real:
        with open(real, encoding="utf-8") as fh:
            ds = C.parse_dataset(fh.read())
        return C.Dataset(ds.sets[:50], ds.languages, ds.proto_name), "real Sinitic subset"
    rules = S.parse_rules(
        resources.files("protoform.data").joinpath("sinitic_style.rules").read_text("utf-8"))
    ds = C.parse_dataset(S.generate_tsv(rules, 50, 12, seed=5))
    return ds, "bundled Sinitic-style synthetic corpus"


def test_c3_overfit_sinitic_preset():
    t0 = time.time()
    subset, source = overfit_corpus()
    assert len(subset.sets) == 50
    vocab = C.build_vocab(subset)
    cfg = T.SINITIC  # 200 epochs, within the stated 300-epoch bound
    model = T.Model(cfg, vocab, subset.languages)
    trained = T.train(model, subset, subset, cfg)
    enc = C.encode_dataset(subset, vocab)
    preds = T.greedy_decode(trained.model, enc, trained.max_decode_len)
    acc = 100.0 * sum(p == cs.proto for p, cs in zip(preds, subset.sets)) / 50
    elapsed = time.time() - t0
    ok = acc >= 95.0 and elapsed < 600
    report("C3 overfit (Sinitic preset, 50 sets)", ok,
           f"train exact-match {acc:.1f}% (>=95%) on {source}, epoch budget 200/300, "
           f"{elapsed:.0f}s (<600s)")


def test_c4_synthetic_end_to_end():
    t0 = time.time()
    rules = S.parse_rules(
        resources.files("protoform.data").joinpath("synth5.rules").read_text("utf-8"))
    ds = C.parse_dataset(S.generate_tsv(rules, 500, 5, seed=11))
    assert len(ds.languages) == 5
    assert all(len(rs) == 4 for _, rs in rules.daughters)
    train_ds, val_ds, test_ds = C.split_dataset(ds, 0)
    vocab = C.build_vocab(train_ds)
    cfg = T.TransformerConfig(d_model=64, n_heads=4, n_encoder_layers=2,
                              n_decoder_layers=2, d_feedforward=128, dropout_p=0.1,
                              lr=1e-3, warmup_epochs=5, total_epochs=60,
                              weight_decay=0.0, batch_size=16, seed=0)
    trained = T.train(T.Model(cfg, vocab, ds.languages), train_ds, val_ds, cfg)
    enc = C.encode_dataset(test_ds, vocab)
    preds = T.greedy_decode(trained.model, enc, trained.max_decode_len)
    golds = [cs.proto for cs in test_ds.sets]
    acc = M.evaluate(preds, golds).accuracy
    rand_acc = M.evaluate([B.random_daughter(cs, 0) for cs in test_ds.sets], golds).accuracy
    elapsed = time.time() - t0
    ok = acc >= 85.0 and acc - rand_acc >= 30.0 and elapsed < 1800
    report("C4 synthetic end-to-end", ok,
           f"transformer {acc:.1f}% (>=85%), random daughter {rand_acc:.1f}%, "
           f"margin {acc - rand_acc:.1f}pp (>=30), {elapsed:.0f}s (<1800s)")


def test_c5_sinitic_reproduction(tmp_path):
    path = sinitic_tsv_path()
    if path is None:
        print("[ACCEPTANCE] C5 Sinitic reproduction: SKIPPED — the Hou (2004) TSV is "
              "not bundled (restricted redistribution of the scraped Wiktionary data) "
              "and this environment has no general network access; set "
              "PROTOFORM_SINITIC_TSV to the 804-set TSV to run the 10-seed "
              "reproduction (target: mean Acc >= 33%, mean PED <= 1.15).", flush=True)
        pytest.skip("Sinitic dataset not available in this environment")
    t0 = time.time()
    env = dict(os.environ)
    env.setdefault("PROTOFORM_DTYPE", "float32")   # 64-bit fits no 8h budget on 2 cores
    env.setdefault("PROTOFORM_WORKERS", "2")
    out = str(tmp_path / "sinitic")
    run = [sys.executable, "-m", "protoform.cli"]
    subprocess.run(run + ["train", "--dataset", path, "--preset", "sinitic",
                          "--seeds", "10@0", "--out", out], env=env, check=True)
    subprocess.run(run + ["evaluate", "--dataset", path, "--seeds", "10@0",
                          "--checkpoints", out, "--out", out], env=env, check=True)
    header, row = None, None
    with open(os.path.join(out, "results.csv"), encoding="utf-8") as fh:
        for line in fh.read().splitlines():
            if line.startswith("system,"):
                header = line.split(",")
            elif line.startswith("transformer,"):
                row = line.split(",")
    vals = dict(zip(header, row))
    acc, ped = float(vals["acc"]), float(vals["ped"])
    hours = (time.time() - t0) / 3600
    ok = acc >= 33.0 and ped <= 1.15 and hours < 8.0
    report("C5 Sinitic reproduction (10 seeds)", ok,
           f"mean Acc {acc:.2f}% (>=33%), mean PED {ped:.4f} (<=1.15), "
           f"{hours:.2f}h wall (<8h); paper: 39.50%±3.02, 0.9814±0.0437")


def test_c6_phylogeny_unit_suite():
    # Ward: hand Lance-Williams on 3 points
    d = np.zeros((3, 3))
    d[0, 1] = d[1, 0] = 2.0
    d[0, 2] = d[2, 0] = 6.0
    d[1, 2] = d[2, 1] = 5.0
    t = P.ward_cluster(P.DistanceMatrix(["A", "B", "C"], d))
    inner = [c for c in t.children if not c.is_leaf()][0]
    ward_ok = (t.height == np.sqrt((2 * 36.0 + 2 * 25.0 - 4.0) / 3.0)
               and inner.height == 2.0 and sorted(inner.leaf_names()) == ["A", "B"])

    # GQD: all 15 labeled 5-leaf binary topologies vs exhaustive enumeration
    from test_phylo import all_five_leaf_binary_trees, brute_force_gqd
    gold = P.parse_newick("((A,B),C,(D,E));")
    trees = all_five_leaf_binary_trees(["A", "B", "C", "D", "E"])
    gqd_ok = len(trees) == 15 and all(
        P.gqd(gold, t) == brute_force_gqd(gold, t) for t in trees
    )

    # consensus majority-rule cases
    ten = [P.parse_newick("((A,B),(C,(D,E)));") for _ in range(10)]
    keep = [P.parse_newick("((A,B),C);"), P.parse_newick("((A,B),C);"),
            P.parse_newick("((A,C),B);")]
    star = [P.parse_newick("((A,B),(C,D));"), P.parse_newick("((A,C),(B,D));"),
            P.parse_newick("((A,D),(B,C));")]
    star_tree = P.consensus(star)
    cons_ok = (topologies_equal(P.consensus(ten), ten[0])
               and topologies_equal(P.consensus(keep), keep[0])
               and all(c.is_leaf() for c in star_tree.children))

    ok = ward_ok and gqd_ok and cons_ok
    report("C6 phylogeny unit suite", ok,
           f"ward 3-point exact {ward_ok}, gqd 15/15 topologies {gqd_ok}, "
           f"consensus cases {cons_ok}; paper's Romance GQD 0.4 is a soft target only")


MELONI_STYLE = (
    "set_id\tRomanian\tFrench\tItalian\tSpanish\tPortuguese\tLatin\n"
    "1\tfrate\tfʁɛʁ\tfratello\termano/ermanos\tirmão\tfrater\n"
    "2\tnoapte\tnɥi\tnotte\tnotʃe\tnoite\tnoktem\n"
    "3\t\tlɛ\tlatte\tletʃe\tleite\tlaktem\n"
    "4\tkasə\tmɛzɔ̃\tkaza\tkasa\tkaza\tkasa\n"
    "5\tapə\to\takkwa\tagwa\tagwa\takwam\n"
)


def test_c7_romance_loader_format():
    # The full Romance rows of Table 2 are NOT reproducible here (the
    # Ciobanu subset is restricted); the loader is validated on a synthetic
    # file in the same format instead.
    opts = C.ParseOptions(proto_column="Latin")
    ds = C.parse_dataset(MELONI_STYLE, opts)
    checks = {
        "five daughters in column order":
            [l.name for l in ds.languages] == ["Romanian", "French", "Italian",
                                               "Spanish", "Portuguese"],
        "proto column selected by name": ds.proto_name == "Latin",
        "all rows kept": len(ds.sets) == 5,
        "missing cell handled": "Romanian" not in ds.sets[2].daughters,
        "slash variant takes first": ds.sets[0].daughters["Spanish"] == tuple("ermano"),
        "nasal diacritic merged": "ɔ̃" in ds.sets[3].daughters["French"],
        "splits and encoding work": True,
    }
    big = C.parse_dataset(MELONI_STYLE + "".join(
        f"{i}\tx{i % 7}a\ty\tz\tw\tv\tpro{i % 5}\n" for i in range(6, 26)), opts)
    tr, va, te = C.split_dataset(big, seed=0)
    vocab = C.build_vocab(tr)
    enc = C.encode_dataset(te, vocab)
    checks["splits and encoding work"] = (
        len(tr) + len(va) + len(te) == len(big) and len(enc) == len(te))
    ok = all(checks.values())
    report("C7 Romance loader (format only)", ok,
           "; ".join(f"{k}={v}" for k, v in checks.items())
           + "; full-dataset Table-2 rows documented as non-reproducible "
             "(restricted data); public-subset numbers are README soft targets")


def test_c8_determinism(tmp_path, monkeypatch):
    rules_path = str(resources.files("protoform.data").joinpath("synth5.rules"))
    ini = tmp_path / "tiny.ini"
    ini.write_text(
        "[transformer]\nd_model = 16\nn_heads = 2\nn_encoder_layers = 1\n"
        "n_decoder_layers = 1\nd_feedforward = 32\ndropout_p = 0.1\nlr = 0.002\n"
        "warmup_epochs = 1\ntotal_epochs = 3\nweight_decay = 0\nbatch_size = 8\n",
        encoding="utf-8")
    outputs = []
    for trial in ("one", "two"):
        # identical commands with identical relative inputs, different cwd
        d = tmp_path / trial
        d.mkdir()
        monkeypatch.chdir(d)
        assert cli.main(["synth", "--rules", rules_path, "--n-sets", "40",
                         "--seed", "3", "--out-file", "toy.tsv"]) == 0
        assert cli.main(["train", "--dataset", "toy.tsv", "--config", str(ini),
                         "--seeds", "1@0", "--out", "run"]) == 0
        assert cli.main(["evaluate", "--dataset", "toy.tsv", "--config", str(ini),
                         "--seeds", "1@0", "--checkpoints", "run",
                         "--baselines", "random,pattern,linear",
                         "--out", "run"]) == 0
        blobs = {"toy.tsv": (d / "toy.tsv").read_bytes()}
        for name in ("seed0.ckpt", "seed0.json", "seed0_history.csv", "config.ini",
                     "results.txt", "results.csv", "per_seed.csv"):
            blobs[name] = (d / "run" / name).read_bytes()
        outputs.append(blobs)
    diffs = [name for name in outputs[0] if outputs[0][name] != outputs[1][name]]
    ok = not diffs
    report("C8 determinism", ok,
           "synth+train+evaluate reruns byte-identical across "
           f"{len(outputs[0])} artifacts" + (f"; DIFFERING: {diffs}" if diffs else ""))
