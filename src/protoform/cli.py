"""Experiment harness.

Subcommands: train, evaluate, baseline, probe, gradcheck, synth.  Every
command is a pure function of its inputs and seeds: reports carry no
timestamps, iteration orders are fixed, and reruns produce byte-identical
outputs.  Exit codes: 0 success, 1 assertion/validation failure or out of
memory, 2 I/O or config error.  Each command reads and checks every input
before it creates ``--out``, so a command that fails on its inputs writes
nothing.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import operator
import os
import sys
from dataclasses import asdict, replace

import numpy as np

from . import baselines as B
from . import corpus as C
from . import engine as E
from . import metrics as M
from . import phylo as P
from . import synth as S
from . import transformer as T

WORKERS_ENV = "PROTOFORM_WORKERS"
DTYPE_ENV = "PROTOFORM_DTYPE"
MAX_SEEDS = 1000   # per --seeds list


class CliInputError(Exception):
    """Bad input file or configuration; maps to exit code 2."""


class ValidationFailure(Exception):
    """A check failed on otherwise-readable inputs; maps to exit code 1."""


# ---------------------------------------------------------------------------
# configuration plumbing


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise CliInputError(f"{path} is not UTF-8 text (byte {exc.start}: {exc.reason})")


# [corpus] key -> (default, accepted values or None for any string), in the
# order config.ini echoes them; a flag with the key's name wins over the file
CORPUS = {
    "dataset": ("", None),
    "proto_column": ("", None),
    "mode": ("phonetic", ("phonetic", "orthographic")),
    "strip_length": ("false", ("false", "true")),
    "stress": ("separate", ("separate", "strip")),
    "split_seed": ("0", None),   # checked by seed_value
}
SECTIONS = {"corpus": CORPUS, "experiment": ("seeds",),
            "transformer": ("preset", *T.TransformerConfig.__dataclass_fields__)}


def _read_config(path: str | None) -> configparser.ConfigParser:
    """The INI file at ``path``, read as written: no ``%`` interpolation, no [DEFAULT]."""
    cp = configparser.ConfigParser(interpolation=None, default_section="")
    if path:
        text = _read_text(path)
        try:
            cp.read_string(text, source=path)
        except configparser.ParsingError as exc:
            # configparser's own text spans several lines; name the first bad one
            if isinstance(exc, configparser.MissingSectionHeaderError):
                lineno, reason = exc.lineno, "comes before any [section] header"
            else:
                lineno = exc.errors[0][0]
                reason = "is not a [section] header or a key = value line"
            line = text.split("\n")[lineno - 1].strip()   # as read_string numbers lines
            raise CliInputError(f"{path}, line {lineno}: {line!r} {reason}")
    for name in cp.sections():
        if name not in SECTIONS:
            raise CliInputError(f"unknown section [{name}] in {path}; choose from {', '.join(SECTIONS)}")
        for key in cp[name]:
            if key not in SECTIONS[name]:
                raise CliInputError(f"unknown [{name}] option {key!r}")
    return cp


def seed_value(raw: str, name: str) -> int:
    """``raw`` as one seed: an integer in [0, 2**64).  The generators reduce
    a seed modulo 2**64, so a seed outside would alias one inside."""
    try:
        if 0 <= int(raw) < 2**64:
            return int(raw)
    except ValueError:
        pass
    raise CliInputError(f"{name} {raw!r} is not an integer from 0 to 2**64 - 1")


def corpus_settings(args, cp) -> dict:
    """The [corpus] settings as the strings config.ini echoes: a flag the
    user gave wins over the file, and the file over the default."""
    out = {}
    for key, (default, accepted) in CORPUS.items():
        flag = getattr(args, key, None)
        value = flag if flag is not None else cp.get("corpus", key, fallback=default)
        out[key] = value.lower() if accepted else value
        if accepted and out[key] not in accepted:
            raise CliInputError(f"[corpus] {key} = {value!r}; choose from {'|'.join(accepted)}")
    out["split_seed"] = str(seed_value(out["split_seed"], "split seed"))
    return out


def transformer_config_from(args, cp) -> T.TransformerConfig:
    sec = dict(cp["transformer"]) if cp.has_section("transformer") else {}
    config_preset = sec.pop("preset", None)
    preset = args.preset or config_preset
    if preset is not None and preset not in T.PRESETS:
        raise CliInputError(f"unknown preset {preset!r}; choose from {sorted(T.PRESETS)}")
    cfg = T.PRESETS[preset] if preset else T.TransformerConfig()
    fields = {}
    for key, raw in sec.items():
        if key == "seed":
            raise CliInputError("[transformer] seed is not an option; "
                                "give the run seeds with --seeds")
        kind = T.TransformerConfig.__dataclass_fields__[key].type
        try:
            fields[key] = float(raw) if kind == "float" else int(raw)
        except ValueError:
            raise CliInputError(f"[transformer] {key} = {raw!r} is not a valid {kind}")
    try:
        return replace(cfg, **fields)
    except ValueError as exc:
        raise CliInputError(str(exc))


def parse_seeds(spec: str) -> list:
    """'0-9', '3', '1,4,7' or 'N@B' (N seeds from base B); at most MAX_SEEDS,
    each in [0, 2**64) as seed_value requires."""
    spec = spec.strip()
    try:
        if "@" in spec:
            n, base = spec.split("@", 1)
            out = range(int(base), int(base) + int(n))
        elif "-" in spec and "," not in spec:
            lo, hi = spec.split("-", 1)
            out = range(int(lo), int(hi) + 1)
        else:
            out = [int(s) for s in spec.split(",") if s.strip()]
    except ValueError:
        raise CliInputError(f"seed list {spec!r} is not of the form 0-9, 3, 1,4,7 or N@base")
    if len(out[:MAX_SEEDS + 1]) > MAX_SEEDS:   # len() of a range past 2**63 overflows
        raise CliInputError(f"seed list {spec!r} names more than {MAX_SEEDS} seeds")
    if not out or len(set(out)) != len(out):
        raise CliInputError(f"seed list {spec!r} must be nonempty and distinct")
    if min(out) < 0 or max(out) >= 2**64:
        raise CliInputError(f"seed list {spec!r} has a seed outside 0 to 2**64 - 1")
    return list(out)


def run_seeds(args, cp) -> list:
    """--seeds, else [experiment] seeds, else 10@0."""
    return parse_seeds(args.seeds or cp.get("experiment", "seeds", fallback="10@0"))


def load_splits(args, cp) -> tuple:
    """((train, val, test), corpus settings): the dataset parsed once and split."""
    corpus = corpus_settings(args, cp)
    if not corpus["dataset"]:
        raise CliInputError("--dataset is required")
    options = C.ParseOptions(corpus["proto_column"] or None, C.TokenizerOptions(
        corpus["mode"], corpus["strip_length"] == "true", corpus["stress"]))
    text = _read_text(corpus["dataset"])
    try:
        ds = C.parse_dataset(text, options)
    except C.CorpusError as exc:
        raise CliInputError(f"cannot parse {corpus['dataset']}: {exc}")
    return C.split_dataset(ds, int(corpus["split_seed"])), corpus


def _echo_config(out_dir: str, corpus: dict, cfg, seeds) -> None:
    cp = configparser.ConfigParser(interpolation=None)
    cp["corpus"] = corpus
    cp["transformer"] = {k: repr(v) for k, v in sorted(asdict(cfg).items()) if k != "seed"}
    cp["experiment"] = {"seeds": ",".join(str(s) for s in seeds)}
    with open(os.path.join(out_dir, "config.ini"), "w", encoding="utf-8") as fh:
        cp.write(fh)


# ---------------------------------------------------------------------------
# train


def _train_one(train_ds, val_ds, vocab, cfg, out_dir: str, seed: int) -> tuple:
    """Trains and saves one seed; runs in a worker process, whose pool
    initializer set the dtype.  Returns (seed, best_epoch, best_val_ped)."""
    cfg = cfg.with_seed(seed)
    model = T.Model(cfg, vocab, train_ds.languages)
    trained = T.train(model, train_ds, val_ds, cfg)
    prefix = os.path.join(out_dir, f"seed{seed}")
    trained.save(prefix)
    with open(prefix + "_history.csv", "w", encoding="utf-8") as fh:
        fh.write("epoch,lr,train_loss,val_ped\n")
        for row in trained.history:
            fh.write(f"{row['epoch']},{row['lr']:.10g},{row['train_loss']:.6f},{row['val_ped']:.6f}\n")
    return seed, trained.best_epoch, trained.best_val_ped


def _workers() -> int:
    raw = os.environ.get(WORKERS_ENV) or "1"
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise CliInputError(f"{WORKERS_ENV}={raw!r} is not an integer of at least 1")
    return workers


def cmd_train(args) -> int:
    workers = _workers()
    cp = _read_config(args.config)
    cfg = transformer_config_from(args, cp)
    seeds = run_seeds(args, cp)
    (train_ds, val_ds, _), corpus = load_splits(args, cp)
    vocab = C.build_vocab(train_ds)
    os.makedirs(args.out, exist_ok=True)
    _echo_config(args.out, corpus, cfg, seeds)
    job = functools.partial(_train_one, train_ds, val_ds, vocab, cfg, args.out)
    if workers > 1 and len(seeds) > 1:
        import multiprocessing as mp
        dtype = E.default_dtype().__name__
        with mp.get_context("spawn").Pool(min(workers, len(seeds)),
                                          E.set_default_dtype, (dtype,)) as pool:
            results = pool.map(job, seeds)
    else:
        results = [job(seed) for seed in seeds]
    for seed, best_epoch, best_val_ped in sorted(results):
        print(f"seed {seed}: best epoch {best_epoch} (val PED {best_val_ped:.4f})")
    return 0


# ---------------------------------------------------------------------------
# evaluate / baseline


def _load_trained(checkpoint_dir: str, seeds) -> list:
    out = []
    for seed in seeds:
        prefix = os.path.join(checkpoint_dir, f"seed{seed}")
        try:
            out.append(T.TrainedModel.load(prefix))
        except KeyError as exc:
            raise CliInputError(f"cannot load {prefix}: missing entry {exc}")
        except (E.EngineError, ValueError, TypeError, RecursionError) as exc:
            raise CliInputError(f"cannot load {prefix}: {exc}")
    return out


COLUMNS = ("PED", "NPED", "Acc%", "FER", "BCFS")
# a MetricsReport as one score tuple in COLUMNS order
_scores = operator.attrgetter("ped", "nped", "accuracy", "fer", "bcfs")


def _csv_line(first: str, values) -> str:
    return ",".join([first] + ["" if v is None else f"{v:.6f}" for v in values]) + "\n"


def _write_results(out_dir: str, rows: list) -> None:
    """rows: (system, [score tuple per seed]); reports each column's mean
    and, over two or more seeds, its sd."""
    width = max(len(name) for name, _ in rows) + 2
    table = ["system".ljust(width) + "  ".join(c.rjust(16) for c in COLUMNS) + "\n"]
    csv = ["system," + ",".join(
        f"{c.lower().rstrip('%')},{c.lower().rstrip('%')}_sd" for c in COLUMNS) + "\n"]
    for name, scores in rows:
        cells, values = [], []
        for vals in zip(*scores):
            if any(v is None for v in vals):
                cells.append("-")
                values += [None, None]
            elif len(vals) == 1:
                cells.append(f"{vals[0]:.4f}")
                values += [vals[0], None]
            else:
                mean, sd = float(np.mean(vals)), float(np.std(vals, ddof=1))
                cells.append(f"{mean:.4f}±{sd:.4f}")
                values += [mean, sd]
        table.append(name.ljust(width) + "  ".join(c.rjust(16) for c in cells) + "\n")
        csv.append(_csv_line(name, values))
    sys.stdout.writelines(table)
    for file_name, lines in (("results.txt", table), ("results.csv", csv)):
        with open(os.path.join(out_dir, file_name), "w", encoding="utf-8") as fh:
            fh.writelines(lines)


BASELINES = {"random": "random-daughter", "majority": "majority-constituent",
             "pattern": "corpar-style", "linear": "svm-style"}


def baseline_kinds(spec: str) -> list:
    kinds = spec.split(",")
    for kind in kinds:
        if kind not in BASELINES:
            raise CliInputError(f"unknown baseline {kind!r}; choose from {','.join(BASELINES)}")
    return kinds


def _baseline_rows(kinds, train_ds, test_ds, ft, seed) -> list:
    golds = [cs.proto for cs in test_ds.sets]
    rows = []
    sites = None
    for kind in kinds:
        if kind == "random":
            preds = [B.random_daughter(cs, seed) for cs in test_ds.sets]
        elif kind == "majority":
            preds = [B.majority_constituent(train_ds, cs) for cs in test_ds.sets]
        else:
            sites = sites or B.align_cognates(train_ds)
            clf = B.train_site_classifier(sites, kind, seed=seed)
            preds = [B.reconstruct_with_classifier(clf, cs) for cs in test_ds.sets]
        rows.append((BASELINES[kind], [_scores(M.evaluate(preds, golds, ft))]))
    return rows


def _feature_table_for(corpus: dict):
    if corpus["mode"] == "orthographic":
        return None  # FER is not meaningful outside IPA
    return M.FeatureTable.bundled()


def cmd_evaluate(args) -> int:
    cp = _read_config(args.config)
    seeds = run_seeds(args, cp)
    kinds = baseline_kinds(args.baselines) if args.baselines else []
    (train_ds, _, test_ds), corpus = load_splits(args, cp)
    trained = _load_trained(args.checkpoints or args.out, seeds)
    expected = C.build_vocab(train_ds)
    if any(tm.vocab != expected for tm in trained):
        raise ValidationFailure(
            "checkpoint vocabulary does not match this dataset/split; "
            "evaluate with the dataset and split seed used for training"
        )
    ft = _feature_table_for(corpus)
    golds = [cs.proto for cs in test_ds.sets]
    examples = C.encode_dataset(test_ds, expected)
    per_seed = []
    empty_total = 0
    for tm in trained:
        preds = T.greedy_decode(tm.model, examples, tm.max_decode_len)
        empty_total += sum(not p for p in preds)
        per_seed.append(_scores(M.evaluate(preds, golds, ft)))
    rows = [("transformer", per_seed)]
    rows += _baseline_rows(kinds, train_ds, test_ds, ft, seeds[0])

    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "per_seed.csv"), "w", encoding="utf-8") as fh:
        fh.write("seed," + ",".join(c.lower().rstrip("%") for c in COLUMNS) + "\n")
        for seed, scores in zip(seeds, per_seed):
            fh.write(_csv_line(str(seed), scores))
    if empty_total:
        print(f"note: {empty_total} empty prediction(s) across seeds")
    _write_results(args.out, rows)
    return 0


def cmd_baseline(args) -> int:
    cp = _read_config(args.config)
    kinds = baseline_kinds(args.kinds)
    seed = seed_value(args.seed, "--seed")
    (train_ds, _, test_ds), corpus = load_splits(args, cp)
    rows = _baseline_rows(kinds, train_ds, test_ds, _feature_table_for(corpus), seed)
    os.makedirs(args.out, exist_ok=True)
    _write_results(args.out, rows)
    return 0


# ---------------------------------------------------------------------------
# probe


def cmd_probe(args) -> int:
    seeds = parse_seeds(args.seeds)
    gold = None
    if args.gold_tree:
        try:
            gold = P.parse_newick(_read_text(args.gold_tree))
        except P.PhyloError as exc:
            raise CliInputError(f"cannot parse gold tree: {exc}")
    trained = _load_trained(args.checkpoints, seeds)
    matrices = [P.cosine_distance_matrix(T.extract_language_embeddings(tm.model))
                for tm in trained]
    dendros = [P.ward_cluster(m) for m in matrices]
    cons = P.consensus(dendros)
    lines = [f"runs: {len(dendros)}",
             f"consensus: {P.serialize_newick(cons)}"]
    if gold is not None:
        lines.append(f"gqd_consensus: {P.gqd(gold, cons):.6f}")
        lines.append("gqd_per_seed: " + ",".join(f"{P.gqd(gold, t):.6f}" for t in dendros))
    summary = "\n".join(lines) + "\n"

    os.makedirs(args.out, exist_ok=True)
    for seed, m, tree in zip(seeds, matrices, dendros):
        P.write_newick(os.path.join(args.out, f"seed{seed}.nwk"), tree)
        P.write_distance_csv(os.path.join(args.out, f"seed{seed}_distances.csv"), m)
    P.write_newick(os.path.join(args.out, "consensus.nwk"), cons)
    sys.stdout.write(summary)
    with open(os.path.join(args.out, "summary.txt"), "w", encoding="utf-8") as fh:
        fh.write(summary)
    return 0


# ---------------------------------------------------------------------------
# gradcheck / synth


def cmd_gradcheck(args) -> int:
    suite = E.run_suite()
    for kind, worst in suite.items():
        print(f"{kind:18s} max rel err {worst:.3e}  {'ok' if worst < E.TOLERANCE else 'FAIL'}")
    failed = [kind for kind, worst in suite.items() if worst >= E.TOLERANCE]
    print(f"overall max rel err {max(suite.values()):.3e} over {len(suite)} ops, 3 seeds")
    if failed:
        print(f"FAILED: {','.join(failed)}")
        raise ValidationFailure(f"gradient check failed for: {','.join(failed)}")
    return 0


def cmd_synth(args) -> int:
    rules = S.parse_rules(_read_text(args.rules))
    n_daughters = len(rules.daughters) if args.n_daughters is None else args.n_daughters
    tsv = S.generate_tsv(rules, args.n_sets, n_daughters, seed_value(args.seed, "--seed"))
    if args.out_file == "-":
        sys.stdout.write(tsv)
    else:
        with open(args.out_file, "w", encoding="utf-8", newline="") as fh:
            fh.write(tsv)
        print(f"wrote {args.n_sets} sets to {args.out_file}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="protoform",
        description="Protoform reconstruction: training, evaluation, baselines, probing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def dataset_flags(p):
        p.add_argument("--dataset", help="cognate-set TSV")
        p.add_argument("--proto-column", default=None, help="proto-language column name")
        p.add_argument("--strip-length", action="store_const", const="true",
                       help="drop vowel-length marks")
        p.add_argument("--orthographic", dest="mode", action="store_const",
                       const="orthographic", help="character tokenization")
        p.add_argument("--split-seed", help="train/val/test split seed (default 0)")
        p.add_argument("--config", default=None, help="INI config file")

    p = sub.add_parser("train", help="train one model per seed")
    dataset_flags(p)
    p.add_argument("--preset", choices=sorted(T.PRESETS), default=None)
    p.add_argument("--seeds", help="e.g. 0-9, 3, 1,4,7, or N@base (default 10@0)")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("evaluate", help="score checkpoints on the test split")
    dataset_flags(p)
    p.add_argument("--seeds", help="as for train")
    p.add_argument("--checkpoints", default=None, help="directory with seedN.ckpt (default: --out)")
    p.add_argument("--baselines", default="", help="comma list of " + ",".join(BASELINES))
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_evaluate)

    p = sub.add_parser("baseline", help="run baselines only")
    dataset_flags(p)
    p.add_argument("--kinds", default="random,pattern,linear")
    p.add_argument("--seed", default="0")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_baseline)

    p = sub.add_parser("probe", help="language-embedding dendrograms, consensus, GQD")
    p.add_argument("--checkpoints", required=True)
    p.add_argument("--seeds", default="10@0")
    p.add_argument("--gold-tree", default=None, help="Newick gold phylogeny")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_probe)

    p = sub.add_parser("gradcheck", help="finite-difference check of every op")
    p.set_defaults(handler=cmd_gradcheck)

    p = sub.add_parser("synth", help="generate a synthetic dataset from rewrite rules")
    p.add_argument("--rules", required=True)
    p.add_argument("--n-sets", type=int, required=True)
    p.add_argument("--n-daughters", type=int, default=None)
    p.add_argument("--seed", default="0")
    p.add_argument("--out-file", required=True, help="path or - for stdout")
    p.set_defaults(handler=cmd_synth)

    return parser


def _dtype_from_env() -> None:
    name = os.environ.get(DTYPE_ENV)
    if name:
        try:
            E.set_default_dtype(name)
        except E.EngineError as exc:
            raise CliInputError(f"{DTYPE_ENV}: {exc}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _dtype_from_env()
        return args.handler(args)
    except (CliInputError, OSError, configparser.Error, S.SynthError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValidationFailure, C.CorpusError, E.EngineError, M.MetricsError,
            B.BaselineError, P.PhyloError, MemoryError) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
