"""Non-neural reference reconstructors.

Four baselines: random daughter, majority constituent (monosyllabic data
only), and two correspondence-site classifiers trained on progressively
aligned cognate sets -- a pattern-memorizing classifier with Hamming
back-off ("CorPaR-style") and a one-vs-rest linear hinge-loss classifier
trained by SGD ("SVM-style"; deliberately not a kernel QP solver).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .corpus import CognateSet, Dataset, Word, token_class
from .engine.rng import DetRng, mix64, stable_hash
from .metrics import GAP, nw_align


class BaselineError(Exception):
    pass


class UnsupportedOperation(BaselineError):
    pass


def _mode(counts: dict):
    """The most frequent key; ties break to the smallest."""
    return min(counts.items(), key=lambda kv: (-kv[1], kv[0]))[0]


def random_daughter(cs: CognateSet, seed: int) -> Word:
    """A uniformly chosen attested daughter form, verbatim.

    The choice is a pure function of (seed, set id), so rerunning an
    evaluation never reshuffles assignments.
    """
    if not cs.daughters:
        raise BaselineError(f"cognate set {cs.set_id!r} has no daughters")
    names = sorted(cs.daughters)
    rng = DetRng(mix64(seed, stable_hash(cs.set_id)))
    return cs.daughters[names[rng.randint(len(names))]]


@dataclass(frozen=True)
class SyllableParse:
    onset: Word
    nucleus: Word
    coda: Word
    tone: str | None

    def constituents(self):
        tone = (self.tone,) if self.tone is not None else ()
        return (self.onset, self.nucleus, self.coda, tone)


@functools.cache
def parse_syllable(word: Word) -> SyllableParse | None:
    """Onset + nucleus + coda + optional trailing tone; None if the word is
    not a single syllable (internal tones, several vowel runs, no vowel).

    Memoised: the majority gate parses every training form, and the
    baseline then parses each test set's daughters again."""
    toks = list(word)
    tone = None
    if toks and token_class(toks[-1]) == "tone":
        tone = toks[-1]
        toks = toks[:-1]
    classes = [token_class(t) for t in toks]
    if "tone" in classes or "vowel" not in classes:
        return None
    first_v = classes.index("vowel")
    last_v = len(classes) - 1 - classes[::-1].index("vowel")
    if any(c != "vowel" for c in classes[first_v:last_v + 1]):
        return None  # polysyllabic
    return SyllableParse(
        onset=tuple(toks[:first_v]),
        nucleus=tuple(toks[first_v:last_v + 1]),
        coda=tuple(toks[last_v + 1:]),
        tone=tone,
    )


def supports_majority_constituent(ds: Dataset) -> bool:
    """True when at least half of the attested forms are monosyllabic."""
    forms = [w for cs in ds.sets for w in cs.daughters.values()]
    forms += [cs.proto for cs in ds.sets]
    if not forms:
        return False
    parseable = sum(parse_syllable(w) is not None for w in forms)
    return parseable * 2 >= len(forms)


# The last training split that passed the majority gate.  A strong
# reference, so a new Dataset can never pass as it by reusing its id.
_GATED: Dataset | None = None


def majority_constituent(train: Dataset, cs: CognateSet) -> Word:
    """Most frequent onset/nucleus/coda/tone string across the set's
    monosyllabic daughters, concatenated; ties break to the
    lexicographically smallest.  A set with no monosyllabic daughter gets
    the empty word, which scores as a miss.

    ``train`` is gated by ``supports_majority_constituent`` once: the
    last split that passed is remembered, and a Dataset is treated as
    immutable.  A split that fails is not remembered, so every call on it
    raises ``UnsupportedOperation``."""
    global _GATED
    if train is not _GATED:
        if not supports_majority_constituent(train):
            raise UnsupportedOperation(
                f"majority-constituent baseline needs monosyllabic data; "
                f"{train.proto_name!r} dataset is not"
            )
        _GATED = train
    parses = [p for p in (parse_syllable(w) for w in cs.daughters.values()) if p is not None]
    if not parses:
        return ()
    out: list[str] = []
    for k in range(4):
        counts: dict = {}
        tokens_of: dict = {}
        for p in parses:
            part = p.constituents()[k]
            key = "".join(part)
            counts[key] = counts.get(key, 0) + 1
            tokens_of.setdefault(key, part)
        out.extend(tokens_of[_mode(counts)])
    return tuple(out)


# ---------------------------------------------------------------------------
# progressive multiple alignment


@functools.cache
def _class_cost(a: str, b: str) -> float:
    if a == b:
        return 0.0
    ca, cb = token_class(a), token_class(b)
    if ca == cb and ca in ("vowel", "consonant"):
        return 0.5
    return 1.0


@dataclass
class AlignedSet:
    """One cognate set's alignment matrix: rows in daughter-name keys plus
    an optional proto row; every row has the same number of columns."""
    set_id: str
    rows: dict                    # language name -> list of symbols (GAP for gaps)
    proto_row: list | None = None

    @property
    def n_cols(self) -> int:
        for row in self.rows.values():
            return len(row)
        return 0


@dataclass
class AlignedSiteMatrix:
    sets: list
    languages: list               # LanguageId order from the source dataset


def _merge(rows: list, columns: list, word: Word, memo: dict) -> list:
    """Align `word` against the consensus of `rows`; a gap on the consensus
    side opens a gap column in every earlier row.  Returns the word's row.

    `columns` holds a [counts, mode] pair per column: the counts of its
    non-gap symbols and the consensus symbol, the most frequent of them
    with ties to the smallest.  The word's symbols are added to it.
    `memo` holds the alignment of every (consensus, word) pair seen so far
    in the caller's scope."""
    key = (tuple(mode for _, mode in columns), tuple(word))
    pairs = memo.get(key)
    if pairs is None:
        pairs = memo[key] = nw_align(*key, _class_cost)
    new_row: list = []
    for col, (c_sym, tok) in enumerate(pairs):
        if c_sym is None:
            for row in rows:
                row.insert(col, GAP)
            columns.insert(col, [{}, tok])
        if tok is None:
            new_row.append(GAP)
            continue
        new_row.append(tok)
        column = columns[col]
        counts, mode = column
        n = counts[tok] = counts.get(tok, 0) + 1
        # only tok's count grew, so by _mode's order the mode stays or becomes tok
        if (-n, tok) < (-counts[mode], mode):
            column[1] = tok
    return new_row


def _progressive(ordered_words: list, memo: dict) -> tuple:
    """Align words (given as token tuples) one at a time against the running
    consensus; gaps propagate into earlier rows.  Returns the row list in
    input order and the columns' [counts, mode] pairs."""
    rows = [list(ordered_words[0])]
    columns = [[{s: 1}, s] for s in ordered_words[0]]
    for word in ordered_words[1:]:
        rows.append(_merge(rows, columns, word, memo))
    return rows, columns


def align_daughters(cs: CognateSet, lang_index: dict, memo: dict) -> tuple:
    """Progressive alignment of the set's attested daughters, longest first:
    the AlignedSet and its columns' [counts, mode] pairs."""
    present = sorted(cs.daughters, key=lambda n: (-len(cs.daughters[n]), lang_index[n]))
    rows, columns = _progressive([cs.daughters[n] for n in present], memo)
    return AlignedSet(cs.set_id, dict(zip(present, rows))), columns


def align_cognates(ds: Dataset) -> AlignedSiteMatrix:
    """Alignments for every cognate set, each with its proto row aligned
    last so daughter-vs-daughter decisions never see the protoform.  Each
    distinct (consensus, word) pair is aligned once per call."""
    if not ds.sets:
        raise BaselineError("cannot align an empty dataset")
    lang_index = {l.name: l.index for l in ds.languages}
    memo: dict = {}
    out = []
    for cs in ds.sets:
        aset, columns = align_daughters(cs, lang_index, memo)
        aset.proto_row = _merge(list(aset.rows.values()), columns, cs.proto, memo)
        out.append(aset)
    return AlignedSiteMatrix(out, list(ds.languages))


# ---------------------------------------------------------------------------
# correspondence-site classifiers


@dataclass(frozen=True)
class ContextConfig:
    """Which context feature families accompany the symbol one-hots."""
    use_pos: bool = True   # relative-position bucket
    use_str: bool = True   # prosodic class of the column majority
    use_ini: bool = True   # word-initial / word-final flags


def _pos_bucket(col: int, n: int) -> str:
    if col == 0:
        return "first"
    if col == n - 1:
        return "last"
    f = col / (n - 1)
    if f < 1 / 3:
        return "early"
    if f < 2 / 3:
        return "mid"
    return "late"


def column_features(aset: AlignedSet, col: int, cfg: ContextConfig) -> frozenset:
    atoms = [("sym", name, row[col]) for name, row in aset.rows.items()]
    n = aset.n_cols
    if cfg.use_pos:
        atoms.append(("pos", _pos_bucket(col, n)))
    if cfg.use_str:
        counts: dict = {}
        for _, row in aset.rows.items():
            if row[col] != GAP:
                counts[token_class(row[col])] = counts.get(token_class(row[col]), 0) + 1
        cls = _mode(counts) if counts else "gap"
        atoms.append(("str", cls))
    if cfg.use_ini:
        if col == 0:
            atoms.append(("ini", "initial"))
        if col == n - 1:
            atoms.append(("ini", "final"))
    return frozenset(atoms)


class PatternClassifier:
    """Memorizes training columns; unseen columns back off to the nearest
    stored column by Hamming distance over active features."""

    def __init__(self, cfg: ContextConfig, lang_index: dict):
        self.cfg = cfg
        self.lang_index = lang_index
        self.patterns: dict = {}   # frozenset(atom) -> {label: count}

    def fit(self, columns):
        for atoms, label in columns:
            self.patterns.setdefault(atoms, {})
            self.patterns[atoms][label] = self.patterns[atoms].get(label, 0) + 1

    def predict(self, atoms: frozenset) -> str:
        hit = self.patterns.get(atoms)
        if hit is not None:
            return _mode(hit)
        best_d, merged = None, {}
        for key, counts in self.patterns.items():
            d = len(key ^ atoms)
            if best_d is None or d < best_d:
                best_d, merged = d, dict(counts)
            elif d == best_d:
                for label, c in counts.items():
                    merged[label] = merged.get(label, 0) + c
        return _mode(merged)


class LinearClassifier:
    """One-vs-rest linear classifiers under hinge loss, trained by SGD
    (50 epochs, lr 0.1 decaying as 1/epoch, L2 1e-4 applied per epoch,
    seeded shuffles)."""

    EPOCHS = 50
    LR = 0.1
    L2 = 1e-4
    WINDOW = 128   # samples scored per numpy call in the search for a margin violation

    def __init__(self, cfg: ContextConfig, lang_index: dict, seed: int = 0):
        self.cfg = cfg
        self.lang_index = lang_index
        self.seed = seed
        self.feature_index: dict = {}
        self.classes: list = []
        self.W: np.ndarray | None = None
        self.b: np.ndarray | None = None

    def _vectorize(self, atoms: frozenset) -> list:
        return sorted(self.feature_index[a] for a in atoms if a in self.feature_index)

    def fit(self, columns):
        if 1.0 - self.LR * self.L2 * len(columns) <= 0.0:
            raise BaselineError(f"linear baseline: {len(columns)} aligned columns reach the bound "
                                f"of {math.ceil(1.0 / (self.LR * self.L2))}, where the L2 decay "
                                "1 - LR * L2 * columns stops being positive")
        atoms_all = sorted({a for atoms, _ in columns for a in atoms})
        self.feature_index = {a: i for i, a in enumerate(atoms_all)}
        self.classes = sorted({label for _, label in columns})
        n_cls, n_feat = len(self.classes), len(atoms_all)
        self.W, self.b = np.zeros((n_cls, n_feat)), np.zeros(n_cls)
        if n_cls == 1:
            return   # predict's argmax over one class ignores the weights
        class_index = {c: i for i, c in enumerate(self.classes)}
        data = [(np.array(self._vectorize(atoms), dtype=np.intp), class_index[label])
                for atoms, label in columns]
        # Weights by feature, so that a sample's weights are one row gather.
        # Summing those rows over axis 0 adds the same terms in the same
        # order as W[:, idx].sum(axis=1), whose gather comes out column-major.
        # Row n_feat stays zero: it pads every sample to the same width.
        WT = np.zeros((n_feat + 1, n_cls))
        b = np.zeros(n_cls)
        width = max((len(idx) for idx, _ in data), default=0)
        padded = np.full((len(data), width), n_feat, dtype=np.intp)
        for row, (idx, _) in zip(padded, data):
            row[:len(idx)] = idx
        order = list(range(len(data)))
        rng = DetRng(mix64(0x11EA2, self.seed))
        Y = np.full((n_cls, n_cls), -1.0)   # row c: the one-vs-rest targets of class c
        np.fill_diagonal(Y, 1.0)
        targets = Y[[ci for _, ci in data]]
        for epoch in range(self.EPOCHS):
            lr = self.LR / (1 + epoch)
            lrY = lr * Y
            rng.shuffle(order)
            # Feature-major: a window adds each sample's rows in the sample's
            # own order, then zero pads, so it nominates exactly the violators.
            ids, Ys = padded[order].T.copy(), targets[order]
            pos = self._next_violation(WT, b, ids, Ys, 0)
            while pos < len(order):
                idx, ci = data[order[pos]]
                Wi = WT.take(idx, 0)
                viol = Y[ci] * (np.add.reduce(Wi, 0) + b) < 1.0
                step = lrY[ci] * viol
                np.add(Wi, step, out=Wi, where=viol)   # violated classes only
                WT[idx] = Wi
                b += step
                pos = self._next_violation(WT, b, ids, Ys, pos + 1)
            WT *= 1.0 - lr * self.L2 * len(data)
        self.W, self.b = np.ascontiguousarray(WT[:n_feat].T), b

    def _next_violation(self, WT, b, ids, Ys, start: int) -> int:
        """The first position from `start` on whose sample violates a
        margin, one window of samples per numpy call; ``len(Ys)`` when there
        is none."""
        while start < len(Ys):
            end = start + self.WINDOW
            scores = np.add.reduce(WT.take(ids[:, start:end], 0), 0) + b
            viol = (Ys[start:end] * scores < 1.0).any(1)
            if viol.any():
                return start + int(viol.argmax())
            start = end
        return start

    def predict(self, atoms: frozenset) -> str:
        idx = self._vectorize(atoms)
        scores = self.W[:, idx].sum(axis=1) + self.b
        return self.classes[int(np.argmax(scores))]


def training_columns(sites: AlignedSiteMatrix, cfg: ContextConfig) -> list:
    cols = []
    for aset in sites.sets:
        if aset.proto_row is None:
            raise BaselineError(f"aligned set {aset.set_id!r} lacks a proto row")
        for j in range(aset.n_cols):
            cols.append((column_features(aset, j, cfg), aset.proto_row[j]))
    return cols


def train_site_classifier(sites: AlignedSiteMatrix, kind: str,
                          feats: ContextConfig = ContextConfig(), seed: int = 0):
    """Fit a correspondence-site classifier on aligned training columns."""
    if not sites.sets:
        raise BaselineError("no aligned sites to train on")
    lang_index = {l.name: l.index for l in sites.languages}
    columns = training_columns(sites, feats)
    if kind == "pattern":
        clf = PatternClassifier(feats, lang_index)
    elif kind == "linear":
        clf = LinearClassifier(feats, lang_index, seed)
    else:
        raise BaselineError(f"unknown classifier kind {kind!r}")
    clf.fit(columns)
    return clf


def reconstruct_with_classifier(clf, cs: CognateSet) -> Word:
    """Align the set's daughters, predict a proto symbol per column, drop
    the gaps.  An all-gap prediction yields an empty word."""
    aset, _ = align_daughters(cs, clf.lang_index, {})
    out = []
    for j in range(aset.n_cols):
        label = clf.predict(column_features(aset, j, clf.cfg))
        if label != GAP:
            out.append(label)
    return tuple(out)
