"""Evaluation metrics for predicted protoforms.

Five scores per prediction set: phoneme edit distance (PED), PED
normalized by gold length (NPED), exact-match accuracy, feature error
rate over articulatory feature vectors (FER), and a B-cubed F score over
pooled alignment sites (BCFS), plus a breakdown of error types.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .corpus import ATTACHED_CATEGORIES, TIE_BARS, Word, token_class


class MetricsError(Exception):
    pass


GAP = "\x00-"  # reserved gap label for alignment sites; never a surface token


def _unit_cost(x, y) -> int:
    return 0 if x == y else 1


def _cost_table(a: Word, b: Word, sub_cost) -> list:
    """D[i][j]: minimal cost of aligning a[:i] with b[:j].

    Every gap costs 1.  The one alignment DP in the package; every
    distance and alignment below reads its answer off this table.
    """
    m, n = len(a), len(b)
    D = [[0.0] * (n + 1) for _ in range(m + 1)]
    for i in range(1, m + 1):
        D[i][0] = D[i - 1][0] + 1.0
    for j in range(1, n + 1):
        D[0][j] = D[0][j - 1] + 1.0
    for i in range(1, m + 1):
        up, row, ai = D[i - 1], D[i], a[i - 1]
        for j in range(1, n + 1):
            row[j] = min(
                up[j - 1] + sub_cost(ai, b[j - 1]),
                up[j] + 1.0,
                row[j - 1] + 1.0,
            )
    return D


def edit_distance(a: Word, b: Word) -> int:
    """Levenshtein distance over tokens with unit costs."""
    return int(_cost_table(a, b, _unit_cost)[len(a)][len(b)])


def nw_align(a: Word, b: Word, sub_cost):
    """Minimal-cost global alignment of `a` against `b`; each gap costs 1.

    Returns a list of (a_token | None, b_token | None) columns.  Ties are
    broken deterministically: diagonal first (match/substitution), then
    consuming from `a` (deletion), then from `b` (insertion).
    """
    D = _cost_table(a, b, sub_cost)
    cols = []
    i, j = len(a), len(b)
    while i > 0 or j > 0:
        if i > 0 and j > 0 and D[i][j] == D[i - 1][j - 1] + sub_cost(a[i - 1], b[j - 1]):
            cols.append((a[i - 1], b[j - 1]))
            i, j = i - 1, j - 1
        elif i > 0 and D[i][j] == D[i - 1][j] + 1.0:
            cols.append((a[i - 1], None))
            i -= 1
        else:
            cols.append((None, b[j - 1]))
            j -= 1
    cols.reverse()
    return cols


@dataclass(frozen=True)
class ErrorBreakdown:
    substitutions: int
    insertions: int
    deletions: int
    substitution_pairs: tuple  # ((pred_token, gold_token), count) by falling count


def _tally(alignments) -> ErrorBreakdown:
    """Edit operations read off unit-cost (pred, gold) alignment columns."""
    subs = ins = dels = 0
    pair_counts: dict = {}
    for cols in alignments:
        for pa, ga in cols:
            if pa is None:
                ins += 1
            elif ga is None:
                dels += 1
            elif pa != ga:
                subs += 1
                pair_counts[(pa, ga)] = pair_counts.get((pa, ga), 0) + 1
    ranked = tuple(sorted(pair_counts.items(), key=lambda kv: (-kv[1], kv[0])))
    return ErrorBreakdown(subs, ins, dels, ranked)


def error_breakdown(preds, golds) -> ErrorBreakdown:
    """Tally edit operations transforming each prediction into its gold.

    One optimal alignment per pair; ties prefer substitution over deletion
    over insertion, so the tally is deterministic.
    """
    if not preds or len(preds) != len(golds):
        raise MetricsError("error_breakdown needs nonempty lists of equal length")
    return _tally(nw_align(p, g, _unit_cost) for p, g in zip(preds, golds))


class FeatureTable:
    """Articulatory feature vectors (+1/-1/0) for phoneme tokens.

    Tokens absent from the table inherit their base segment's vector with
    per-diacritic overrides; tone-contour tokens map to a reserved
    all-zero vector.  Any other unknown token fails loudly.
    """

    def __init__(self, features, base, mods):
        self.features = list(features)
        self.F = len(self.features)
        self._base = base
        self._mods = mods
        self._cache: dict = {}
        self._costs: dict = {}
        self._findex = {f: i for i, f in enumerate(self.features)}

    @classmethod
    def from_csv(cls, text: str) -> "FeatureTable":
        lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
        header = lines[0].split(",")
        if header[0] != "token":
            raise MetricsError("feature CSV header must start with 'token'")
        features = header[1:]
        values = {"+": 1, "-": -1, "0": 0}
        base: dict = {}
        mods: dict = {}
        for ln in lines[1:]:
            cells = ln.split(",")
            if len(cells) != len(header):
                raise MetricsError(f"feature CSV row has {len(cells)} cells: {ln!r}")
            name = cells[0]
            if name.startswith("mod:"):
                mods[unicodedata.normalize("NFD", name[4:])] = {
                    feat: values[c] for feat, c in zip(features, cells[1:]) if c != ""
                }
            else:
                try:
                    vec = np.array([values[c] for c in cells[1:]], dtype=np.int8)
                except KeyError:
                    raise MetricsError(f"feature CSV row for {name!r} has an empty or bad cell")
                base[unicodedata.normalize("NFD", name)] = vec
        return cls(features, base, mods)

    @classmethod
    def bundled(cls) -> "FeatureTable":
        text = resources.files("protoform.data").joinpath("features.csv").read_text("utf-8")
        return cls.from_csv(text)

    def lookup(self, token: str) -> np.ndarray:
        if token in self._cache:
            return self._cache[token]
        vec = self._resolve(unicodedata.normalize("NFD", token))
        self._cache[token] = vec
        return vec

    def sub_cost(self, x: str, y: str) -> float:
        """Fraction of features on which tokens ``x`` and ``y`` differ, 0 for
        one token; memoised per ordered pair."""
        if x == y:
            return 0.0
        cost = self._costs.get((x, y))
        if cost is None:
            cost = float(np.count_nonzero(self.lookup(x) != self.lookup(y))) / self.F
            self._costs[x, y] = cost
        return cost

    def _resolve(self, token: str) -> np.ndarray:
        if token in self._base:
            return self._base[token]
        if token_class(token) == "tone":
            return np.zeros(self.F, dtype=np.int8)
        stem_chars, mod_chars = [], []
        for ch in token:
            if unicodedata.category(ch) not in ATTACHED_CATEGORIES:
                stem_chars.append(ch)
            elif ch not in TIE_BARS:  # tie bars carry no features
                mod_chars.append(ch)
        stem = "".join(stem_chars)
        if stem not in self._base:
            raise MetricsError(f"token {token!r} not covered by the feature table")
        vec = self._base[stem].copy()
        for ch in mod_chars:
            if ch not in self._mods:
                raise MetricsError(f"token {token!r}: no feature override for {ch!r} (U+{ord(ch):04X})")
            for feat, val in self._mods[ch].items():
                vec[self._findex[feat]] = val
        return vec


def feature_error_rate(pred: Word, gold: Word, ft: FeatureTable) -> float:
    """Weighted edit distance where substituting two phonemes costs the
    fraction of differing features; indels cost 1; normalized by gold length."""
    if not gold:
        raise MetricsError("feature_error_rate: empty gold word")
    return _cost_table(pred, gold, ft.sub_cost)[len(pred)][len(gold)] / len(gold)


def _occurrence_structure(word: Word):
    """Tokens replaced by their first-occurrence index within the word."""
    seen: dict = {}
    return [seen.setdefault(t, len(seen)) for t in word]


def bcubed_f(preds, golds) -> float:
    """B-cubed F over alignment sites pooled across the whole test set.

    Each pair is aligned by unit-cost Needleman-Wunsch; match equality is
    evaluated on the words' first-occurrence structure rather than raw
    symbols, which makes the score exactly invariant under any consistent
    relabeling of predicted symbols.  Each aligned column contributes one
    item labeled (gold symbol, pred symbol), gaps included under a
    reserved symbol.
    """
    if not preds or len(preds) != len(golds):
        raise MetricsError("bcubed_f needs nonempty lists of equal length")
    joint: dict = {}
    pred_tot: dict = {}
    gold_tot: dict = {}
    n_items = 0
    for pred, gold in zip(preds, golds):
        cp = _occurrence_structure(pred)
        cg = _occurrence_structure(gold)
        cols = nw_align(tuple(range(len(pred))), tuple(range(len(gold))),
                        lambda i, j: 0 if cp[i] == cg[j] else 1)
        for pi, gi in cols:
            p = GAP if pi is None else pred[pi]
            g = GAP if gi is None else gold[gi]
            joint[(g, p)] = joint.get((g, p), 0) + 1
            pred_tot[p] = pred_tot.get(p, 0) + 1
            gold_tot[g] = gold_tot.get(g, 0) + 1
            n_items += 1
    precision = sum(c * c / pred_tot[p] for (g, p), c in joint.items()) / n_items
    recall = sum(c * c / gold_tot[g] for (g, p), c in joint.items()) / n_items
    return 2 * precision * recall / (precision + recall)


@dataclass(frozen=True)
class MetricsReport:
    ped: float
    nped: float
    accuracy: float          # percent of exact matches
    fer: float | None        # None for orthographic data (no feature table)
    bcfs: float
    breakdown: ErrorBreakdown
    n: int


def evaluate(preds, golds, ft: FeatureTable | None = None) -> MetricsReport:
    """Score a prediction set against its gold protoforms."""
    if not preds or len(preds) != len(golds):
        raise MetricsError("evaluate needs nonempty lists of equal length")
    # unit-cost alignments: a pair's PED is its count of non-matching columns
    alignments = [nw_align(p, g, _unit_cost) for p, g in zip(preds, golds)]
    dists = [sum(pa != ga for pa, ga in cols) for cols in alignments]
    ped = sum(dists) / len(dists)
    nped = sum(d / len(g) for d, g in zip(dists, golds)) / len(dists)
    accuracy = 100.0 * sum(d == 0 for d in dists) / len(dists)
    fer = None
    if ft is not None:
        fer = sum(feature_error_rate(p, g, ft) for p, g in zip(preds, golds)) / len(preds)
    return MetricsReport(
        ped=ped,
        nped=nped,
        accuracy=accuracy,
        fer=fer,
        bcfs=bcubed_f(preds, golds),
        breakdown=_tally(alignments),
        n=len(preds),
    )
