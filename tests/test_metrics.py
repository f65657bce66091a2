import hashlib
import itertools
from functools import lru_cache
from importlib import resources

import numpy as np
import pytest

from protoform import baselines as B
from protoform import corpus as C
from protoform import synth as S
from protoform.engine.rng import DetRng
from protoform.metrics import (
    GAP, FeatureTable, MetricsError, _cost_table, bcubed_f, edit_distance, error_breakdown,
    evaluate, feature_error_rate, nw_align,
)


def recursion_oracle(a, b):
    """Edit distance straight from the recurrence, independent of the DP."""
    @lru_cache(maxsize=None)
    def d(i, j):
        if i == 0:
            return j
        if j == 0:
            return i
        return min(
            d(i - 1, j - 1) + (a[i - 1] != b[j - 1]),
            d(i - 1, j) + 1,
            d(i, j - 1) + 1,
        )
    return d(len(a), len(b))


def all_words(alphabet, max_len):
    for n in range(max_len + 1):
        yield from itertools.product(alphabet, repeat=n)


class TestEditDistance:
    def test_identity(self):
        assert edit_distance(("k", "a", "t", "o"), ("k", "a", "t", "o")) == 0

    def test_single_insertion(self):
        assert edit_distance(("k", "a", "t"), ("k", "a", "t", "o")) == 1

    def test_exhaustive_against_recursion(self):
        words = list(all_words(("a", "b", "c"), 3))
        for wa in words:
            for wb in words:
                assert edit_distance(wa, wb) == recursion_oracle(wa, wb)

    def test_metric_properties_on_random_triples(self):
        rng = DetRng(404)
        alphabet = ("p", "t", "k", "a", "i")
        def word():
            return tuple(alphabet[rng.randint(5)] for _ in range(rng.randint(6)))
        for _ in range(1000):
            x, y, z = word(), word(), word()
            assert edit_distance(x, y) == edit_distance(y, x)
            assert (edit_distance(x, y) == 0) == (x == y)
            assert edit_distance(x, z) <= edit_distance(x, y) + edit_distance(y, z)
            # bounds the per-pair NPED contribution by max(|pred|,|gold|)/|gold|
            assert edit_distance(x, y) <= max(len(x), len(y))


class TestAlign:
    def test_alignment_cost_matches_distance(self):
        rng = DetRng(11)
        alphabet = ("a", "b", "c")
        for _ in range(200):
            x = tuple(alphabet[rng.randint(3)] for _ in range(rng.randint(6)))
            y = tuple(alphabet[rng.randint(3)] for _ in range(rng.randint(6)))
            cols = nw_align(x, y, lambda p, q: 0 if p == q else 1)
            cost = sum(1 for p, q in cols if p != q)
            assert cost == edit_distance(x, y)
            # subsequence property: dropping gaps restores both words
            assert tuple(p for p, _ in cols if p is not None) == x
            assert tuple(q for _, q in cols if q is not None) == y


@pytest.fixture(scope="module")
def ft():
    return FeatureTable.bundled()


class TestFeatureErrorRate:
    def test_identical_words_zero(self, ft):
        w = ("tʰ", "a", "n")
        assert feature_error_rate(w, w, ft) == 0.0

    def test_one_feature_substitution(self, ft):
        # p/b differ only in voicing: cost (1/24)/4
        got = feature_error_rate(("p", "a", "t", "a"), ("b", "a", "t", "a"), ft)
        assert got == pytest.approx((1 / 24) / 4, abs=1e-12)

    def test_one_deletion_against_four_tokens(self, ft):
        got = feature_error_rate(("k", "a", "t", "a", "s"), ("k", "a", "t", "a"), ft)
        assert got == pytest.approx(0.25, abs=1e-12)

    def test_missing_token_names_it(self, ft):
        with pytest.raises(MetricsError, match="ʘ"):
            feature_error_rate(("ʘ",), ("p",), ft)

    def test_tone_contours_use_zero_vector(self, ft):
        # substituting one tone contour for another is free under FER
        assert feature_error_rate(("m", "a", "˥˩"), ("m", "a", "˧"), ft) == 0.0

    def test_memoised_cost_is_the_unmemoised_one(self):
        # the per-cell cost as feature_error_rate computed it before the memo
        ft = FeatureTable.bundled()

        def sub(x, y):
            if x == y:
                return 0.0
            return float(np.count_nonzero(ft.lookup(x) != ft.lookup(y))) / ft.F

        tokens = ("p", "b", "tʰ", "kʷ", "t͡ʃ", "a", "ã", "iː", "u", "˥˩", "˧")
        for _ in range(2):   # computed, then read from the memo
            for x in tokens:
                for y in tokens:
                    assert ft.sub_cost(x, y) == sub(x, y), (x, y)
        rng = DetRng(78)
        for _ in range(200):
            pred = tuple(tokens[rng.randint(len(tokens))] for _ in range(rng.randint(6) + 1))
            gold = tuple(tokens[rng.randint(len(tokens))] for _ in range(rng.randint(6) + 1))
            want = _cost_table(pred, gold, sub)[len(pred)][len(gold)] / len(gold)
            assert feature_error_rate(pred, gold, ft) == want

    def test_bounded_by_worst_case(self, ft):
        rng = DetRng(77)
        alphabet = ("p", "b", "t", "k", "a", "i", "u")
        for _ in range(100):
            pred = tuple(alphabet[rng.randint(7)] for _ in range(rng.randint(5) + 1))
            gold = tuple(alphabet[rng.randint(7)] for _ in range(rng.randint(5) + 1))
            fer = feature_error_rate(pred, gold, ft)
            assert 0.0 <= fer <= max(len(pred), len(gold)) / len(gold)


def bcubed_oracle(site_lists):
    """Quadratic-time B-cubed over explicit item lists (gold, pred)."""
    items = [site for sites in site_lists for site in sites]
    n = len(items)
    p = r = 0.0
    for g1, p1 in items:
        same_pred = [(g2, p2) for g2, p2 in items if p2 == p1]
        same_gold = [(g2, p2) for g2, p2 in items if g2 == g1]
        both = [(g2, p2) for g2, p2 in items if p2 == p1 and g2 == g1]
        p += len(both) / len(same_pred)
        r += len(both) / len(same_gold)
    p, r = p / n, r / n
    return 2 * p * r / (p + r)


class TestBCubed:
    def test_identity_is_one(self):
        words = [("k", "a"), ("t", "o", "n")]
        assert bcubed_f(words, words) == 1.0

    def test_consistent_relabeling_is_one(self):
        golds = [("a", "a"), ("a",), ("a", "a", "a")]
        preds = [("b", "b"), ("b",), ("b", "b", "b")]
        assert bcubed_f(preds, golds) == pytest.approx(1.0, abs=1e-12)

    def test_three_pair_toy_matches_enumeration(self):
        preds = [("a", "b"), ("a",), ("c", "b")]
        golds = [("a", "b"), ("a", "b"), ("a", "b")]
        sites = []
        for p, g in zip(preds, golds):
            cp = [{t: i for i, t in enumerate(dict.fromkeys(p))}[t] for t in p]
            cg = [{t: i for i, t in enumerate(dict.fromkeys(g))}[t] for t in g]
            cols = nw_align(tuple(range(len(p))), tuple(range(len(g))),
                            lambda i, j: 0 if cp[i] == cg[j] else 1)
            sites.append([
                (GAP if gi is None else g[gi], GAP if pi is None else p[pi])
                for pi, gi in cols
            ])
        assert bcubed_f(preds, golds) == pytest.approx(bcubed_oracle(sites), abs=1e-12)

    def test_relabel_invariance(self):
        rng = DetRng(31)
        alphabet = list("abcde")
        golds, preds = [], []
        for _ in range(20):
            golds.append(tuple(alphabet[rng.randint(5)] for _ in range(rng.randint(4) + 1)))
            preds.append(tuple(alphabet[rng.randint(5)] for _ in range(rng.randint(4) + 1)))
        base = bcubed_f(preds, golds)
        for _ in range(10):
            perm = list(alphabet)
            rng.shuffle(perm)
            table = dict(zip(alphabet, perm))
            relabeled = [tuple(table[t] for t in w) for w in preds]
            assert bcubed_f(relabeled, golds) == pytest.approx(base, abs=1e-12)


class TestErrorBreakdown:
    def test_identity_all_zero(self):
        words = [("a", "b")] * 3
        br = error_breakdown(words, words)
        assert (br.substitutions, br.insertions, br.deletions) == (0, 0, 0)

    def test_insertion_direction(self):
        # transforming pred into gold: gold has one extra token
        br = error_breakdown([("a",)], [("a", "b")])
        assert (br.substitutions, br.insertions, br.deletions) == (0, 1, 0)

    def test_deletion_direction(self):
        br = error_breakdown([("a", "b")], [("a",)])
        assert (br.substitutions, br.insertions, br.deletions) == (0, 0, 1)

    def test_substitution_preferred_on_ties(self):
        br = error_breakdown([("a",)], [("b",)])
        assert (br.substitutions, br.insertions, br.deletions) == (1, 0, 0)
        assert br.substitution_pairs == ((("a", "b"), 1),)

    def test_pair_table_sorted_by_frequency(self):
        preds = [("a",), ("a",), ("c",)]
        golds = [("b",), ("b",), ("d",)]
        br = error_breakdown(preds, golds)
        assert br.substitution_pairs[0] == (("a", "b"), 2)
        assert (br.substitutions, br.insertions, br.deletions) == (3, 0, 0)


class TestEvaluate:
    def test_perfect_predictions(self):
        words = [("k", "a", "t", "o")] * 4
        rep = evaluate(words, words, FeatureTable.bundled())
        assert (rep.ped, rep.nped, rep.accuracy, rep.fer, rep.bcfs) == (0, 0, 100.0, 0.0, 1.0)

    def test_one_error_in_ten(self):
        gold = [("p", "a", "t", "a")] * 10
        pred = [("p", "a", "t", "a")] * 9 + [("p", "a", "t", "u")]
        rep = evaluate(pred, gold)
        assert rep.ped == pytest.approx(0.1)
        assert rep.nped == pytest.approx(0.025)
        assert rep.accuracy == pytest.approx(90.0)
        assert rep.fer is None

    def test_length_mismatch_rejected(self):
        with pytest.raises(MetricsError):
            evaluate([("a",)], [("a",), ("b",)])


class TestGolden:
    """Exact values recorded on a fixed Sinitic-style synthetic corpus, so
    any change to the alignment DP or the tallies that moves a single bit
    of a report shows up here."""

    @staticmethod
    def _fixture():
        rules = S.parse_rules(resources.files("protoform.data")
                              .joinpath("sinitic_style.rules").read_text("utf-8"))
        ds = C.parse_dataset(S.generate_tsv(rules, 120, 4, seed=17))
        _, _, test = C.split_dataset(ds, 0)
        golds = [cs.proto for cs in test.sets]
        preds = [B.random_daughter(cs, 3) for cs in test.sets]
        return preds, golds

    @staticmethod
    def _exact(rep):
        br = rep.breakdown
        return ([float.hex(v) for v in (rep.ped, rep.nped, rep.accuracy, rep.fer, rep.bcfs)],
                rep.n, (br.substitutions, br.insertions, br.deletions),
                hashlib.sha256(repr(br.substitution_pairs).encode("utf-8")).hexdigest())

    def test_random_daughter_report(self, ft):
        preds, golds = self._fixture()
        assert self._exact(evaluate(preds, golds, ft)) == (
            ["0x1.1555555555555p-1", "0x1.31c71c71c71c7p-3", "0x1.f400000000000p+5",
             "0x1.38e38e38e38e3p-8", "0x1.b486805dfeba7p-1"],
            24, (13, 0, 0),
            "b5c51bf3b0171e691758e4402efab05f28930bb6fed296606098bba9c0a4fe1f",
        )
        # golds rotated by one set: every pair mismatched, indels included
        assert self._exact(evaluate(preds, golds[1:] + golds[:1], ft)) == (
            ["0x1.a000000000000p+1", "0x1.d5b05b05b05afp-1", "0x0.0p+0",
             "0x1.3d4629b7f0d44p-2", "0x1.43e4bf1b25cc2p-2"],
            24, (60, 9, 9),
            "db1a2fcdb514ed77127ccf33ff0c4d8d3be01c636157593f634840413d52d8ed",
        )

    def test_report_agrees_with_standalone_metrics(self, ft):
        preds, golds = self._fixture()
        golds = golds[1:] + golds[:1]
        rep = evaluate(preds, golds, ft)
        dists = [edit_distance(p, g) for p, g in zip(preds, golds)]
        assert rep.ped == sum(dists) / len(dists)
        assert rep.breakdown == error_breakdown(preds, golds)
        assert rep.fer == sum(feature_error_rate(p, g, ft)
                              for p, g in zip(preds, golds)) / len(preds)
