import functools
import hashlib
import itertools
import unicodedata
from importlib import resources

import numpy as np
import pytest

from protoform import baselines as B
from protoform import corpus
from protoform import synth as S
from protoform.corpus import CognateSet, Dataset, LanguageId, parse_dataset, split_dataset
from protoform.engine.rng import DetRng, mix64, philox
from protoform.metrics import GAP, nw_align


def bundled_rules(name):
    return S.parse_rules(resources.files("protoform.data").joinpath(name).read_text("utf-8"))


@functools.cache
def sinitic_splits():
    """Train and test splits of a fixed Sinitic-style synthetic corpus."""
    ds = parse_dataset(S.generate_tsv(bundled_rules("sinitic_style.rules"), 120, 4, seed=17))
    train, _, test = split_dataset(ds, 0)
    return train, test


def synth5_corpus():
    """A polysyllabic corpus over the five daughters of synth5.rules."""
    return parse_dataset(S.generate_tsv(bundled_rules("synth5.rules"), 40, 5, seed=3))


def sinitic_toy():
    text = (
        "id\tA\tB\tC\tMC\n"
        "s1\ttʰa˥\tta˥\tta˧\tta˥\n"
        "s2\tman˧˥\tman˧˥\tban˧˥\tman˧˥\n"
        "s3\tku\tku˥\tku˥\tku˥\n"
        "s4\tsin˥\tsin˥\ttin˧\tsin˥\n"
        "s5\tlo˧\tlu˧\tlu˧\tlu˧\n"
    )
    return parse_dataset(text)


class TestRandomDaughter:
    def test_single_daughter(self):
        cs = CognateSet("x", ("a",), {"A": ("k", "a")})
        assert B.random_daughter(cs, seed=5) == ("k", "a")

    def test_same_seed_same_choice(self):
        cs = CognateSet("x", ("a",), {"A": ("k",), "B": ("p",), "C": ("t",)})
        picks = {B.random_daughter(cs, seed=9) for _ in range(5)}
        assert len(picks) == 1

    def test_output_always_attested(self):
        ds = sinitic_toy()
        for seed in range(10):
            for cs in ds.sets:
                assert B.random_daughter(cs, seed) in cs.daughters.values()

    def test_seed_changes_choice_somewhere(self):
        ds = sinitic_toy()
        a = [B.random_daughter(cs, 0) for cs in ds.sets]
        b = [B.random_daughter(cs, 1) for cs in ds.sets]
        assert a != b


class TestSyllableParse:
    def test_cvc_with_tone(self):
        p = B.parse_syllable(("tʰ", "a", "n", "˥˩"))
        assert p == B.SyllableParse(("tʰ",), ("a",), ("n",), "˥˩")

    def test_roundtrip(self):
        for w in [("k", "u"), ("a",), ("s", "i", "n", "˥"), ("ʈʂ", "u", "ŋ", "˧˥")]:
            p = B.parse_syllable(w)
            assert p is not None and sum(p.constituents(), ()) == w

    def test_polysyllable_rejected(self):
        assert B.parse_syllable(("k", "a", "t", "o")) is None

    def test_no_vowel_rejected(self):
        assert B.parse_syllable(("s", "t")) is None


class TestMajorityConstituent:
    def test_onset_majority(self):
        ds = sinitic_toy()
        cs = ds.sets[0]  # onsets tʰ/t/t
        got = B.majority_constituent(ds, cs)
        assert got[0] == "t"

    def test_all_identical_daughters(self):
        ds = sinitic_toy()
        cs = CognateSet("x", ("m", "a", "˥"), {"A": ("m", "a", "˥"), "B": ("m", "a", "˥")})
        assert B.majority_constituent(ds, cs) == ("m", "a", "˥")

    def test_five_set_hand_tabulation(self):
        ds = sinitic_toy()
        expected = [
            ("t", "a", "˥"),            # onsets {tʰ,t,t}->t, tone {˥,˥,˧}->˥
            ("m", "a", "n", "˧˥"),      # onsets {m,m,b}->m
            ("k", "u", "˥"),            # tones {none,˥,˥}->˥
            ("s", "i", "n", "˥"),       # onsets {s,s,t}->s, tones {˥,˥,˧}->˥
            ("l", "u", "˧"),            # nuclei {o,u,u}->u
        ]
        got = [B.majority_constituent(ds, cs) for cs in ds.sets]
        assert got == expected

    def test_output_parses_into_same_skeleton(self):
        ds = sinitic_toy()
        for cs in ds.sets:
            out = B.majority_constituent(ds, cs)
            assert B.parse_syllable(out) is not None

    def test_set_without_monosyllabic_daughter_gives_empty_word(self):
        ds = sinitic_toy()
        cs = CognateSet("x", ("t", "a", "˥"),
                        {"A": ("p", "a", "t", "a"), "B": ("k", "a", "t", "u")})
        assert B.majority_constituent(ds, cs) == ()

    def test_polysyllabic_dataset_unsupported(self):
        romance = parse_dataset(
            "id\tA\tB\tP\nx\tkato\tkatu\tkatom\ny\tpane\tpan\tpanem\n"
        )
        with pytest.raises(B.UnsupportedOperation):
            B.majority_constituent(romance, romance.sets[0])


class TestMajorityGate:
    """``majority_constituent`` gates each training split once."""

    @pytest.fixture
    def gates(self, monkeypatch):
        calls = []
        real = B.supports_majority_constituent

        def counting(ds):
            calls.append(ds)
            return real(ds)

        monkeypatch.setattr(B, "supports_majority_constituent", counting)
        monkeypatch.setattr(B, "_GATED", None)
        return calls

    def test_one_gate_per_split(self, gates):
        train, test = sinitic_splits()
        for k in range(40):
            B.majority_constituent(train, test.sets[k % len(test.sets)])
        assert len(gates) == 1
        # an equal but distinct Dataset object is gated afresh; the record has one slot
        copy = train.subset(range(len(train)))
        B.majority_constituent(copy, test.sets[0])
        B.majority_constituent(copy, test.sets[1])
        assert gates == [train, copy]
        B.majority_constituent(train, test.sets[0])
        assert len(gates) == 3 and gates[2] is train

    def test_failed_gate_is_not_remembered(self, gates):
        ds = synth5_corpus()
        for _ in range(2):
            with pytest.raises(B.UnsupportedOperation):
                B.majority_constituent(ds, ds.sets[0])
        assert len(gates) == 2
        assert B._GATED is None


def sp_cost(columns):
    """Sum-of-pairs cost of an alignment given as list of per-row lists."""
    total = 0.0
    n_rows = len(columns)
    n_cols = len(columns[0])
    for j in range(n_cols):
        for a, b in itertools.combinations(range(n_rows), 2):
            x, y = columns[a][j], columns[b][j]
            if x == GAP and y == GAP:
                continue
            if x == GAP or y == GAP:
                total += 1.0
            else:
                total += B._class_cost(x, y)
    return total


def brute_force_msa_cost(words):
    """Optimal sum-of-pairs cost by DP over all advance patterns."""
    n = len(words)
    lens = tuple(len(w) for w in words)
    best = {}

    def col_cost(symbols):
        total = 0.0
        for x, y in itertools.combinations(symbols, 2):
            if x == GAP and y == GAP:
                continue
            if x == GAP or y == GAP:
                total += 1.0
            else:
                total += B._class_cost(x, y)
        return total

    moves = [m for m in itertools.product((0, 1), repeat=n) if any(m)]

    def solve(state):
        if state == lens:
            return 0.0
        if state in best:
            return best[state]
        out = float("inf")
        for mv in moves:
            nxt = tuple(s + d for s, d in zip(state, mv))
            if any(a > b for a, b in zip(nxt, lens)):
                continue
            syms = [words[r][state[r]] if mv[r] else GAP for r in range(n)]
            out = min(out, col_cost(syms) + solve(nxt))
        best[state] = out
        return out

    return solve(tuple(0 for _ in words))


class TestAlignment:
    def _ds(self, rows):
        langs = [LanguageId(f"L{i}", i) for i in range(len(rows[0][1]))]
        sets = []
        for sid, daughters, proto in rows:
            sets.append(CognateSet(sid, proto,
                                   {langs[i].name: d for i, d in enumerate(daughters) if d}))
        return Dataset(sets, langs, "P")

    def test_identical_rows_no_gaps(self):
        ds = self._ds([("x", [("k", "a", "t")] * 3, ("k", "a", "t"))])
        aset = B.align_cognates(ds).sets[0]
        assert aset.n_cols == 3
        assert all(GAP not in row for row in aset.rows.values())

    def test_trailing_gap(self):
        ds = self._ds([("x", [("k", "a", "t"), ("k", "a", "t", "o")], ("k", "a", "t"))])
        aset = B.align_cognates(ds).sets[0]
        assert aset.n_cols == 4
        assert aset.rows["L0"] == ["k", "a", "t", GAP]
        assert aset.rows["L1"] == ["k", "a", "t", "o"]

    def test_rows_remain_subsequences(self):
        rng = DetRng(8)
        alphabet = ("p", "t", "k", "a", "i", "u", "n")
        for _ in range(50):
            words = [tuple(alphabet[rng.randint(7)] for _ in range(rng.randint(4) + 1))
                     for _ in range(3)]
            rows, _ = B._progressive(sorted(words, key=len, reverse=True), {})
            for row, word in zip(rows, sorted(words, key=len, reverse=True)):
                assert tuple(s for s in row if s != GAP) == word

    def test_three_row_toy_matches_brute_force(self):
        words = [("k", "a", "t", "o"), ("k", "a", "t"), ("a", "t")]
        rows, _ = B._progressive(words, {})
        assert sp_cost(rows) == pytest.approx(brute_force_msa_cost(words))

    def test_proto_aligned_last_does_not_reorder_daughters(self):
        ds = self._ds([("x", [("k", "a",), ("k", "a", "n")], ("k", "a", "n", "u"))])
        aset = B.align_cognates(ds).sets[0]
        assert tuple(s for s in aset.rows["L0"] if s != GAP) == ("k", "a")
        assert tuple(s for s in aset.proto_row if s != GAP) == ("k", "a", "n", "u")
        assert len(aset.proto_row) == aset.n_cols


# Progressive alignment as written before per-column counts and the
# per-call memo: every merge recounts the consensus from all earlier rows
# and runs nw_align.

def old_consensus(columns_rows):
    n = len(columns_rows[0])
    cons = []
    for j in range(n):
        counts = {}
        for row in columns_rows:
            s = row[j]
            if s != GAP:
                counts[s] = counts.get(s, 0) + 1
        cons.append(B._mode(counts))
    return cons


def old_merge(rows, word):
    new_row = []
    pairs = nw_align(tuple(old_consensus(rows)), tuple(word), B._class_cost)
    for col, (c_sym, tok) in enumerate(pairs):
        if c_sym is None:
            for row in rows:
                row.insert(col, GAP)
        new_row.append(GAP if tok is None else tok)
    return new_row


def old_progressive(ordered_words):
    rows = [list(ordered_words[0])]
    for word in ordered_words[1:]:
        rows.append(old_merge(rows, word))
    return rows


def old_align_daughters(cs, lang_index):
    present = sorted(cs.daughters, key=lambda n: (-len(cs.daughters[n]), lang_index[n]))
    return dict(zip(present, old_progressive([cs.daughters[n] for n in present])))


def old_align_cognates(ds):
    """(set id, rows, proto row) per set."""
    lang_index = {l.name: l.index for l in ds.languages}
    out = []
    for cs in ds.sets:
        rows = old_align_daughters(cs, lang_index)
        out.append((cs.set_id, rows, old_merge(list(rows.values()), cs.proto)))
    return out


def twelve_daughters():
    # ~15 features a column, and numpy sums 8 or more contiguous terms
    # pairwise: on this corpus a fit that sums a sample's weights in
    # another order ends with other bits
    return parse_dataset(S.generate_tsv(bundled_rules("sinitic_style.rules"), 240, 12, seed=0))


def tie_heavy_sets(n_sets=300):
    """Random sets over a 3-symbol alphabet: up to six daughters of one to
    six symbols, some missing, so consensus ties and gap columns abound.
    The synthetic corpora rarely move a column's consensus once set, so a
    wrong tie rule or a missed mode update shows only on these sets."""
    rng = DetRng(mix64(0xA119, 0))
    alphabet = ("a", "i", "t")
    langs = [LanguageId(f"L{i}", i) for i in range(6)]

    def word():
        return tuple(alphabet[rng.randint(3)] for _ in range(1 + rng.randint(6)))

    sets = []
    for k in range(n_sets):
        daughters = {l.name: word() for l in langs if rng.randint(4)}
        sets.append(CognateSet(f"r{k}", word(), daughters or {"L0": word()}))
    return Dataset(sets, langs, "P")


class TestAlignmentEquivalence:
    """Column counts and the memo leave every row as the old recount did."""

    CORPORA = {"synth5": synth5_corpus, "twelve": twelve_daughters, "random": tie_heavy_sets}

    @pytest.mark.parametrize("name", sorted(CORPORA))
    def test_rows_and_proto_rows_equal(self, name):
        ds = self.CORPORA[name]()
        sites = B.align_cognates(ds)
        old = old_align_cognates(ds)
        assert len(sites.sets) == len(old)
        for aset, (set_id, rows, proto_row) in zip(sites.sets, old):
            assert aset.set_id == set_id
            assert list(aset.rows.items()) == list(rows.items())
            assert aset.proto_row == proto_row

    @pytest.mark.parametrize("kind", ["pattern", "linear"])
    def test_reconstruct_equal(self, kind):
        train, test = sinitic_splits()
        clf = B.train_site_classifier(B.align_cognates(train), kind, seed=1)

        def old_reconstruct(cs):
            rows = old_align_daughters(cs, clf.lang_index)
            aset = B.AlignedSet(cs.set_id, rows)
            labels = [clf.predict(B.column_features(aset, j, clf.cfg))
                      for j in range(aset.n_cols)]
            return tuple(label for label in labels if label != GAP)

        for cs in test.sets:
            assert B.reconstruct_with_classifier(clf, cs) == old_reconstruct(cs)

    def test_memo_lives_for_one_call(self, monkeypatch):
        train = sinitic_splits()[0]
        calls = []
        original = B.nw_align

        def spy(a, b, sub_cost):
            calls.append((a, b))
            return original(a, b, sub_cost)

        monkeypatch.setattr(B, "nw_align", spy)
        B.align_cognates(train)
        first = len(calls)
        B.align_cognates(train)
        assert len(calls) == 2 * first
        assert len(set(calls[:first])) == first   # each pair aligned once per call
        # a set merges every daughter but the first, then the proto
        merges = sum(len(cs.daughters) for cs in train.sets)
        assert 0 < first < merges


class TestClassifiers:
    def _sites(self, triples, proto_rows):
        langs = [LanguageId(n, i) for i, n in enumerate(("A", "B", "C"))]
        sets = []
        for k, (row, proto) in enumerate(zip(triples, proto_rows)):
            rows = {"A": list(row[0]), "B": list(row[1]), "C": list(row[2])}
            sets.append(B.AlignedSet(f"s{k}", rows, list(proto)))
        return B.AlignedSiteMatrix(sets, langs)

    def test_deterministic_correspondence_both_kinds(self):
        # every training column shows t,t,z -> t
        sites = self._sites(
            [(("t", "a"), ("t", "a"), ("z", "a"))] * 4,
            [("t", "a")] * 4,
        )
        probe = sites.sets[0]
        for kind in ("pattern", "linear"):
            clf = B.train_site_classifier(sites, kind)
            assert clf.predict(B.column_features(probe, 0, clf.cfg)) == "t"

    def test_unseen_column_backs_off_to_nearest(self):
        cfg = B.ContextConfig(use_pos=False, use_str=False, use_ini=False)
        sites = self._sites(
            [(("t", "a"), ("t", "a"), ("z", "a")),
             (("m", "u"), ("m", "u"), ("m", "u"))],
            [("t", "a"), ("m", "u")],
        )
        clf = B.train_site_classifier(sites, "pattern", cfg)
        # Hamming distance 2 from the (t,t,z) column, 6 from (m,m,m)
        near = frozenset({("sym", "A", "t"), ("sym", "B", "t"), ("sym", "C", "s")})
        assert clf.predict(near) == "t"

    def test_pattern_memorizes_unique_majority_columns(self):
        sites = self._sites(
            [(("t", "a"), ("d", "a"), ("t", "a")),
             (("p", "u"), ("b", "u"), ("p", "u"))],
            [("t", "a"), ("p", "u")],
        )
        clf = B.train_site_classifier(sites, "pattern")
        for aset in sites.sets:
            for j in range(aset.n_cols):
                assert clf.predict(B.column_features(aset, j, clf.cfg)) == aset.proto_row[j]

    def test_linear_reaches_full_accuracy_when_separable(self):
        sites = self._sites(
            [(("t", "a"), ("t", "a"), ("t", "a")),
             (("p", "u"), ("p", "u"), ("p", "u")),
             (("k", "i"), ("k", "i"), ("k", "i"))],
            [("t", "a"), ("p", "u"), ("k", "i")],
        )
        cfg = B.ContextConfig()
        clf = B.train_site_classifier(sites, "linear", cfg)
        columns = B.training_columns(sites, cfg)
        assert all(clf.predict(atoms) == label for atoms, label in columns)

    def test_reconstruct_training_item_exactly(self):
        text = (
            "id\tA\tB\tP\n"
            "s1\tta\tda\tta\n"
            "s2\tpu\tbu\tpu\n"
            "s3\tki\tgi\tki\n"
        )
        ds = parse_dataset(text)
        sites = B.align_cognates(ds)
        clf = B.train_site_classifier(sites, "pattern")
        for cs in ds.sets:
            assert B.reconstruct_with_classifier(clf, cs) == cs.proto

    def test_all_gap_prediction_is_empty_word(self):
        sites = self._sites([(("t",), ("t",), ("t",))], [(GAP,)])
        clf = B.train_site_classifier(sites, "pattern")
        cs = CognateSet("q", ("x",), {"A": ("t",), "B": ("t",), "C": ("t",)})
        assert B.reconstruct_with_classifier(clf, cs) == ()

    def test_unknown_kind_rejected(self):
        sites = self._sites([(("t",), ("t",), ("t",))], [("t",)])
        with pytest.raises(B.BaselineError):
            B.train_site_classifier(sites, "kernel-svm")

    def test_predict_breaks_ties_to_smallest_label(self):
        atoms = frozenset({("sym", "A", "t")})
        clf = B.PatternClassifier(B.ContextConfig(), {"A": 0})
        clf.fit([(atoms, "b"), (atoms, "a")])
        assert clf.predict(atoms) == "a"


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode("utf-8")).hexdigest()


class TestGolden:
    """Exact outputs recorded on a fixed Sinitic-style synthetic corpus."""

    @pytest.fixture(scope="class")
    def splits(self):
        return sinitic_splits()

    def test_alignment_rows(self, splits):
        train, _ = splits
        sites = B.align_cognates(train)
        assert _digest([(a.set_id, sorted(a.rows.items()), a.proto_row)
                        for a in sites.sets]) == (
            "64a09ef3654c9b214bfd58119b1fcd0757bdb6ee2269382b38dc3641fc77c5fe")

    def test_predictions(self, splits):
        train, test = splits
        # ten training sets leave test columns unseen, so back-off and ties matter
        few = B.align_cognates(train.subset(range(10)))
        expected = {
            "pattern": "ff746084f80562a2342aa0b12a1b4529c53ffb28d0b44f8b81624a33d5c3d116",
            "linear": "625e4a7ea1c41c27a616a62cbc7561d5b2c0631ea85458ccdb2aecaf50b18151",
        }
        for kind, want in expected.items():
            clf = B.train_site_classifier(few, kind, seed=2)
            assert _digest([B.reconstruct_with_classifier(clf, cs) for cs in test.sets]) == want
        assert _digest([B.majority_constituent(train, cs) for cs in test.sets]) == (
            "028303ae36b4babebc28cfd1c91b86d11ad0718276eafffd52ad1c2d31bf57f8")


def reference_fit(clf, columns, violations=None):
    """``LinearClassifier.fit`` with the SGD loop written plainly: list
    indices, ``.sum(axis=1)`` and ``np.ix_``, one sample at a time.  Appends
    ``(epoch, position in the shuffled order)`` of every sample that
    violates a margin to ``violations`` when given."""
    atoms_all = sorted({a for atoms, _ in columns for a in atoms})
    clf.feature_index = {a: i for i, a in enumerate(atoms_all)}
    clf.classes = sorted({label for _, label in columns})
    class_index = {c: i for i, c in enumerate(clf.classes)}
    data = [(clf._vectorize(atoms), class_index[label]) for atoms, label in columns]
    n_cls, n_feat = len(clf.classes), len(atoms_all)
    clf.W = np.zeros((n_cls, n_feat))
    clf.b = np.zeros(n_cls)
    rng = DetRng(mix64(0x11EA2, clf.seed))
    y = np.full(n_cls, -1.0)
    for epoch in range(clf.EPOCHS):
        lr = clf.LR / (1 + epoch)
        rng.shuffle(data)
        for pos, (idx, ci) in enumerate(data):
            y[:] = -1.0
            y[ci] = 1.0
            scores = clf.W[:, idx].sum(axis=1) + clf.b
            viol = (y * scores) < 1.0
            if viol.any():
                if violations is not None:
                    violations.append((epoch, pos))
                step = lr * y * viol
                clf.W[np.ix_(viol, idx)] += step[viol, None]
                clf.b += step
        clf.W *= 1.0 - lr * clf.L2 * len(data)


def random_columns(seed, labels, n=64, pool=32):
    """``n`` columns of 1 to 24 atoms drawn from ``pool``, labelled at random
    from ``labels``: widths vary, so the fit pads most samples."""
    rng = philox(0x5EED, seed)
    return [(frozenset(("f", int(a)) for a in rng.choice(pool, size=int(rng.integers(1, 25)),
                                                         replace=False)),
             labels[int(rng.integers(len(labels)))]) for _ in range(n)]


def assert_fit_bit_equal(columns, seed=0, cfg=None, lang_index=None):
    fast = B.LinearClassifier(cfg, lang_index or {}, seed)
    fast.fit(columns)
    ref = B.LinearClassifier(cfg, lang_index or {}, seed)
    violations = []
    reference_fit(ref, columns, violations)
    assert fast.classes == ref.classes and fast.feature_index == ref.feature_index
    assert np.array_equal(fast.W.view(np.uint64), ref.W.view(np.uint64))
    assert np.array_equal(fast.b.view(np.uint64), ref.b.view(np.uint64))
    return fast, violations


def assert_one_class_fit(columns, seed=0, cfg=None, lang_index=None):
    """With one class the fit leaves W and b at zero, and predicts what the
    plainly written loop's weights predict."""
    fast = B.LinearClassifier(cfg, lang_index or {}, seed)
    fast.fit(columns)
    ref = B.LinearClassifier(cfg, lang_index or {}, seed)
    reference_fit(ref, columns)
    assert fast.classes == ref.classes and len(fast.classes) == 1
    assert fast.feature_index == ref.feature_index
    assert fast.W.shape == ref.W.shape and not fast.W.any() and not fast.b.any()
    assert np.count_nonzero(ref.W) > 0
    assert [fast.predict(atoms) for atoms, _ in columns] == [
        ref.predict(atoms) for atoms, _ in columns]


class TestLinearFitLoop:
    """The fitted weights are bit-equal to the plainly written loop's."""

    @pytest.mark.parametrize("corpus_name, seed", [("sinitic", 0), ("sinitic", 2),
                                                   ("synth5", 0), ("twelve", 0)])
    def test_weights_bit_equal(self, corpus_name, seed):
        train = {"sinitic": lambda: sinitic_splits()[0], "synth5": synth5_corpus,
                 "twelve": twelve_daughters}[corpus_name]()
        cfg = B.ContextConfig()
        columns = B.training_columns(B.align_cognates(train), cfg)
        fast, _ = assert_fit_bit_equal(columns, seed, cfg,
                                       {l.name: l.index for l in train.languages})
        assert np.count_nonzero(fast.W) > 0

    @pytest.mark.parametrize("labels", ["one", "two"])
    @pytest.mark.parametrize("corpus_name", ["sinitic", "twelve"])
    def test_one_and_two_classes_bit_equal(self, corpus_name, labels):
        # one class: every column is "x"; two: a vowel against any other symbol
        train = {"sinitic": lambda: sinitic_splits()[0], "twelve": twelve_daughters}[
            corpus_name]()
        cfg = B.ContextConfig()
        columns = [(atoms, "x" if labels == "one" or corpus.token_class(label) == "vowel"
                    else "y") for atoms, label in B.training_columns(B.align_cognates(train), cfg)]
        lang_index = {l.name: l.index for l in train.languages}
        if labels == "one":
            assert_one_class_fit(columns, 1, cfg, lang_index)
        else:
            fast, _ = assert_fit_bit_equal(columns, 1, cfg, lang_index)
            assert len(fast.classes) == 2

    @pytest.mark.parametrize("seed, labels", [(150, "x"), (150, "xy"), (3, "xy")])
    def test_padded_random_columns_bit_equal(self, seed, labels):
        if len(labels) == 1:
            assert_one_class_fit(random_columns(seed, labels))
        else:
            assert_fit_bit_equal(random_columns(seed, labels))

    @pytest.mark.parametrize("labels", ["x", "xy"])
    def test_l2_decay_bound(self, labels, monkeypatch):
        # With L2 = 0.25 the per-epoch decay 1 - LR * L2 * columns reaches 0
        # at 40 columns.  One class raises too: the bound is checked before
        # its fit returns early.
        monkeypatch.setattr(B.LinearClassifier, "L2", 0.25)
        below = B.LinearClassifier(None, {}, 0)
        below.fit(random_columns(0, labels, n=39))
        assert below.classes == sorted(labels)
        with pytest.raises(B.BaselineError, match="40 aligned columns reach the bound of 40,"):
            B.LinearClassifier(None, {}, 0).fit(random_columns(0, labels, n=40))

    @pytest.mark.parametrize("window", [4, 128])
    def test_violations_at_window_edges(self, window, monkeypatch):
        # The scan nominates exactly the violating samples, and the set
        # covers a violation at a window's first sample, one at its last and
        # two in one window, the second found after the scan resumes.
        train = sinitic_splits()[0]
        cfg = B.ContextConfig()
        columns = B.training_columns(B.align_cognates(train), cfg)
        calls = []
        next_violation = B.LinearClassifier._next_violation

        def spy(self, WT, b, ids, Ys, start):
            pos = next_violation(self, WT, b, ids, Ys, start)
            calls.append((start, pos))
            return pos

        monkeypatch.setattr(B.LinearClassifier, "WINDOW", window)
        monkeypatch.setattr(B.LinearClassifier, "_next_violation", spy)
        _, violations = assert_fit_bit_equal(columns, 0, cfg,
                                             {l.name: l.index for l in train.languages})
        epoch, nominated = -1, []   # (epoch, position, start of its window)
        for start, pos in calls:
            epoch += start == 0
            if pos < len(columns):
                nominated.append((epoch, pos, start + (pos - start) // window * window))
        assert [(e, pos) for e, pos, _ in nominated] == violations
        offsets = [pos - first for _, pos, first in nominated]
        assert 0 in offsets
        if window == 4:
            assert window - 1 in offsets
        pairs = zip(nominated, nominated[1:])
        assert any(e1 == e2 and p2 < first + window
                   for (e1, _, first), (e2, p2, _) in pairs)


def bundled_tokens():
    """Every token of the bundled feature table and of every bundled
    rules file's inventory."""
    data = resources.files("protoform.data")
    rows = data.joinpath("features.csv").read_text("utf-8").splitlines()[1:]
    tokens = {row.split(",")[0] for row in rows if row}
    tokens |= {unicodedata.normalize("NFD", t) for t in tokens}
    for f in data.iterdir():
        if f.name.endswith(".rules"):
            rules = S.parse_rules(f.read_text("utf-8"))
            tokens.update(rules.inventory, rules.extra)
    return sorted(tokens)


class TestMemoised:
    """The memoised pure functions answer as their unwrapped bodies do."""

    def test_token_class(self):
        tokens = bundled_tokens()
        assert {corpus.token_class(t) for t in tokens} == {"tone", "vowel", "consonant"}
        for t in tokens:
            assert corpus.token_class(t) == corpus.token_class.__wrapped__(t), t

    def test_class_cost(self):
        tokens = bundled_tokens()
        for a in tokens:
            for b in tokens:
                assert B._class_cost(a, b) == B._class_cost.__wrapped__(a, b), (a, b)
