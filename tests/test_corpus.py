import itertools
import random
import unicodedata
from importlib import resources

import pytest

from protoform import corpus, synth
from protoform.corpus import (
    BOS_ID, EOS_ID, PAD_ID, UNK_ID,
    CorpusError, ParseError, ParseOptions, SchemaError, TokenizeError,
    TokenizerOptions, build_vocab, encode_cognate_set, parse_dataset,
    split_dataset, tokenize_form,
)

SMALL_TSV = (
    "set_id\tNord\tSud\tProto\n"
    "s1\tkat\tkato\tkatu\n"
    "s2\t\tpan\tpane\n"
    "s3\ttʰa/ta\tda\tta\n"
)


class TestTokenizer:
    def test_aspiration_and_tone_contour(self):
        assert tokenize_form("tʰan˥˩") == ("tʰ", "a", "n", "˥˩")

    def test_strip_length(self):
        opts = TokenizerOptions(strip_length=True)
        assert tokenize_form("kaːsa", opts) == ("k", "a", "s", "a")
        assert tokenize_form("kaːsa") == ("k", "aː", "s", "a")

    def test_combining_bridge_merges(self):
        assert tokenize_form("t̪o") == ("t̪", "o")

    def test_tie_bar_joins_affricate(self):
        assert tokenize_form("t͡sa") == ("t͡s", "a")

    def test_superscript_digit_tones(self):
        assert tokenize_form("ma⁵⁵") == ("m", "a", "⁵⁵")

    def test_precomposed_input_is_normalized(self):
        # NFC 'ã' and NFD 'a'+tilde tokenize identically
        assert tokenize_form("pã") == tokenize_form("pã")

    def test_round_trip_reproduces_normalized_input(self):
        for raw in ("tʰan˥˩", "ʈʂʰu˧˥", "fɔ̃tɛn", "ˈkaza"):
            toks = tokenize_form(raw)
            assert "".join(toks) == unicodedata.normalize("NFD", raw)
            assert all(not ch.isspace() for t in toks for ch in t)

    def test_stress_separate_vs_strip(self):
        assert tokenize_form("ˈka")[0] == "ˈ"
        assert tokenize_form("ˈka", TokenizerOptions(stress="strip")) == ("k", "a")

    def test_leading_combining_mark_rejected(self):
        with pytest.raises(TokenizeError):
            tokenize_form("̃a")

    def test_empty_input_rejected(self):
        with pytest.raises(TokenizeError):
            tokenize_form("   ")

    def test_orthographic_mode_is_per_character(self):
        opts = TokenizerOptions(mode="orthographic")
        assert tokenize_form("chȃine", opts) == ("c", "h", "ȃ", "i", "n", "e")


def reference_tokenize_form(raw, options=TokenizerOptions()):
    """The tokenizer as it was written with a separate ``current`` buffer
    and a ``flush`` closure; ``tokenize_form`` must match it exactly."""
    if options.mode == "orthographic":
        text = unicodedata.normalize("NFC", raw.strip())
        tokens = tuple(ch for ch in text if not ch.isspace())
        if not tokens:
            raise TokenizeError(f"empty form {raw!r}")
        return tokens

    text = unicodedata.normalize("NFD", raw.strip())
    tokens = []
    current = []
    current_kind = None
    pending_tie = False

    def flush():
        nonlocal current, current_kind, pending_tie
        if current:
            tokens.append("".join(current))
        current = []
        current_kind = None
        pending_tie = False

    for ch in text:
        if ch.isspace():
            flush()
            continue
        if options.strip_length and ch in corpus.LENGTH_MARKS:
            continue
        if ch in corpus.TONE_CHARS:
            if current_kind == "tone":
                current.append(ch)
            else:
                flush()
                current, current_kind = [ch], "tone"
            continue
        if ch in corpus.STRESS_MARKS:
            if options.stress == "strip":
                continue
            flush()
            tokens.append(ch)
            continue
        cat = unicodedata.category(ch)
        if cat in ("Mn", "Mc", "Me"):
            if current_kind != "seg":
                raise TokenizeError(f"combining mark {ch!r} (U+{ord(ch):04X}) with no base in {raw!r}")
            current.append(ch)
            if ch in corpus.TIE_BARS:
                pending_tie = True
            continue
        if cat in ("Lm", "Sk"):
            if current_kind != "seg":
                raise TokenizeError(f"modifier {ch!r} (U+{ord(ch):04X}) with no base in {raw!r}")
            current.append(ch)
            continue
        if pending_tie and current_kind == "seg":
            current.append(ch)
            pending_tie = False
        else:
            flush()
            current, current_kind = [ch], "seg"

    flush()
    if not tokens:
        raise TokenizeError(f"empty form {raw!r}")
    return tuple(tokens)


# Bases and vowels (weighted up so that most strings tokenize), combining
# marks of all three categories, both tie bars, modifier letters and
# symbols, tone letters, superscript digits, stress and length marks,
# whitespace, and precomposed letters that NFD splits.
ALPHABET = (
    list("ptksnmlrfx") * 3 + list("aeiouəɛɔy") * 3
    + list("\u0303\u0325\u032a\u032f\u0329\u0308") + ["\u0903", "\u20dd"]
    + ["\u0361", "\u035c"] * 3
    + list("ʰʲʷˀʼⁿ˞")
    + list("˥˦˧˨˩") + list("¹²³⁵")
    + list("ˈˌ") + list("ːˑ")
    + [" ", "\t"]
    + list("ãéüñǹ")
)


def _outcome(fn, raw, options):
    try:
        return fn(raw, options)
    except TokenizeError as exc:
        return ("error", str(exc))


def test_tokenizer_matches_reference_on_random_strings():
    rng = random.Random(20231)
    strings = ["".join(rng.choices(ALPHABET, k=rng.randint(0, 10))) for _ in range(20_000)]
    for mode, strip_length, stress in itertools.product(
            ("phonetic", "orthographic"), (False, True), ("separate", "strip")):
        options = TokenizerOptions(mode=mode, strip_length=strip_length, stress=stress)
        for raw in strings:
            assert _outcome(tokenize_form, raw, options) == \
                _outcome(reference_tokenize_form, raw, options), (raw, options)


class TestParse:
    def test_basic_shape_and_missing_cell(self):
        ds = parse_dataset(SMALL_TSV)
        assert ds.proto_name == "Proto"
        assert ds.languages == ["Nord", "Sud"]   # the header's daughters
        assert len(ds.sets) == 3
        assert "Nord" not in ds.sets[1].daughters
        assert ds.sets[1].daughters["Sud"] == ("p", "a", "n")

    def test_first_variant_kept(self):
        ds = parse_dataset(SMALL_TSV)
        assert ds.sets[2].daughters["Nord"] == ("tʰ", "a")

    def test_empty_proto_rows_dropped(self):
        # the same empty proto cell twice, and a variant list whose first is empty
        ds = parse_dataset("id\tA\tP\nx\tka\t\ny\tpo\tpa\nz\tku\t\nw\tki\t/pi\n")
        assert [cs.set_id for cs in ds.sets] == ["y"]

    def test_repeated_malformed_form_reports_its_first_line(self):
        # line 2's copy is never tokenized: its row has no proto
        bad = "\u0303a"
        tsv = f"id\tA\tP\nv\t{bad}\t\nx\t{bad}\tpo\ny\tki\tpi\nz\t{bad}\tpu\n"
        with pytest.raises(ParseError, match=r"^line 3: combining mark"):
            parse_dataset(tsv)

    def test_proto_column_selectable(self):
        ds = parse_dataset(SMALL_TSV, ParseOptions(proto_column="Nord"))
        assert ds.proto_name == "Nord"
        assert ds.languages == ["Sud", "Proto"]

    def test_column_count_mismatch_reports_line(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_dataset("id\tA\tP\nx\tka\tko\ny\tbad\n")

    def test_duplicate_language_rejected(self):
        with pytest.raises(SchemaError, match="duplicate"):
            parse_dataset("id\tA\tA\tP\nx\ta\tb\tc\n")


def reference_parse_sets(tsv_text, options):
    """``parse_dataset``'s rows with every cell tokenized where it stands."""
    lines = tsv_text.splitlines()
    col_names = lines[0].split("\t")[1:]
    proto_name = options.proto_column or col_names[-1]
    sets = []
    for lineno, line in enumerate(lines[1:], start=2):
        row = dict(zip(col_names, line.split("\t")[1:]))
        proto_raw = corpus._first_variant(row[proto_name])
        if not proto_raw:
            continue
        proto = tokenize_form(proto_raw, options.tokenizer)
        daughters = {}
        for name in col_names:
            raw = corpus._first_variant(row[name])
            if name != proto_name and raw:
                daughters[name] = tokenize_form(raw, options.tokenizer)
        if daughters:
            sets.append(corpus.CognateSet(line.split("\t")[0].strip(), proto, daughters))
    return sets


@pytest.mark.parametrize("mode", ["phonetic", "orthographic"])
def test_parse_matches_per_cell_reference_on_a_sinitic_corpus(mode):
    rules = synth.parse_rules(resources.files("protoform.data")
                              .joinpath("sinitic_style.rules").read_text("utf-8"))
    tsv = synth.generate_tsv(rules, 800, len(rules.daughters), seed=121)
    options = ParseOptions(tokenizer=TokenizerOptions(mode=mode))
    ds = parse_dataset(tsv, options)
    assert len(ds.sets) == 800
    assert ds.sets == reference_parse_sets(tsv, options)


class TestVocab:
    def test_tables_and_specials(self):
        ds = parse_dataset("id\tD1\tD2\tP\nx\tab\tb\tac\ny\ta\tba\tca\n",
                           ParseOptions(tokenizer=TokenizerOptions(mode="orthographic")))
        v = build_vocab(ds)
        assert v.source_tokens == ["<pad>", "<bos>", "<eos>", "<unk>", "a", "b"]
        assert v.target_tokens == ["<pad>", "<bos>", "<eos>", "<unk>", "a", "c"]
        assert v.source_index["<pad>"] == PAD_ID == 0

    def test_empty_dataset_rejected(self):
        ds = corpus.Dataset([], ["A"], "P")
        with pytest.raises(CorpusError):
            build_vocab(ds)

    def test_determinism(self):
        v1 = build_vocab(parse_dataset(SMALL_TSV))
        v2 = build_vocab(parse_dataset(SMALL_TSV))
        assert v1.source_index == v2.source_index
        assert v1.target_index == v2.target_index


def _dummy_dataset(n):
    rows = [f"s{i}\tka{i % 7}\tpo\tpa{i % 5}" for i in range(n)]
    text = "id\tA\tB\tP\n" + "\n".join(rows) + "\n"
    return parse_dataset(text, ParseOptions(tokenizer=TokenizerOptions(mode="orthographic")))


class TestSplit:
    def test_sizes_804(self):
        tr, va, te = split_dataset(_dummy_dataset(804), seed=1)
        assert (len(tr), len(va), len(te)) == (562, 80, 162)

    def test_partition_no_duplicates(self):
        ds = _dummy_dataset(53)
        tr, va, te = split_dataset(ds, seed=9)
        ids = [cs.set_id for part in (tr, va, te) for cs in part.sets]
        assert sorted(ids) == sorted(cs.set_id for cs in ds.sets)

    def test_same_seed_identical(self):
        ds = _dummy_dataset(101)
        a = split_dataset(ds, seed=5)
        b = split_dataset(ds, seed=5)
        for pa, pb in zip(a, b):
            assert [c.set_id for c in pa.sets] == [c.set_id for c in pb.sets]

    def test_fixed_seed_pair_differs(self):
        ds = _dummy_dataset(101)
        a, _, _ = split_dataset(ds, seed=0)
        b, _, _ = split_dataset(ds, seed=1)
        assert [c.set_id for c in a.sets] != [c.set_id for c in b.sets]

    def test_too_small_rejected(self):
        with pytest.raises(CorpusError):
            split_dataset(_dummy_dataset(9), seed=0)


class TestEncode:
    def _ds(self):
        return parse_dataset(
            "id\td1\td2\tP\n"
            "x\tab\tc\tba\n"
            "y\tab\t\tab\n",
            ParseOptions(tokenizer=TokenizerOptions(mode="orthographic")),
        )

    def test_positions_restart_and_language_spans(self):
        ds = self._ds()
        v = build_vocab(ds)
        enc = encode_cognate_set(ds.sets[0], v, ds)
        assert enc.positions == [0, 1, 0]
        assert enc.languages == [0, 0, 1]

    def test_missing_daughter_contributes_nothing(self):
        ds = self._ds()
        v = build_vocab(ds)
        enc = encode_cognate_set(ds.sets[1], v, ds)
        assert enc.positions == [0, 1]
        assert enc.languages == [0, 0]

    def test_unseen_token_maps_to_unk(self):
        ds = self._ds()
        v = build_vocab(ds)
        stray = corpus.CognateSet("z", ("a",), {"d1": ("ɸ", "a")})
        enc = encode_cognate_set(stray, v, ds)
        assert enc.source[0] == UNK_ID
        assert enc.source[1] == v.source_index["a"]

    def test_target_framing(self):
        ds = self._ds()
        v = build_vocab(ds)
        enc = encode_cognate_set(ds.sets[0], v, ds)
        assert enc.target[0] == BOS_ID and enc.target[-1] == EOS_ID
        assert len(enc.target) == len(ds.sets[0].proto) + 2

    def test_no_present_daughters_rejected(self):
        ds = self._ds()
        v = build_vocab(ds)
        empty = corpus.CognateSet("w", ("a",), {})
        with pytest.raises(CorpusError):
            encode_cognate_set(empty, v, ds)

    def test_storage_order_irrelevant(self):
        ds = self._ds()
        v = build_vocab(ds)
        cs = ds.sets[0]
        flipped = corpus.CognateSet(cs.set_id, cs.proto,
                                    dict(reversed(list(cs.daughters.items()))))
        a = encode_cognate_set(cs, v, ds)
        b = encode_cognate_set(flipped, v, ds)
        assert (a.source, a.positions, a.languages) == (b.source, b.positions, b.languages)
