from importlib import resources

import pytest

from protoform import synth as S
from protoform.corpus import parse_dataset, token_class
from protoform.engine.rng import DetRng, mix64

BUNDLED = ("synth5.rules", "sinitic_style.rules", "west_germanic.rules")


def bundled(name):
    return S.parse_rules(resources.files("protoform.data").joinpath(name).read_text("utf-8"))

RULES = """\
proto: Proto
inventory: p t k a i u n
extra: z o

daughter Nord:
t -> z / # _
u -> o / _ #

daughter Sud:
n -> 0 / _ #
"""


class TestParseRules:
    def test_basic_structure(self):
        rs = S.parse_rules(RULES)
        assert rs.proto_name == "Proto"
        assert rs.inventory == ["p", "t", "k", "a", "i", "u", "n"]
        assert [n for n, _ in rs.daughters] == ["Nord", "Sud"]
        assert len(rs.daughters[0][1]) == 2

    def test_undeclared_phoneme_rejected(self):
        bad = RULES + "\ndaughter Ost:\nq -> t / # _\n"
        with pytest.raises(S.SynthError, match="q"):
            S.parse_rules(bad)

    def test_rule_outside_daughter_rejected(self):
        with pytest.raises(S.SynthError, match="outside"):
            S.parse_rules("inventory: a b\na -> b\n")

    def test_arrow_variants(self):
        r = S._parse_rule("t → z / # _", 1)
        assert r == S.Rule(("t",), ("z",), "#", None)


class TestApplyRule:
    def test_word_initial_context(self):
        rule = S.Rule(("t",), ("z",), "#", None)
        assert S.apply_rule(("t", "a", "t", "a"), rule) == ("z", "a", "t", "a")

    def test_word_final_context(self):
        rule = S.Rule(("n",), (), None, "#")
        assert S.apply_rule(("p", "a", "n"), rule) == ("p", "a")
        assert S.apply_rule(("p", "a", "n", "a"), rule) == ("p", "a", "n", "a")

    def test_both_sided_context(self):
        rule = S.Rule(("t",), ("d",), "a", "a")
        assert S.apply_rule(("a", "t", "a", "t", "i"), rule) == ("a", "d", "a", "t", "i")

    def test_single_pass_no_refeeding(self):
        # aa -> a must not cascade within one pass
        rule = S.Rule(("a", "a"), ("a",), None, None)
        assert S.apply_rule(("a", "a", "a", "a"), rule) == ("a", "a")

    def test_ordered_rules_feed(self):
        rules = [S.Rule(("a",), ("o",), None, "#"), S.Rule(("i",), ("a",), None, "#")]
        # a->o first, then i->a: final i becomes a and is NOT re-raised to o
        assert S.derive(("p", "i"), rules) == ("p", "a")


def reference_apply_rule(tokens, rule):
    """``apply_rule``'s loop without its early return: every position is
    tried, whether or not the rule's first token occurs in the word."""
    out = []
    i = 0
    k = len(rule.x)
    while i < len(tokens):
        if tokens[i:i + k] == rule.x and S._context_ok(tokens, i, i + k, rule):
            out.extend(rule.y)
            i += k
        else:
            out.append(tokens[i])
            i += 1
    return tuple(out)


def reference_sample_proto(rng, inventory):
    """``sample_proto`` classifying the inventory anew for each word."""
    consonants = [t for t in inventory if token_class(t) == "consonant"]
    vowels = [t for t in inventory if token_class(t) == "vowel"]
    tones = [t for t in inventory if token_class(t) == "tone"]
    if tones and consonants and vowels:
        word = [consonants[rng.randint(len(consonants))], vowels[rng.randint(len(vowels))]]
        if rng.randint(2):
            word.append(consonants[rng.randint(len(consonants))])
        word.append(tones[rng.randint(len(tones))])
        return tuple(word)
    length = 3 + rng.randint(4)
    if not consonants or not vowels:
        return tuple(inventory[rng.randint(len(inventory))] for _ in range(length))
    word = []
    for i in range(length):
        pool = consonants if i % 2 == 0 else vowels
        word.append(pool[rng.randint(len(pool))])
    return tuple(word)


def reference_generate_tsv(rules, n_sets, n_daughters, seed):
    """``generate_tsv`` deriving every sampled proto anew, with the reference loop."""
    chosen = rules.daughters[:n_daughters]
    rng = DetRng(mix64(0x5E17, seed))
    lines = ["set_id\t" + "\t".join(n for n, _ in chosen) + f"\t{rules.proto_name}"]
    for k in range(n_sets):
        proto = reference_sample_proto(rng, rules.inventory)
        cells = []
        for _, rs in chosen:
            word = proto
            for rule in rs:
                word = reference_apply_rule(word, rule)
            cells.append("".join(word))
        lines.append(f"s{k:04d}\t" + "\t".join(cells) + "\t" + "".join(proto))
    return "\n".join(lines) + "\n"


class TestSameAsReference:
    """The early return of ``apply_rule``, the inventory split once per call
    and the per-call memo of derived cells change no output."""

    @pytest.mark.parametrize("name", BUNDLED)
    def test_apply_rule_on_sampled_words_and_derivations(self, name):
        rs = bundled(name)
        rng = DetRng(mix64(0xA991, len(name)))
        pools = S.phone_pools(rs.inventory)
        words = set()
        for _ in range(1000):
            proto = S.sample_proto(rng, rs.inventory, pools)
            words.add(proto)
            for _, rules in rs.daughters:
                word = proto
                for rule in rules:
                    word = reference_apply_rule(word, rule)
                    words.add(word)
        # Two-token sources: the first token occurs in many words where the
        # pair does not, so the early return does not fire there and the
        # scan must still find no match.
        c, v = pools[0][0], pools[1][0]
        rules = [rule for _, rules in rs.daughters for rule in rules] + [
            S.Rule((c, v), (v,)), S.Rule((v, c), (), "#", None), S.Rule((c, c), (c,))]
        for word in sorted(words):
            for rule in rules:
                got = S.apply_rule(word, rule)
                assert got == reference_apply_rule(word, rule), (word, str(rule))
                assert type(got) is tuple

    def test_two_token_source_whose_first_token_does_not_match(self):
        rule = S.Rule(("t", "a"), ("d",))
        assert S.apply_rule(("p", "i", "t"), rule) == ("p", "i", "t")
        assert S.apply_rule(("t", "i", "t", "a"), rule) == ("t", "i", "d")

    @pytest.mark.parametrize("name", BUNDLED)
    @pytest.mark.parametrize("seed", [0, 121, 310])
    def test_generate_tsv_byte_equal(self, name, seed):
        rs = bundled(name)
        for n_daughters in (1, len(rs.daughters)):
            assert S.generate_tsv(rs, 300, n_daughters, seed) == \
                reference_generate_tsv(rs, 300, n_daughters, seed)


class TestGenerate:
    def test_identity_rules_give_equal_daughters(self):
        rs = S.parse_rules("inventory: p t a i\ndaughter D1:\ndaughter D2:\n")
        ds = parse_dataset(S.generate_tsv(rs, 20, 2, seed=4))
        for cs in ds.sets:
            for w in cs.daughters.values():
                assert w == cs.proto

    def test_byte_identical_for_fixed_seed(self):
        rs = S.parse_rules(RULES)
        a = S.generate_tsv(rs, 50, 2, seed=9)
        b = S.generate_tsv(rs, 50, 2, seed=9)
        c = S.generate_tsv(rs, 50, 2, seed=10)
        assert a == b
        assert a != c

    def test_west_germanic_style_correspondence(self):
        text = (
            "proto: PWG\ninventory: t a n\nextra: z\n"
            "daughter English:\ndaughter German:\nt -> z / # _\n"
        )
        rs = S.parse_rules(text)
        ds = parse_dataset(S.generate_tsv(rs, 40, 2, seed=2))
        initial_t = [cs for cs in ds.sets if cs.proto[0] == "t"]
        assert initial_t
        for cs in initial_t:
            assert cs.daughters["English"][0] == "t"
            assert cs.daughters["German"][0] == "z"

    def test_lengths_in_contract_range(self):
        rs = S.parse_rules("inventory: p t k s a i u e\ndaughter D:\n")
        ds = parse_dataset(S.generate_tsv(rs, 100, 1, seed=0))
        assert all(3 <= len(cs.proto) <= 6 for cs in ds.sets)

    def test_tone_inventories_give_tone_final_monosyllables(self):
        rs = S.parse_rules("inventory: p t a u ˥ ˥˩\ndaughter D:\n")
        ds = parse_dataset(S.generate_tsv(rs, 30, 1, seed=0))
        from protoform.corpus import token_class
        for cs in ds.sets:
            assert token_class(cs.proto[-1]) == "tone"
            assert 3 <= len(cs.proto) <= 4

    def test_too_many_daughters_rejected(self):
        rs = S.parse_rules(RULES)
        with pytest.raises(S.SynthError, match="n_daughters"):
            S.generate_tsv(rs, 5, 3, seed=0)
