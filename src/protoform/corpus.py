"""Cognate-set datasets: parsing, phoneme tokenization, vocabularies,
deterministic splits, and encoding into training examples.

A word is a tuple of tokens; a token is one base segment with its merged
diacritics/modifier letters, one tone-contour string, or (in encoded
form only) a reserved special.  Input is Unicode-normalized to NFD before
tokenization so diacritic attachment does not depend on how the source
text was composed.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass, field
from functools import cache, cached_property

from .engine.rng import DetRng, mix64

Token = str
Word = tuple  # tuple[Token, ...]


class CorpusError(Exception):
    pass


class TokenizeError(CorpusError):
    pass


class ParseError(CorpusError):
    pass


class SchemaError(CorpusError):
    pass


PAD, BOS, EOS, UNK = "<pad>", "<bos>", "<eos>", "<unk>"
SPECIALS = (PAD, BOS, EOS, UNK)
PAD_ID, BOS_ID, EOS_ID, UNK_ID = 0, 1, 2, 3

# Chao tone letters plus superscript digits; a maximal run is one token.
TONE_BARS = "˥˦˧˨˩"
SUPERSCRIPT_DIGITS = "⁰¹²³⁴⁵⁶⁷⁸⁹"
TONE_CHARS = frozenset(TONE_BARS + SUPERSCRIPT_DIGITS)

STRESS_MARKS = frozenset("ˈˌ")   # primary/secondary stress
LENGTH_MARKS = frozenset("ːˑ")   # long / half-long
TIE_BARS = frozenset("͜͡")       # affricate/double-articulation ties

# Unicode categories that attach to the preceding base segment: combining
# marks (Mn, Mc, Me) and modifier letters and symbols (Lm, Sk).
ATTACHED_CATEGORIES = frozenset(("Mn", "Mc", "Me", "Lm", "Sk"))

VOWEL_BASES = frozenset(
    "iyɨʉɯuɪʏʊeøɘɵɤoəɚɛœɜɝɞʌɔæɐaɶɑɒ"
)


@cache
def token_class(token: Token) -> str:
    """Coarse phone class: 'tone', 'vowel', or 'consonant'.  Memoised: the
    baselines classify the same few hundred tokens hundreds of thousands
    of times per evaluation."""
    if all(ch in TONE_CHARS for ch in token):
        return "tone"
    for ch in token:
        if unicodedata.category(ch).startswith("M"):
            continue
        return "vowel" if ch in VOWEL_BASES else "consonant"
    return "consonant"


@dataclass(frozen=True)
class LanguageId:
    name: str
    index: int


@dataclass(frozen=True)
class CognateSet:
    set_id: str
    proto: Word
    daughters: dict  # language name -> Word; at least one entry


@dataclass(frozen=True)
class Dataset:
    sets: list
    languages: list  # LanguageId, dense indices 0..L-1 in column order
    proto_name: str

    def __len__(self) -> int:
        return len(self.sets)

    def subset(self, indices) -> "Dataset":
        return Dataset([self.sets[i] for i in indices], self.languages, self.proto_name)


@dataclass(frozen=True)
class TokenizerOptions:
    mode: str = "phonetic"        # "phonetic" | "orthographic"
    strip_length: bool = False
    stress: str = "separate"      # "separate" | "strip"


@dataclass(frozen=True)
class ParseOptions:
    proto_column: str | None = None   # None: last column
    tokenizer: TokenizerOptions = field(default_factory=TokenizerOptions)


def tokenize_form(raw: str, options: TokenizerOptions = TokenizerOptions()) -> Word:
    """Split a surface form into phoneme tokens.

    Phonetic mode: NFD-normalize, then attach combining marks and modifier
    letters to the preceding base segment; tie bars join the following base
    into the same token; maximal runs of tone letters or superscript digits
    become one tone-contour token.  Orthographic mode: one NFC character
    per token.
    """
    if options.mode == "orthographic":
        text = unicodedata.normalize("NFC", raw.strip())
        tokens = tuple(ch for ch in text if not ch.isspace())
        if not tokens:
            raise TokenizeError(f"empty form {raw!r}")
        return tokens

    text = unicodedata.normalize("NFD", raw.strip())
    tokens: list[str] = []
    kind = None  # "seg" | "tone" while tokens[-1] may still grow, else None
    tie = False  # tokens[-1] ends in a tie bar, so the next base joins it
    for ch in text:
        if (options.stress == "strip" and ch in STRESS_MARKS
                or options.strip_length and ch in LENGTH_MARKS):
            continue
        if ch.isspace():
            kind, tie = None, False
        elif ch in TONE_CHARS:
            if kind == "tone":
                tokens[-1] += ch
            else:
                tokens.append(ch)
                kind, tie = "tone", False
        elif ch in STRESS_MARKS:
            tokens.append(ch)
            kind, tie = None, False
        elif (cat := unicodedata.category(ch)) in ATTACHED_CATEGORIES:
            if kind != "seg":
                what = "combining mark" if cat[0] == "M" else "modifier"
                raise TokenizeError(f"{what} {ch!r} (U+{ord(ch):04X}) with no base in {raw!r}")
            tokens[-1] += ch
            tie = tie or ch in TIE_BARS
        elif tie:
            tokens[-1] += ch
            tie = False
        else:
            tokens.append(ch)
            kind = "seg"
    if not tokens:
        raise TokenizeError(f"empty form {raw!r}")
    return tuple(tokens)


def _first_variant(cell: str) -> str:
    """Cells may list pronunciation variants split by '/' or ','; keep the first."""
    cell = cell.strip()
    for sep in ("/", ","):
        if sep in cell:
            cell = cell.split(sep, 1)[0].strip()
    return cell


def parse_dataset(tsv_text: str, options: ParseOptions = ParseOptions()) -> Dataset:
    """Parse a tab-separated cognate table.

    Header: ``set_id<TAB>Lang1<TAB>...<TAB>LangN``; one row per cognate set,
    empty cell = missing reflex.  Rows with an empty proto cell, and rows
    with no attested daughter at all, are dropped.
    """
    lines = tsv_text.splitlines()
    if not lines:
        raise ParseError("line 1: empty input")
    header = lines[0].split("\t")
    if len(header) < 3:
        raise SchemaError("header must name a set-id column, at least one daughter, and the proto column")
    col_names = header[1:]
    seen = set()
    for name in col_names:
        if name in seen:
            raise SchemaError(f"duplicate language column {name!r}")
        seen.add(name)
    proto_name = options.proto_column if options.proto_column is not None else col_names[-1]
    if proto_name not in col_names:
        raise SchemaError(f"proto column {proto_name!r} not in header")
    daughter_names = [c for c in col_names if c != proto_name]
    if not daughter_names:
        raise SchemaError("no daughter columns")
    languages = [LanguageId(name, i) for i, name in enumerate(daughter_names)]

    # Cells repeat from row to row and column to column, so each distinct
    # cell is tokenized once: to its tokens, or to None when it is empty.
    forms: dict = {}

    def form(cell: str):
        if cell not in forms:
            raw = _first_variant(cell)
            forms[cell] = tokenize_form(raw, options.tokenizer) if raw else None
        return forms[cell]

    sets = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split("\t")
        if len(cells) != len(header):
            raise ParseError(f"line {lineno}: expected {len(header)} columns, got {len(cells)}")
        row = dict(zip(col_names, cells[1:]))
        try:
            proto = form(row[proto_name])
            if proto is None:
                continue
            daughters = {}
            for name in daughter_names:
                word = form(row[name])
                if word is not None:
                    daughters[name] = word
        except TokenizeError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
        if not daughters:
            continue
        sets.append(CognateSet(cells[0].strip(), proto, daughters))
    return Dataset(sets, languages, proto_name)


@dataclass(frozen=True)
class Vocabulary:
    """Token tables; a token's id is its position in its list."""
    source_tokens: list
    target_tokens: list

    @cached_property
    def source_index(self) -> dict:
        return {t: i for i, t in enumerate(self.source_tokens)}

    @cached_property
    def target_index(self) -> dict:
        return {t: i for i, t in enumerate(self.target_tokens)}

    def src_id(self, token: Token) -> int:
        return self.source_index.get(token, UNK_ID)

    def tgt_id(self, token: Token) -> int:
        return self.target_index.get(token, UNK_ID)

    def tgt_token(self, idx: int) -> Token:
        return self.target_tokens[idx]

    @property
    def n_source(self) -> int:
        return len(self.source_tokens)

    @property
    def n_target(self) -> int:
        return len(self.target_tokens)


def build_vocab(ds: Dataset) -> Vocabulary:
    """Shared source table over all daughters, target table over protoforms.

    Index assignment is deterministic: specials first (PAD at 0), then
    surface tokens sorted by text.
    """
    if not ds.sets:
        raise CorpusError("cannot build a vocabulary from an empty dataset")
    src = sorted({t for cs in ds.sets for w in cs.daughters.values() for t in w})
    tgt = sorted({t for cs in ds.sets for t in cs.proto})
    for tok in SPECIALS:
        if tok in src or tok in tgt:
            raise CorpusError(f"surface token collides with special {tok!r}")
    return Vocabulary(list(SPECIALS) + src, list(SPECIALS) + tgt)


def split_dataset(ds: Dataset, seed: int):
    """70/10/20 split; the permutation is a pure function of the seed."""
    n = len(ds.sets)
    if n < 10:
        raise CorpusError(f"dataset of {n} sets is too small to split")
    perm = DetRng(mix64(0x5714, seed)).permutation(n)
    n_train = (7 * n) // 10
    n_val = n // 10
    train = ds.subset(perm[:n_train])
    val = ds.subset(perm[n_train:n_train + n_val])
    test = ds.subset(perm[n_train + n_val:])
    return train, val, test


@dataclass(frozen=True)
class EncodedExample:
    source: list       # source token ids, daughters concatenated in dataset order
    positions: list    # restart at 0 for each daughter
    languages: list    # daughter language index, constant within each span
    target: list       # BOS + proto ids + EOS


def encode_cognate_set(cs: CognateSet, vocab: Vocabulary, ds: Dataset) -> EncodedExample:
    """Concatenate the present daughters in the dataset's fixed language
    order; positions restart per daughter, language ids mark the spans."""
    source, positions, languages = [], [], []
    for lang in ds.languages:
        word = cs.daughters.get(lang.name)
        if word is None:
            continue
        for i, tok in enumerate(word):
            source.append(vocab.src_id(tok))
            positions.append(i)
            languages.append(lang.index)
    if not source:
        raise CorpusError(f"cognate set {cs.set_id!r} has no present daughters")
    target = [BOS_ID] + [vocab.tgt_id(t) for t in cs.proto] + [EOS_ID]
    return EncodedExample(source, positions, languages, target)


def encode_dataset(ds: Dataset, vocab: Vocabulary) -> list:
    return [encode_cognate_set(cs, vocab, ds) for cs in ds.sets]
