"""Synthetic cognate-set generation from sound-change rules.

A rules file declares a proto phoneme inventory and, per daughter, an
ordered list of contextual rewrite rules in ``x -> y / a _ b`` notation
(`#` marks a word boundary, `0` an empty replacement).  Proto words are
sampled from the inventory (consonant-vowel alternation when the
inventory distinguishes both classes, plain uniform otherwise), each
daughter's rules are applied in listed order in a single leftmost pass
each, and the result is written as a corpus-format TSV.  Everything is a
pure function of the rules file and the seed.

Sampled protos repeat (an 800-set corpus of ``sinitic_style.rules`` holds
about 560 distinct), so one ``generate_tsv`` call splits the inventory into
phone classes once and derives each distinct proto's daughter cells once.
Every word is still drawn, so the memo changes neither the random stream
nor the TSV.
"""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import token_class
from .engine.rng import DetRng, mix64


class SynthError(Exception):
    pass


@dataclass(frozen=True)
class Rule:
    x: tuple                  # one or more tokens to replace
    y: tuple                  # replacement tokens (may be empty)
    left: str | None = None   # context token, '#', or None (unconditioned)
    right: str | None = None

    def __str__(self):
        s = f"{' '.join(self.x)} -> {' '.join(self.y) or '0'}"
        if self.left is not None or self.right is not None:
            s += f" / {self.left or ''} _ {self.right or ''}".replace("  ", " ")
        return s


@dataclass
class RuleSet:
    proto_name: str
    inventory: list
    extra: list
    daughters: list           # (name, [Rule]) in file order

    @property
    def known(self) -> set:
        return set(self.inventory) | set(self.extra)


def parse_rules(text: str) -> RuleSet:
    proto_name = "Proto"
    inventory: list = []
    extra: list = []
    daughters: list = []
    current: list | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            # '#' elsewhere is the word-boundary marker, so no inline comments
            continue
        if line.startswith("proto:"):
            proto_name = line[len("proto:"):].strip()
        elif line.startswith("inventory:"):
            inventory = line[len("inventory:"):].split()
        elif line.startswith("extra:"):
            extra = line[len("extra:"):].split()
        elif line.startswith("daughter ") and line.endswith(":"):
            name = line[len("daughter "):-1].strip()
            if any(n == name for n, _ in daughters):
                raise SynthError(f"line {lineno}: duplicate daughter {name!r}")
            current = []
            daughters.append((name, current))
        else:
            if current is None:
                raise SynthError(f"line {lineno}: rule outside a daughter block: {line!r}")
            current.append(_parse_rule(line, lineno))

    if not inventory:
        raise SynthError("rules file declares no inventory")
    if not daughters:
        raise SynthError("rules file declares no daughters")
    rs = RuleSet(proto_name, inventory, extra, daughters)
    for name, rules in daughters:
        for rule in rules:
            referenced = list(rule.x) + list(rule.y)
            referenced += [c for c in (rule.left, rule.right) if c not in (None, "#")]
            for tok in referenced:
                if tok not in rs.known:
                    raise SynthError(
                        f"daughter {name!r}, rule '{rule}': phoneme {tok!r} not declared"
                    )
    return rs


def _parse_rule(line: str, lineno: int) -> Rule:
    body, _, ctx = line.partition("/")
    body = body.replace("→", "->")
    if "->" not in body:
        raise SynthError(f"line {lineno}: rule needs '->': {line!r}")
    lhs, rhs = body.split("->", 1)
    x = tuple(lhs.split())
    y = tuple(t for t in rhs.split() if t not in ("0", "∅"))
    if not x:
        raise SynthError(f"line {lineno}: empty rule source: {line!r}")
    left = right = None
    if ctx.strip():
        if "_" not in ctx:
            raise SynthError(f"line {lineno}: context needs '_': {line!r}")
        lt, rt = ctx.split("_", 1)
        left = lt.split()[-1] if lt.split() else None
        right = rt.split()[0] if rt.split() else None
    return Rule(x, y, left, right)


def apply_rule(tokens: tuple, rule: Rule) -> tuple:
    """One leftmost pass; context is evaluated on the pre-rule sequence."""
    if rule.x[0] not in tokens:
        return tokens   # no position can match
    out: list = []
    i = 0
    n = len(tokens)
    k = len(rule.x)
    while i < n:
        if tokens[i:i + k] == rule.x and _context_ok(tokens, i, i + k, rule):
            out.extend(rule.y)
            i += k
        else:
            out.append(tokens[i])
            i += 1
    return tuple(out)


def _context_ok(tokens, start, end, rule) -> bool:
    if rule.left == "#":
        if start != 0:
            return False
    elif rule.left is not None:
        if start == 0 or tokens[start - 1] != rule.left:
            return False
    if rule.right == "#":
        if end != len(tokens):
            return False
    elif rule.right is not None:
        if end == len(tokens) or tokens[end] != rule.right:
            return False
    return True


def derive(proto: tuple, rules) -> tuple:
    word = proto
    for rule in rules:
        word = apply_rule(word, rule)
    return word


def phone_pools(inventory: list) -> tuple:
    """(consonants, vowels, tones) of ``inventory``, each in inventory order."""
    return tuple([t for t in inventory if token_class(t) == kind]
                 for kind in ("consonant", "vowel", "tone"))


def sample_proto(rng: DetRng, inventory: list, pools: tuple) -> tuple:
    """Random proto word of length 3-6; ``pools`` is ``phone_pools(inventory)``.

    Tone-bearing inventories yield monosyllables (onset, nucleus, optional
    coda, tone); otherwise consonant/vowel slots alternate; inventories
    without both classes fall back to uniform draws.
    """
    consonants, vowels, tones = pools
    if tones and consonants and vowels:
        word = [consonants[rng.randint(len(consonants))],
                vowels[rng.randint(len(vowels))]]
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


def generate_tsv(rules: RuleSet, n_sets: int, n_daughters: int, seed: int) -> str:
    """Corpus-format TSV text; byte-identical for identical inputs."""
    if n_sets < 1:
        raise SynthError("n_sets must be at least 1")
    if not 1 <= n_daughters <= len(rules.daughters):
        raise SynthError(
            f"n_daughters must be in 1..{len(rules.daughters)} "
            f"(rules file defines {len(rules.daughters)})"
        )
    chosen = rules.daughters[:n_daughters]
    rng = DetRng(mix64(0x5E17, seed))
    pools = phone_pools(rules.inventory)
    derived: dict = {}   # proto -> its daughter cells, tab-joined
    lines = ["set_id\t" + "\t".join(n for n, _ in chosen) + f"\t{rules.proto_name}"]
    for k in range(n_sets):
        proto = sample_proto(rng, rules.inventory, pools)
        cells = derived.get(proto)
        if cells is None:
            cells = derived[proto] = "\t".join("".join(derive(proto, rs)) for _, rs in chosen)
        lines.append(f"s{k:04d}\t{cells}\t" + "".join(proto))
    return "\n".join(lines) + "\n"
