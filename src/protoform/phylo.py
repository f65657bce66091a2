"""Phylogenetic probing of trained models.

Cosine distances between language embeddings feed Ward agglomerative
clustering; dendrograms from several runs are summarized by a
majority-rule consensus tree and compared against a gold phylogeny with
the Generalized Quartet Distance.  Trees serialize as Newick.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np


class PhyloError(Exception):
    pass


@dataclass(frozen=True)
class DistanceMatrix:
    labels: list          # language names, fixed order
    d: np.ndarray         # symmetric, zero diagonal

    def __post_init__(self):
        n = len(self.labels)
        if self.d.shape != (n, n):
            raise PhyloError(f"distance matrix shape {self.d.shape} vs {n} labels")


def cosine_distance_matrix(embeddings: dict) -> DistanceMatrix:
    """1 - cosine similarity for every pair of LanguageId keys, in index order."""
    keys = sorted(embeddings, key=lambda k: k.index)
    vecs = []
    for k in keys:
        v = np.asarray(embeddings[k], dtype=np.float64)
        norm = np.linalg.norm(v)
        if norm == 0.0:
            raise PhyloError(f"zero-norm embedding for {k.name!r}")
        vecs.append(v / norm)
    n = len(vecs)
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d[i, j] = d[j, i] = 1.0 - float(np.dot(vecs[i], vecs[j]))
    return DistanceMatrix([k.name for k in keys], d)


@dataclass
class TreeNode:
    name: str | None = None
    children: list = field(default_factory=list)
    height: float | None = None   # merge height for dendrogram internals
    length: float | None = None   # branch length (parsed or serialized)

    def is_leaf(self) -> bool:
        return not self.children

    def leaves(self) -> list:
        if self.is_leaf():
            return [self]
        out = []
        for c in self.children:
            out.extend(c.leaves())
        return out

    def leaf_names(self) -> list:
        return [l.name for l in self.leaves()]


def ward_cluster(m: DistanceMatrix) -> TreeNode:
    """Agglomerative clustering with the Ward (Lance-Williams) update.

    At each step the minimum-distance pair merges, ties broken by the
    lexicographically smallest pair of cluster labels (a cluster's label
    is its smallest leaf name); the merge height is that distance.
    """
    n = len(m.labels)
    if n < 2:
        raise PhyloError("ward_cluster needs at least two languages")
    if not np.allclose(m.d, m.d.T, atol=1e-12) or np.any(np.diag(m.d) != 0):
        raise PhyloError("distance matrix must be symmetric with zero diagonal")

    # one record per live cluster, (node, size, label), keyed by id; a merge
    # takes the next id, so ``live`` stays in id order and pairs come (i < j)
    live = {i: (TreeNode(name=name, height=0.0), 1, name) for i, name in enumerate(m.labels)}
    dist = {(i, j): float(m.d[i, j]) for i in range(n) for j in range(i + 1, n)}
    for new in range(n, 2 * n - 1):
        i, j = min(combinations(live, 2), key=lambda p: (
            dist[p], tuple(sorted((live[p[0]][2], live[p[1]][2])))))
        (node_i, ni, label_i), (node_j, nj, label_j) = live.pop(i), live.pop(j)
        dij = dist.pop((i, j))
        for k, (_, nk, _) in live.items():
            dik = dist.pop((min(i, k), max(i, k)))
            djk = dist.pop((min(j, k), max(j, k)))
            d2 = ((ni + nk) * dik ** 2 + (nj + nk) * djk ** 2 - nk * dij ** 2) / (ni + nj + nk)
            dist[k, new] = float(np.sqrt(max(d2, 0.0)))
        live[new] = (TreeNode(children=[node_i, node_j], height=dij), ni + nj,
                     min(label_i, label_j))
    return live[new][0]


def _clades(tree: TreeNode) -> set:
    """Leaf sets of all internal nodes below the root (the root's full set
    and the singletons are trivially present in every tree)."""
    out = set()

    def walk(node):
        if node.is_leaf():
            return frozenset((node.name,))
        names = frozenset().union(*map(walk, node.children))
        out.add(names)
        return names

    out.discard(walk(tree))
    return out


def consensus(trees: list) -> TreeNode:
    """Majority-rule consensus: keep exactly the clades occurring in more
    than half of the input trees (so the kept clades are pairwise
    compatible); heights are dropped."""
    if not trees:
        raise PhyloError("consensus needs at least one tree")
    leaf_set = frozenset(trees[0].leaf_names())
    counts: dict = {}
    for t in trees:
        if frozenset(t.leaf_names()) != leaf_set:
            raise PhyloError("consensus input trees must share one leaf set")
        for clade in _clades(t):
            counts[clade] = counts.get(clade, 0) + 1
    kept = [c for c, k in counts.items() if 2 * k > len(trees)]

    # bottom-up: each kept clade, smallest first, adopts every parentless
    # subtree inside it; siblings are ordered by their smallest leaf name
    tops = {frozenset((name,)): TreeNode(name=name) for name in leaf_set}
    for clade in sorted(kept, key=len):
        inside = sorted((c for c in tops if c <= clade), key=min)
        tops[clade] = TreeNode(children=[tops.pop(c) for c in inside])
    return TreeNode(children=[tops[c] for c in sorted(tops, key=min)])


def _quartet_topology(clades: set, quartet: frozenset):
    """The pairing a tree induces on four leaves: ab|cd (a frozenset of two
    pairs) when one of its clades holds exactly two of them, else None."""
    for clade in clades:
        pair = clade & quartet
        if len(pair) == 2:
            return frozenset((pair, quartet - pair))
    return None


def gqd(gold: TreeNode, test: TreeNode) -> float:
    """Generalized Quartet Distance.

    Both trees are treated as unrooted.  Over the quartets the gold tree
    resolves as butterflies, the fraction whose topology differs in the
    test tree (test-unresolved counts as differing).  A quartet is resolved
    when a clade below the root separates it two against two; a clade's
    edge to its parent is the split, so rooting does not matter.
    """
    gold_leaves = sorted(gold.leaf_names())
    if set(gold_leaves) != set(test.leaf_names()):
        raise PhyloError("gqd needs identical leaf sets")
    cg, ct = _clades(gold), _clades(test)
    resolved = 0
    differing = 0
    for quartet in combinations(gold_leaves, 4):
        q = frozenset(quartet)
        tg = _quartet_topology(cg, q)
        if tg is None:
            continue
        resolved += 1
        if _quartet_topology(ct, q) != tg:
            differing += 1
    if resolved == 0:
        raise PhyloError("gold tree resolves no quartets")
    return differing / resolved


# ---------------------------------------------------------------------------
# Newick


def serialize_newick(tree: TreeNode) -> str:
    """Single line, semicolon-terminated; dendrogram heights become branch
    lengths (parent height minus child height)."""

    def fmt(x: float) -> str:
        return f"{x:.10g}"

    def walk(node, parent_height):
        if node.is_leaf():
            s = node.name or ""
            h = 0.0 if node.height is None else node.height
        else:
            s = "(" + ",".join(walk(c, node.height) for c in node.children) + ")"
            if node.name:
                s += node.name
            h = node.height
        if parent_height is not None and h is not None:
            s += ":" + fmt(parent_height - h)
        elif node.length is not None:
            s += ":" + fmt(node.length)
        return s

    return walk(tree, None) + ";"


# deepest nesting parse_newick accepts; the parser and the tree walks take one
# to three frames a level, inside Python's default recursion limit of 1000
MAX_NEWICK_DEPTH = 250


def parse_newick(text: str) -> TreeNode:
    """Parse a Newick string; raises PhyloError with the offending position."""
    s = text.strip()
    if not s.endswith(";"):
        raise PhyloError(f"newick at position {len(s)}: missing terminating ';'")
    s = s[:-1]
    pos = 0

    def error(msg):
        raise PhyloError(f"newick at position {pos}: {msg}")

    def parse_name():
        nonlocal pos
        start = pos
        while pos < len(s) and s[pos] not in "(),:;":
            pos += 1
        return s[start:pos].strip()

    def parse_length(node):
        nonlocal pos
        if pos < len(s) and s[pos] == ":":
            pos += 1
            start = pos
            while pos < len(s) and s[pos] not in "(),;":
                pos += 1
            try:
                node.length = float(s[start:pos])
            except ValueError:
                error(f"bad branch length {s[start:pos]!r}")

    def parse_node(depth):
        nonlocal pos
        node = TreeNode()
        if pos < len(s) and s[pos] == "(":
            if depth == MAX_NEWICK_DEPTH:
                error(f"parentheses nest deeper than {MAX_NEWICK_DEPTH}")
            pos += 1
            while True:
                node.children.append(parse_node(depth + 1))
                if pos >= len(s):
                    error("unbalanced parentheses")
                if s[pos] == ",":
                    pos += 1
                    continue
                if s[pos] == ")":
                    pos += 1
                    break
                error(f"unexpected character {s[pos]!r}")
            name = parse_name()
            node.name = name or None
        else:
            name = parse_name()
            if not name:
                error("empty leaf name")
            node.name = name
        parse_length(node)
        return node

    root = parse_node(0)
    if pos != len(s):
        error("trailing characters")
    names = root.leaf_names()
    dupes = {n for n in names if names.count(n) > 1}
    if dupes:
        raise PhyloError(f"duplicate leaf labels: {sorted(dupes)}")
    return root


def load_newick(path: str) -> TreeNode:
    with open(path, encoding="utf-8") as fh:
        return parse_newick(fh.read())


def write_newick(path: str, tree: TreeNode) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_newick(tree) + "\n")


def write_distance_csv(path: str, m: DistanceMatrix) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("language," + ",".join(m.labels) + "\n")
        for i, lab in enumerate(m.labels):
            fh.write(lab + "," + ",".join(f"{x:.12g}" for x in m.d[i]) + "\n")
