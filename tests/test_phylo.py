import itertools
from importlib import resources

import numpy as np
import pytest

from protoform import phylo as P
from protoform.engine.rng import DetRng


def topologies_equal(a: P.TreeNode, b: P.TreeNode) -> bool:
    """Same rooted topology and labels (children order ignored)."""

    def canon(node):
        if node.is_leaf():
            return ("leaf", node.name)
        return ("node", tuple(sorted(canon(c) for c in node.children)))

    return canon(a) == canon(b)


def uniform(rng: DetRng) -> float:
    """Float in [0, 1) with 53 random bits of ``rng``."""
    return (rng.next_u64() >> 11) * (1.0 / (1 << 53))


def embeddings(*vectors):
    """Vectors keyed by language name, as extract_language_embeddings returns them."""
    return {f"L{i}": v for i, v in enumerate(vectors)}


class TestCosine:
    def test_identical_vectors(self):
        m = P.cosine_distance_matrix(embeddings([1.0, 2.0], [2.0, 4.0]))
        assert m.d[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal(self):
        m = P.cosine_distance_matrix(embeddings([1.0, 0.0], [0.0, 3.0]))
        assert m.d[0, 1] == pytest.approx(1.0)

    def test_antiparallel(self):
        m = P.cosine_distance_matrix(embeddings([1.0, 1.0], [-2.0, -2.0]))
        assert m.d[0, 1] == pytest.approx(2.0)

    def test_zero_vector_rejected(self):
        with pytest.raises(P.PhyloError, match="zero"):
            P.cosine_distance_matrix(embeddings([0.0, 0.0], [1.0, 0.0]))

    def test_rows_follow_language_index(self):
        # a language's index is its position, not its name's rank
        embs = {"B": [1.0, 0.0], "A": [0.0, 1.0]}
        assert P.cosine_distance_matrix(embs).labels == ["B", "A"]

    def test_symmetry_zero_diagonal(self):
        rng = DetRng(4)
        m = P.cosine_distance_matrix(
            embeddings(*([uniform(rng) - 0.5 for _ in range(8)] for _ in range(6))))
        np.testing.assert_allclose(m.d, m.d.T)
        assert np.all(np.diag(m.d) == 0)


def matrix(labels, entries):
    n = len(labels)
    d = np.zeros((n, n))
    for (i, j), v in entries.items():
        d[i, j] = d[j, i] = v
    return P.DistanceMatrix(labels, d)


class TestWard:
    def test_two_leaves(self):
        t = P.ward_cluster(matrix(["A", "B"], {(0, 1): 3.5}))
        assert sorted(t.leaf_names()) == ["A", "B"]
        assert t.height == 3.5

    def test_three_point_hand_computation(self):
        # d(A,B)=2, d(A,C)=6, d(B,C)=5: merge (A,B) at 2, then
        # d(AB,C) = sqrt((2*36 + 2*25 - 1*4)/3) = sqrt(118/3)
        t = P.ward_cluster(matrix(["A", "B", "C"], {(0, 1): 2.0, (0, 2): 6.0, (1, 2): 5.0}))
        assert t.height == pytest.approx(np.sqrt(118.0 / 3.0), abs=1e-12)
        inner = [c for c in t.children if not c.is_leaf()][0]
        assert sorted(inner.leaf_names()) == ["A", "B"]
        assert inner.height == pytest.approx(2.0, abs=1e-12)

    def test_tie_breaks_to_smallest_label_pair(self):
        t = P.ward_cluster(matrix(["C", "A", "B"], {(0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.0}))
        first = [c for c in t.children if not c.is_leaf()][0]
        assert sorted(first.leaf_names()) == ["A", "B"]

    def test_heights_nondecreasing_on_random_matrices(self):
        rng = DetRng(17)
        for _ in range(25):
            n = 4 + rng.randint(4)
            d = np.zeros((n, n))
            for i in range(n):
                for j in range(i + 1, n):
                    d[i, j] = d[j, i] = 0.1 + uniform(rng)
            t = P.ward_cluster(P.DistanceMatrix([f"L{k}" for k in range(n)], d))

            def check(node):
                for c in node.children:
                    if not c.is_leaf():
                        assert c.height <= node.height + 1e-12
                        check(c)
            check(t)

    def test_permutation_equivariance(self):
        rng = DetRng(23)
        n = 5
        d = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                d[i, j] = d[j, i] = 0.5 + uniform(rng)
        labels = [f"L{k}" for k in range(n)]
        t1 = P.ward_cluster(P.DistanceMatrix(labels, d))
        perm = [3, 0, 4, 1, 2]
        d2 = d[np.ix_(perm, perm)]
        t2 = P.ward_cluster(P.DistanceMatrix([labels[p] for p in perm], d2))
        assert topologies_equal(t1, t2)

    def test_asymmetric_rejected(self):
        d = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(P.PhyloError, match="symmetric"):
            P.ward_cluster(P.DistanceMatrix(["A", "B"], d))


class TestConsensus:
    def test_ten_copies_reproduce_topology(self):
        t = P.parse_newick("((A,B),(C,(D,E)));")
        got = P.consensus([P.parse_newick("((A,B),(C,(D,E)));") for _ in range(10)])
        assert topologies_equal(got, t)

    def test_two_thirds_clade_retained(self):
        trees = [P.parse_newick("((A,B),C);"),
                 P.parse_newick("((A,B),C);"),
                 P.parse_newick("((A,C),B);")]
        got = P.consensus(trees)
        assert topologies_equal(got, P.parse_newick("((A,B),C);"))

    def test_no_majority_gives_star(self):
        trees = [P.parse_newick("((A,B),(C,D));"),
                 P.parse_newick("((A,C),(B,D));"),
                 P.parse_newick("((A,D),(B,C));")]
        got = P.consensus(trees)
        assert got.is_leaf() is False
        assert all(c.is_leaf() for c in got.children)
        assert sorted(got.leaf_names()) == ["A", "B", "C", "D"]

    def test_leaf_set_mismatch_rejected(self):
        with pytest.raises(P.PhyloError, match="leaf set"):
            P.consensus([P.parse_newick("(A,B);"), P.parse_newick("(A,C);")])

    def test_kept_clades_are_nested_or_disjoint(self):
        rng = DetRng(5)
        leaves = [f"L{i}" for i in range(6)]

        def random_tree():
            def build(names):
                if len(names) == 1:
                    return P.TreeNode(name=names[0])
                k = 1 + rng.randint(len(names) - 1)
                return P.TreeNode(children=[build(names[:k]), build(names[k:])])
            order = list(leaves)
            rng.shuffle(order)
            return build(order)

        for _ in range(10):
            trees = [random_tree() for _ in range(5)]
            got = P.consensus(trees)
            clades = sorted(P._clades(got), key=len)
            for a, b in itertools.combinations(clades, 2):
                assert a <= b or b <= a or not (a & b)


# The tree builders as they were before each became one structure, kept as
# the reference the rewrite must match bit for bit.


def reference_ward_cluster(m: P.DistanceMatrix) -> P.TreeNode:
    n = len(m.labels)
    nodes = {i: P.TreeNode(name=m.labels[i], height=0.0) for i in range(n)}
    sizes = {i: 1 for i in range(n)}
    labels = {i: m.labels[i] for i in range(n)}
    dist = {frozenset((i, j)): float(m.d[i, j]) for i in range(n) for j in range(i + 1, n)}
    next_id = n
    active = set(range(n))
    while len(active) > 1:
        best = None
        for i, j in itertools.combinations(sorted(active), 2):
            d = dist[frozenset((i, j))]
            pair_labels = tuple(sorted((labels[i], labels[j])))
            key = (d, pair_labels)
            if best is None or key < best[0]:
                best = (key, i, j)
        (d_min, _), i, j = best
        new = P.TreeNode(children=[nodes[i], nodes[j]], height=d_min)
        nodes[next_id] = new
        sizes[next_id] = sizes[i] + sizes[j]
        labels[next_id] = min(labels[i], labels[j])
        active -= {i, j}
        for k in active:
            dik = dist.pop(frozenset((i, k)))
            djk = dist.pop(frozenset((j, k)))
            dij = d_min
            ni, nj, nk = sizes[i], sizes[j], sizes[k]
            d2 = ((ni + nk) * dik ** 2 + (nj + nk) * djk ** 2 - nk * dij ** 2) / (ni + nj + nk)
            dist[frozenset((next_id, k))] = float(np.sqrt(max(d2, 0.0)))
        dist.pop(frozenset((i, j)))
        active.add(next_id)
        next_id += 1
    return nodes[next_id - 1]


def reference_clades(tree: P.TreeNode) -> set:
    out = set()

    def walk(node):
        names = frozenset(node.leaf_names())
        if not node.is_leaf():
            out.add(names)
            for c in node.children:
                walk(c)
        return names

    walk(tree)
    out.discard(frozenset(tree.leaf_names()))
    return out


def reference_consensus(trees: list) -> P.TreeNode:
    leaf_set = frozenset(trees[0].leaf_names())
    counts: dict = {}
    for t in trees:
        for clade in reference_clades(t):
            counts[clade] = counts.get(clade, 0) + 1
    kept = [c for c, k in counts.items() if 2 * k > len(trees)]
    kept.sort(key=lambda c: (-len(c), sorted(c)))
    root = P.TreeNode(children=[P.TreeNode(name=n) for n in sorted(leaf_set)])
    nodes = {frozenset([n.name]): n for n in root.children}
    nodes[leaf_set] = root
    for clade in kept:
        parent = min((e for e in nodes if clade < e), key=len)
        pnode = nodes[parent]
        members = [n for n in pnode.children if set(n.leaf_names()) <= clade]
        for n in members:
            pnode.children.remove(n)
        fresh = P.TreeNode(children=members)
        pnode.children.append(fresh)
        pnode.children.sort(key=lambda n: min(n.leaf_names()))
        nodes[clade] = fresh
    return root


def exact_shape(node: P.TreeNode):
    """Names, exact heights and child order, for bit-for-bit comparison."""
    return (node.name, node.height, tuple(exact_shape(c) for c in node.children))


class TestTreeBuildersMatchReference:
    """Ward trees, clade sets, consensus trees and GQD of the rewritten
    builders against the reference copies above, on seeded random cases
    whose rounded distances and duplicate rows force ties."""

    @staticmethod
    def random_matrix(rng, labels):
        n = len(labels)
        if rng.randint(2):
            # small-integer embeddings with repeated rows: many equal cosines
            pool = [[float(rng.randint(5) - 2) for _ in range(3)] for _ in range(1 + rng.randint(n))]
            pool = [v for v in pool if any(v)] or [[1.0, 0.0, 0.0]]
            d = P.cosine_distance_matrix(
                embeddings(*(pool[rng.randint(len(pool))] for _ in range(n)))).d
        else:
            d = np.zeros((n, n))
            for i in range(n):
                for j in range(i + 1, n):
                    d[i, j] = d[j, i] = round(uniform(rng), 1)
            for _ in range(rng.randint(3)):
                i, j = rng.randint(n), rng.randint(n)
                if i != j:
                    d[i], d[:, i] = d[j], d[:, j]
                    d[i, i] = d[i, j] = d[j, i] = 0.0
        return P.DistanceMatrix(labels, d)

    @staticmethod
    def jitter(rng, m):
        """The same languages at a nearby, rounded distance matrix."""
        d = m.d.copy()
        n = len(m.labels)
        for i in range(n):
            for j in range(i + 1, n):
                d[i, j] = d[j, i] = round(d[i, j] + 0.2 * uniform(rng), 1)
        return P.DistanceMatrix(m.labels, d)

    def test_random_cases(self, monkeypatch):
        rng = DetRng(1414)
        kept_clades = 0
        for _ in range(300):
            n = 2 + rng.randint(12)
            labels = [f"L{k}" for k in range(n)]
            rng.shuffle(labels)
            base = self.random_matrix(rng, labels)
            trees, refs = [], []
            for m in [base] + [self.jitter(rng, base) for _ in range(rng.randint(7))]:
                t, r = P.ward_cluster(m), reference_ward_cluster(m)
                assert P.serialize_newick(t) == P.serialize_newick(r)
                assert exact_shape(t) == exact_shape(r)
                assert P._clades(t) == reference_clades(r)
                trees.append(t)
                refs.append(r)
            cons, ref = P.consensus(trees), reference_consensus(refs)
            assert P.serialize_newick(cons) == P.serialize_newick(ref)
            assert exact_shape(cons) == exact_shape(ref)
            assert P._clades(cons) == reference_clades(ref)
            kept_clades += len(P._clades(cons))
            if n >= 4:
                got = P.gqd(trees[0], cons)
                with monkeypatch.context() as mp:
                    mp.setattr(P, "_clades", reference_clades)
                    assert P.gqd(refs[0], ref) == got
        assert kept_clades > 300

    def test_multifurcating_and_unary_trees(self):
        rng = DetRng(77)

        def build(names):
            if len(names) == 1:
                node = P.TreeNode(name=names[0])
            else:
                cuts = sorted({1 + rng.randint(len(names) - 1)
                               for _ in range(1 + rng.randint(3))})
                parts = [names[lo:hi] for lo, hi in zip([0] + cuts, cuts + [len(names)])]
                node = P.TreeNode(children=[build(p) for p in parts])
            return P.TreeNode(children=[node]) if rng.randint(6) == 0 else node

        for _ in range(200):
            names = [f"L{k}" for k in range(1 + rng.randint(9))]
            trees = []
            for _ in range(1 + rng.randint(7)):
                order = list(names)
                rng.shuffle(order)
                trees.append(build(order))
            for t in trees:
                assert P._clades(t) == reference_clades(t)
            cons, ref = P.consensus(trees), reference_consensus(trees)
            assert exact_shape(cons) == exact_shape(ref)


def path_disjoint_topology(tree, a, b, c, d):
    """Oracle: pairing xy|zw holds iff the x-y and z-w paths share no node."""
    parent, order = {}, []

    def walk(node):
        order.append(node)
        for ch in node.children:
            parent[id(ch)] = node
            walk(ch)

    walk(tree)
    by_name = {n.name: n for n in tree.leaves()}

    def path_nodes(x, y):
        anc = set()
        n = by_name[x]
        while True:
            anc.add(id(n))
            if id(n) not in parent:
                break
            n = parent[id(n)]
        path = set()
        n = by_name[y]
        while id(n) not in anc:
            path.add(id(n))
            n = parent[id(n)]
        meet = n
        path.add(id(meet))
        n = by_name[x]
        while id(n) != id(meet):
            path.add(id(n))
            n = parent[id(n)]
        return path

    for x, y, z, w in ((a, b, c, d), (a, c, b, d), (a, d, b, c)):
        if not (path_nodes(x, y) & path_nodes(z, w)):
            return frozenset((frozenset((x, y)), frozenset((z, w))))
    return None


def all_five_leaf_binary_trees(leaves):
    """All 15 labeled unrooted binary topologies on five leaves, as
    trifurcating-rooted Newick trees ((p1,p2),middle,(p3,p4))."""
    out = []
    for middle in leaves:
        rest = [l for l in leaves if l != middle]
        a = rest[0]
        for partner in rest[1:]:
            pair1 = (a, partner)
            pair2 = tuple(l for l in rest[1:] if l != partner)
            out.append(P.parse_newick(f"(({pair1[0]},{pair1[1]}),{middle},({pair2[0]},{pair2[1]}));"))
    return out


def brute_force_gqd(gold, test):
    leaves = sorted(gold.leaf_names())
    resolved = differing = 0
    for q in itertools.combinations(leaves, 4):
        tg = path_disjoint_topology(gold, *q)
        if tg is None:
            continue
        resolved += 1
        if path_disjoint_topology(test, *q) != tg:
            differing += 1
    return differing / resolved


class TestGQD:
    def test_identity_zero(self):
        t = P.parse_newick("((A,B),(C,(D,E)));")
        assert P.gqd(t, P.parse_newick("((A,B),(C,(D,E)));")) == 0.0

    def test_all_fifteen_topologies_vs_brute_force(self):
        leaves = ["A", "B", "C", "D", "E"]
        gold = P.parse_newick("((A,B),C,(D,E));")
        trees = all_five_leaf_binary_trees(leaves)
        assert len(trees) == 15
        for t in trees:
            assert P.gqd(gold, t) == pytest.approx(brute_force_gqd(gold, t), abs=1e-12)

    def test_irregular_random_trees_vs_brute_force(self):
        # 4-9 leaves, 2-4 children per node, some unary nodes
        rng = DetRng(2024)

        def build(names):
            if len(names) == 1:
                node = P.TreeNode(name=names[0])
            else:
                cuts = sorted({1 + rng.randint(len(names) - 1)
                               for _ in range(1 + rng.randint(3))})
                parts = [names[lo:hi] for lo, hi in zip([0] + cuts, cuts + [len(names)])]
                node = P.TreeNode(children=[build(p) for p in parts])
            return P.TreeNode(children=[node]) if rng.randint(6) == 0 else node

        def random_tree(names):
            order = list(names)
            rng.shuffle(order)
            return build(order)

        unresolved = 0
        for _ in range(600):
            names = [f"L{i}" for i in range(4 + rng.randint(6))]
            gold, test = random_tree(names), random_tree(names)
            try:
                expected = brute_force_gqd(gold, test)
            except ZeroDivisionError:
                unresolved += 1
                with pytest.raises(P.PhyloError, match="resolves no quartets"):
                    P.gqd(gold, test)
                continue
            assert P.gqd(gold, test) == pytest.approx(expected, abs=1e-12)
        assert unresolved < 100

    def test_one_swapped_cherry(self):
        gold = P.parse_newick("((A,B),C,(D,E));")
        test = P.parse_newick("((A,C),B,(D,E));")
        assert P.gqd(gold, test) == pytest.approx(brute_force_gqd(gold, test), abs=1e-12)

    def test_reroot_invariance(self):
        gold = P.parse_newick("((A,B),C,(D,E));")
        t1 = P.parse_newick("((A,B),(C,(D,E)));")
        t2 = P.parse_newick("(A,(B,(C,(D,E))));")
        t3 = P.parse_newick("(((A,B),C),(D,E));")
        vals = {P.gqd(gold, t) for t in (t1, t2, t3)}
        assert len(vals) == 1

    def test_symmetric_for_resolved_trees(self):
        t1 = P.parse_newick("((A,B),(C,(D,E)));")
        t2 = P.parse_newick("((A,C),(B,(D,E)));")
        assert P.gqd(t1, t2) == P.gqd(t2, t1)

    def test_unresolved_test_counts_as_difference(self):
        gold = P.parse_newick("((A,B),(C,D));")
        star = P.parse_newick("(A,B,C,D);")
        assert P.gqd(gold, star) == 1.0

    def test_star_gold_rejected(self):
        with pytest.raises(P.PhyloError, match="resolves no quartets"):
            P.gqd(P.parse_newick("(A,B,C,D);"), P.parse_newick("((A,B),(C,D));"))

    def test_leaf_mismatch_rejected(self):
        with pytest.raises(P.PhyloError):
            P.gqd(P.parse_newick("((A,B),(C,D));"), P.parse_newick("((A,B),(C,E));"))


class TestNewick:
    def test_two_leaf_round_trip(self):
        t = P.parse_newick("(A,B);")
        assert sorted(t.leaf_names()) == ["A", "B"]
        assert P.serialize_newick(t) == "(A,B);"

    def test_trifurcating_root(self):
        t = P.parse_newick("((A,B),(C,D),E);")
        assert len(t.children) == 3

    def test_round_trip_random_trees(self):
        rng = DetRng(12)

        def build(names):
            if len(names) == 1:
                return P.TreeNode(name=names[0])
            k = 1 + rng.randint(len(names) - 1)
            return P.TreeNode(children=[build(names[:k]), build(names[k:])])

        for trial in range(25):
            names = [f"L{i}" for i in range(2 + rng.randint(7))]
            t = build(names)
            back = P.parse_newick(P.serialize_newick(t))
            assert topologies_equal(t, back)

    def test_heights_serialize_as_branch_lengths(self):
        t = P.ward_cluster(matrix(["A", "B"], {(0, 1): 2.0}))
        assert P.serialize_newick(t) == "(A:2,B:2);"

    def test_unbalanced_parens_report_position(self):
        with pytest.raises(P.PhyloError, match="position"):
            P.parse_newick("((A,B;")

    def test_duplicate_labels_rejected(self):
        with pytest.raises(P.PhyloError, match="duplicate"):
            P.parse_newick("((A,A),B);")

    def test_branch_lengths_parsed(self):
        t = P.parse_newick("(A:0.5,B:1.25);")
        lengths = sorted(c.length for c in t.children)
        assert lengths == [0.5, 1.25]

    def test_bundled_romance_gold_tree(self):
        text = resources.files("protoform.data").joinpath("romance_gold.nwk").read_text("utf-8")
        t = P.parse_newick(text)
        assert t.leaf_names() == ["Romanian", "Italian", "French", "Spanish", "Portuguese"]
        assert P.serialize_newick(t) == text.strip()
