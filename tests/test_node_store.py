"""The one node store against the representation it replaced.

Child blocks are every tree's one adjacency: a finite tree reads them from
its node table, children() and walk() wrap them in fresh Balls. The
reference below is the earlier design, written out here: a children()
memo of Ball tuples walked depth-first and, for finite trees, an explicit
adjacency built with the table (the gap tree's split children, the
explicit table's children sorted by index), shared by similarity images,
whose nodes were all mapped up front. Every tree access must give the same
words and the same floats as that reference.
"""

from __future__ import annotations

import pytest

from thickgap.ballsystem import (
    ROOT,
    CornerFamilyParams,
    GapList1D,
    HomotheticIFS,
    Perturbed,
    Similarity,
    corner_family,
    explicit_tree,
    from_gaps_1d,
    from_ifs,
    perturbed_image,
    similarity_image,
)
from thickgap.geometry import Ball, NormKind

_GAPS = GapList1D((0.0, 1.0), ((0.1, 0.2), (0.4, 0.7), (0.8, 0.85), (0.02, 0.03), (0.21, 0.25)))
_IFS_MAPS = ((0.3, (-0.5, -0.4)), (0.3, (0.5, -0.4)), (0.25, (0.0, 0.6)))


def _bits(b):
    return repr((b.center, b.radius))


# -- the earlier representation ------------------------------------------------


class _Reference:
    """A tree as the earlier design read it: node(word) from a table or the
    per-child formula, kids(word) the child words from an explicit
    adjacency, and children() memoized as Ball tuples."""

    def __init__(self, node, kids, leaves=None):
        self.node = node
        self.kids = kids
        self.leaves = leaves  # the gap tree's leaf intervals, kept from its construction
        self._memo = {}

    def children(self, word):
        if word not in self._memo:
            self._memo[word] = tuple(self.node(k) for k in self.kids(word))
        return self._memo[word]

    def walk(self, max_depth):
        stack = [(ROOT, self.node(ROOT))]
        while stack:
            word, ball = stack.pop()
            yield word, ball
            if len(word) < max_depth:
                kids = self.children(word)
                for i in range(len(kids) - 1, -1, -1):
                    stack.append((word + (i,), kids[i]))

    def leaf_intervals(self):
        if self.leaves is not None:
            return self.leaves
        leaves = []
        stack = [ROOT]
        while stack:
            w = stack.pop()
            kids = self.kids(w)
            if kids:
                stack.extend(kids)
            else:
                b = self.node(w)
                leaves.append((b.center[0] - b.radius, b.center[0] + b.radius))
        leaves.sort()
        merged = []
        for lo, hi in leaves:
            if merged and lo < merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        return tuple(merged)


def _finite_reference(balls, children, leaves=None):
    return _Reference(balls.__getitem__, lambda w: children.get(w, ()), leaves)


def _gap_reference(gl):
    """The gap tree's node table, split adjacency and leaf intervals, built
    as from_gaps_1d built them with the adjacency."""
    order = sorted(gl.gaps, key=lambda g: (-(g[1] - g[0]), g[0]))
    children, balls, leaves = {}, {}, []
    stack = [(ROOT, gl.hull[0], gl.hull[1], list(order))]
    while stack:
        word, a, b, inside = stack.pop()
        balls[word] = Ball(((a + b) / 2,), (b - a) / 2)
        if not inside:
            children[word] = ()
            leaves.append((a, b))
            continue
        lo, hi = inside[0]
        children[word] = (word + (0,), word + (1,))
        stack.append((word + (1,), hi, b, [g for g in inside if g[0] >= hi]))
        stack.append((word + (0,), a, lo, [g for g in inside if g[1] <= lo]))
    return balls, children, tuple(sorted(leaves))


def _explicit_reference(entries):
    """The explicit table and its children sorted by index, as explicit_tree
    built them."""
    balls = dict(entries)
    children = {w: [] for w in balls}
    for w in balls:
        if w:
            children[w[:-1]].append(w)
    adjacency = {w: tuple(sorted(kids, key=lambda k: k[-1])) for w, kids in children.items()}
    return balls, adjacency, None


def _generated_reference(sys):
    """Nodes from the generator's per-child formula, top down, each checked."""
    gen = sys.generator

    def node(word):
        b = sys.root
        for j in word:
            b = Ball(*gen.child(b.center, b.radius, j))
        return b

    return _Reference(node, lambda w: tuple(w + (j,) for j in range(gen.child_count)))


def _image_reference(gen, base):
    """An image's nodes: the base's, each mapped by the image's node()."""

    def node(word):
        b = base.node(word)
        return Ball(*gen.node(b.center, b.radius))

    return node


def _similarity_of_finite(table, scale, shift):
    sys = table()
    balls, children, _ = _REFERENCE_TABLES[table]()
    img = similarity_image(sys, scale, shift)
    gen = img.generator
    # every node mapped up front, the adjacency shared with the base
    mapped = {w: Ball(*gen.node(b.center, b.radius)) for w, b in balls.items()}
    return img, _finite_reference(mapped, children)


def _gaps():
    return from_gaps_1d(_GAPS)


def _corner():
    return corner_family(CornerFamilyParams(n=3, ell=0.3, d=2))


def _explicit():
    return explicit_tree(NormKind.LINF, 2, list(_corner().walk(2)))


# overlapping leaves, which leaf_intervals merges; listed out of order
_EXPLICIT_1D = [
    ((), Ball((0.0,), 1.0)),
    ((1,), Ball((0.2,), 0.5)),
    ((0, 1), Ball((-0.3,), 0.2)),
    ((0,), Ball((-0.5,), 0.5)),
    ((0, 0), Ball((-0.8,), 0.1)),
]


def _explicit_1d():
    return explicit_tree(NormKind.LINF, 1, _EXPLICIT_1D)


_REFERENCE_TABLES = {
    _gaps: lambda: _gap_reference(_GAPS),
    _explicit: lambda: _explicit_reference(list(_corner().walk(2))),
    _explicit_1d: lambda: _explicit_reference(_EXPLICIT_1D),
}


def _warp(p):
    return (0.999 * p[0] + 1e-4,)


def _perturbed_gaps():
    base = _gaps()
    img = perturbed_image(base, _warp, 0.01)
    balls, children, _ = _gap_reference(_GAPS)
    ref = _Reference(
        _image_reference(img.generator, _finite_reference(balls, children)),
        lambda w: children.get(w, ()),
    )
    return img, ref


def _with_table(table):
    def make():
        return table(), _finite_reference(*_REFERENCE_TABLES[table]())

    return make


def _generated(make):
    def pair():
        sys = make()
        return sys, _generated_reference(sys)

    return pair


SYSTEMS = {
    "corner_d2": _generated(_corner),
    "ifs_l2": _generated(lambda: from_ifs(HomotheticIFS(_IFS_MAPS), NormKind.L2)),
    "gaps1d": _with_table(_gaps),
    "explicit": _with_table(_explicit),
    "explicit_1d": _with_table(_explicit_1d),
    "similarity_gaps1d": lambda: _similarity_of_finite(_gaps, 0.5, (0.1,)),
    "similarity_explicit": lambda: _similarity_of_finite(_explicit, 0.7, (0.1, -0.2)),
    "similarity_explicit_1d": lambda: _similarity_of_finite(_explicit_1d, 2.0, (-0.3,)),
    "perturbed_gaps1d": _perturbed_gaps,
}


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_tree_access_matches_the_earlier_representation(name):
    sys, ref = SYSTEMS[name]()
    for depth in range(5):
        got = [(w, _bits(b)) for w, b in sys.walk(depth)]
        want = [(w, _bits(b)) for w, b in ref.walk(depth)]
        assert got == want, depth
    # the root is the system's own
    assert next(sys.walk(3))[1] is sys.root
    words = [w for w, _ in ref.walk(4)]
    for word in words:
        kids = ref.children(word)
        before = set(sys._blocks)
        assert [_bits(k) for k in sys.children(word)] == [_bits(k) for k in kids], word
        # children() stores the node's block and nothing else
        assert set(sys._blocks) <= before | {word}
        assert sys.child_count(word) == len(kids), word
        assert sys.is_leaf(word) == (not kids), word
        assert [repr(node) for node in sys.path(word)] == [
            _bits(ref.node(word[:i])) for i in range(len(word) + 1)
        ], word
    # ball() on a fresh system, deepest words first, so each walks its path
    fresh, _ = SYSTEMS[name]()
    for word in sorted(words, key=len, reverse=True):
        assert _bits(fresh.ball(word)) == _bits(ref.node(word)), word
    # the gap lists, explicit tables and their similarity images
    finite = not name.startswith(("corner", "ifs", "perturbed"))
    assert sys.is_finite == finite
    if finite or isinstance(sys.generator, Perturbed):
        # a word the tree lacks has no children, and no node
        leaves = [w for w in words if not ref.kids(w)]
        for word in leaves[:3] + [(9,), (0, 7)]:
            assert sys.children(word + (0,)) == () and sys.child_count(word + (0,)) == 0
            with pytest.raises(KeyError):
                fresh.ball(word + (0,))
    if finite and sys.dimension == 1:
        assert sys.leaf_intervals() == ref.leaf_intervals()


def test_finite_images_stay_lazy():
    base = _gaps()
    img = similarity_image(base, 0.5, (0.1,))
    assert isinstance(img.generator, Similarity) and img.is_finite
    # nothing is mapped up front: the image holds no block
    assert not img._blocks
    assert not perturbed_image(base, _warp, 0.01).is_finite
