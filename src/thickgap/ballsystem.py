"""Systems of balls: recursive trees of closed norm balls generating compact sets.

A system is a rooted tree. Every node is a closed ball, children lie inside
their parent, and radii shrink along every infinite path, so the nested
intersections generate a compact set C. Generators:

  corner family     n^d equidistant sub-cubes of relative radius ell/2 per node
  homothetic IFS    node at word (i1..ik) is the composed map image of the root
  1-D gap list      finite binary tree obtained by splitting at listed gaps
  explicit tree     caller-supplied finite node table
  transforms        similarity (a translate is one of scale 1) / inflated
                    smooth-map image of a base

Trees are expanded lazily and memoized. Each generator has one per-child
formula on plain floats: the parent's center and radius in, the child's out.
child_block(word) applies it to every child of a node (the generator's
block()) and memoizes the result as the node's child block, (centers, radii)
of plain floats, checked once with the checks Ball makes; branch-and-bound
searches read blocks and build no Ball. A corner family's block is the
product of each axis's n coordinates, which go through the formula's own
float operations.
children(word) wraps a block's entries in Balls without checking them again,
and ball(word) builds only the missing nodes on the path to word, one checked
Ball per level and none of its siblings. A transformed system expands nothing
itself: its node at a word is the map of the base's node at that word and its
block the map of the base's block, so every image of one base reads and fills
the base's memo. Finite generators (gap lists, explicit tables) store every
node up front and read their blocks from there; they terminate in leaves and
represent the set at that truncation, meaning C is the union of the leaf
balls. Memo fills take no lock: two threads may build the same block, and
both get the one stored first.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .geometry import (
    Ball,
    NormKind,
    Point,
    as_point,
    ball_contains,
    balls_disjoint,
    norm_distance,
    trusted_ball,
)

Word = Tuple[int, ...]
# the children of one node as plain floats: (centers, radii)
Block = Tuple[Tuple[Point, ...], Tuple[float, ...]]

ROOT: Word = ()

_UNSET = object()  # marks a memo not filled yet where None is a value

_CONTAIN_SLACK = 1e-12  # relative float allowance in validation-only containment
# default cap on the nodes or cells one search over a tree may examine
DEFAULT_NODE_BUDGET = 200_000


class SpecError(ValueError):
    """Malformed set-spec input."""


def word_str(word: Word) -> str:
    return ".".join(str(i) for i in word)


def parse_word(text: str) -> Word:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(part) for part in text.split("."))


@dataclass(frozen=True)
class HomotheticIFS:
    """Maps x -> lam*x + t with 0 < lam < 1, each sending the unit ball into itself."""

    maps: Tuple[Tuple[float, Point], ...]

    def __post_init__(self) -> None:
        if not self.maps:
            raise ValueError("an IFS needs at least one map")
        fixed = []
        d = None
        for lam, t in self.maps:
            lam = float(lam)
            t = as_point(t)
            if d is None:
                d = len(t)
            elif len(t) != d:
                raise ValueError("all translation parts must share one dimension")
            if not 0 < lam < 1:
                raise ValueError("contraction ratio must lie in (0, 1)")
            fixed.append((lam, t))
        object.__setattr__(self, "maps", tuple(fixed))

    @property
    def dimension(self) -> int:
        return len(self.maps[0][1])

    @property
    def child_count(self) -> int:
        return len(self.maps)

    @property
    def child_ratios(self) -> Tuple[float, ...]:
        """Child/parent radius ratios, the same at every node."""
        return tuple(lam for lam, _ in self.maps)

    def child(self, center: Point, radius: float, j: int) -> Tuple[Point, float]:
        """Center and radius of the image of the node ball under map j."""
        lam, t = self.maps[j]
        return tuple([c + radius * t_j for c, t_j in zip(center, t)]), radius * lam

    def block(self, center: Point, radius: float) -> Block:
        """The checked child block of the node ball, child by child."""
        child = self.child
        return _checked_block([child(center, radius, j) for j in range(len(self.maps))])


def corner_gap(n: int, ell: float) -> float:
    """Gap between neighbouring cells of a corner axis: n*ell + (n-1)*g = 2."""
    return (2 - n * ell) / (n - 1)


@dataclass(frozen=True)
class CornerFamilyParams:
    """Equidistant corner construction: n cells of relative radius ell/2 per axis."""

    n: int
    ell: float
    d: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("corner family needs n >= 2")
        if not 0 < self.ell < 2 / self.n:
            raise ValueError("ell must lie in (0, 2/n)")
        if self.d < 1:
            raise ValueError("dimension must be >= 1")

    @property
    def g(self) -> float:
        return corner_gap(self.n, self.ell)

    @property
    def child_count(self) -> int:
        return self.n**self.d

    @property
    def child_ratios(self) -> Tuple[float, ...]:
        """Child/parent radius ratios, the same at every node."""
        return (self.ell / 2,) * self.child_count

    def child(self, center: Point, radius: float, j: int) -> Tuple[Point, float]:
        """Center and radius of sub-cube j of the node ball; axis i takes digit
        i of j in base n."""
        n = self.n
        rel = _corner_axis_offsets(n, self.ell)
        out = []
        for c in center:
            j, dig = divmod(j, n)
            out.append(c + radius * rel[dig])
        return tuple(out), radius * self.ell / 2

    def child_axes(
        self, center: Point, radius: float
    ) -> Tuple[Tuple[Tuple[float, ...], ...], float]:
        """All sub-cubes of the node ball as a grid, (axes, radius): sub-cube j
        has this radius and, on axis i, the coordinate axes[i][k] with k the
        axis-i digit of j; the values are child()'s, bit for bit."""
        rel = _corner_axis_offsets(self.n, self.ell)
        return tuple([tuple([c + radius * x for x in rel]) for c in center]), radius * self.ell / 2

    def block(self, center: Point, radius: float) -> Block:
        """The checked child block of the node ball, built axis by axis."""
        return _corner_block(*self.child_axes(center, radius))


@dataclass(frozen=True)
class GapList1D:
    """A closed hull interval and finitely many disjoint open gaps inside it."""

    hull: Tuple[float, float]
    gaps: Tuple[Tuple[float, float], ...]

    def __post_init__(self) -> None:
        a, b = (float(self.hull[0]), float(self.hull[1]))
        if not a < b:
            raise ValueError("hull must be a nondegenerate interval")
        object.__setattr__(self, "hull", (a, b))
        fixed = []
        for lo, hi in self.gaps:
            lo, hi = float(lo), float(hi)
            if not lo < hi:
                raise ValueError(f"zero-length gap ({lo}, {hi})")
            if lo < a or hi > b:
                raise ValueError(f"gap ({lo}, {hi}) escapes the hull")
            fixed.append((lo, hi))
        fixed.sort()
        for (l1, h1), (l2, h2) in zip(fixed, fixed[1:]):
            if l2 < h1:
                raise ValueError(f"overlapping gaps ({l1},{h1}) and ({l2},{h2})")
        object.__setattr__(self, "gaps", tuple(fixed))


@dataclass(frozen=True)
class ExplicitTree:
    """Finite caller-supplied tree; adjacency derived from the word table."""

    nodes: Tuple[Tuple[Word, Ball], ...]


@dataclass(frozen=True)
class TransformedSystem:
    kind: str  # similarity | perturbed
    base: "BallSystem"
    shift: Optional[Point] = None
    scale: float = 1.0
    eps: float = 0.0
    fmap: Optional[Callable[[Point], Sequence[float]]] = None


class BallSystem:
    """Lazy, memoized, immutable-after-construction tree of closed balls."""

    def __init__(
        self,
        norm: NormKind,
        dimension: int,
        root: Ball,
        generator,
        max_children: Optional[int],
        decay: Optional[float],
    ) -> None:
        self.norm = norm
        self.dimension = dimension
        self.root = root
        self.generator = generator
        self.max_children = max_children
        self.decay = decay
        self._blocks: Dict[Word, Block] = {}
        self._kids: Dict[Word, Tuple[Ball, ...]] = {}
        self._balls: Dict[Word, Ball] = {ROOT: root}
        self._dist_oracle = None  # metrics' distance oracle, built on the first query
        self._corner_axes = _UNSET  # corner_axes(), computed on its first call
        # finite-tree adjacency, filled by the gap/explicit constructors
        self._finite_children: Optional[Dict[Word, Tuple[Word, ...]]] = None
        self._leaf_intervals: Optional[Tuple[Tuple[float, float], ...]] = None
        self._split_gaps: Optional[Dict[Word, Tuple[float, float]]] = None

    # -- tree access -------------------------------------------------------

    def ball(self, word: Word) -> Ball:
        """The node at word; KeyError when the tree has none."""
        balls = self._balls
        b = balls.get(word)
        if b is not None:
            return b
        gen = self.generator
        if isinstance(gen, TransformedSystem):
            b = balls[word] = self._map_ball(gen.base.ball(word), gen)
            return b
        depth = len(word) - 1
        while word[:depth] not in balls:  # the root is always cached
            depth -= 1
        b = balls[word[:depth]]
        # finite trees store every node: a word they lack fails the index check
        for depth in range(depth + 1, len(word) + 1):
            node = word[:depth]
            if not 0 <= node[-1] < self.child_count(node[:-1]):
                raise KeyError(f"no node at word {word}")
            b = balls[node] = Ball(*gen.child(b.center, b.radius, node[-1]))
        return b

    def child_block(self, word: Word) -> Block:
        """The children of the node at word as plain floats, (centers, radii):
        child j has center centers[j] and radius radii[j], bit for bit those
        of ball(word + (j,)). Built and checked once, then memoized. KeyError
        when a generated tree has no node at word; a finite tree gives no
        children for a word it lacks, as children() does."""
        block = self._blocks.get(word)
        if block is None:
            block = self._blocks.setdefault(word, self._make_children(word))
        return block

    def children(self, word: Word) -> Tuple[Ball, ...]:
        kids = self._kids.get(word)
        if kids is None:
            # the block is checked already, so its Balls skip the checks
            keep = self._balls.setdefault
            built = [
                keep(word + (j,), trusted_ball(c, r))
                for j, (c, r) in enumerate(zip(*self.child_block(word)))
            ]
            kids = self._kids.setdefault(word, tuple(built))
        return kids

    def child_count(self, word: Word) -> int:
        """How many children the node at word has, without building them."""
        if self._finite_children is not None:
            return len(self._finite_children.get(word, ()))
        gen = self.generator
        if isinstance(gen, TransformedSystem):
            return gen.base.child_count(word)
        return gen.child_count

    def is_leaf(self, word: Word) -> bool:
        return len(self.children(word)) == 0

    def walk(self, max_depth: int) -> Iterator[Tuple[Word, Ball]]:
        """Depth-first, child-order traversal down to max_depth inclusive."""
        stack: List[Tuple[Word, Ball]] = [(ROOT, self.root)]
        while stack:
            word, ball = stack.pop()
            yield word, ball
            if len(word) < max_depth:
                kids = self.children(word)
                for i in range(len(kids) - 1, -1, -1):
                    stack.append((word + (i,), kids[i]))

    def words_at_depth(self, depth: int) -> Iterator[Word]:
        for word, _ in self.walk(depth):
            if len(word) == depth:
                yield word

    # -- structure queries ---------------------------------------------------

    @property
    def is_finite(self) -> bool:
        return self._finite_children is not None

    def base_generator(self):
        gen = self.generator
        while isinstance(gen, TransformedSystem):
            gen = gen.base.generator
        return gen

    def is_homothetic(self) -> bool:
        """True when every node repeats the root's relative child layout."""
        gen = self.generator
        while isinstance(gen, TransformedSystem):
            if gen.kind == "perturbed":
                return False
            gen = gen.base.generator
        return hasattr(gen, "child_ratios")

    def child_ratios(self) -> Optional[Tuple[float, ...]]:
        """Child/parent radius ratios, identical at every node, if the system has them."""
        # transforms rescale every radius by one factor, so ratios pass through
        return getattr(self.base_generator(), "child_ratios", None)

    def uniform_level_ratio(self) -> Optional[float]:
        ratios = self.child_ratios()
        if ratios is None:
            return None
        if max(ratios) - min(ratios) > 1e-15:
            return None
        return ratios[0]

    def _corner_chain(self) -> Optional[Tuple["BallSystem", Tuple[TransformedSystem, ...]]]:
        """The corner family under a Linf system that is one or an image of one
        under similarities, with those maps outermost first."""
        if self.norm is not NormKind.LINF:
            return None
        maps = []
        core = self
        while isinstance(core.generator, TransformedSystem):
            t = core.generator
            if t.kind != "similarity":
                return None
            maps.append(t)
            core = t.base
        if not isinstance(core.generator, CornerFamilyParams):
            return None
        return core, tuple(maps)

    def corner_axes(self) -> Optional[Tuple["CornerAxis", ...]]:
        """Per-axis 1-D corner descriptions when the system is an axis-aligned
        affine image of a corner family under the Linf norm, else None.
        Computed once: the system does not change after construction."""
        axes = self._corner_axes
        if axes is _UNSET:
            axes = self._corner_axes = self._make_corner_axes()
        return axes

    def _make_corner_axes(self) -> Optional[Tuple["CornerAxis", ...]]:
        chain = self._corner_chain()
        if chain is None:
            return None
        core, maps = chain
        # accumulate outermost-first: acc(y) = scale*y + shift applied on top
        # of the transforms still to be visited
        scale = 1.0
        shift = [0.0] * self.dimension
        for t in maps:
            shift = [s + scale * v for s, v in zip(shift, t.shift)]
            scale = scale * t.scale
        gen = core.generator
        return tuple(
            CornerAxis(gen.n, gen.ell, offset=shift[i], scale=scale)
            for i in range(self.dimension)
        )

    def corner_child_grid(
        self, word: Word
    ) -> Optional[Tuple[Tuple[Tuple[float, ...], ...], float]]:
        """The children of the node at word as a grid, for the systems
        corner_axes describes; None for every other system.

        Returns (axes, radius): child j has this radius and, on axis i, the
        coordinate axes[i][k] with k the axis-i digit of j. The values are
        bit for bit those of ball(word + (j,)): each goes through the float
        operations of the corner formula and then of every map outward.
        """
        chain = self._corner_chain()
        if chain is None:
            return None
        core, maps = chain
        parent = core.ball(word)
        axes, radius = core.generator.child_axes(parent.center, parent.radius)
        for t in reversed(maps):
            axes = [tuple(t.scale * x + w for x in row) for row, w in zip(axes, t.shift)]
            radius = t.scale * radius
        return tuple(axes), radius

    def siblings_disjoint_at_root(self) -> bool:
        grid = self.corner_child_grid(ROOT)
        if grid is not None:
            # Float rounding is monotone, so coordinates never fall as the
            # digit rises and no pair of digits on an axis is closer than some
            # neighbouring pair. The closest children are thus neighbours on
            # one axis that agree on every other, where they differ by zero.
            axes, radius = grid
            reach = radius + radius
            return all(b - a > reach for row in axes for a, b in zip(row, row[1:]))
        kids = self.children(ROOT)
        return all(
            balls_disjoint(kids[i], kids[j], self.norm)
            for i in range(len(kids))
            for j in range(i + 1, len(kids))
        )

    def leaf_intervals(self) -> Tuple[Tuple[float, float], ...]:
        """Sorted closed intervals whose union is C, for finite 1-D systems."""
        if self._leaf_intervals is not None:
            return self._leaf_intervals
        if not (self.is_finite and self.dimension == 1):
            raise ValueError("leaf intervals exist only for finite 1-D systems")
        leaves = []
        stack = [ROOT]
        while stack:
            w = stack.pop()
            kids = self._finite_children.get(w, ())
            if kids:
                stack.extend(kids)
            else:
                b = self.ball(w)
                leaves.append((b.center[0] - b.radius, b.center[0] + b.radius))
        leaves.sort()
        self._leaf_intervals = tuple(leaves)
        return self._leaf_intervals

    def split_gap(self, word: Word) -> Optional[Tuple[float, float]]:
        """The gap a finite 1-D node splits at, None for leaves."""
        if self._split_gaps is None:
            raise ValueError("split gaps exist only for gap-derived systems")
        return self._split_gaps.get(word)

    # -- expansion ----------------------------------------------------------

    def _make_children(self, word: Word) -> Block:
        """Build the child block of the node at word."""
        if self._finite_children is not None:
            # finite trees store every node, each checked as a Ball already
            kids = [self._balls[w] for w in self._finite_children.get(word, ())]
            return tuple([b.center for b in kids]), tuple([b.radius for b in kids])
        gen = self.generator
        if isinstance(gen, TransformedSystem):
            centers, radii = gen.base.child_block(word)
            return _checked_block([self._map_node(c, r, gen) for c, r in zip(centers, radii)])
        return gen.block(*self._node(word))

    def _node(self, word: Word) -> Tuple[Point, float]:
        """Center and radius of the node at word, read from its parent's
        block when that is built, so that a search builds no Ball."""
        if word:
            block = self._blocks.get(word[:-1])
            j = word[-1]
            if block is not None and 0 <= j < len(block[1]):
                return block[0][j], block[1][j]
        b = self.ball(word)
        return b.center, b.radius

    @staticmethod
    def _map_node(center: Point, radius: float, t: TransformedSystem) -> Tuple[Point, float]:
        """The transform's image of one node ball, as center and radius."""
        if t.kind == "similarity":
            return tuple([t.scale * c + w for c, w in zip(center, t.shift)]), t.scale * radius
        if t.kind == "perturbed":
            img = as_point(t.fmap(center))
            if len(img) != len(center):
                raise ValueError("perturbation map changed the dimension")
            return img, (1 + t.eps) * radius
        raise ValueError(f"unknown transform kind {t.kind}")

    @staticmethod
    def _map_ball(b: Ball, t: TransformedSystem) -> Ball:
        return Ball(*BallSystem._map_node(b.center, b.radius, t))

    # -- validation ---------------------------------------------------------

    def validate(self, depth: int) -> None:
        """Hard-errors unless every expanded child sits inside its parent and
        radii decay by the recorded factor along paths."""
        for word, ball in self.walk(depth):
            if len(word) >= depth:
                continue
            for i, child in enumerate(self.children(word)):
                slack = _CONTAIN_SLACK * ball.radius
                d = norm_distance(ball.center, child.center, self.norm)
                if d + child.radius > ball.radius + slack:
                    raise ValueError(
                        f"child {word + (i,)} escapes its parent by "
                        f"{d + child.radius - ball.radius:.3e}"
                    )
                if self.decay is not None and child.radius > ball.radius * (
                    self.decay + _CONTAIN_SLACK
                ):
                    raise ValueError(f"radius decay violated at {word + (i,)}")


@dataclass(frozen=True)
class CornerAxis:
    """One axis of an axis-aligned corner product: offset + scale * K(n, ell)."""

    n: int
    ell: float
    offset: float
    scale: float

    @property
    def g(self) -> float:
        return corner_gap(self.n, self.ell)


def _checked_block(kids: Sequence[Tuple[Point, float]]) -> Block:
    """Child (center, radius) pairs as a block, after the checks Ball makes,
    in the same order and with the same errors."""
    isfinite = math.isfinite
    for center, radius in kids:
        if not all(map(isfinite, center)):
            raise ValueError("point coordinates must be finite")
        if not (radius > 0 and isfinite(radius)):
            raise ValueError("ball radius must be positive and finite")
    return tuple([k[0] for k in kids]), tuple([k[1] for k in kids])


def _corner_block(axes: Sequence[Tuple[float, ...]], radius: float) -> Block:
    """The block of a grid of children, child j taking on axis i the
    coordinate axes[i][k] with k the axis-i digit of j, all of one radius.

    Raises what _checked_block raises on the per-child list: that list
    fails first at child 0 when the radius is bad, on a coordinate if one
    of child 0's is not finite, else at its first child with one.
    """
    isfinite = math.isfinite
    if not (radius > 0 and isfinite(radius)):
        if all(isfinite(row[0]) for row in axes):
            raise ValueError("ball radius must be positive and finite")
        raise ValueError("point coordinates must be finite")
    if not all(isfinite(x) for row in axes for x in row):
        raise ValueError("point coordinates must be finite")
    # axis 0's digit varies fastest
    centers = [(x,) for x in axes[0]]
    for row in axes[1:]:
        centers = [c + (x,) for x in row for c in centers]
    return tuple(centers), (radius,) * len(centers)


@functools.lru_cache(maxsize=64)
def _corner_axis_offsets(n: int, ell: float) -> Tuple[float, ...]:
    g = corner_gap(n, ell)
    return tuple(-1 + ell / 2 + k * (ell + g) for k in range(n))


def corner_child_index(digits: Sequence[int], n: int) -> int:
    return sum(dig * n**i for i, dig in enumerate(digits))


# -- constructors ------------------------------------------------------------


def corner_family(params: CornerFamilyParams) -> BallSystem:
    """Axis-aligned corner construction on the unit cube; Linf by design."""
    root = Ball((0.0,) * params.d, 1.0)
    return BallSystem(
        norm=NormKind.LINF,
        dimension=params.d,
        root=root,
        generator=params,
        max_children=params.n**params.d,
        decay=params.ell / 2,
    )


def from_ifs(ifs: HomotheticIFS, norm: NormKind) -> BallSystem:
    """System whose node at word (i1..ik) is the composed map image of the unit ball."""
    d = ifs.dimension
    for lam, t in ifs.maps:
        reach = norm_distance(t, (0.0,) * d, norm) + lam
        if reach > 1 + _CONTAIN_SLACK:
            raise ValueError(
                f"map (lam={lam}, t={t}) escapes the unit ball by {reach - 1:.3e}"
            )
    return BallSystem(
        norm=norm,
        dimension=d,
        root=Ball((0.0,) * d, 1.0),
        generator=ifs,
        max_children=len(ifs.maps),
        decay=max(lam for lam, _ in ifs.maps),
    )


def from_gaps_1d(gl: GapList1D, norm: NormKind = NormKind.LINF) -> BallSystem:
    """Finite binary tree: each node splits at the largest listed gap it contains,
    longest first and leftmost on ties; gapless nodes are leaves."""

    def interval_ball(a: float, b: float) -> Ball:
        if not b > a:
            raise ValueError(
                f"gap arrangement produces a degenerate piece [{a}, {b}]"
            )
        return Ball(((a + b) / 2,), (b - a) / 2)

    order = sorted(gl.gaps, key=lambda g: (-(g[1] - g[0]), g[0]))
    children: Dict[Word, Tuple[Word, ...]] = {}
    balls: Dict[Word, Ball] = {}
    split_gaps: Dict[Word, Tuple[float, float]] = {}
    leaf_ivs: List[Tuple[float, float]] = []
    max_ratio = 0.0

    # preorder with an explicit stack, left piece first: nesting depth is
    # bounded only by the gap list's length
    stack: List[Tuple[Word, float, float, List[Tuple[float, float]]]] = [
        (ROOT, gl.hull[0], gl.hull[1], list(order))
    ]
    while stack:
        word, a, b, inside = stack.pop()
        balls[word] = interval_ball(a, b)
        if not inside:
            children[word] = ()
            leaf_ivs.append((a, b))
            continue
        gap = min(inside, key=lambda g: (-(g[1] - g[0]), g[0]))
        split_gaps[word] = gap
        lo, hi = gap
        left = [g for g in inside if g[1] <= lo]
        right = [g for g in inside if g[0] >= hi]
        if len(left) + len(right) != len(inside) - 1:
            raise ValueError("inconsistent gap containment")  # unreachable for valid input
        children[word] = (word + (0,), word + (1,))
        for piece in ((a, lo), (hi, b)):
            max_ratio = max(max_ratio, (piece[1] - piece[0]) / (b - a))
        stack.append((word + (1,), hi, b, right))
        stack.append((word + (0,), a, lo, left))

    sys = BallSystem(
        norm=norm,
        dimension=1,
        root=balls[ROOT],
        generator=gl,
        max_children=2,
        decay=max_ratio if max_ratio > 0 else None,
    )
    sys._balls.update(balls)
    sys._finite_children = children
    sys._split_gaps = split_gaps
    sys._leaf_intervals = tuple(sorted(leaf_ivs))
    return sys


def explicit_tree(
    norm: NormKind, dimension: int, entries: Sequence[Tuple[Word, Ball]]
) -> BallSystem:
    """Finite system from a (word, ball) table; children must be indexed 0..m-1."""
    balls = dict(entries)
    if ROOT not in balls:
        raise ValueError("explicit tree needs a root entry at the empty word")
    children: Dict[Word, List[Word]] = {w: [] for w in balls}
    for w in balls:
        if w == ROOT:
            continue
        parent = w[:-1]
        if parent not in balls:
            raise ValueError(f"node {w} has no parent entry")
        children[parent].append(w)
    fixed: Dict[Word, Tuple[Word, ...]] = {}
    max_children = 0
    max_ratio = 0.0
    for w, kids in children.items():
        kids.sort(key=lambda k: k[-1])
        if [k[-1] for k in kids] != list(range(len(kids))):
            raise ValueError(f"children of {w} are not indexed 0..m-1")
        fixed[w] = tuple(kids)
        max_children = max(max_children, len(kids))
        for k in kids:
            max_ratio = max(max_ratio, balls[k].radius / balls[w].radius)
    sys = BallSystem(
        norm=norm,
        dimension=dimension,
        root=balls[ROOT],
        generator=ExplicitTree(tuple(sorted(balls.items()))),
        max_children=max_children or None,
        decay=max_ratio if 0 < max_ratio < 1 else None,
    )
    sys._balls.update(balls)
    sys._finite_children = fixed
    return sys


def translate(sys: BallSystem, v: Sequence[float]) -> BallSystem:
    """The image of sys under x -> x + v, a similarity of scale 1: 1.0 * x
    is x, so its nodes are those of a plain shift bit for bit."""
    return similarity_image(sys, 1.0, v)


def similarity_image(sys: BallSystem, scale: float, shift: Sequence[float]) -> BallSystem:
    if not scale > 0:
        raise ValueError("similarity scale must be positive")
    shift = as_point(shift)
    if len(shift) != sys.dimension:
        raise ValueError("shift dimension mismatch")
    gen = TransformedSystem(kind="similarity", base=sys, shift=shift, scale=float(scale))
    root = BallSystem._map_ball(sys.root, gen)
    out = BallSystem(sys.norm, sys.dimension, root, gen, sys.max_children, sys.decay)
    out._finite_children = sys._finite_children
    if sys._finite_children is not None:
        out._balls.update(
            {w: BallSystem._map_ball(b, gen) for w, b in sys._balls.items()}
        )
    return out


def perturbed_image(
    sys: BallSystem, f: Callable[[Point], Sequence[float]], eps: float
) -> BallSystem:
    """Image system under a near-identity map: centers pushed through f, radii
    inflated by (1+eps). The caller certifies that f moves directions by less
    than eps over the root cube; that bound is what makes the image a valid system."""
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    if sys.norm is not NormKind.LINF:
        raise ValueError("perturbed images are defined for the Linf norm")
    r = sys.root.radius
    if any(abs(c) + r > 1 + _CONTAIN_SLACK for c in sys.root.center):
        raise ValueError("root must sit inside the unit cube")
    gen = TransformedSystem(kind="perturbed", base=sys, eps=float(eps), fmap=f)
    root = BallSystem._map_ball(sys.root, gen)
    return BallSystem(sys.norm, sys.dimension, root, gen, sys.max_children, sys.decay)


# -- classical 1-D gap quantity ----------------------------------------------


def newhouse_thickness(gl: GapList1D) -> float:
    """inf over listed gaps, taken in decreasing length (leftmost on ties), of
    min(left bridge, right bridge) / gap length."""
    intervals = [gl.hull]
    tau = math.inf
    for lo, hi in sorted(gl.gaps, key=lambda g: (-(g[1] - g[0]), g[0])):
        host = None
        for iv in intervals:
            if iv[0] <= lo and hi <= iv[1]:
                host = iv
                break
        if host is None:
            raise ValueError(f"gap ({lo}, {hi}) is not inside a remaining interval")
        left = lo - host[0]
        right = host[1] - hi
        tau = min(tau, min(left, right) / (hi - lo))
        intervals.remove(host)
        intervals.extend([(host[0], lo), (hi, host[1])])
    return tau


# -- JSON set-spec ------------------------------------------------------------

_NORMS = {"linf": NormKind.LINF, "l2": NormKind.L2, "l1": NormKind.L1}


def parse_set_spec(obj: dict) -> BallSystem:
    """Build a system from the JSON set-spec wire format."""
    if not isinstance(obj, dict):
        raise SpecError("set-spec must be a JSON object")
    try:
        norm_tag = obj["norm"]
        dimension = obj["dimension"]
        gen = obj["generator"]
    except (KeyError, TypeError) as exc:
        raise SpecError(f"missing set-spec field: {exc}") from exc
    if norm_tag not in _NORMS:
        raise SpecError(f"unknown norm {norm_tag!r}")
    norm = _NORMS[norm_tag]
    if not isinstance(dimension, int) or dimension < 1:
        raise SpecError("dimension must be a positive integer")
    if not isinstance(gen, dict) or "type" not in gen:
        raise SpecError("generator must be an object with a type")
    kind = gen["type"]
    try:
        if kind == "corner":
            if norm is not NormKind.LINF:
                raise SpecError("corner generator requires the linf norm")
            return corner_family(
                CornerFamilyParams(n=int(gen["n"]), ell=float(gen["ell"]), d=dimension)
            )
        if kind == "ifs":
            maps = tuple(
                (float(m["lambda"]), tuple(float(x) for x in m["t"]))
                for m in gen["maps"]
            )
            ifs = HomotheticIFS(maps)
            if ifs.dimension != dimension:
                raise SpecError("ifs map dimension disagrees with the spec dimension")
            return from_ifs(ifs, norm)
        if kind == "gaps1d":
            if dimension != 1:
                raise SpecError("gaps1d requires dimension 1")
            hull = tuple(float(x) for x in gen["hull"])
            gaps = tuple((float(a), float(b)) for a, b in gen["gaps"])
            return from_gaps_1d(GapList1D(hull=hull, gaps=gaps), norm)
    except SpecError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecError(f"invalid {kind} generator: {exc}") from exc
    raise SpecError(f"unknown generator type {kind!r}")
