"""Systems of balls: recursive trees of closed norm balls generating compact sets.

A system is a rooted tree. Every node is a closed ball, children lie inside
their parent, and radii shrink along every infinite path, so the nested
intersections generate a compact set C. Generators:

  corner family     n^d equidistant sub-cubes of relative radius ell/2 per node
  homothetic IFS    node at word (i1..ik) is the composed map image of the root
  1-D gap list      finite binary tree obtained by splitting at listed gaps
  explicit tree     caller-supplied finite node table
  Similarity        image of a base under x -> scale*x + shift (translates too)
  Perturbed         image of a base: centers through a smooth map, radii * (1+eps)

Trees are expanded lazily into one node store, the child blocks. Each
generator has one per-child formula on plain floats: the parent's center
and radius in, the child's out. child_block(word) applies it to every child
of a node (the generator's block()) and memoizes the result as the node's
child block, (centers, radii) of plain floats, checked once with the checks
Ball makes. Every walk of the tree reads blocks, and branch-and-bound
searches build no Ball from them. A corner family's block is the product
of each axis's n coordinates, which go through the formula's own float
operations. The finite generators (gap lists, explicit tables) build every
node's block with the tree, a leaf's empty; they terminate in leaves and
represent the set at that truncation, meaning C is the union of the leaf
balls. children(word) and walk() wrap a block's entries in fresh Balls
without checking them again. ball(word) stores nothing: it reads the
node's entry in its parent's block when that is built, else the last node
of path(word). path(word) gives the nodes on the path as plain floats, as
the corner_grid field does for the children of any node of a corner
family or a similarity image of one. An image (Similarity, Perturbed) expands
nothing itself: its node at a word is the image's node() of the base's
node at that word and its block that of each entry of the base's block,
so every image of one base reads and fills the base's blocks.

A system records its shape once, when it is built, from its generator:
base, the system an image maps (None for a generated or finite system);
core, the generated or finite system under all of its images;
similarities, the Similarity maps from core to the system, outermost
first, () when there are none and None past a perturbed image; and
corner_grid, the CornerGrid of a Linf corner family or of a similarity
image of one, else None. A field that would name the system itself holds
None, so that no system refers back to itself and each is freed by
reference counting. Memo fills take no lock: two threads may build the
same block, and both get the one stored first.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .geometry import (
    Ball,
    NormKind,
    Point,
    as_point,
    distance_kernel,
    norm_distance,
    trusted_ball,
    vector_size,
)

Word = Tuple[int, ...]
# the children of one node as plain floats: (centers, radii)
Block = Tuple[Tuple[Point, ...], Tuple[float, ...]]

ROOT: Word = ()
_LEAF: Block = ((), ())  # the child block of a leaf

_UNSET = object()  # marks a memo not filled yet where None is a value

_CONTAIN_SLACK = 1e-12  # relative float allowance in validation-only containment


class SpecError(ValueError):
    """Malformed set-spec input."""


class BudgetExceeded(RuntimeError):
    """A search stopped at a cap on its work before it found an answer."""


def word_str(word: Word) -> str:
    return ".".join(str(i) for i in word)


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

    def axis_factors(self) -> Optional[Tuple["AxisFactor", ...]]:
        """The attractor as a product of one 1-D attractor per axis, or None.

        A 1-D system qualifies when its child hulls are pairwise disjoint. In
        dimension d >= 2 every map must have one ratio lam and the
        translations must be exactly the Cartesian product of their
        per-axis values, each combination once; the attractor is then the
        product of the attractors of y -> lam * y + t over each axis's
        values, and each axis's child hulls must be disjoint too.
        """
        if self.dimension == 1:
            factor = _axis_factor([(lam, t[0]) for lam, t in self.maps])
            return None if factor is None else (factor,)
        lams = {lam for lam, _ in self.maps}
        translations = {t for _, t in self.maps}
        if len(lams) != 1 or len(translations) != len(self.maps):
            return None
        lam = lams.pop()
        values = [sorted({t[i] for t in translations}) for i in range(self.dimension)]
        if math.prod(map(len, values)) != len(translations):
            return None  # a proper subset of the product
        factors = []
        for axis in values:
            factor = _axis_factor([(lam, t) for t in axis])
            if factor is None:
                return None
            factors.append(factor)
        return tuple(factors)


@dataclass(frozen=True)
class AxisFactor:
    """One axis of an axis-product set: offset + scale * K, with K the
    attractor of the 1-D maps y -> lams[k] * y + ts[k].

    K's hull is [a, b], a = min t / (1 - lam) and b = max t / (1 - lam) over
    the maps: the fixed points of the outermost maps, so both ends lie in
    K. Map k sends it onto the child hull [starts[k], ends[k]] =
    ts[k] + lams[k] * [a, b]; the maps are listed in hull order and the
    child hulls are pairwise disjoint (a corner family's exactly, its
    float ends up to rounding), so the gaps between neighbouring child
    hulls are gaps of K. chain counts the similarity maps composed into
    offset and scale.
    """

    ts: Tuple[float, ...]
    lams: Tuple[float, ...]
    a: float
    b: float
    starts: Tuple[float, ...]
    ends: Tuple[float, ...]
    offset: float = 0.0
    scale: float = 1.0
    chain: int = 0

    @functools.cached_property
    def lam_max(self) -> float:
        return max(self.lams)

    @functools.cached_property
    def max_gap(self) -> float:
        """The widest gap between neighbouring child hulls; 0 for one map."""
        return max([s - e for e, s in zip(self.ends, self.starts[1:])], default=0.0)


def _axis_factor(maps: Sequence[Tuple[float, float]]) -> Optional[AxisFactor]:
    """The 1-D factor of the maps y -> lam * y + t, or None when two child
    hulls meet."""
    fixed = [t / (1 - lam) for lam, t in maps]
    a, b = min(fixed), max(fixed)
    hulls = sorted((t + lam * a, t + lam * b, t, lam) for lam, t in maps)
    if any(s <= e for (_, e, _, _), (s, _, _, _) in zip(hulls, hulls[1:])):
        return None
    starts, ends, ts, lams = (tuple(column) for column in zip(*hulls))
    return AxisFactor(ts, lams, a, b, starts, ends)


def corner_gap(n: int, ell: float) -> float:
    """Gap between neighbouring cells of a corner axis: n*ell + (n-1)*g = 2."""
    return (2 - n * ell) / (n - 1)


def corner_tau(n: int, ell: float) -> float:
    """Thickness of a corner family: cell radius ell/2 over hole radius g/2."""
    return ell / corner_gap(n, ell)


def corner_dense_radius(n: int, ell: float) -> float:
    """Least relative radius r at which every ball of radius r * R inside a
    corner node of radius R contains a child: the least float at or above
    ell + g/2, taken exactly from the float ell."""
    p, q = ell.as_integer_ratio()
    num, den = (n - 2) * p + 2 * q, 2 * q * (n - 1)  # ell + g/2 = num / den, ell = p / q
    r = num / den  # the nearest float: int / int division rounds correctly
    a, b = r.as_integer_ratio()
    return r if a * den >= num * b else math.nextafter(r, math.inf)


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
        if not self.ell / 2 > 0:
            # the first children of the unit root would have radius 0
            raise ValueError(
                f"ell = {self.ell!r} is too small: the child radius ell / 2 rounds to 0"
            )
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

    def child_axes(self, center: Point, radius: float) -> Tuple[List[List[float]], float]:
        """All sub-cubes of the node ball as a grid, (axes, radius): sub-cube j
        has this radius and, on axis i, the coordinate axes[i][k] with k the
        axis-i digit of j; the values are child()'s, bit for bit."""
        rel = _corner_axis_offsets(self.n, self.ell)
        return [[c + radius * x for x in rel] for c in center], radius * self.ell / 2

    def block(self, center: Point, radius: float) -> Block:
        """The checked child block of the node ball, built axis by axis."""
        return _corner_block(*self.child_axes(center, radius))

    def axis_factors(self) -> Tuple[AxisFactor, ...]:
        """The set as the product of d copies of one 1-D attractor: the n
        maps y -> ell/2 * y + c_k, c_k the cell centers child() uses."""
        return _corner_factors(self.n, self.ell, self.d)


@dataclass(frozen=True)
class GapList1D:
    """A closed hull interval and finitely many disjoint open gaps inside it."""

    hull: Tuple[float, float]
    gaps: Tuple[Tuple[float, float], ...]

    def __post_init__(self) -> None:
        a, b = map(float, self.hull)
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
class Similarity:
    """The image of base under x -> scale * x + shift; node() maps one node
    ball of base, given and returned as center and radius."""

    base: "BallSystem"
    scale: float
    shift: Point

    def node(self, center: Point, radius: float) -> Tuple[Point, float]:
        return tuple([self.scale * c + w for c, w in zip(center, self.shift)]), self.scale * radius


@dataclass(frozen=True)
class Perturbed:
    """The image of base with every center pushed through fmap and every
    radius inflated by 1 + eps; node() maps one node ball, as Similarity's."""

    base: "BallSystem"
    eps: float
    fmap: Callable[[Point], Sequence[float]]

    def node(self, center: Point, radius: float) -> Tuple[Point, float]:
        img = as_point(self.fmap(center))
        if len(img) != len(center):
            raise ValueError("perturbation map changed the dimension")
        return img, (1 + self.eps) * radius


@dataclass(frozen=True)
class CornerGrid:
    """The children of a corner system's nodes read axis by axis, for
    searches that walk the tree without building a Ball.

    A node is named by its center and radius in the corner family the
    system is a similarity image of (its core), root the core's root and
    maps the similarities innermost first. A child's core center is
    params.child's and its system center node()'s of that, so both are bit
    for bit those of ball(word + (j,)).
    """

    params: CornerFamilyParams
    root: Ball
    maps: Tuple[Similarity, ...]

    def axes(
        self, center: Point, radius: float
    ) -> Tuple[List[List[float]], float, float]:
        """(rows, core_radius, radius): the children of the node have radius
        core_radius in the core and radius in the system, and on axis i the
        children of axis-i digit k have the system coordinate rows[i][k],
        formed as ball() forms it: c + r * offset, then scale * x + w per
        map. ValueError, as Ball's, when the radius rounds to 0."""
        rows, core_radius = self.params.child_axes(center, radius)
        own = core_radius
        for t in self.maps:
            s = t.scale
            rows = [[s * x + w for x in row] for row, w in zip(rows, t.shift)]
            own = s * own
        if not own > 0:
            raise ValueError("ball radius must be positive and finite")
        return rows, core_radius, own

    def deviations(
        self, center: Point, radius: float, point: Point
    ) -> Tuple[List[List[float]], float, float]:
        """(devs, core_radius, radius) with devs[i][k] = |rows[i][k] - point[i]|
        for axes()' rows, core_radius and radius: how far the children of
        axis-i digit k lie from point on axis i. A corner family and its
        translates, the systems the gap-lemma search mostly reads, take one
        comprehension per axis with the same float operations in order."""
        maps = self.maps
        if len(maps) > 1:
            rows, core_radius, own = self.axes(center, radius)
            return [[abs(x - p) for x in row] for row, p in zip(rows, point)], core_radius, own
        params = self.params
        rel = _corner_axis_offsets(params.n, params.ell)
        core_radius = own = radius * params.ell / 2
        if not maps:
            devs = [[abs(c + radius * x - p) for x in rel] for c, p in zip(center, point)]
        else:
            s, shift = maps[0].scale, maps[0].shift
            own = s * own
            devs = [
                [abs(s * (c + radius * x) + w - p) for x in rel]
                for c, p, w in zip(center, point, shift)
            ]
        if not own > 0:
            raise ValueError("ball radius must be positive and finite")
        return devs, core_radius, own

    def node(self, center: Point, radius: float) -> Tuple[Point, float]:
        """The system's center and radius of the node with this core center and radius."""
        for t in self.maps:
            center, radius = t.node(center, radius)
        return center, radius


class BallSystem:
    """Lazy, memoized, immutable-after-construction tree of closed balls."""

    def __init__(
        self,
        norm: NormKind,
        dimension: int,
        root: Ball,
        generator,
    ) -> None:
        self.norm = norm
        self.dimension = dimension
        self.root = root
        self.generator = generator
        # the one node store: each expanded node's child block
        self._blocks: Dict[Word, Block] = {}
        self._finite = False  # set by the finite constructors and their similarity images
        self._dist_oracle = None  # metrics' distance oracle, built on the first query
        self._axis_factors = _UNSET  # axis_factors(), computed on its first call
        # the shape, read from the generator once; None stands for this
        # system itself, so that no field refers back to it
        base = self.base = getattr(generator, "base", None)  # an image's base
        # the generated or finite system under all of this one's images
        self.core = None if base is None else base.core or base
        # the similarities from core to this system, outermost first; None
        # past a perturbed image
        maps: Optional[Tuple[Similarity, ...]] = ()
        if base is not None:
            inner = base.similarities
            similar = inner is not None and isinstance(generator, Similarity)
            maps = (generator,) + inner if similar else None
        self.similarities = maps
        # the child grids of a Linf corner family or a similarity image of one
        core = self.core or self
        self.corner_grid: Optional[CornerGrid] = None
        if norm is NormKind.LINF and maps is not None:
            if isinstance(core.generator, CornerFamilyParams):
                self.corner_grid = CornerGrid(core.generator, core.root, maps[::-1])
        self._leaf_intervals: Optional[Tuple[Tuple[float, float], ...]] = None

    # -- tree access -------------------------------------------------------

    def ball(self, word: Word) -> Ball:
        """The node at word as a fresh Ball; KeyError when the tree has none.
        Stores nothing."""
        return trusted_ball(*self._node(word)) if word else self.root

    def child_block(self, word: Word) -> Block:
        """The children of the node at word as plain floats, (centers, radii):
        child j has center centers[j] and radius radii[j], bit for bit those
        of ball(word + (j,)). Built and checked once, then memoized: the one
        adjacency every tree walk reads. KeyError when a generated tree has
        no node at word; a finite tree gives no children for a word it lacks."""
        block = self._blocks.get(word)
        if block is None:
            block = self._blocks.setdefault(word, self._make_children(word))
        return block

    def children(self, word: Word) -> Tuple[Ball, ...]:
        """The children of the node at word as fresh Balls, equal to
        ball(word + (j,))'s; the block is checked already, so they skip the
        checks. Stores nothing."""
        return tuple(map(trusted_ball, *self.child_block(word)))

    def child_count(self, word: Word) -> int:
        """How many children the node at word has; a generated tree builds none."""
        if self.base is not None:
            return self.base.child_count(word)
        if self._finite:
            return len(self.child_block(word)[1])
        return self.generator.child_count

    def is_leaf(self, word: Word) -> bool:
        return self.child_count(word) == 0

    def walk(self, max_depth: int) -> Iterator[Tuple[Word, Ball]]:
        """Depth-first, child-order traversal down to max_depth inclusive:
        the root itself, then fresh Balls from each expanded node's block."""
        stack: List[Tuple[Word, Ball]] = [(ROOT, self.root)]
        block = self.child_block
        while stack:
            word, ball = stack.pop()
            yield word, ball
            if len(word) < max_depth:
                centers, radii = block(word)
                for j in range(len(radii) - 1, -1, -1):
                    stack.append((word + (j,), trusted_ball(centers[j], radii[j])))

    # -- structure queries ---------------------------------------------------

    @property
    def is_finite(self) -> bool:
        return self._finite

    def is_homothetic(self) -> bool:
        """True when every node repeats the root's relative child layout: a
        generator with child ratios, or a similarity image of one."""
        return self.similarities is not None and self.child_ratios() is not None

    def child_ratios(self) -> Optional[Tuple[float, ...]]:
        """Child/parent radius ratios, identical at every node, if the system has them."""
        # images rescale every radius by one factor, so ratios pass through
        return getattr((self.core or self).generator, "child_ratios", None)

    def axis_factors(self) -> Optional[Tuple[AxisFactor, ...]]:
        """Per-axis 1-D factors when the set is the product of one 1-D
        attractor per axis: a generator that offers axis_factors(), or a
        similarity image of one, its chain composed into each factor's
        offset and scale; None for every other system. Computed once."""
        factors = self._axis_factors
        if factors is _UNSET:
            factors = self._axis_factors = self._make_axis_factors()
        return factors

    def _make_axis_factors(self) -> Optional[Tuple[AxisFactor, ...]]:
        maps = self.similarities
        if maps is None:
            return None
        if self.core is not None:
            factors = self.core.axis_factors()  # memoized on the core
        else:
            make = getattr(self.generator, "axis_factors", None)
            factors = make() if make is not None else None
        if factors is None:
            return None
        # compose the chain into one map y -> scale * y + shift, outermost
        # map first: each map applies on top of those still to be visited
        scale = 1.0
        shift = [0.0] * self.dimension
        for t in maps:
            shift = [s + scale * v for s, v in zip(shift, t.shift)]
            scale = scale * t.scale
        return tuple(
            dataclasses.replace(f, offset=w, scale=scale, chain=len(maps))
            for f, w in zip(factors, shift)
        )

    def path(self, word: Word) -> Iterator[Tuple[Point, float]]:
        """Center and radius of the node at every prefix of word, root first,
        bit for bit those of ball(word[:i]), without building or storing a
        Ball: a generated tree runs its per-child formula down from the root
        and an image maps its base's path. KeyError when the tree has no
        node at a prefix."""
        gen = self.generator
        if self.base is not None:
            for center, radius in self.base.path(word):
                yield gen.node(center, radius)
            return
        center, radius = self.root.center, self.root.radius
        yield center, radius
        if self._finite:
            # every node's block is built with the tree
            for depth, j in enumerate(word):
                centers, radii = self._blocks[word[:depth]]
                if not 0 <= j < len(radii):
                    raise KeyError(f"no node at word {word}")
                center, radius = centers[j], radii[j]
                yield center, radius
            return
        for j in word:
            if not 0 <= j < gen.child_count:
                raise KeyError(f"no node at word {word}")
            center, radius = gen.child(center, radius, j)
            yield center, radius

    def siblings_disjoint_at_root(self) -> bool:
        return all(dist > ra + rb for dist, ra, rb in self.root_sibling_pairs())

    def root_sibling_pairs(self) -> Iterator[Tuple[float, float, float]]:
        """(distance, radius, radius) for pairs of root children that include
        a closest pair in the norm's float distance: every pair, or, on an
        axis product whose factors each have one ratio, the neighbouring child
        coordinates on each axis, formed as the tree forms them (core root
        center + R * t, then s * x + w per similarity, innermost first).
        Rounding is monotone and a product's children share one radius, so no
        two children are closer than two neighbours that agree on every other
        axis. Raises what child_block(ROOT) raises."""
        factors, dist = self.axis_factors(), distance_kernel(self.norm)
        if factors is None or any(min(f.lams) != max(f.lams) for f in factors):
            kids = itertools.combinations(zip(*self.child_block(ROOT)), 2)
            return ((dist(a, b), ra, rb) for (a, ra), (b, rb) in kids)
        root = (self.core or self).root
        rows = [[c + root.radius * t for t in f.ts] for c, f in zip(root.center, factors)]
        radius = root.radius * factors[0].lams[0]
        for t in reversed(self.similarities):
            rows = [[t.scale * x + w for x in row] for row, w in zip(rows, t.shift)]
            radius = t.scale * radius
        if not (0 < radius < math.inf and all(math.isfinite(x) for row in rows for x in row)):
            self.child_block(ROOT)  # the block holds these floats, so it raises
        return ((dist((a,), (b,)), radius, radius) for row in rows for a, b in zip(row, row[1:]))

    def leaf_intervals(self) -> Tuple[Tuple[float, float], ...]:
        """Sorted closed intervals whose union is C, for finite 1-D systems.

        No two overlap: leaves that do (an explicit tree may have them) are
        merged into their union, so that the left ends and the right ends
        both rise; gap-derived leaves are disjoint already."""
        if self._leaf_intervals is not None:
            return self._leaf_intervals
        if not (self.is_finite and self.dimension == 1):
            raise ValueError("leaf intervals exist only for finite 1-D systems")
        leaves = sorted(
            (b.center[0] - b.radius, b.center[0] + b.radius)
            for w, b in self.walk(1_000_000)
            if self.is_leaf(w)
        )
        merged: List[Tuple[float, float]] = []
        for lo, hi in leaves:
            if merged and lo < merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        self._leaf_intervals = tuple(merged)
        return self._leaf_intervals

    # -- expansion ----------------------------------------------------------

    def _make_children(self, word: Word) -> Block:
        """Build the child block of the node at word."""
        gen = self.generator
        if self.base is not None:
            centers, radii = self.base.child_block(word)
            return _checked_block([gen.node(c, r) for c, r in zip(centers, radii)])
        if self._finite:
            return _LEAF  # a finite tree holds every node's block: word names none
        return gen.block(*self._node(word))

    def _node(self, word: Word) -> Tuple[Point, float]:
        """Center and radius of the node at word: its entry in its parent's
        block when that is built, else the last node of path(word) after the
        checks Ball makes, with the same errors. Stores nothing."""
        if word:
            block = self._blocks.get(word[:-1])
            j = word[-1]
            if block is not None and 0 <= j < len(block[1]):
                return block[0][j], block[1][j]
        *_, node = self.path(word)
        _checked_block([node])
        return node

    # -- validation ---------------------------------------------------------

    def validate(self, depth: int) -> None:
        """Hard-errors unless every expanded child sits inside its parent."""
        for word, ball in self.walk(depth):
            if len(word) >= depth:
                continue
            centers, radii = self.child_block(word)
            for i, (center, radius) in enumerate(zip(centers, radii)):
                slack = _CONTAIN_SLACK * ball.radius
                d = norm_distance(ball.center, center, self.norm)
                if d + radius > ball.radius + slack:
                    raise ValueError(
                        f"child {word + (i,)} escapes its parent by "
                        f"{d + radius - ball.radius:.3e}"
                    )


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


def _check_grid(axes: Sequence[Sequence[float]], radius: float) -> None:
    """Raises what _checked_block raises on the per-child list of a grid
    of children (see _corner_block): that list fails first at child 0 when
    the radius is bad, on a coordinate if one of child 0's is not finite,
    else at its first child with one."""
    isfinite = math.isfinite
    if not (radius > 0 and isfinite(radius)):
        if all(isfinite(row[0]) for row in axes):
            raise ValueError("ball radius must be positive and finite")
        raise ValueError("point coordinates must be finite")
    if not all(map(isfinite, itertools.chain.from_iterable(axes))):
        raise ValueError("point coordinates must be finite")


def _corner_block(axes: Sequence[Sequence[float]], radius: float) -> Block:
    """The block of a grid of children, child j taking on axis i the
    coordinate axes[i][k] with k the axis-i digit of j, all of one radius,
    after _check_grid's checks."""
    _check_grid(axes, radius)
    # axis 0's digit varies fastest
    centers = [(x,) for x in axes[0]]
    for row in axes[1:]:
        centers = [c + (x,) for x in row for c in centers]
    return tuple(centers), (radius,) * len(centers)


@functools.lru_cache(maxsize=64)
def _corner_axis_offsets(n: int, ell: float) -> Tuple[float, ...]:
    g = corner_gap(n, ell)
    return tuple(-1 + ell / 2 + k * (ell + g) for k in range(n))


@functools.lru_cache(maxsize=64)
def _corner_factors(n: int, ell: float, d: int) -> Tuple[AxisFactor, ...]:
    """A corner axis's factor, hull [-1, 1]: ell < 2/n keeps the exact gap
    positive, so the cells are disjoint even where float ends touch; the
    float centers lie within 2.5 ulps of 1 of the exact ones (measured, n <= 40)."""
    half, ts = ell / 2, _corner_axis_offsets(n, ell)
    hulls = [tuple([t + side * half for t in ts]) for side in (-1.0, 1.0)]
    return (AxisFactor(ts, (half,) * n, -1.0, 1.0, *hulls),) * d


# -- constructors ------------------------------------------------------------


def corner_family(params: CornerFamilyParams) -> BallSystem:
    """Axis-aligned corner construction on the unit cube; Linf by design."""
    root = Ball((0.0,) * params.d, 1.0)
    return BallSystem(
        norm=NormKind.LINF,
        dimension=params.d,
        root=root,
        generator=params,
    )


def from_ifs(ifs: HomotheticIFS, norm: NormKind) -> BallSystem:
    """System whose node at word (i1..ik) is the composed map image of the unit ball."""
    d = ifs.dimension
    for lam, t in ifs.maps:
        reach = vector_size(t, norm) + lam
        if reach > 1 + _CONTAIN_SLACK:
            raise ValueError(
                f"map (lam={lam}, t={t}) escapes the unit ball by {reach - 1:.3e}"
            )
    return BallSystem(
        norm=norm,
        dimension=d,
        root=Ball((0.0,) * d, 1.0),
        generator=ifs,
    )


def from_gaps_1d(gl: GapList1D, norm: NormKind = NormKind.LINF) -> BallSystem:
    """Finite binary tree: each node splits at the largest listed gap it contains,
    longest first and leftmost on ties; gapless nodes are leaves.

    The gaps are sorted once by that rule. Each node's gap list keeps the
    sorted order, as the left and right filters keep it, so its first gap
    is the one min() by the same key would pick. A node's block is built
    where it splits, and its pieces are checked as Ball checks them when
    they are visited."""
    order = sorted(gl.gaps, key=lambda g: (-(g[1] - g[0]), g[0]))
    blocks: Dict[Word, Block] = {}
    leaf_ivs: List[Tuple[float, float]] = []

    # preorder with an explicit stack, left piece first: nesting depth is
    # bounded only by the gap list's length
    stack: List[Tuple[Word, float, float, List[Tuple[float, float]]]] = [
        (ROOT, gl.hull[0], gl.hull[1], list(order))
    ]
    while stack:
        word, a, b, inside = stack.pop()
        if not (b - a) / 2 > 0:  # narrower than two of the least subnormals
            raise ValueError(f"gap arrangement produces a degenerate piece [{a}, {b}]")
        _checked_block([(((a + b) / 2,), (b - a) / 2)])
        if not inside:
            blocks[word] = _LEAF
            leaf_ivs.append((a, b))
            continue
        lo, hi = inside[0]
        left = [g for g in inside if g[1] <= lo]
        right = [g for g in inside if g[0] >= hi]
        if len(left) + len(right) != len(inside) - 1:
            raise ValueError("inconsistent gap containment")  # unreachable for valid input
        blocks[word] = (((a + lo) / 2,), ((hi + b) / 2,)), ((lo - a) / 2, (b - hi) / 2)
        stack.append((word + (1,), hi, b, right))
        stack.append((word + (0,), a, lo, left))

    a, b = gl.hull
    sys = BallSystem(norm=norm, dimension=1, root=Ball(((a + b) / 2,), (b - a) / 2), generator=gl)
    sys._blocks = blocks
    sys._finite = True
    sys._leaf_intervals = tuple(sorted(leaf_ivs))
    return sys


def explicit_tree(
    norm: NormKind, dimension: int, entries: Sequence[Tuple[Word, Ball]]
) -> BallSystem:
    """Finite system from a (word, ball) table; children must be indexed 0..m-1."""
    balls = dict(entries)
    if ROOT not in balls:
        raise ValueError("explicit tree needs a root entry at the empty word")
    for w in balls:
        if w and w[:-1] not in balls:
            raise ValueError(f"node {w} has no parent entry")
    for w in balls:
        if not w:
            continue
        # indices 0..m-1 hold exactly when each index has its predecessor
        j, parent = w[-1], w[:-1]
        if j < 0 or (j > 0 and parent + (j - 1,) not in balls):
            raise ValueError(f"children of {parent} are not indexed 0..m-1")
    # generator None: every node's block is read from the table, its
    # entries checked as Balls already
    sys = BallSystem(norm=norm, dimension=dimension, root=balls[ROOT], generator=None)
    for w in balls:
        kids = []
        while (b := balls.get(w + (len(kids),))) is not None:
            kids.append(b)
        sys._blocks[w] = tuple([b.center for b in kids]), tuple([b.radius for b in kids])
    sys._finite = True
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
    gen = Similarity(sys, float(scale), shift)
    root = Ball(*gen.node(sys.root.center, sys.root.radius))
    out = BallSystem(sys.norm, sys.dimension, root, gen)
    out._finite = sys._finite
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
    gen = Perturbed(sys, float(eps), f)
    root = Ball(*gen.node(sys.root.center, sys.root.radius))
    return BallSystem(sys.norm, sys.dimension, root, gen)


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
# most children per node a spec may ask for, n**d corner cells or ifs maps:
# one child block of this many holds about 70 MB of tuples in d = 2, and
# searches that list a node's children (the gap lemma's meet frontier)
# list this many words
MAX_CHILDREN = 1_000_000


def _is_json_int(value) -> bool:
    """True for a JSON integer; a bool is an int to Python but not to JSON."""
    return isinstance(value, int) and not isinstance(value, bool)


def _json_float(value) -> float:
    """A JSON number as a float; a string, a bool or any other value is a TypeError."""
    if not (_is_json_int(value) or isinstance(value, float)):
        raise TypeError(f"expected a JSON number, got {value!r}")
    return float(value)


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
    if not isinstance(norm_tag, str) or norm_tag not in _NORMS:
        raise SpecError(f"unknown norm {norm_tag!r}")
    norm = _NORMS[norm_tag]
    if not _is_json_int(dimension) or dimension < 1:
        raise SpecError(f"dimension must be a positive integer, got {dimension!r}")
    if not isinstance(gen, dict) or "type" not in gen:
        raise SpecError("generator must be an object with a type")
    gen_tag = gen["type"]
    try:
        if gen_tag == "corner":
            if norm is not NormKind.LINF:
                raise SpecError("corner generator requires the linf norm")
            if not _is_json_int(gen["n"]):
                raise SpecError(f"corner n must be an integer, got {gen['n']!r}")
            params = CornerFamilyParams(n=gen["n"], ell=_json_float(gen["ell"]), d=dimension)
            # n >= 2, so n**d passes the cap once d reaches the cap's bit
            # length, and no huge power is formed
            if params.n ** min(dimension, MAX_CHILDREN.bit_length()) > MAX_CHILDREN:
                raise SpecError(
                    f"corner generator with n = {params.n} in dimension {dimension} has "
                    f"more than {MAX_CHILDREN:,} children per node"
                )
            return corner_family(params)
        if gen_tag == "ifs":
            if len(gen["maps"]) > MAX_CHILDREN:
                raise SpecError(
                    f"ifs generator with {len(gen['maps']):,} maps has "
                    f"more than {MAX_CHILDREN:,} children per node"
                )
            maps = tuple(
                (_json_float(m["lambda"]), tuple(map(_json_float, m["t"])))
                for m in gen["maps"]
            )
            ifs = HomotheticIFS(maps)
            if ifs.dimension != dimension:
                raise SpecError("ifs map dimension disagrees with the spec dimension")
            return from_ifs(ifs, norm)
        if gen_tag == "gaps1d":
            if dimension != 1:
                raise SpecError("gaps1d requires dimension 1")
            hull = tuple(map(_json_float, gen["hull"]))
            gaps = tuple((_json_float(a), _json_float(b)) for a, b in gen["gaps"])
            return from_gaps_1d(GapList1D(hull=hull, gaps=gaps), norm)
    except SpecError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecError(f"invalid {gen_tag} generator: {exc}") from exc
    raise SpecError(f"unknown generator type {gen_tag!r}")
