"""Erase-and-shrink game simulation and the bound evaluators built on it.

The referee enforces the move rules with a relative 1e-9 forgiveness so
float-boundary moves are not spuriously rejected. Alice's covering
strategy erases sphere-union neighborhoods derived from hole-radius
enclosures, clamping each erase radius to its budget; the budget
dominates the true hole radius whenever the thickness hypothesis holds,
so the clamp never uncovers a hole.

The dimension and capacity evaluators take the two scaling constants K1
and K2 as explicit configuration. The defaults of 1.0 are demonstration
placeholders, not derived values, and every report carries the pair
used to produce it.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence, Set, Tuple, Union

from .ballsystem import ROOT, BallSystem, Word
from .geometry import (
    Ball,
    NormKind,
    Point,
    Sphere,
    SphereUnion,
    balls_disjoint,
    dist_point_sphere,
    distance_kernel,
    norm_distance,
    row_norms,
    trusted_sphere,
    vector_size,
)
from .metrics import _corner1d_dist_batch, dist_to_set, hole_radius

_REF_TOL = 1e-9
_RADIUS_FLOOR = 1e-9
_ERASE_SLACK = 1e-12
_BAND_LIMIT = 10_000


@dataclass(frozen=True)
class GameParams:
    """Rule set of one match: budgets, shrink floor, and the sphere family size."""

    alpha: float
    beta: float
    c: float
    rho: float
    M: int
    dimension: int
    norm: NormKind = NormKind.LINF

    def __post_init__(self) -> None:
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")
        if not 0 < self.beta < 1:
            raise ValueError("beta must lie in (0, 1)")
        if self.c < 0:
            raise ValueError("c must be nonnegative")
        if not self.rho > 0:
            raise ValueError("rho must be positive")
        if self.M < 1:
            raise ValueError("M must be at least 1")
        if self.dimension < 1:
            raise ValueError("dimension must be at least 1")


@dataclass(frozen=True)
class BobMove:
    ball: Ball


@dataclass(frozen=True)
class Erasure:
    """One erased set: a neighborhood of radius rho around a sphere union."""

    spheres: SphereUnion
    rho: float

    def __post_init__(self) -> None:
        if not self.rho > 0:
            raise ValueError("erase radius must be positive")


@dataclass(frozen=True)
class AliceMove:
    erased: Tuple[Erasure, ...] = ()


Move = Union[BobMove, AliceMove]


@dataclass(frozen=True)
class Verdict:
    legal: bool
    reason: str = ""


_LEGAL = Verdict(True)


@dataclass(frozen=True)
class GameTranscript:
    """Finished match: the move list, the limit point estimate, and its label."""

    params: GameParams
    moves: Tuple[Move, ...]
    outcome: Point
    classification: str


@dataclass(frozen=True)
class BfsConstants:
    """Scaling constants for the dimension bounds; defaults are placeholders."""

    K1: float = 1.0
    K2: float = 1.0

    def __post_init__(self) -> None:
        if not (self.K1 > 0 and self.K2 > 0):
            raise ValueError("both constants must be positive")


def referee(move: Move, history: Sequence[Move], params: GameParams) -> Verdict:
    """Check one move against the rules; a violation verdict names the rule.

    Bob must open with radius at least rho, keep every ball inside the
    previous one, and never shrink below the beta fraction. Alice must
    respond to a ball, stay within the erase budget for the configured c,
    and use sphere unions of at most M spheres. All inequality checks
    carry a relative 1e-9 forgiveness.
    """
    if isinstance(move, BobMove):
        ball = move.ball
        if len(ball.center) != params.dimension:
            return Verdict(False, "ball dimension does not match the game")
        prev = _last_ball(history)
        if prev is None:
            if ball.radius < params.rho * (1 - _REF_TOL):
                return Verdict(
                    False,
                    f"first radius {ball.radius:.6g} is below rho {params.rho:.6g}",
                )
            return _LEGAL
        if ball.radius < params.beta * prev.radius * (1 - _REF_TOL):
            return Verdict(
                False,
                f"radius {ball.radius:.6g} shrinks past beta * {prev.radius:.6g}",
            )
        if len(prev.center) != len(ball.center):
            raise ValueError(f"dimension mismatch: {len(ball.center)} vs {len(prev.center)}")
        gap = distance_kernel(params.norm)(ball.center, prev.center)
        if gap + ball.radius > prev.radius * (1 + _REF_TOL):
            return Verdict(False, "ball is not inside the previous ball")
        return _LEGAL

    if isinstance(move, AliceMove):
        if not move.erased:
            return _LEGAL
        prev = _last_ball(history)
        if prev is None:
            return Verdict(False, "no ball to respond to")
        for erasure in move.erased:
            if len(erasure.spheres.spheres) > params.M:
                return Verdict(
                    False,
                    f"{len(erasure.spheres.spheres)} spheres exceed the family bound {params.M}",
                )
        budget = params.alpha * prev.radius
        if params.c == 0:
            if len(move.erased) > 1:
                return Verdict(False, "c = 0 allows erasing a single set")
            if move.erased[0].rho > budget * (1 + _REF_TOL):
                return Verdict(
                    False,
                    f"erase radius {move.erased[0].rho:.6g} exceeds the budget {budget:.6g}",
                )
            return _LEGAL
        total = math.fsum(e.rho**params.c for e in move.erased)
        cap = budget**params.c
        if total > cap * (1 + _REF_TOL):
            return Verdict(
                False,
                f"erase radii sum to {total:.6g} in the c-power, over the cap {cap:.6g}",
            )
        return _LEGAL

    return Verdict(False, f"unrecognized move {type(move).__name__}")


def _last_ball(history: Sequence[Move]) -> Optional[Ball]:
    for move in reversed(history):
        if isinstance(move, BobMove):
            return move.ball
    return None


def kappa(norm: NormKind, d: int, configured: Optional[int] = None) -> int:
    """Most disjoint equal balls one ball of no larger radius can meet.

    For the max norm the per-axis interval argument gives 2 per axis,
    hence 2**d. Other norms must supply a configured value.
    """
    if d < 1:
        raise ValueError("dimension must be at least 1")
    if norm is NormKind.LINF:
        return 2**d
    if configured is None:
        raise ValueError("no built-in packing count for this norm; pass one")
    if configured < 1:
        raise ValueError("configured packing count must be at least 1")
    return configured


def _hole_enclosure(sys: BallSystem, word: Word):
    rad = sys.ball(word).radius
    return hole_radius(word, sys, max(1e-9 * rad, 1e-13))


def alice_h_sets(sys: BallSystem, word: Word) -> SphereUnion:
    """Sphere family whose hole-radius neighborhood blankets the node's gaps.

    One sphere sits half a hole radius inside the node boundary and one
    wraps each child at a full hole radius outside it, using the upper
    end of the hole enclosure for both offsets. The union has at most
    one sphere more than the node has children.
    """
    spheres = _h_spheres(sys, word, _hole_enclosure(sys, word).hi)
    return SphereUnion(tuple(spheres), m_bound=len(spheres))


def _h_spheres(sys: BallSystem, word: Word, h: float) -> List[Sphere]:
    """alice_h_sets' spheres for the node at word, given its hole bound h."""
    ball = sys.ball(word)
    centers, radii = sys.child_block(word)
    # node centers passed Ball's checks already
    spheres = [trusted_sphere(ball.center, ball.radius - h / 2)]
    spheres.extend([trusted_sphere(c, r + h) for c, r in zip(centers, radii)])
    return spheres


class AliceStrategy:
    """Band-indexed responder: one erase per radius band, passes otherwise.

    The first ball whose radius falls in band n is answered by erasing
    the hole neighborhood of every level-n ball the move touches, all in
    a single sphere union. The erase radius is the largest hole bound
    among the touched balls, clamped to the budget radius/tau; the clamp
    is sound because the budget dominates the true hole radius whenever
    the thickness hypothesis holds.
    """

    def __init__(
        self,
        sys: BallSystem,
        tau: float,
        beta: float,
        kappa_value: Optional[int] = None,
    ) -> None:
        if not tau > 0:
            raise ValueError("tau must be positive")
        self.sys = sys
        self.tau = tau
        self._ratio: Optional[float] = None
        # level radii: every level of a finite tree, or those of a homothetic
        # one that band has read so far
        self._level_radii: List[float] = []
        self.n0 = 1
        sup = self._verify_structure()
        if not sup <= beta < 1:
            raise ValueError(f"beta must lie in [{sup:.6g}, 1)")
        self.beta = beta
        self.kappa = kappa(sys.norm, sys.dimension, kappa_value)
        self.sphere_budget = (self.n0 + 1) * self.kappa
        self._answered: Set[int] = set()

    def _verify_structure(self) -> float:
        """Confirm equal disjoint same-level radii and return their decay ratio."""
        sys = self.sys
        if sys.is_homothetic():
            ratio = sys.uniform_level_ratio()
            if ratio is None:
                raise ValueError("children radii differ within a level")
            self.n0 = sys.child_count(ROOT)
            # equal-ratio maps: first-level separation propagates down
            if not sys.siblings_disjoint_at_root():
                raise ValueError("first-level balls overlap")
            self._ratio = ratio
            self._level_radii = [sys.root.radius]
            return ratio
        if sys.is_finite:
            return self._verify_finite_levels()
        raise ValueError("cannot verify the equal-level hypotheses for this system")

    def _verify_finite_levels(self) -> float:
        sys = self.sys
        radii: List[float] = []
        frontier: List[Tuple[Word, Ball]] = [(ROOT, sys.root)]
        depth = 0
        while frontier:
            level = [ball for _, ball in frontier]
            top = max(ball.radius for ball in level)
            if top - min(ball.radius for ball in level) > 1e-12 * top:
                raise ValueError(f"level {depth} has unequal radii")
            if depth > 0 and not all(
                balls_disjoint(a, b, sys.norm) for a, b in itertools.combinations(level, 2)
            ):
                raise ValueError(f"level {depth} balls overlap")
            radii.append(top)
            grown: List[Tuple[Word, Ball]] = []
            for word, _ in frontier:
                kids = sys.children(word)
                self.n0 = max(self.n0, len(kids))
                grown.extend((word + (i,), kid) for i, kid in enumerate(kids))
            frontier = grown
            depth += 1
        ratios = [b / a for a, b in zip(radii, radii[1:])]
        sup = max(ratios) if ratios else 0.0
        if not sup < 1:
            raise ValueError("levels do not shrink")
        self._level_radii = radii
        return sup

    def band(self, radius: float) -> Optional[int]:
        """Index n of the radius band, or None while waiting or below the tree."""
        root_radius = self.sys.root.radius
        if radius > root_radius:
            return None
        radii = self._level_radii
        ratio = self._ratio
        for n in range(_BAND_LIMIT):
            if n + 1 == len(radii):
                if ratio is None:
                    return None  # below the finite tree's last level
                radii.append(root_radius * ratio ** (n + 1))
            if radius >= radii[n + 1]:
                return n
        raise RuntimeError("radius band search did not terminate")

    def words_meeting(self, ball: Ball, level: int) -> List[Word]:
        """Words of the given length whose balls intersect the ball."""
        sys = self.sys
        root = sys.root
        x, r = ball.center, ball.radius
        if len(x) != len(root.center):
            raise ValueError(f"dimension mismatch: {len(root.center)} vs {len(x)}")
        dist = distance_kernel(sys.norm)
        if dist(root.center, x) > root.radius + r:
            return []
        axes = sys.corner_axes()
        child_block = sys.child_block
        words = [ROOT]
        for _ in range(level):
            grown: List[Word] = []
            for word in words:
                centers, radii = child_block(word)
                if axes is None:
                    for i, c in enumerate(centers):
                        if dist(c, x) <= radii[i] + r:
                            grown.append(word + (i,))
                else:
                    cells = _corner_cells_meeting(centers, radii[0] + r, x, axes[0].n)
                    grown.extend([word + (j,) for j in cells])
            words = grown
            if not words:
                break
        return words

    def respond(self, ball: Ball) -> AliceMove:
        n = self.band(ball.radius)
        if n is None or n in self._answered:
            return AliceMove()
        self._answered.add(n)
        words = self.words_meeting(ball, n)
        if len(words) > self.kappa:
            raise RuntimeError(
                f"{len(words)} level-{n} balls meet the move, over the packing bound "
                f"{self.kappa}"
            )
        if not words:
            return AliceMove()
        holes = [_hole_enclosure(self.sys, word) for word in words]
        budget = ball.radius / self.tau
        worst = max(h.lo for h in holes)
        if worst > budget * (1 + _REF_TOL):
            raise RuntimeError(
                f"hole radius at least {worst:.6g} exceeds the erase budget "
                f"{budget:.6g}; the thickness hypothesis fails here"
            )
        rho_erase = min(max(h.hi for h in holes), budget)
        if rho_erase <= 0:
            return AliceMove()
        spheres: List[Sphere] = []
        for word, h in zip(words, holes):
            spheres.extend(_h_spheres(self.sys, word, h.hi))
        union = SphereUnion(tuple(spheres), m_bound=self.sphere_budget)
        return AliceMove((Erasure(union, rho_erase),))


def _corner_cells_meeting(
    centers: Sequence[Point], reach: float, x: Point, n: int
) -> List[int]:
    """Indices, ascending, of the children of a corner block within max-norm
    distance reach of x.

    Child j's axis-i coordinate is centers[k * n**i][i] with k the axis-i
    digit of j. A float max is exact, so max_i |c_i - x_i| <= reach holds
    exactly when every axis passes: the children found are the products of
    the passing digits, n * d comparisons in place of n**d distances.
    """
    found = [0]
    stride = 1  # n**i
    for i, xi in enumerate(x):
        steps = [k * stride for k in range(n) if abs(centers[k * stride][i] - xi) <= reach]
        if not steps:
            return []
        found = [s + j for s in steps for j in found]
        stride *= n
    return found


def alice_strategy(
    sys: BallSystem,
    tau: float,
    beta: float,
    *,
    kappa_value: Optional[int] = None,
) -> AliceStrategy:
    """Build the covering responder after verifying the structural hypotheses."""
    return AliceStrategy(sys, tau, beta, kappa_value)


def proposition_params(
    sys: BallSystem,
    tau: float,
    beta: float,
    *,
    kappa_value: Optional[int] = None,
) -> GameParams:
    """Parameters under which the covering strategy is a legal single-erase player."""
    handle = AliceStrategy(sys, tau, beta, kappa_value)
    return GameParams(
        alpha=1.0 / tau,
        beta=beta,
        c=0.0,
        rho=beta * sys.root.radius,
        M=handle.sphere_budget,
        dimension=sys.dimension,
        norm=sys.norm,
    )


BobStrategy = Callable[[Optional[Ball], GameParams, random.Random], Ball]


def _random_offset(span: float, d: int, norm: NormKind, rng: random.Random) -> Point:
    if norm is NormKind.LINF:
        return tuple(span * (2 * rng.random() - 1) for _ in range(d))
    raw = [rng.gauss(0.0, 1.0) for _ in range(d)]
    size = vector_size(raw, norm) or 1.0
    reach = span * rng.random()
    return tuple(reach * v / size for v in raw)


def random_legal_bob(sys: BallSystem) -> BobStrategy:
    """Seeded wanderer; every move is legal by construction with a 0.1% margin."""
    root = sys.root

    def move(prev: Optional[Ball], params: GameParams, rng: random.Random) -> Ball:
        if prev is None:
            if root.radius > params.rho:
                radius = params.rho + (root.radius - params.rho) * rng.random()
            else:
                radius = params.rho
            span = max(root.radius - radius, 0.0) * 0.999
            offset = _random_offset(span, sys.dimension, sys.norm, rng)
            return Ball(tuple(c + o for c, o in zip(root.center, offset)), radius)
        top = max(params.beta, 0.9)
        factor = params.beta + (top - params.beta) * rng.random()
        radius = prev.radius * factor
        span = (prev.radius - radius) * 0.999
        offset = _random_offset(span, sys.dimension, sys.norm, rng)
        return Ball(tuple(c + o for c, o in zip(prev.center, offset)), radius)

    return move


def _seeking_bob(sys: BallSystem, target: Point) -> BobStrategy:
    def move(prev: Optional[Ball], params: GameParams, rng: random.Random) -> Ball:
        if prev is None:
            return Ball(target, params.rho)
        factor = max(params.beta, 0.5)
        radius = prev.radius * factor
        span = (prev.radius - radius) * 0.999
        gap = norm_distance(target, prev.center, sys.norm)
        if gap <= span:
            center = target
        else:
            center = tuple(
                c + (t - c) * span / gap for c, t in zip(prev.center, target)
            )
        return Ball(center, radius)

    return move


def corner_seeking_bob(sys: BallSystem) -> BobStrategy:
    """Dives toward the most positive corner of the root ball."""
    target = tuple(c + sys.root.radius for c in sys.root.center)
    return _seeking_bob(sys, target)


def hole_seeking_bob(sys: BallSystem) -> BobStrategy:
    """Dives toward the root center, a gap point in centrally split families."""
    return _seeking_bob(sys, sys.root.center)


def play(
    sys: BallSystem,
    bob: BobStrategy,
    params: GameParams,
    max_turns: int = 500,
    seed: int = 0,
) -> GameTranscript:
    """Run one match against the covering strategy and classify the outcome.

    The match stops once Bob's radius drops below 1e-9 or after
    max_turns. A vanished-radius outcome is labeled in_target when the
    final center is certifiably near the set or outside the root ball,
    erased when it lies in one of Alice's erased neighborhoods, and the
    match is labeled radius_not_vanishing at truncation. Illegal moves
    end the match immediately with the offending side in the label.
    """
    if params.dimension != sys.dimension:
        raise ValueError("params and system disagree on the dimension")
    if params.norm is not sys.norm:
        raise ValueError("params and system disagree on the norm")
    if max_turns < 1:
        raise ValueError("max_turns must be at least 1")
    rng = random.Random(seed)
    alice = AliceStrategy(sys, 1.0 / params.alpha, params.beta)
    moves: List[Move] = []
    prev: Optional[Ball] = None
    vanished = False
    for _ in range(max_turns):
        ball = bob(prev, params, rng)
        bob_move = BobMove(ball)
        verdict = referee(bob_move, moves, params)
        moves.append(bob_move)
        if not verdict.legal:
            out = prev.center if prev is not None else sys.root.center
            return GameTranscript(params, tuple(moves), out, "illegal_bob")
        alice_move = alice.respond(ball)
        verdict = referee(alice_move, moves, params)
        moves.append(alice_move)
        if not verdict.legal:
            return GameTranscript(params, tuple(moves), ball.center, "illegal_alice")
        prev = ball
        if ball.radius < _RADIUS_FLOOR:
            vanished = True
            break
    assert prev is not None
    if not vanished:
        return GameTranscript(params, tuple(moves), prev.center, "radius_not_vanishing")
    label = _classify(sys, moves, prev.center, prev.radius)
    return GameTranscript(params, tuple(moves), prev.center, label)


def _classify(sys: BallSystem, moves: Sequence[Move], x: Point, rho_f: float) -> str:
    norm = sys.norm
    if norm_distance(x, sys.root.center, norm) > sys.root.radius + rho_f:
        return "in_target"
    enclosure = dist_to_set(x, sys, max(rho_f, 1e-12))
    if enclosure.lo <= 4 * rho_f:
        return "in_target"
    slack = rho_f + _ERASE_SLACK
    for move in moves:
        if not isinstance(move, AliceMove):
            continue
        for erasure in move.erased:
            reach = min(
                dist_point_sphere(x, sphere, norm)
                for sphere in erasure.spheres.spheres
            )
            if reach <= erasure.rho + slack:
                return "erased"
    raise RuntimeError(
        "outcome is neither near the set nor inside an erased region; the "
        "winning property fails at this truncation"
    )


def play_batch(
    sys: BallSystem,
    bob: BobStrategy,
    params: GameParams,
    seeds: Sequence[int],
    *,
    max_turns: int = 500,
) -> List[GameTranscript]:
    """Replayable batch: each seed yields the same transcript every time."""
    return [play(sys, bob, params, max_turns, seed) for seed in seeds]


def transcript_to_jsonl(transcript: GameTranscript) -> str:
    """One move per line; Bob and Alice of the same turn share a turn index."""
    lines: List[str] = []
    turn = 0
    for move in transcript.moves:
        if isinstance(move, BobMove):
            lines.append(
                json.dumps(
                    {
                        "turn": turn,
                        "player": "bob",
                        "ball": {
                            "center": list(move.ball.center),
                            "radius": move.ball.radius,
                        },
                    }
                )
            )
        else:
            lines.append(
                json.dumps(
                    {
                        "turn": turn,
                        "player": "alice",
                        "erased": [
                            {
                                "spheres": [
                                    {"center": list(s.center), "radius": s.radius}
                                    for s in erasure.spheres.spheres
                                ],
                                "rho": erasure.rho,
                            }
                            for erasure in move.erased
                        ],
                    }
                )
            )
            turn += 1
    return "\n".join(lines) + "\n"


def map_transcript(
    transcript: GameTranscript, scale: float, shift: Sequence[float]
) -> GameTranscript:
    """Image of a recorded match under x -> scale * x + shift.

    Radii and erase budgets scale together, so the mapped match is legal
    for the same alpha, beta, and c with rho scaled by the ratio.
    """
    if not scale > 0:
        raise ValueError("scale must be positive")
    offset = tuple(float(v) for v in shift)
    if len(offset) != transcript.params.dimension:
        raise ValueError("shift dimension does not match the game")

    def point(p: Point) -> Point:
        return tuple(scale * c + v for c, v in zip(p, offset))

    mapped: List[Move] = []
    for move in transcript.moves:
        if isinstance(move, BobMove):
            mapped.append(BobMove(Ball(point(move.ball.center), scale * move.ball.radius)))
        else:
            mapped.append(
                AliceMove(
                    tuple(
                        Erasure(
                            SphereUnion(
                                tuple(
                                    Sphere(point(s.center), scale * s.radius)
                                    for s in erasure.spheres.spheres
                                ),
                                erasure.spheres.m_bound,
                            ),
                            scale * erasure.rho,
                        )
                        for erasure in move.erased
                    )
                )
            )
    params = replace(transcript.params, rho=scale * transcript.params.rho)
    return GameTranscript(
        params, tuple(mapped), point(transcript.outcome), transcript.classification
    )


@dataclass(frozen=True)
class WinningBound:
    bound: Optional[float]
    condition_met: bool
    k: BfsConstants


def winning_dim_bound(
    alpha: float, beta: float, c: float, d: int, k: BfsConstants = BfsConstants()
) -> WinningBound:
    """Dimension lower bound d - K1 * alpha / |log beta|, gated on its condition."""
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    if not 0 < c < 1:
        raise ValueError("c must lie in (0, 1)")
    if not 0 < beta <= 0.25:
        raise ValueError("beta must lie in (0, 1/4]")
    if d < 1:
        raise ValueError("dimension must be at least 1")
    met = alpha**c <= (1.0 / k.K2) * (1 - beta ** (1 - c))
    bound = d - k.K1 * alpha / abs(math.log(beta)) if met else None
    return WinningBound(bound, met, k)


@dataclass(frozen=True)
class IntersectionBound:
    bound: Optional[float]
    condition_met: bool
    beta0: float
    c0: float
    k: BfsConstants


def intersection_dim_bound(
    taus: Sequence[float],
    c0: float,
    R: float,
    ball_radius: float,
    sup_ratio: float,
    d: int,
    k: BfsConstants = BfsConstants(),
) -> IntersectionBound:
    """Dimension lower bound for the intersection of thick sets sharing a ball."""
    values = [float(t) for t in taus]
    if not values or any(t <= 0 for t in values):
        raise ValueError("thickness values must be positive")
    if not 0 < c0 < 1:
        raise ValueError("c0 must lie in (0, 1)")
    if not R > 0:
        raise ValueError("R must be positive")
    if not ball_radius > 0:
        raise ValueError("ball radius must be positive")
    if d < 1:
        raise ValueError("dimension must be at least 1")
    beta0 = min(0.25, ball_radius / R)
    if sup_ratio > beta0:
        raise ValueError(f"level ratio {sup_ratio:.6g} exceeds beta0 {beta0:.6g}")
    total = math.fsum(t ** (-c0) for t in values)
    met = total <= (1.0 / k.K2) * (1 - beta0 ** (1 - c0))
    bound = (
        d - k.K1 * total ** (1.0 / c0) / (beta0 * abs(math.log(beta0))) if met else None
    )
    return IntersectionBound(bound, met, beta0, c0, k)


def best_intersection_dim_bound(
    taus: Sequence[float],
    R: float,
    ball_radius: float,
    sup_ratio: float,
    d: int,
    k: BfsConstants = BfsConstants(),
    *,
    grid: int = 199,
) -> IntersectionBound:
    """Scan c0 over a uniform grid and keep the best certified bound."""
    if grid < 1:
        raise ValueError("grid must be at least 1")
    best: Optional[IntersectionBound] = None
    for i in range(1, grid + 1):
        c0 = i / (grid + 1)
        report = intersection_dim_bound(taus, c0, R, ball_radius, sup_ratio, d, k)
        if report.condition_met and (best is None or report.bound > best.bound):
            best = report
    if best is None:
        beta0 = min(0.25, ball_radius / R)
        return IntersectionBound(None, False, beta0, math.nan, k)
    return best


def pattern_capacity(tau: float, k: BfsConstants = BfsConstants()) -> int:
    """Largest certified pattern size, the floor of (3/(4 e K2)) tau / log tau."""
    if not tau > math.e:
        raise ValueError("tau must exceed e")
    return math.floor((3.0 / (4.0 * math.e * k.K2)) * tau / math.log(tau))


def pattern_lambda_limit(
    points: Sequence[Sequence[float]],
    root_radius: float,
    norm: NormKind = NormKind.LINF,
) -> float:
    """Endpoint of the admissible scale interval, 3 * radius / (4 * diameter)."""
    pts = [tuple(float(v) for v in p) for p in points]
    if not pts:
        raise ValueError("pattern needs at least one point")
    if not root_radius > 0:
        raise ValueError("root radius must be positive")
    diam = max(
        (norm_distance(a, b, norm) for a in pts for b in pts),
        default=0.0,
    )
    if diam == 0.0:
        return math.inf
    return 3.0 * root_radius / (4.0 * diam)


@dataclass(frozen=True)
class PatternQuery:
    """A scaled finite pattern to look for inside a set of the given root radius."""

    points: Tuple[Point, ...]
    lam: float
    root_radius: float
    norm: NormKind = NormKind.LINF

    def __post_init__(self) -> None:
        pts = tuple(tuple(float(v) for v in p) for p in self.points)
        object.__setattr__(self, "points", pts)
        if not self.lam > 0:
            raise ValueError("lam must be positive")
        limit = pattern_lambda_limit(pts, self.root_radius, self.norm)
        if not self.lam < limit:
            raise ValueError(f"lam must lie below {limit:.6g}")


def _leaf_cover(sys: BallSystem, target_radius: float, max_nodes: int):
    """Node balls refined until all radii drop to the target, as (centers,
    radii, solid): solid flags the childless nodes, which are wholly part
    of the set."""
    import numpy as np

    root = sys.root
    frontier: List[Tuple[Word, Point, float]] = [(ROOT, root.center, root.radius)]
    while True:
        done: List[Tuple[Word, Point, float]] = []
        todo: List[Word] = []
        for node in frontier:
            if node[2] <= target_radius or sys.child_count(node[0]) == 0:
                done.append(node)
            else:
                todo.append(node[0])
        if not todo:
            break
        grown: List[Tuple[Word, Point, float]] = []
        for word in todo:
            centers, radii = sys.child_block(word)
            grown.extend(
                (word + (i,), c, r) for i, (c, r) in enumerate(zip(centers, radii))
            )
        if len(done) + len(grown) > max_nodes:
            raise RuntimeError(f"pattern cover exceeded the node budget {max_nodes}")
        frontier = done + grown
    centers = np.array([c for _, c, _ in frontier], dtype=float)
    radii = np.array([r for _, _, r in frontier], dtype=float)
    solid = np.array([sys.child_count(w) == 0 for w, _, _ in frontier], dtype=bool)
    return centers, radii, solid


def _cover_upper_dist(
    queries: np.ndarray,
    centers: np.ndarray,
    radii: np.ndarray,
    norm: NormKind,
    solid: np.ndarray,
) -> np.ndarray:
    """Upper distance to the set over a node cover: the least over its
    nodes of the distance to the center plus the radius, or for a solid
    node (one with no children, wholly part of the set) the distance to
    its ball, max(0, d - r)."""
    import numpy as np

    offset = np.where(solid, -radii, radii)
    out = np.empty(len(queries))
    block = max(1, 4_000_000 // max(len(centers), 1))
    for start in range(0, len(queries), block):
        dist = row_norms(queries[start : start + block, None, :] - centers[None, :, :], norm)
        out[start : start + block] = (dist + offset[None, :]).min(axis=1)
    # d + r > 0 for the other nodes, so the clamp changes only solid ones
    return np.maximum(out, 0.0, out=out)


def _corner_upper_dist(queries: np.ndarray, axes, tol: float) -> np.ndarray:
    """Upper max-norm distance to a corner product via per-axis descent.

    Each axis stops descending where all its remaining values are at most
    tol / 2 (see _corner1d_dist_batch). A value may then differ from the
    full descent's only while both are at most tol, so every comparison
    against tol comes out as the full descent's.
    """
    import numpy as np

    worst = np.zeros(len(queries))
    for i, axis in enumerate(axes):
        rel = (queries[:, i] - axis.offset) / axis.scale
        stop = 0.5 * tol / abs(axis.scale)
        _, hi = _corner1d_dist_batch(rel, axis.n, axis.ell, stop=stop)
        np.maximum(worst, hi * abs(axis.scale), out=worst)
    return worst


_GRID_CAP = 8_000_000


def pattern_search_oracle(
    sys: BallSystem,
    points: Sequence[Sequence[float]],
    lam: float,
    grid_step: float,
    tol: float,
    *,
    max_nodes: int = 300_000,
) -> List[Point]:
    """Grid scan for translation witnesses of a scaled point pattern.

    A grid point x is accepted only when, for every pattern point b, the
    certified distance from x + lam * b to the set is at most tol, so a
    witness never depends on sampling luck and an empty list is a valid
    result. Corner products are measured by exact per-axis descent, which
    stops once the distances still open are certified below tol / 2;
    other systems use a node cover refined to radius tol / 8, whose
    childless nodes count as solid balls. Any point of the set realizing
    the pattern has a grid point within half a step of it, which certifies
    whenever grid_step / 2 plus the cover fuzz stays at most tol.
    """
    import numpy as np

    pts = [tuple(float(v) for v in p) for p in points]
    if not pts:
        raise ValueError("pattern needs at least one point")
    if any(len(p) != sys.dimension for p in pts):
        raise ValueError("pattern dimension does not match the system")
    limit = pattern_lambda_limit(pts, sys.root.radius, sys.norm)
    if not 0 < lam < limit:
        raise ValueError(f"lam must lie in (0, {limit:.6g})")
    if not grid_step > 0:
        raise ValueError("grid step must be positive")
    if not tol > 0:
        raise ValueError("tol must be positive")
    root = sys.root
    axes = sys.corner_axes()
    if axes is None:
        centers, radii, solid = _leaf_cover(sys, tol / 8.0, max_nodes)

        def upper(q: np.ndarray) -> np.ndarray:
            return _cover_upper_dist(q, centers, radii, sys.norm, solid)

    else:

        def upper(q: np.ndarray) -> np.ndarray:
            return _corner_upper_dist(q, axes, tol)

    grid_axes = [
        np.arange(c - root.radius, c + root.radius + grid_step / 2, grid_step)
        for c in root.center
    ]
    total = math.prod(len(a) for a in grid_axes)
    if total > _GRID_CAP:
        raise RuntimeError("pattern grid exceeds the size cap; coarsen grid_step")
    mesh = np.meshgrid(*grid_axes, indexing="ij")
    grid = np.stack([m.ravel() for m in mesh], axis=1)
    keep = np.ones(len(grid), dtype=bool)
    for b in pts:
        live = np.flatnonzero(keep)
        shifted = grid[live] + lam * np.asarray(b, dtype=float)[None, :]
        keep[live[upper(shifted) > tol]] = False
        if not keep.any():
            break
    return list(map(tuple, grid[keep].tolist()))
