"""Acceptance checks, one per shipped guarantee.

Every test exercises one end-to-end contract at its stated tolerance and
prints a single criterion line on success. Running the file as a script
executes the same twelve checks without pytest and prints one PASS or
FAIL line each.
"""

import json
import math
import random
import tempfile
import time
from fractions import Fraction
from pathlib import Path

from pytest import approx

from thickgap import (
    Ball,
    BfsConstants,
    CornerFamilyParams,
    GapList1D,
    Sphere,
    SphereUnion,
    check_hypotheses,
    corner_family,
    corner_stats,
    denseness_check,
    dim_lower_bound,
    directional_distance_certificate,
    dist_to_set,
    from_gaps_1d,
    hole_radius,
    intersect,
    intersection_dim_bound,
    moran_exponent,
    natural_measure,
    newhouse_thickness,
    pattern_capacity,
    pattern_search_oracle,
    perturbation_bound,
    perturbed_image,
    play_batch,
    proposition_params,
    random_legal_bob,
    referee,
    thickness,
    translate,
    winning_dim_bound,
)
from thickgap.cli import main as cli_main
from thickgap.game import AliceMove, BobMove, Erasure


def _passed(num: int, detail: str) -> None:
    print(f"criterion {num:02d} PASS: {detail}")


def test_criterion_01_corner_thickness_closed_forms():
    details = []
    for n, ell, d in [(4, 2.0 / 5.0, 2), (2, 2.0 / 3.0, 1), (10, 0.19, 2)]:
        closed = ell * (n - 1) / (2 - n * ell)
        start = time.monotonic()
        rep = thickness(corner_family(CornerFamilyParams(n, ell, d)), 5, 1e-3)
        elapsed = time.monotonic() - start
        width = rep.overall.hi - rep.overall.lo
        assert rep.overall.lo <= closed <= rep.overall.hi
        assert width <= 0.1
        assert elapsed <= 60.0
        details.append(f"({n},{ell:.4g},{d}) contains {closed:.6g}, width {width:.1e}")
    _passed(1, "; ".join(details))


def test_criterion_02_root_hole_radius():
    sys = corner_family(CornerFamilyParams(4, 2.0 / 5.0, 2))
    iv = hole_radius((), sys, 1e-4)
    target = 1.0 / 15.0
    assert iv.lo <= target <= iv.hi
    assert abs(iv.lo - target) <= 1e-3
    assert abs(iv.hi - target) <= 1e-3
    _passed(2, f"root hole enclosure [{iv.lo:.10f}, {iv.hi:.10f}] contains 1/15")


def _random_gap_list(rng: random.Random, gap_count: int) -> GapList1D:
    """Layout with every gap and bridge at least 0.08 long.

    The floor keeps every node's hole radius at least 0.04, which caps
    the exact-path enclosure width safely below the 1e-9 budget.
    """
    pieces = 2 * gap_count + 1
    floor = 0.08
    weights = [rng.random() + 0.05 for _ in range(pieces)]
    spare = 1.0 - floor * pieces
    total = math.fsum(weights)
    lengths = [floor + spare * w / total for w in weights]
    edges = [0.0]
    for length in lengths:
        edges.append(edges[-1] + length)
    gaps = tuple((edges[2 * i + 1], edges[2 * i + 2]) for i in range(gap_count))
    return GapList1D((0.0, 1.0), gaps)


def test_criterion_03_one_dimensional_thickness_equivalence():
    start = time.monotonic()
    worst_mid, worst_width = 0.0, 0.0
    for seed in range(20):
        rng = random.Random(seed)
        gl = _random_gap_list(rng, rng.randrange(1, 4))
        classical = newhouse_thickness(gl)
        rep = thickness(from_gaps_1d(gl), 12, 1e-12)
        mid = 0.5 * (rep.overall.lo + rep.overall.hi)
        worst_mid = max(worst_mid, abs(classical - mid))
        worst_width = max(worst_width, rep.overall.hi - rep.overall.lo)
        assert abs(classical - mid) <= 1e-9
        assert rep.overall.hi - rep.overall.lo <= 1e-9
    elapsed = time.monotonic() - start
    assert elapsed <= 5.0
    _passed(
        3,
        f"20 instances, max |classical - midpoint| {worst_mid:.1e}, "
        f"max width {worst_width:.1e}, {elapsed:.2f}s",
    )


def _corner1d_descent(
    x: float, shift: float, n: int, ell: float, precision: float = 1e-8
):
    """Distance from x to a shifted 1-D corner set by endpoint-pruned descent.

    Cells are interval hulls; both endpoints of every cell belong to the
    set, so the minimum endpoint distance is always a valid upper bound
    and cells farther than it can be dropped. The walk stops once the
    enclosure is tighter than the requested precision; descending past
    that point would re-admit every child of cells narrower than the
    bound. Written against the construction directly, sharing no code
    with the library oracles.
    """
    y = x - shift
    cells = [(-1.0, 1.0)]
    upper = min(abs(y + 1.0), abs(y - 1.0))
    lower = 0.0
    while upper - lower > precision:
        grown = []
        for lo, hi in cells:
            length = hi - lo
            child = length * ell / 2.0
            pitch = (length - child) / (n - 1)
            for i in range(n):
                clo = lo + i * pitch
                chi = clo + child
                upper = min(upper, abs(y - clo), abs(y - chi))
                if clo <= y <= chi:
                    gap = 0.0
                else:
                    gap = min(abs(y - clo), abs(y - chi))
                if gap <= upper:
                    grown.append((clo, chi))
        if not grown:
            return upper, upper
        cells = grown
        lower = min(
            0.0 if lo <= y <= hi else min(abs(y - lo), abs(y - hi))
            for lo, hi in cells
        )
    return lower, upper


def test_criterion_04_intersection_certificate_end_to_end():
    start = time.monotonic()
    sys1 = corner_family(CornerFamilyParams(10, 0.19, 2))
    shift = (0.05, 0.02)
    sys2 = translate(sys1, shift)
    r = 0.19556
    report = check_hypotheses(sys1, sys2, r)
    assert report.all_proven
    cert = intersect(sys1, sys2, r, 1e-6, 400)
    assert cert.residual1.hi <= 1e-6
    assert cert.residual2.hi <= 1e-6
    for offsets in ((0.0, 0.0), shift):
        worst_hi = 0.0
        for axis in range(2):
            lo, hi = _corner1d_descent(cert.witness[axis], offsets[axis], 10, 0.19)
            assert hi - lo <= 1e-7
            worst_hi = max(worst_hi, hi)
        assert worst_hi <= 1e-6
    for prev, step in zip(cert.trace, cert.trace[1:]):
        assert step.radius <= r * prev.radius * (1 + 1e-12)
    elapsed = time.monotonic() - start
    assert elapsed <= 60.0
    _passed(
        4,
        f"hypotheses proven, witness {tuple(round(w, 6) for w in cert.witness)}, "
        f"residuals <= {max(cert.residual1.hi, cert.residual2.hi):.1e}, "
        f"trace contracts by <= {r}, {elapsed:.2f}s",
    )


def test_criterion_05_directional_distance_certificates():
    start = time.monotonic()
    sys = corner_family(CornerFamilyParams(10, 0.19, 2))
    r = 0.19556
    certified = 0
    for k in range(16):
        theta = 2.0 * math.pi * k / 16.0
        raw = (math.cos(theta), math.sin(theta))
        scale = max(abs(raw[0]), abs(raw[1]))
        v = (raw[0] / scale, raw[1] / scale)
        for i in range(8):
            t = 0.642 * sys.root.radius * i / 7.0
            cert = directional_distance_certificate(sys, v, t, 1e-7, r=r)
            replayed = max(
                abs(e1 - e2 - t * vj) for e1, e2, vj in zip(cert.e1, cert.e2, v)
            )
            assert replayed <= 1e-6
            certified += 1
    elapsed = time.monotonic() - start
    assert certified == 128
    assert elapsed <= 120.0
    _passed(5, f"128/128 certificates, replayed residuals <= 1e-6, {elapsed:.2f}s")


def test_criterion_06_denseness_verdicts_are_exact():
    sys = corner_family(CornerFamilyParams(4, 2.0 / 5.0, 2))
    r_dense = corner_stats(4, 2.0 / 5.0, 2).r_dense
    assert r_dense == approx(7.0 / 15.0, rel=1e-12)
    # r_dense is the exact family's threshold; the float tree is dense from
    # one float above it on, and at it a ball misses every child
    r_proven = math.nextafter(r_dense, 1.0)
    assert r_proven == 0.46666666666666673
    proven = denseness_check(sys, r_proven, 1e-3, 3)
    at_dense = denseness_check(sys, r_dense, 1e-3, 3)
    refuted = denseness_check(sys, 0.15, 1e-3, 3)
    assert proven.verdict == "proven"
    assert at_dense.verdict == "refuted" and refuted.verdict == "refuted"
    assert at_dense.witness == Ball((0.5333333333333333, 0.0), 0.4666666666666667)
    # checked exactly: the witness lies in the root and holds no child
    x, rho = [Fraction(v) for v in at_dense.witness.center], Fraction(at_dense.witness.radius)
    assert rho >= Fraction(r_dense) and max(map(abs, x)) + rho <= 1
    for c, rk in zip(*sys.child_block(())):
        assert max(abs(a - Fraction(b)) for a, b in zip(x, c)) > rho - Fraction(rk)
    witness = refuted.witness
    assert witness is not None
    assert witness.radius >= 0.15 * sys.root.radius * (1 - 1e-12)
    for _, child in sys.walk(1):
        if child is sys.root:
            continue
        reach = max(abs(a - b) for a, b in zip(child.center, witness.center))
        assert reach + child.radius > witness.radius
    _passed(
        6,
        f"r={r_proven!r} proven, r_dense={r_dense!r} refuted with witness ball at "
        f"{at_dense.witness.center}, r=0.15 refuted with witness ball at "
        f"{witness.center} radius {witness.radius}, no unknowns",
    )


def test_criterion_07_moran_exponent_and_natural_measure():
    for count, ratio in [(2, 0.25), (4, 0.2), (10, 0.095), (3, 1.0 / 3.0)]:
        solved = moran_exponent((ratio,) * count, 1).exponent
        hand = math.log(count) / math.log(1.0 / ratio)
        assert abs(solved - hand) <= 1e-10

    for sys in (
        corner_family(CornerFamilyParams(4, 2.0 / 5.0, 1)),
        from_gaps_1d(GapList1D((0.0, 1.0), ((1.0 / 3.0, 2.0 / 3.0),))),
    ):
        measure = natural_measure(sys, 6)
        for word, _ in sys.walk(5):
            kids = sys.children(word)
            if not kids:
                continue
            parts = math.fsum(
                measure.mass(word + (i,)) for i in range(len(kids))
            )
            assert abs(measure.mass(word) - parts) <= 1e-12

    square = corner_family(CornerFamilyParams(4, 2.0 / 5.0, 2))
    beta = moran_exponent((0.2,) * 4, 1).exponent
    masses = natural_measure(square, 4)
    for word in [(), (0,), (5,), (15,), (0, 0), (3, 7), (15, 15, 15), (1, 2, 4, 8)]:
        ball = square.ball(word)
        rel = ball.radius / square.root.radius
        assert masses.mass(word) <= rel ** (2 * beta) * (1 + 1e-9)
    _passed(
        7,
        "equal-ratio exponents match log M / log(1/rho) at 1e-10, "
        "measure additivity holds at 1e-12 to depth 6, mass bound spot checks pass",
    )


def test_criterion_08_dimension_formula_and_caveat():
    base = dim_lower_bound(1, 1, 2)
    assert base == approx(0.5, abs=1e-12)
    assert base <= math.log(2) / math.log(3)
    assert dim_lower_bound(1, 2, 2) > base
    assert dim_lower_bound(1, 1, 4) > base
    assert dim_lower_bound(3, 1e9, 2) == approx(3.0, abs=1e-6)

    out = Path(tempfile.mkdtemp()) / "dims.json"
    code = cli_main(["dims", "2", "3", "16", "--out", str(out)])
    payload = json.loads(out.read_text())
    assert code == 0
    assert payload["caveat"] and "d >= 2" in payload["caveat"]
    assert payload["formula_bound"] == approx(1.8119891396860677, abs=1e-9)
    assert payload["formula_bound"] > math.log(16) / math.log(5)
    _passed(
        8,
        f"formula value 0.5 <= log2/log3, limits hold, caveat emitted for "
        f"(2, 3, 16) -> {payload['formula_bound']:.6f}",
    )


def test_criterion_09_perturbed_thickness_lower_bound():
    start = time.monotonic()

    def bump(p):
        x, y = p
        return (x + 0.003 * math.sin(y), y + 0.003 * math.cos(x))

    base = corner_family(CornerFamilyParams(4, 2.0 / 5.0, 2))
    rep = thickness(perturbed_image(base, bump, 0.01), 5, 0.05)
    threshold = perturbation_bound(3.0, 0.01, 0.2) - 0.05
    assert threshold == approx(2.263, abs=1e-4)
    assert rep.overall.lo >= threshold
    elapsed = time.monotonic() - start
    assert elapsed <= 120.0
    _passed(
        9,
        f"perturbed lower end {rep.overall.lo:.4f} >= {threshold:.4f}, {elapsed:.2f}s",
    )


def _inject_violation(moves, params, rng: random.Random, kind: int) -> bool:
    """Splice one oversized rule break into a legal transcript prefix.

    Returns True when the referee flags the spliced move as illegal.
    """
    bob_positions = [i for i in range(2, len(moves), 2)]
    pos = bob_positions[rng.randrange(len(bob_positions))]
    ball = moves[pos].ball
    if kind == 0:
        prefix = list(moves[:pos])
        bad = BobMove(Ball(ball.center, 0.1 * params.beta * moves[pos - 2].ball.radius))
    elif kind == 1:
        prev = moves[pos - 2].ball
        center = (prev.center[0] + 2.0 * prev.radius,) + tuple(prev.center[1:])
        prefix = list(moves[:pos])
        bad = BobMove(Ball(center, params.beta * prev.radius))
    else:
        prefix = list(moves[: pos + 1])
        sphere = Sphere(ball.center, ball.radius / 2.0)
        if kind == 2:
            bad = AliceMove(
                (
                    Erasure(
                        SphereUnion((sphere,), 1),
                        1.5 * params.alpha * ball.radius,
                    ),
                )
            )
        elif kind == 3:
            tiny = 0.01 * params.alpha * ball.radius
            bad = AliceMove(
                (
                    Erasure(SphereUnion((sphere,), 1), tiny),
                    Erasure(SphereUnion((sphere,), 1), tiny),
                )
            )
        else:
            crowd = tuple(
                Sphere(ball.center, ball.radius * (0.3 + 0.001 * j))
                for j in range(params.M + 1)
            )
            bad = AliceMove(
                (
                    Erasure(
                        SphereUnion(crowd, params.M + 1),
                        0.01 * params.alpha * ball.radius,
                    ),
                )
            )
    return not referee(bad, prefix, params).legal


def test_criterion_10_game_simulation_and_referee():
    start = time.monotonic()
    sys = corner_family(CornerFamilyParams(4, 2.0 / 5.0, 2))
    params = proposition_params(sys, 3.0, 0.2)
    assert params.alpha == approx(1.0 / 3.0, rel=1e-12)
    results = play_batch(sys, random_legal_bob(sys), params, range(100))
    assert len(results) == 100
    flagged = 0
    for seed, match in enumerate(results):
        assert match.classification in {"in_target", "erased"}
        last_radius = None
        history = []
        for move in match.moves:
            assert referee(move, history, params).legal
            if isinstance(move, BobMove):
                last_radius = move.ball.radius
            else:
                for erase in move.erased:
                    budget = params.alpha * last_radius
                    assert erase.rho <= budget * (1 + 1e-9)
            history.append(move)
        rng = random.Random(1000 + seed)
        if _inject_violation(list(match.moves), params, rng, seed % 5):
            flagged += 1
    elapsed = time.monotonic() - start
    assert flagged == 100
    assert elapsed <= 120.0
    _passed(
        10,
        f"100/100 matches classified, budget respected every move, "
        f"100/100 injected violations flagged, {elapsed:.2f}s",
    )


def test_criterion_11_bound_calculators_hand_values():
    k = BfsConstants(1.0, 1.0)

    winning = winning_dim_bound(0.1, 0.25, 0.5, 2, k)
    hand_winning = 2.0 - 1.0 * 0.1 / abs(math.log(0.25))
    assert winning.condition_met
    assert abs(winning.bound - hand_winning) <= 1e-9

    crossing = intersection_dim_bound([17.1, 17.1], 0.5, 1.0, 0.25, 0.095, 2, k)
    total = math.fsum(tau**-0.5 for tau in (17.1, 17.1))
    hand_crossing = 2.0 - 1.0 * total ** (1.0 / 0.5) / (0.25 * abs(math.log(0.25)))
    assert crossing.condition_met
    assert crossing.beta0 == approx(0.25, rel=1e-12)
    assert abs(crossing.bound - hand_crossing) <= 1e-9

    capacity = pattern_capacity(1000.0, k)
    hand_capacity = math.floor(3.0 / (4.0 * math.e * 1.0) * 1000.0 / math.log(1000.0))
    assert capacity == hand_capacity == 39
    _passed(
        11,
        f"winning {winning.bound:.12f}, intersection {crossing.bound:.12f}, "
        f"capacity {capacity}, all within 1e-9 of hand arithmetic",
    )


def test_criterion_12_pattern_witness_search():
    start = time.monotonic()
    sys = corner_family(CornerFamilyParams(10, 0.19, 1))
    pattern = [(0.0,), (1.0,), (2.0,)]
    witnesses = pattern_search_oracle(sys, pattern, 0.05, 1e-6, 1e-6)
    elapsed = time.monotonic() - start
    assert len(witnesses) >= 1
    assert elapsed <= 60.0
    stride = max(1, len(witnesses) // 50)
    checked = 0
    for w in witnesses[::stride]:
        for b in pattern:
            q = tuple(wi + 0.05 * bi for wi, bi in zip(w, b))
            iv = dist_to_set(q, sys, 1e-7)
            assert iv.hi <= 1e-6 + 1e-9
        checked += 1
    _passed(
        12,
        f"{len(witnesses)} witnesses in {elapsed:.2f}s, "
        f"{checked} re-verified with all three memberships <= 1e-6",
    )


_CRITERIA = [
    test_criterion_01_corner_thickness_closed_forms,
    test_criterion_02_root_hole_radius,
    test_criterion_03_one_dimensional_thickness_equivalence,
    test_criterion_04_intersection_certificate_end_to_end,
    test_criterion_05_directional_distance_certificates,
    test_criterion_06_denseness_verdicts_are_exact,
    test_criterion_07_moran_exponent_and_natural_measure,
    test_criterion_08_dimension_formula_and_caveat,
    test_criterion_09_perturbed_thickness_lower_bound,
    test_criterion_10_game_simulation_and_referee,
    test_criterion_11_bound_calculators_hand_values,
    test_criterion_12_pattern_witness_search,
]


if __name__ == "__main__":
    failures = 0
    for number, check in enumerate(_CRITERIA, start=1):
        try:
            check()
        except Exception as exc:
            failures += 1
            print(f"criterion {number:02d} FAIL: {exc!r}")
    raise SystemExit(1 if failures else 0)
