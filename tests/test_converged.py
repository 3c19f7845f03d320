"""One meaning of `converged`, and NaN refused where a `<=` test passed it.

Every enclosure says converged exactly when it is at most its tolerance
wide, not (hi - lo > tol), so that [inf, inf] counts as exact; a report's
flag is its overall enclosure's, and a hypotheses report is all proven
when its five verdicts are. No producer sets either flag, so the property
below holds by construction; it pins the contract across every route.
"""

import math
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from thickgap import cli, metrics
from thickgap.ballsystem import (
    CornerFamilyParams,
    GapList1D,
    HomotheticIFS,
    corner_family,
    from_gaps_1d,
    from_ifs,
    perturbed_image,
    similarity_image,
    translate,
)
from thickgap.dimension import dim_lower_bound
from thickgap.game import intersection_dim_bound
from thickgap.gaplemma import (
    check_hypotheses,
    directional_distance_certificate,
    find_point_in,
    intersect,
)
from thickgap.geometry import Ball, IntervalBound, NormKind
from thickgap.metrics import dist_to_set, hole_radius, thickness
from thickgap.selfsimilar import homothetic_h0_upper, perturbation_bound

SPECS = Path(__file__).resolve().parents[1] / "bench" / "specs"
BUDGET = 100  # every search's node budget: enclosures out of budget are drawn too
DEPTH = 3

# bench/specs/ifs_l2.json: four disks of ratio 0.3 at (+-0.45, +-0.45)
IFS_L2 = tuple((0.3, (x, y)) for x in (-0.45, 0.45) for y in (-0.45, 0.45))


def test_interval_bound_works_out_its_flag():
    assert IntervalBound(0.0, 1.0, 1.0).converged
    assert not IntervalBound(0.0, 1.0, 0.5).converged
    assert IntervalBound(math.inf, math.inf, 0.0).converged
    assert not IntervalBound(0.0, math.inf, 1e300).converged
    with pytest.raises(TypeError):
        IntervalBound(0.0, 1.0, 0.1, converged=True)
    for lo, hi, tol in [(math.nan, 1.0, 0.1), (0.0, math.nan, 0.1), (0.0, 1.0, math.nan)]:
        with pytest.raises(ValueError):
            IntervalBound(lo, hi, tol)


def _obeys(iv, tol):
    assert iv.tol == tol
    assert iv.converged == (not iv.hi - iv.lo > tol), iv


def _warp(p):
    return tuple(x + 0.01 * math.sin(3 * x + k) for k, x in enumerate(p))


def _build(base, image):
    """The system a drawn case names: base is ("corner", n, ell, d),
    ("ifs", norm, maps) or ("gaps", gaps); image is ("none",),
    ("similarity", pre-shift, scale, shift) or ("perturbed", eps)."""
    if base[0] == "corner":
        sys = corner_family(CornerFamilyParams(*base[1:]))
    elif base[0] == "ifs":
        sys = from_ifs(HomotheticIFS(base[2]), NormKind(base[1]))
    else:
        sys = from_gaps_1d(GapList1D((-1.0, 1.0), base[1]))
    if image[0] == "similarity":
        return similarity_image(translate(sys, image[1]), image[2], image[3])
    if image[0] == "perturbed":
        return perturbed_image(sys, _warp, eps=image[1])
    return sys


@st.composite
def _bases(draw):
    """A base system as _build reads it, and its dimension."""
    kind = draw(st.sampled_from(["corner", "ifs", "gaps"]))
    d = 1 if kind == "gaps" else draw(st.integers(1, 2))
    if kind == "corner":
        n = draw(st.integers(2, 6))
        return ("corner", n, draw(st.floats(0.1, 0.95)) * 2 / n, d), d
    if kind == "ifs":
        maps = []
        for _ in range(draw(st.integers(1, 4))):
            lam = draw(st.floats(0.05, 0.4))
            reach = (1 - lam) / d  # keeps the map inside the unit ball of every norm
            maps.append((lam, tuple(draw(st.floats(-reach, reach)) for _ in range(d))))
        return ("ifs", draw(st.sampled_from(["linf", "l2", "l1"])), tuple(maps)), d
    cuts = sorted(draw(st.sets(st.floats(-0.99, 0.99), min_size=2, max_size=8)))
    assume(all((b - a) / 2 > 0 for a, b in zip(cuts, cuts[1:])))
    return ("gaps", tuple(zip(cuts[::2], cuts[1::2]))), d


@st.composite
def _images(draw, d):
    kind = draw(st.sampled_from(["none", "similarity", "perturbed"]))
    if kind == "similarity":
        shifts = [tuple(draw(st.floats(-2.0, 2.0)) for _ in range(d)) for _ in range(2)]
        return ("similarity", shifts[0], draw(st.floats(1 / 32, 64.0)), shifts[1])
    if kind == "perturbed":
        return ("perturbed", draw(st.floats(1e-3, 0.05)))
    return ("none",)


@st.composite
def _cases(draw):
    base, d = draw(_bases())
    image = draw(_images(d))
    if image[0] == "perturbed" and base[0] == "ifs":
        base = ("ifs", "linf", base[2])  # perturbed images are Linf only
    # x is center + radius * offset
    offset = tuple(draw(st.floats(-1.5, 1.5)) for _ in range(d))
    tol = draw(st.sampled_from([1e-2, 1e-6, 1e-12, 1e-200]))
    return base, image, offset, tol, draw(st.floats(0.05, 0.45))


# the 8.1e-15-wide corner distance at tol 1e-200
@example((("corner", 10, 0.19, 2), ("none",), (0.3, 0.1), 1e-200, 0.2))
# gapcheck on bench/specs/ifs_l2.json at r = 0.2: a 1.15e-3-wide lhs at tol 1e-3
@example((("ifs", "l2", IFS_L2), ("none",), (0.0, 0.0), 1e-6, 0.2))
# a 4.3e-12-wide overall at tol 1e-12 that was flagged apart from its report
@example(
    (("corner", 2, 0.9637783263070814, 1), ("similarity", (-2.0,), 43.0, (2.0,)), (0.5,), 1e-12, 0.2)
)
# a hole search whose best box bound fell below a value found later
@example(
    (("gaps", ((-0.921875, 0.0), (0.015625, 0.984375))), ("perturbed", 0.015625), (0.0,), 0.01, 0.25)
)
@settings(max_examples=40, deadline=None)
@given(case=_cases())
def test_every_enclosure_is_converged_exactly_within_its_tolerance(case):
    base, image, offset, tol, r = case
    sys = _build(base, image)
    root = sys.root
    x = tuple(c + root.radius * o for c, o in zip(root.center, offset))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "NODE_BUDGET", BUDGET)
        _obeys(dist_to_set(x, sys, tol), tol)
        _obeys(hole_radius((), sys, tol), tol)
        report = thickness(sys, DEPTH, tol)
        _obeys(report.overall, tol)
        assert report.converged == report.overall.converged
        if base[0] == "ifs":
            ifs = HomotheticIFS(base[2])
            _obeys(homothetic_h0_upper(ifs, tol, norm=NormKind(base[1])), tol)
    hypotheses = check_hypotheses(sys, sys, r, depth=DEPTH)
    _obeys(hypotheses.hyp_tau.lhs, 1e-3)
    assert hypotheses.all_proven == (set(hypotheses.statuses) == {"proven"})
    if hypotheses.all_proven:
        try:
            cert = intersect(sys, sys, r, 1e-6, 200)
        except RuntimeError:
            return
        _obeys(cert.residual1, 1e-7)
        _obeys(cert.residual2, 1e-7)


_C10 = corner_family(CornerFamilyParams(10, 0.19, 2))
_NAN_CALLS = {
    "find_point_in": lambda: find_point_in(_C10, Ball((0.0, 0.0), 0.5), math.nan),
    "intersect": lambda: intersect(_C10, _C10, 0.19556, math.nan, 10),
    "directional_distance_certificate": lambda: directional_distance_certificate(
        _C10, (1.0, 0.0), 0.1, math.nan, r=0.19556
    ),
    "homothetic_h0_upper": lambda: homothetic_h0_upper(HomotheticIFS(IFS_L2), math.nan),
    "perturbation_bound": lambda: perturbation_bound(math.nan, 0.1, 0.3),
    "dim_lower_bound": lambda: dim_lower_bound(2, math.nan, 4),
    "intersection_dim_bound": lambda: intersection_dim_bound(
        [17.1, math.nan], 0.5, 1.0, 0.25, 0.2, 2
    ),
}


@pytest.mark.parametrize("name", sorted(_NAN_CALLS))
def test_nan_tol_or_tau_is_refused(name):
    with pytest.raises(ValueError, match="must be positive"):
        _NAN_CALLS[name]()


@pytest.mark.parametrize(
    "argv, message",
    [
        ("dims 2 nan 4", "tau must be positive"),
        (
            "intersect --spec {specs}/corner10.json --shift2 0.05,0.02 --r 0.19556 --tol nan",
            "tol must be positive",
        ),
    ],
)
def test_nan_on_the_command_line_is_an_input_error(argv, message, capsys):
    assert cli.main(argv.format(specs=SPECS).split()) == 2
    assert message in capsys.readouterr().err
