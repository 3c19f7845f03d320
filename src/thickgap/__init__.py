"""Certified geometry of systems of balls.

Builds recursive ball systems for compact subsets of R^d, computes certified
enclosures of hole radii and thickness, verifies the intersection criterion
and constructs witnesses, evaluates closed-form family statistics, dimension
bounds and pattern capacities, and simulates the erase-and-shrink potential
game with a legality referee.

`import thickgap` is cheap: it imports no submodule. Each public name below
is looked up in its home module on first access (PEP 562), which imports
that module and the ones it needs, and is then bound here; so
`thickgap.parse_set_spec` loads only geometry and ballsystem, and numpy
loads only when a numpy path first runs.
"""

import importlib

# each public name's home module; __all__ and dir() are read from here
_HOMES = {
    "geometry": """
        Ball IntervalBound NormKind Point Sphere SphereUnion ball_contains ball_scale
        balls_disjoint dist_point_ball dist_point_sphere norm_distance
    """,
    "ballsystem": """
        BallSystem CornerFamilyParams GapList1D HomotheticIFS SpecError Word corner_family
        BudgetExceeded explicit_tree from_gaps_1d from_ifs newhouse_thickness parse_set_spec
        perturbed_image similarity_image translate
    """,
    "metrics": """
        DensenessReport ThicknessReport denseness_check dist_to_set hole_radius thickness
    """,
    "selfsimilar": """
        CornerStats HomotheticBounds biebler_thickness corner_stats homothetic_bounds
        homothetic_h0_upper perturbation_bound
    """,
    "dimension": """
        MeasureBoundReport MoranSolve NaturalMeasure dim_lower_bound
        measure_ball_bound_check moran_exponent natural_measure
    """,
    "gaplemma": """
        DirectionalDistanceCertificate GapHypothesesReport IntersectionCertificate
        TraceStep bridge_ball check_hypotheses directional_distance_certificate
        distance_interval find_point_in intersect
    """,
    "game": """
        AliceMove AliceStrategy BfsConstants BobMove Erasure GameParams GameTranscript
        IntersectionBound PatternQuery Verdict WinningBound alice_h_sets alice_strategy
        best_intersection_dim_bound corner_seeking_bob hole_seeking_bob
        intersection_dim_bound kappa map_transcript pattern_capacity pattern_lambda_limit
        pattern_search_oracle play play_batch proposition_params random_legal_bob referee
        transcript_to_jsonl winning_dim_bound
    """,
}
_EXPORTS = {name: module for module, names in _HOMES.items() for name in names.split()}

__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
