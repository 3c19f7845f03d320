"""Hostile input through `cli.main`: every run ends in an exit code, never a
traceback.

A drawn spec is well formed but for some of its fields, which are missing
or hold ints, bools, floats (the infinities, NaN and subnormals among
them), strings, nulls or lists; each number inside a float field (`ell`,
`lambda`, `t`, `hull`, `gaps`) may also be a string or a bool. `game`,
`gapcheck`, `intersect`, `distances`, `thickness` and `pattern` flags are
drawn as a shell would hand them over, and every run has a time bound.
Sizes stay small: a corner family has at most 12 points per axis in at
most 3 dimensions, and a spec has at most 6 maps or gaps. Larger counts are
exercised through a lowered `MAX_CHILDREN`, a lowered pattern-grid cap and
lowered caps on distance rows and games, so no draw allocates a large
child block, grid, table or batch.
"""

import contextlib
import io
import json
import math
import time
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from thickgap import ballsystem, cli, game

EXIT_CODES = {0, 2, 3, 4, 5}
SPECS = Path(__file__).resolve().parents[1] / "bench" / "specs"
CORNER4 = SPECS / "corner4.json"

_FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
_NUMBERS = st.one_of(st.integers(-3, 12), _FLOATS)
# ints past the lowered cap stand in for sizes too large to build
_JUNK = st.one_of(
    st.sampled_from([math.inf, -math.inf, math.nan, 4.9, -0.0, 5e-324, 1e300, True, 0, -1]),
    _NUMBERS,
    st.integers(),
    st.booleans(),
    st.text(max_size=3),
    st.none(),
    st.lists(_NUMBERS, max_size=3),
)
_MISSING = object()
_NOT_NUMBER = st.one_of(_NUMBERS.map(repr), st.text(max_size=3), st.booleans())


def _number(valid):
    """valid, or one time in eight a string or a bool in a JSON number's place."""
    return st.integers(0, 7).flatmap(lambda k: valid if k else _NOT_NUMBER)


@st.composite
def _specs(draw):
    """A well-formed spec of a drawn generator type in which each field is,
    one time in eight, missing or replaced by junk."""

    def field(valid):
        if draw(st.integers(0, 7)):
            return draw(valid)
        return draw(st.one_of(st.just(_MISSING), _JUNK))

    def obj(**fields):
        return {key: value for key, value in fields.items() if value is not _MISSING}

    kind = draw(st.sampled_from(["corner", "ifs", "gaps1d"]))
    d = 1 if kind == "gaps1d" else draw(st.integers(1, 3))
    n = draw(st.integers(2, 12))
    ends = sorted(draw(st.lists(st.floats(0.0, 1.0), max_size=12)))
    pairs = [
        st.tuples(_number(st.just(a)), _number(st.just(b))).map(list)
        for a, b in zip(ends[::2], ends[1::2])
    ]
    point = st.lists(_number(st.floats(-1.0, 1.0)), min_size=d, max_size=d)
    maps = [
        obj(**{"lambda": field(_number(st.floats(0.0, 0.5))), "t": field(point)})
        for _ in range(draw(st.integers(1, 6)))
    ]
    norms = ["linf"] if kind == "corner" else ["linf", "l2", "l1"]
    return obj(
        norm=field(st.sampled_from(norms)),
        dimension=field(st.just(d)),
        generator=obj(
            type=field(st.just(kind)),
            n=field(st.just(n)),
            ell=field(_number(st.floats(0.0, 2 / n))),
            maps=field(st.just(maps)),
            hull=field(st.tuples(_number(st.just(0.0)), _number(st.just(1.0))).map(list)),
            gaps=field(st.tuples(*pairs).map(list)),
        ),
    )


@settings(max_examples=400, deadline=None)
@given(spec=_specs())
def test_hostile_spec_fields_end_in_an_exit_code(spec, tmp_path_factory):
    tmp = tmp_path_factory.getbasetemp()
    path = tmp / "fuzz-spec.json"
    path.write_text(json.dumps(spec))
    with mock.patch.object(ballsystem, "MAX_CHILDREN", 64):
        code = cli.main(["render", "--spec", str(path), "--depth", "1", "--out", str(tmp / "fuzz.csv")])
    assert code in EXIT_CODES


_FLAG = st.one_of(
    st.sampled_from(["0", "-0.0", "1", "2", "0.5", "1e300", "1e-300", "5e-324", "inf", "-inf", "nan"]),
    _FLOATS.map(repr),
    st.floats(0.01, 1.0).map(repr),
)


@settings(max_examples=120, deadline=None)
@given(
    flags=st.fixed_dictionaries(
        {"--alpha": _FLAG, "--beta": _FLAG},
        optional={"--c": _FLAG, "--rho": _FLAG, "--seed": st.integers(0, 3).map(str)},
    )
)
def test_hostile_game_flags_end_in_an_exit_code(flags, tmp_path_factory):
    out = tmp_path_factory.getbasetemp() / "fuzz-game.json"
    argv = ["game", "--spec", str(CORNER4), "--games", "1", "--out", str(out)]
    argv += [f"{flag}={value}" for flag, value in flags.items()]
    assert cli.main(argv) in EXIT_CODES


def _parsed(text, kind):
    try:
        return kind(text)
    except ValueError:
        return None


def _valid_run_flags(flags):
    """Whether every drawn flag parses and lies in its range: --tol positive
    and finite, --steps at least 1, --tmax finite and non-negative."""
    tol = _parsed(flags.get("--tol", "1"), float)
    steps = _parsed(flags.get("--steps", "1"), int)
    tmax = _parsed(flags.get("--tmax", "0"), float)
    if tol is None or steps is None or tmax is None:
        return False
    return 0 < tol < math.inf and steps >= 1 and 0 <= tmax < math.inf


_STEPS = st.one_of(st.integers(-3, 4).map(str), st.sampled_from(["inf", "nan", "1.5", "-0"]))


@settings(max_examples=150, deadline=None)
@given(
    command=st.sampled_from(["intersect", "distances"]),
    flags=st.fixed_dictionaries({}, optional={"--tol": _FLAG, "--steps": _STEPS, "--tmax": _FLAG}),
)
def test_hostile_run_flags_end_in_an_exit_code(command, flags, tmp_path_factory):
    if command == "intersect":
        flags.pop("--tmax", None)  # intersect has no such flag
    out = tmp_path_factory.getbasetemp() / "fuzz-run.json"
    argv = [command, "--spec", str(CORNER4), "--r", "0.19556", "--out", str(out)]
    if command == "intersect":
        argv += ["--shift2", "0.05,0.02"]
    argv += [f"{flag}={value}" for flag, value in flags.items()]
    # corner4's hypotheses fail, so a run with valid flags is refuted; an
    # invalid flag is an input error before the set is read
    assert cli.main(argv) == (4 if _valid_run_flags(flags) else 2)


# a finite tree: thickness reads its leaf intervals, and the pattern scan
# descends it, as it does every set that is not an axis product
_GAP_SPEC = {
    "norm": "linf",
    "dimension": 1,
    "generator": {"type": "gaps1d", "hull": [-1, 1], "gaps": [[-0.25, 0.25], [0.251, 0.749]]},
}
_RUN_SECONDS = 10.0  # per run; each takes well under a second
_PATTERN_CAP = 2_000  # the lowered pattern-grid cap
_DEPTH = st.one_of(
    st.integers(-3, 30).map(str), st.sampled_from(["100000", "inf", "nan", "1.5", "-0", "1e3"])
)


def _timed_run(argv):
    """cli.main(argv)'s exit code, after checking that it stayed within the
    time bound and wrote no traceback."""
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert time.perf_counter() - start < _RUN_SECONDS, argv
    assert "Traceback" not in err.getvalue()
    return code


def _spec_path(tmp, name):
    if name != "gaps":
        return SPECS / name
    path = tmp / "fuzz-gaps.json"
    path.write_text(json.dumps(_GAP_SPEC))
    return path


@settings(max_examples=150, deadline=None)
@given(
    name=st.sampled_from(["corner4.json", "corner10d1.json", "ifs_linf.json", "gaps"]),
    flags=st.fixed_dictionaries({}, optional={"--tol": _FLAG, "--depth": _DEPTH}),
)
def test_hostile_thickness_flags_exit_2_exactly_when_one_is_invalid(name, flags, tmp_path_factory):
    tmp = tmp_path_factory.getbasetemp()
    argv = ["thickness", "--spec", str(_spec_path(tmp, name)), "--out", str(tmp / "fuzz-tau.json")]
    argv += [f"{flag}={value}" for flag, value in flags.items()]
    tol = _parsed(flags.get("--tol", "1"), float)
    depth = _parsed(flags.get("--depth", "0"), int)
    valid = tol is not None and 0 < tol < math.inf and depth is not None and depth >= 0
    # a valid run converges or exits 3 at a tolerance no search reaches
    assert _timed_run(argv) in ({0, 3} if valid else {2})


def _grid_points(radius, d, step):
    """The pattern grid's point count about a root centered at the origin,
    worked out as the scan does; inf when it has no finite count."""
    count = ((0.0 + radius + step / 2) - (0.0 - radius)) / step
    return math.ceil(count) ** d if math.isfinite(count) else math.inf


@settings(max_examples=200, deadline=None)
@given(
    case=st.sampled_from(
        [
            ("corner4.json", ["0,0", "1,0"]),
            ("corner10d1.json", ["0", "1", "2"]),
            ("gaps", ["0", "1"]),
        ]
    ),
    lam=_FLAG,
    flags=st.fixed_dictionaries({}, optional={"--tol": _FLAG, "--grid": _FLAG}),
)
def test_hostile_pattern_flags_exit_2_exactly_when_one_is_invalid(
    case, lam, flags, tmp_path_factory
):
    tmp = tmp_path_factory.getbasetemp()
    name, points = case
    path = _spec_path(tmp, name)
    argv = ["pattern", "--spec", str(path), "--out", str(tmp / "fuzz-pattern.json")]
    argv += [f"{flag}={value}" for flag, value in flags.items()]
    argv += ["--", lam, *points]  # a lam of "-1" is a value, not an option
    sys = cli._load_system(str(path))
    pts = [cli._parse_point(p) for p in points]
    limit = game.pattern_lambda_limit(pts, sys.root.radius, sys.norm)
    tol = float(flags.get("--tol", "1e-3"))
    step = float(flags.get("--grid", "0.01"))
    valid = (
        0 < float(lam) < limit
        and 0 < tol < math.inf
        and step > 0
        and _grid_points(sys.root.radius, sys.dimension, step) <= _PATTERN_CAP
    )
    with mock.patch.object(game, "_GRID_CAP", _PATTERN_CAP):
        code = _timed_run(argv)
    # a valid scan finds witnesses (0), finds none (5) or stops on a cap (3)
    assert code in ({0, 3, 5} if valid else {2})


_R = st.one_of(
    st.sampled_from(
        ["0", "-0.0", "0.5", "0.49999", "0.7", "-0.2", "1e300", "5e-324", "inf", "-inf", "nan"]
    ),
    _FLOATS.map(repr),
    st.floats(0.01, 0.49).map(repr),
)
_COORDS = st.one_of(
    st.sampled_from(["0", "-0.0", "0.05", "1e300", "-1e300", "5e-324", "inf", "-inf", "nan"]),
    st.floats(-0.5, 0.5).map(repr),
)


def _finite_point(text, d):
    """Whether text parses as a point of d finite coordinates."""
    try:
        point = cli._parse_point(text)
    except ValueError:
        return False
    return len(point) == d and all(map(math.isfinite, point))


@settings(max_examples=200, deadline=None)
@given(
    command=st.sampled_from(["gapcheck", "intersect"]),
    case=st.sampled_from([("corner4.json", 2), ("corner10d1.json", 1), ("gaps", 1)]),
    r=_R,
    flags=st.fixed_dictionaries(
        {},
        optional={
            "--depth": _DEPTH,
            # one to three coordinates: a wrong length is an input error
            "--shift2": st.lists(_COORDS, min_size=1, max_size=3).map(",".join),
        },
    ),
)
def test_hostile_gapcheck_flags_exit_2_exactly_when_one_is_invalid(
    command, case, r, flags, tmp_path_factory
):
    tmp = tmp_path_factory.getbasetemp()
    name, d = case
    argv = [command, "--spec", str(_spec_path(tmp, name)), "--out", str(tmp / "fuzz-gap.json")]
    argv += [f"--r={r}"] + [f"{flag}={value}" for flag, value in flags.items()]
    rr = _parsed(r, float)
    depth = _parsed(flags.get("--depth", "0"), int)
    valid = (
        rr is not None
        and 0 < rr < 0.5
        and depth is not None
        and depth >= 0
        and _finite_point(flags.get("--shift2", "0" + ",0" * (d - 1)), d)
    )
    # a valid pair is proven (0), refuted (4) or undecided (5)
    assert _timed_run(argv) in ({0, 4, 5} if valid else {2})


_CAP = 10  # the lowered caps on --directions x --steps and on --games
_COUNT = st.one_of(
    st.integers(-1, 4).map(str),
    st.sampled_from(["10", "11", "10000", "10001", str(10**18), "inf", "nan", "1.5"]),
)


@settings(max_examples=150, deadline=None)
@given(
    command=st.sampled_from(["distances", "game"]),
    flags=st.fixed_dictionaries({"--directions": _COUNT, "--steps": _COUNT, "--games": _COUNT}),
)
def test_hostile_counts_exit_2_exactly_past_their_caps(command, flags, tmp_path_factory):
    out = tmp_path_factory.getbasetemp() / "fuzz-count.json"
    if command == "distances":
        del flags["--games"]
        argv = [command, "--spec", str(CORNER4), "--r", "0.19556"]
        directions = _parsed(flags["--directions"], int)
        steps = _parsed(flags["--steps"], int)
        valid = (
            directions is not None
            and steps is not None
            and min(directions, steps) >= 1
            and directions * steps <= _CAP
        )
    else:
        del flags["--directions"], flags["--steps"]
        argv = [command, "--spec", str(CORNER4), "--alpha", "0.5", "--beta", "0.2"]
        games = _parsed(flags["--games"], int)
        valid = games is not None and 1 <= games <= _CAP
    argv += ["--out", str(out)] + [f"{flag}={value}" for flag, value in flags.items()]
    with mock.patch.object(cli, "MAX_DISTANCE_ROWS", _CAP), mock.patch.object(cli, "MAX_GAMES", _CAP):
        code = _timed_run(argv)
    # corner4's hypotheses fail, so distances is refuted; its matches are clean
    assert code == ((4 if command == "distances" else 0) if valid else 2)
