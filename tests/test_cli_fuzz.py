"""Hostile input through `cli.main`: every run ends in an exit code, never a
traceback.

A drawn spec is well formed but for some of its fields, which are missing
or hold ints, bools, floats (the infinities, NaN and subnormals among
them), strings, nulls or lists; each number inside a float field (`ell`,
`lambda`, `t`, `hull`, `gaps`) may also be a string or a bool. `game` flags are drawn as a shell
would hand them over. Sizes stay small: a corner family has
at most 12 points per axis in at most 3 dimensions, and a spec has at most
6 maps or gaps. Larger counts are exercised through a lowered
`MAX_CHILDREN`, so no draw allocates a large child block.
"""

import json
import math
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from thickgap import ballsystem, cli

EXIT_CODES = {0, 2, 3, 4, 5}
CORNER4 = Path(__file__).resolve().parents[1] / "bench" / "specs" / "corner4.json"

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
