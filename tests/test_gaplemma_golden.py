"""Golden gap-lemma outputs on corner n=10, ell=0.19, d=2 and two images of it,
and on pairs whose located balls stay large, so that the large ball case
(Case1) runs.

Each case certifies one distance t along one Linf unit direction v with
`directional_distance_certificate` and runs the `intersect` it is built
on, then compares the SHA-256 of `repr` of the certificate's
(e1, e2, residual) and of the intersect trace with values recorded from
an earlier release. Each large-ball case compares the digest of `repr` of
one `intersect` certificate. The search inside (`_locate`) may change how it
works, never what it finds. Run this file as a script to print the
digests of the current code.
"""

import hashlib
import math
import sys

import pytest

from test_gaplemma import _scale_mismatch_ifs_pair
from thickgap.ballsystem import (
    CornerFamilyParams,
    corner_dense_radius,
    corner_family,
    similarity_image,
    translate,
)
from thickgap.gaplemma import _DIRECTIONAL_STEPS, directional_distance_certificate, intersect

R = 0.19556
TOL = 1e-7
PAIRS = 20


def _systems():
    base = corner_family(CornerFamilyParams(n=10, ell=0.19, d=2))
    shift = (0.031, -0.017)
    return {
        "corner10": base,
        "translate": translate(base, shift),
        "chain": translate(similarity_image(translate(base, shift), 0.8, shift[::-1]), shift),
    }


def _pair(k):
    """The k-th (v, t): v a Linf unit vector, t inside [0, limit) on a
    fixed irrational stride, so that the pairs spread over both."""
    theta = 2 * math.pi * ((k * 0.6180339887498949) % 1.0)
    raw = (math.cos(theta), math.sin(theta))
    size = max(map(abs, raw))
    return (raw[0] / size, raw[1] / size), ((k * 0.7548776662466927) % 1.0)


def run_case(name, k):
    """The digest of certificate k on system name, built afresh."""
    sys_ = _systems()[name]
    v, frac = _pair(k)
    t = frac * 2 * R / (1 - 2 * R) * sys_.root.radius
    cert = directional_distance_certificate(sys_, v, t, TOL, r=R)
    shifted = translate(sys_, tuple(t * c for c in v))
    trace = intersect(sys_, shifted, R, TOL / 8, _DIRECTIONAL_STEPS).trace
    digest = hashlib.sha256(repr((cert.e1, cert.e2, cert.residual)).encode())
    digest.update(repr(trace).encode())
    return digest.hexdigest()[:32]


CASES = [(name, k) for name in ("corner10", "translate", "chain") for k in range(PAIRS)]

# name/k -> the first 32 hex digits of the case's SHA-256
GOLDEN = {
    "corner10/0": "63a7206971f5f38f0b3d8d19694f912b",
    "corner10/1": "e04f885d3a46134dcffb342bde39f550",
    "corner10/2": "23757365ea82dc828365f042783f252c",
    "corner10/3": "63646095fd500d17d2ece2c1db2d1079",
    "corner10/4": "aa62c7b4f4dd81dddbaa05ca73f64b07",
    "corner10/5": "057160145c1f8d753d16b35c72206ba0",
    "corner10/6": "6d2997e68199d8b3a05be335548d7013",
    "corner10/7": "ceebc6b0e3523efe1646cdfca33c79e1",
    "corner10/8": "fe7687c7fe8c704820a4d0375f170e7a",
    "corner10/9": "4cdb2f7c6b5fd75d9cadd20db1c79a22",
    "corner10/10": "9df8e4faa51ae6a60aa86ce2ae7a24af",
    "corner10/11": "8d831e9da30311388e244e6b86f78b8e",
    "corner10/12": "d183caf8ba91d91e4150890aebc96644",
    "corner10/13": "9957f5e1ebf3448b246803584e1a58b4",
    "corner10/14": "25076d8ddcec74b181ca13de1ef7a1b9",
    "corner10/15": "77a5ec3e0714b2db0ad13c8bf5d4610a",
    "corner10/16": "b844332a678245ac6235e6a3e8e026a3",
    "corner10/17": "be38ce9eaefa9bae60ec5187f71fcabc",
    "corner10/18": "055271360315fe8df1b4b05c6d971d95",
    "corner10/19": "9c9c302cf844c4be42a74b981d1e75fd",
    "translate/0": "a6b0398df15e890406903f5eed02bf90",
    "translate/1": "5f6f867188885db65e000d078d489414",
    "translate/2": "debff453e8414e1779bdc3218d7c016f",
    "translate/3": "0be1a5eb5f62ad29ad2dfa6c30b50cbe",
    "translate/4": "8e38ef717910711f62ba20f02cec7e01",
    "translate/5": "36cd3f0cb221e1cd3a86c21106c7a834",
    "translate/6": "d9b2a7014b3a12899e469c5c92cb623f",
    "translate/7": "8f36cd5b242e88f929838a41d34203ba",
    "translate/8": "1b43f1c67ef8ffce03e68b35b3a67527",
    "translate/9": "0a2349b03078b515775b019219cfeec7",
    "translate/10": "69e3dc11e730be9c854bf2fcdc14846c",
    "translate/11": "6ac64394a17596f51392007cee4cfde0",
    "translate/12": "d223614bff3fcadfc64169b5ab8aff8f",
    "translate/13": "86df90d89b5a9885214b7520e67959a4",
    "translate/14": "2d3960260c1f23ae377dd94f57b091e2",
    "translate/15": "2f21172fc0a293bf770594e281746e6a",
    "translate/16": "54025149c1bed176ab6fb52d6016cf62",
    "translate/17": "af25bb7ee4053b8d3ce4ae0db727b8d0",
    "translate/18": "7c59c39f9c0f4313cd0ddf4481367526",
    "translate/19": "ce7ccc3b489e7c161381b423ced83f0e",
    "chain/0": "a6566f1ad4208194a278a8e83360b673",
    "chain/1": "5643580df42dd9eae0d2b9ee1e7abbe6",
    "chain/2": "37c41568e5f58cc9403591c9b2105412",
    "chain/3": "f22c4a6b8520d4af0b9ac3220021fccf",
    "chain/4": "848581210210619bade07031c4148ece",
    "chain/5": "ae69c93fb85d903493935531860df825",
    "chain/6": "0010d5fca0ae536e04d73ecf912b9662",
    "chain/7": "ed878853db2bae3a715f11d8d8dd0ca0",
    "chain/8": "01f4ab292599139d5d46968f1a7e1328",
    "chain/9": "dc4b0b70762495076bb759b875bc7451",
    "chain/10": "7c9c1ac173abaa5f11ea9af3dc0a990d",
    "chain/11": "54a63954888812981301992dd860f421",
    "chain/12": "286645ea30d10e20fc8f3063e4849dae",
    "chain/13": "183ca9100ce797fa84d69109bcbc0f04",
    "chain/14": "2fafd5908c1c6ff9a8e7ce850f1d51e0",
    "chain/15": "9a6440738abc3ac02ff77b80515972b9",
    "chain/16": "0e06a9a20bf7ecdea5bf944ffb58acce",
    "chain/17": "10ae319f829d3eabfe5c21b2453d26c4",
    "chain/18": "8af4f4fad5868c6fb6bc7fb755299f64",
    "chain/19": "c738bfb77259fff89ab2fb3d6c7d81e3",
}


@pytest.mark.parametrize("name,k", CASES)
def test_certificate_and_trace_match_recorded_digest(name, k):
    assert run_case(name, k) == GOLDEN[f"{name}/{k}"]


# large-ball pairs: corner n=6, ell=0.3 in d = 2 and 3 against a smaller
# similarity image of it, on either side, at r just above its dense radius;
# the 16 corner pairs take 144 Case1 steps on the corner-grid branch, and
# the IFS pair (no corner grid) takes its Case1 steps on child blocks
LARGE_R = 1.001 * corner_dense_radius(6, 0.3)
LARGE_SHIFTS = ((0.03, -0.02, 0.01), (-0.05, 0.04, 0.02), (0, 0.07, -0.03), (0.011, 0.013, 0.017))
LARGE_CASES = [
    f"d{d}/{k}/{side}" for d in (2, 3) for k in range(len(LARGE_SHIFTS)) for side in ("a", "b")
] + ["ifs"]


def run_large_case(name):
    """The digest of the certificate of large-ball case name, built afresh:
    side a pairs the base with its image of scale 0.345, side b the image of
    scale 0.335 (reversed shift) with the base."""
    if name == "ifs":
        pair, r = _scale_mismatch_ifs_pair(), 0.17
    else:
        d, k, side = name.split("/")
        d, s = int(d[1:]), LARGE_SHIFTS[int(k)]
        base = corner_family(CornerFamilyParams(n=6, ell=0.3, d=d))
        if side == "a":
            pair = base, similarity_image(base, 0.345, s[:d])
        else:
            pair = similarity_image(base, 0.335, s[::-1][:d]), base
        r = LARGE_R
    cert = intersect(*pair, r, 1e-7, 400)
    return hashlib.sha256(repr(cert).encode()).hexdigest()[:32]


# recorded before Init, Case1 and Case2 shared one relocation
LARGE_GOLDEN = {
    "d2/0/a": "05f553581d96f2f4cc9d4ee1cbc300f1",
    "d2/0/b": "75bcd40c2206359d455300a68ba22f31",
    "d2/1/a": "31c65a5099628c32f8796678030195b7",
    "d2/1/b": "8dbce3d06b3ecc86a26b413512208d36",
    "d2/2/a": "43eac1f1a2ee28e59fff83058ad0cd0f",
    "d2/2/b": "736d151bd4f9e1d9f2cef34c0d1be526",
    "d2/3/a": "b8e133c8f2f5547227235db23b1c9743",
    "d2/3/b": "aee4fbb4818c039f5ad44b009ce3832c",
    "d3/0/a": "5802174aff9e92faa6cc3227406005df",
    "d3/0/b": "236582774c7e966a0a7cd173e71e372e",
    "d3/1/a": "e3b99f2884d2718d9b350d563eae850f",
    "d3/1/b": "61b2eb6527bfcc894c5316655e652bfc",
    "d3/2/a": "c53158fb46acd862ae29489244315708",
    "d3/2/b": "ff591a5ec43f8c22e3d6450984cdfa01",
    "d3/3/a": "7a73c3e12ecf4939ca5cf4d7692f16e7",
    "d3/3/b": "c2b98de4ee02db1c6fbf0ec7778596ac",
    "ifs": "56cccc88f4515849f88a7525820964c2",
}


@pytest.mark.parametrize("name", LARGE_CASES)
def test_large_ball_certificate_matches_recorded_digest(name):
    assert run_large_case(name) == LARGE_GOLDEN[name]


if __name__ == "__main__":
    for name, k in CASES:
        print(f'    "{name}/{k}": "{run_case(name, k)}",', file=sys.stdout)
    for name in LARGE_CASES:
        print(f'    "{name}": "{run_large_case(name)}",', file=sys.stdout)
