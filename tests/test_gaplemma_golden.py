"""Golden gap-lemma outputs on corner n=10, ell=0.19, d=2 and two images of it,
and on pairs whose located balls stay large, so that the large ball case
(Case1) runs.

Each case certifies one distance t along one Linf unit direction v with
`directional_distance_certificate` and runs the `intersect` it is built
on, then compares two SHA-256 digests with values recorded from an
earlier release: one of `repr` of the certificate's (e1, e2, residual),
one of `repr` of the intersect trace, so that a change to how the
witness is read moves only the first. Each large-ball case compares the
digest of `repr` of one `intersect` certificate. The search inside
(`_locate`) may change how it works, never what it finds. Run this file
as a script to print the digests of the current code.
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
from thickgap.gaplemma import (
    _DIRECTIONAL_SHARE,
    _DIRECTIONAL_STEPS,
    directional_distance_certificate,
    intersect,
)

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


def _digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()[:32]


def run_case(name, k):
    """The digests of certificate k on system name, built afresh, and of
    the trace of the intersect it is built on."""
    sys_ = _systems()[name]
    v, frac = _pair(k)
    t = frac * 2 * R / (1 - 2 * R) * sys_.root.radius
    cert = directional_distance_certificate(sys_, v, t, TOL, r=R)
    shifted = translate(sys_, tuple(t * c for c in v))
    trace = intersect(sys_, shifted, R, TOL * _DIRECTIONAL_SHARE, _DIRECTIONAL_STEPS).trace
    return _digest((cert.e1, cert.e2, cert.residual)), _digest(trace)


CASES = [(name, k) for name in ("corner10", "translate", "chain") for k in range(PAIRS)]

# name/k -> the first 32 hex digits of the SHA-256 of the certificate and
# of the trace; all re-recorded when the certificate's e1 became intersect's
# witness, with intersect at tol / 2 in place of tol / 8 and no second
# search for e1: each trace is the earlier one less its last step, and
# e1, e2 and the residual follow the witness
GOLDEN = {
    "corner10/0": ("887910a1947b694edce61271a9967c37", "a6c1b2774e49d93ab6ff0070fe0005b9"),
    "corner10/1": ("31705ad15c52745b82e205608511460b", "d7b291474ea5df87de332817fb1393bb"),
    "corner10/2": ("805f5f92656084d225e04608bdfce4f6", "b3eb3e88063d799236a23419d0e406cd"),
    "corner10/3": ("36326d70fc5f602a50de865b6cd4d03e", "40f9d7575abd45345381e3be2bf42a8e"),
    "corner10/4": ("e967f255482b7b641f6f5fcee3726420", "a3240ae6496f3334e16eb232371b39af"),
    "corner10/5": ("ebf0a88e20d1112f30b1b382c3e7c1c4", "e351304d497bb266d4a308e0307c9961"),
    "corner10/6": ("4dbce03d1cb8b89d43ee967979c86700", "96a45be232e75304fe0204beff623c4e"),
    "corner10/7": ("cd78739413b245bca62e7589f73b9ec0", "9683556c022f7f864809fca51cc485e1"),
    "corner10/8": ("036fe3152d5f277384a7d43ff9df4291", "a92bf2287102846a75d6c808e03adddd"),
    "corner10/9": ("72f0846e2644087e8245091cc64d75c6", "cbf41f3a94a1678691bb86ae1f894cc1"),
    "corner10/10": ("0dba99e0fa015b64d88879235b2877f3", "31eccd82e98d94dc6696800509220258"),
    "corner10/11": ("5a73aa18fb2b996a2a9f8e6c1f100507", "65f3704fc3fecd1e35219468f1f69fc5"),
    "corner10/12": ("4602302544438bc3c227c27f30f0cbcc", "1992832360a843fbcfaaefbbd7d8d6f1"),
    "corner10/13": ("8bcbb0dab113a69145c11e20bf949150", "0191fbb05479b318c5311db342ea92f0"),
    "corner10/14": ("545d1832d0d596fd390996f3865891dd", "51d1d08b699d50488628aaa5573fd20f"),
    "corner10/15": ("e3edfd1da2d6935b0aabc45900bcb2ea", "956cc0642d699381f571c088674ab278"),
    "corner10/16": ("9747c1a1890ab8888aedce02d148cc44", "6405750bccf27dbad10a60672116059f"),
    "corner10/17": ("55f8bfa6768e2ae2454f6bac1498712b", "ed53339d2cc4bb1192ae6ebbef456802"),
    "corner10/18": ("385df2815aa2304d7b2e42c0e50fdcdc", "a8d13440fcab8952db363c3a0d78e231"),
    "corner10/19": ("e1e8a81a8aa1c7d533830425de86a078", "bc470e415343c69e475d01d4b5663a06"),
    "translate/0": ("9e3f674815111322852cd383cf53361a", "a774b98f69058ef669ca504b4201075e"),
    "translate/1": ("13a4cc9666ea9774e93c20a93b339a6c", "d7b291474ea5df87de332817fb1393bb"),
    "translate/2": ("40f72979b5e082e8b051d6aec604a405", "b3eb3e88063d799236a23419d0e406cd"),
    "translate/3": ("aafbab82c93e302fb10d518c9097eb6e", "40f9d7575abd45345381e3be2bf42a8e"),
    "translate/4": ("18b116cbbd71fc91c5ea9a7181b87f1e", "a3240ae6496f3334e16eb232371b39af"),
    "translate/5": ("55ec69a312dbbca9464986fda0b0e902", "e351304d497bb266d4a308e0307c9961"),
    "translate/6": ("b541edb0bb726056b8067707d2c15a31", "96a45be232e75304fe0204beff623c4e"),
    "translate/7": ("d7a4d0db3a74ef3e2a91c5c5ff19d3cd", "9683556c022f7f864809fca51cc485e1"),
    "translate/8": ("009c41286a8700e999b9ffc9a382412d", "a92bf2287102846a75d6c808e03adddd"),
    "translate/9": ("5b9b4189fc4c332e300b9c7881124584", "cbf41f3a94a1678691bb86ae1f894cc1"),
    "translate/10": ("dc4a9b176c97e0be7a3d47556d553724", "31eccd82e98d94dc6696800509220258"),
    "translate/11": ("c172068ccdfca2315470935b94a5a6fc", "65f3704fc3fecd1e35219468f1f69fc5"),
    "translate/12": ("cc5b8bdae21707f2945e81929b2ba04a", "1992832360a843fbcfaaefbbd7d8d6f1"),
    "translate/13": ("d21bb26f98da622e4ecdcfc46a6cc1f2", "0191fbb05479b318c5311db342ea92f0"),
    "translate/14": ("7b93e6dd5ca15f2dbad8b70205508db2", "51d1d08b699d50488628aaa5573fd20f"),
    "translate/15": ("aa6489426b3f5717d01ecc3eb56ca0a9", "956cc0642d699381f571c088674ab278"),
    "translate/16": ("8e2dacb25817ab6a09c8f08f4831c34c", "6405750bccf27dbad10a60672116059f"),
    "translate/17": ("827197daa1a5d3cf8d49f3dca0a72cab", "ed53339d2cc4bb1192ae6ebbef456802"),
    "translate/18": ("acd46a7eff3ef9db8b4628fabe5018be", "a8d13440fcab8952db363c3a0d78e231"),
    "translate/19": ("f4202f30b1326ac66538ccbd4a7b3d8b", "bc470e415343c69e475d01d4b5663a06"),
    "chain/0": ("5393be5344d53a768f437210fc1fc260", "5619b08b29c78ebe8da26da9c6923bbd"),
    "chain/1": ("dc4f5bb81002b86d1cc22cfeda1cb5e4", "3550af2e11eee1a552db7b20bb1fc861"),
    "chain/2": ("45fb87dbcec37a456dc2861d91d65979", "53d16891a27f821e335dd4ec1a4d96f2"),
    "chain/3": ("c1e2e2487eead3dc83a410431a55f471", "fc800a8beea064c1362647731d66b26c"),
    "chain/4": ("8adb7ff42e51f8af74a69c1424c94f98", "ab379563b9017c78f6a2b2b1637590ab"),
    "chain/5": ("4be77e0e23db8c76ab49365cf33b6f3e", "71a52340022fa184f3f700df21f69548"),
    "chain/6": ("dff1ab6dc6b846d5c72d4d9e8f3dfa82", "415593055db037fa3f3ef9aecc9b7e11"),
    "chain/7": ("c9479448b0c3ecbff822578027fdccb8", "3791457624ed2fd7c4b1c4c7b9141dc2"),
    "chain/8": ("0a50417008a11e886a88f4f59884e273", "47ea8e74fa391823f5d6792b0d8b3cca"),
    "chain/9": ("d0e1b57cf34432ff1d830cf3b02f005c", "14fcaaafe5884884136d0797d8e6c47a"),
    "chain/10": ("e6645d156d3a2bcc835e27af4b024d3b", "57785bcb07b9363c570fbd42b8f6ad0f"),
    "chain/11": ("7c93d65d6c2223710d75cbc937fec88f", "99c7319cf3e243dab547f578eb687815"),
    "chain/12": ("0c5a103b3b8ebe9c86cab12f772946ae", "6a6791e5313eb8a59c5aa1649262b069"),
    "chain/13": ("f3bd1188db011817f1a1ddd5dff66869", "67521490435df68d6d4a3159ac17fae4"),
    "chain/14": ("9ba36856e8a3a02b504c7beafe5a39b2", "ac31fdc86ef6c99d9887b14a693b7be6"),
    "chain/15": ("dfe9e39837124f2a285fe1fefb4a7909", "e9d66954ba47768282e5a7078ec94006"),
    "chain/16": ("54367103eb9bb9a0b14ccd7e65b4cdb1", "e9ab6f3b0badc63ca7330301783e18a3"),
    "chain/17": ("6f7e5d737df28477a13e31a299c5e436", "2ff70eaab88f22e1871a6234fd710b90"),
    "chain/18": ("63a667b51ae052194233fbdb3de2a17b", "fdb24b515e96f43fdf39c35514060749"),
    "chain/19": ("b8ab36e36f3f9cc8d8cd223554dde7d9", "0bc2756eee8b48e23f8bdac9dc75a776"),
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
    return _digest(intersect(*pair, r, 1e-7, 400))


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
        print(f'    "{name}/{k}": ("%s", "%s"),' % run_case(name, k), file=sys.stdout)
    for name in LARGE_CASES:
        print(f'    "{name}": "{run_large_case(name)}",', file=sys.stdout)
