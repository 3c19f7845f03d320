"""Record the reference enclosures the enclose and simulate checks compare against.

    python3 bench/make_refs.py

Writes bench/ref/recorded.json. Run it only on a commit whose answers are
trusted: every later run is checked against what it records. Takes about
a minute, mostly the tight Linf distance enclosures of the query pool:
the root square cut into 10 x 10 cells, six random points in each, so a
run that takes one point per cell covers the square evenly.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import thickgap as tg  # noqa: E402
from thickgap.geometry import NormKind  # noqa: E402

import reference  # noqa: E402
import workloads as wl  # noqa: E402

STRATA_SIDE = 10  # the root square is cut into 10 x 10 cells
PER_STRATUM = 6
POOL_TOL = 1e-8


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def main() -> None:
    start = time.perf_counter()
    linf = wl.load_system("ifs_linf.json")
    rng = random.Random("enclose-linf-pool")
    pool = []
    cell = 2.0 / STRATA_SIDE
    for i in range(STRATA_SIDE):
        for j in range(STRATA_SIDE):
            stratum = []
            for _ in range(PER_STRATUM):
                x = (-1.0 + cell * (i + rng.random()), -1.0 + cell * (j + rng.random()))
                iv = tg.dist_to_set(x, linf, POOL_TOL)
                stratum.append([x[0], x[1], iv.lo, iv.hi])
            pool.append(stratum)
        print(f"pool row {i + 1}/{STRATA_SIDE} {time.perf_counter() - start:.1f}s", flush=True)

    l2 = wl.load_system("ifs_l2.json")
    tau = tg.thickness(l2, 5, wl.THICKNESS_TOL / 100).overall
    maps = wl.linf_maps(wl.load_spec("ifs_linf.json"))
    h0 = tg.homothetic_h0_upper(maps, wl.H0_TOL, norm=NormKind.LINF)
    dense = tg.denseness_check(linf, wl.DENSE_R, wl.DENSE_GRID, wl.DENSE_DEPTH)
    line = wl.load_system("corner10d1.json")
    pattern_count = {
        repr(size.pattern_grid): len(
            tg.pattern_search_oracle(
                line, wl.PATTERN_POINTS, wl.PATTERN_LAM, size.pattern_grid, size.pattern_tol
            )
        )
        for size in (wl.FULL, wl.TINY)
    }
    recorded = {
        "recorded_with": _git_sha(),
        "linf_pool_tol": POOL_TOL,
        "linf_pool": pool,
        "l2_thickness": [tau.lo, tau.hi],
        "h0_upper": [h0.lo, h0.hi],
        "denseness_verdict": dense.verdict,
        "pattern_count": pattern_count,
    }
    reference.RECORDED.parent.mkdir(parents=True, exist_ok=True)
    with open(reference.RECORDED, "w") as fh:
        json.dump(recorded, fh)
        fh.write("\n")
    print(f"wrote {reference.RECORDED} in {time.perf_counter() - start:.1f}s")


if __name__ == "__main__":
    main()
