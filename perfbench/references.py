"""Generate the references the benchmark checks against; run once.

    python3 perfbench/references.py h1        # data/h1_reference.json
    python3 perfbench/references.py digests   # data/digests.json

``h1`` computes the exact top two H1 constants of each pair of the
h1-sequence workload by the reduction in checks.h1_exact (about a minute).
``digests`` runs two passes of each seeded workload on the recorded seeds,
requires both to pass their invariants and agree, and stores the sha256 of
their outputs.  Regenerate only with evidence that the outputs changed for
a reason, since the digests enforce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
DIGEST_SEEDS = (1, 2)       # the default seed and one held-out seed


def h1_reference() -> dict:
    from nvbmesh import marking, refine

    from checks import h1_exact

    config = marking.RunConfig(
        initial="lshape6", dialect="refineNVB", strategy="dorfler",
        theta=0.3, alpha=1.0, corner=(0.0, 0.0), steps=25, seed=0)
    pairs = []
    for step, coarse in enumerate(marking.run_refinement(config).meshes):
        fine = refine.uniform(refine.uniform(coarse, "bisec1"), "bisec1")
        top, second = h1_exact(coarse, fine, count=2)
        pairs.append({"step": step, "n_coarse": coarse.n_vertices,
                      "n_fine": fine.n_vertices, "top": top, "second": second})
        print(f"pair {step}: {top!r} {second!r}", file=sys.stderr)
    return {"run": dataclasses.asdict(config), "pairs": pairs}


def digests() -> dict:
    from workloads import WORKLOADS

    scratch = HERE.parent / ".bench_build" / "perfbench"
    scratch.mkdir(parents=True, exist_ok=True)

    def outputs(name: str, seed: int) -> dict:
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            workload = WORKLOADS[name](seed, Path(tmp))
            first, second = workload.run_pass(), workload.run_pass()
        for result in (first, second):
            broken = [f for f in result["failures"]
                      if not f.startswith("digest ")]
            if broken:
                raise SystemExit(f"{name} seed {seed}: {broken}")
        if first["outputs"] != second["outputs"]:
            raise SystemExit(f"{name} seed {seed}: outputs differ between passes")
        return first["outputs"]

    out = {"uniform-cli": {"any": outputs("uniform-cli", DIGEST_SEEDS[0])}}
    for name in ("adaptive-random", "red-corr"):
        out[name] = {str(s): outputs(name, s) for s in DIGEST_SEEDS}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("what", choices=("h1", "digests"))
    args = parser.parse_args()
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    data = h1_reference() if args.what == "h1" else digests()
    name = "h1_reference.json" if args.what == "h1" else "digests.json"
    (HERE / "data" / name).write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
