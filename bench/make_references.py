"""Regenerate ``references.json`` through routes other than the timed ones.

    python3 bench/make_references.py

- enum5: every subset of the pool is decided with
  ``is_ufg_by_distinguishing`` (the per-member distinguishing-attribute
  decider, not the witness scan the enumerators use); the exhaustive
  enumerator must agree before the digest is written.
- space3: stdout of ``python -m ufgkit.cli`` in a fresh process; the
  enumerate catalog must equal the distinguishing decider's verdicts on
  every family of at most 6 of the 19 orders on 3 items, and
  connectedness must read 140 of 140.
- falsify4: the CLI report on two threads in a fresh process (the timed
  job runs the library call on one), for seeds 0..31; other seeds are
  computed the same way when the benchmark runs.
- posets6: the count of OEIS A001035.

Takes a few minutes on 2 cores.  Writes nothing unless every
cross-check passes.
"""

from __future__ import annotations

import json
from itertools import combinations

import workloads

FALSIFY_SEEDS = 32
CONNECTED_3 = 140  # ufg families of size >= 3 on 3 items, all with a predecessor


def ufg_families(pool, max_size: int) -> list[list[int]]:
    from ufgkit import is_ufg_by_distinguishing

    return [
        [m.bits for m in combo]
        for size in range(2, max_size + 1)
        for combo in combinations(pool, size)
        if is_ufg_by_distinguishing(combo) is not None
    ]


def enum5_reference() -> dict:
    from ufgkit import enumerate_ufg_exhaustive

    wl = workloads.WORKLOADS["enum5"]
    ground, pool = wl.base_pool()
    families = ufg_families(pool, len(pool))
    digest = workloads.catalog_digest(families)
    catalog = enumerate_ufg_exhaustive(ground, premises=pool)
    scan = [[m.bits for m in c.family] for c in catalog.certificates()]
    if workloads.catalog_digest(scan) != digest:
        raise SystemExit("enum5: witness scan and distinguishing decider disagree")
    sizes: dict[str, int] = {}
    for members in families:
        sizes[str(len(members))] = sizes.get(str(len(members)), 0) + 1
    return {
        "pool": f"random_pool(GroundSet.numbered({wl.n}), Random('pool:{wl.pool_seed}'), {wl.pool_size})",
        "families": len(families),
        "count_by_size": sizes,
        "catalog_sha256": digest,
    }


def space3_reference() -> dict:
    from ufgkit import GroundSet, enumerate_all_posets
    from ufgkit.jsonio import poset_from_obj

    wl = workloads.WORKLOADS["space3"]
    texts = {name: workloads.cli_subprocess(argv) for name, argv in wl.commands.items()}
    pool = tuple(enumerate_all_posets(GroundSet.numbered(3)))
    catalog = json.loads(texts["enumerate"])
    listed = [[poset_from_obj(m).bits for m in entry["members"]] for entry in catalog["ufg_sets"]]
    if workloads.catalog_digest(listed) != workloads.catalog_digest(ufg_families(pool, 6)):
        raise SystemExit("space3: CLI catalog and distinguishing decider disagree")
    report = json.loads(texts["connectedness"])
    if report["checked"] != CONNECTED_3 or report["connected"] != CONNECTED_3:
        raise SystemExit("space3: connectedness does not read 140 of 140")
    refs = {name: workloads.sha256_text(text) for name, text in texts.items()}
    refs["connected_families"] = CONNECTED_3
    return refs


def falsify4_reference() -> dict:
    wl = workloads.WORKLOADS["falsify4"]
    return {
        "budget": wl.budget,
        "sha256": {str(seed): wl.cli_digest(seed) for seed in range(FALSIFY_SEEDS)},
    }


def main() -> None:
    workloads.load_package()
    refs = {
        "enum5": enum5_reference(),
        "space3": space3_reference(),
        "falsify4": falsify4_reference(),
        "posets6": {"count": workloads.A001035_6},
    }
    with open(workloads.REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
