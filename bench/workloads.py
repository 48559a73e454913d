"""The four benchmark workloads: seeded inputs, the timed job, the check.

Each workload is a batch job that calls ufgkit through its public entry
points in one process with ``threads=1``.  ``inputs(seed)`` builds the
job's inputs from the seed alone; ``prepare`` makes fresh objects for one
job (untimed, so no job reuses another's cached canonical keys); ``run``
is the timed part; ``check`` compares the output with references that
came from another route (see ``make_references.py``) and runs untimed.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCES = HERE / "references.json"

A001035_6 = 130_023  # partial orders on 6 labelled items (OEIS A001035)


def load_package():
    """Import ufgkit from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import ufgkit
    import ufgkit.cli  # noqa: F401  (loads jsonio too, so tracing can patch it)

    if Path(ufgkit.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"ufgkit was imported from {ufgkit.__file__}, not {SRC}")
    return ufgkit


def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cli_subprocess(argv) -> str:
    """Stdout of ``python -m ufgkit.cli`` in a fresh process on this checkout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-m", "ufgkit.cli", *argv],
        env=env, check=True, capture_output=True, text=True,
    )
    return done.stdout


def run_cli(argv) -> tuple[int, str]:
    """``ufgkit.cli.main`` in process, with stdout captured and stderr dropped."""
    from ufgkit import cli

    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


# --- enum5 -------------------------------------------------------------------


def catalog_digest(families) -> str:
    """Order-free digest of a set of families given as lists of member bits."""
    rows = sorted((sorted(members) for members in families), key=lambda r: (len(r), r))
    return sha256_text(json.dumps(rows))


class Enum5:
    """Both enumerators on one 12-order pool of 5 items, catalogs compared.

    The pool is the acceptance-6 pool ``pool:0``, and the seed changes
    nothing.  Pools ``pool:0`` to ``pool:11`` differ up to fourfold in
    cost, and even relabelling the items of one pool moves the cost by a
    third (the witness scan stops at the first witness in canonical
    order), so any seed-dependent input would make ``solve_s`` measure
    the input rather than the program.
    """

    name = "enum5"
    n = 5
    pool_seed = 0
    pool_size = 12

    def base_pool(self):
        from ufgkit import GroundSet, random_pool

        ground = GroundSet.numbered(self.n)
        return ground, random_pool(ground, random.Random(f"pool:{self.pool_seed}"), self.pool_size)

    def inputs(self, seed: int) -> dict:
        _, pool = self.base_pool()
        return {"bits": [p.bits for p in pool]}

    def prepare(self, inp: dict):
        from ufgkit import GroundSet, Poset

        ground = GroundSet.numbered(self.n)
        return ground, [Poset(ground, b, check=False) for b in inp["bits"]]

    def run(self, prepared):
        from ufgkit import ufg

        ground, pool = prepared
        connected = ufg.enumerate_ufg_connected(ground, premises=pool)
        exhaustive = ufg.enumerate_ufg_exhaustive(ground, premises=pool)
        return connected, exhaustive

    def reference(self, inp: dict, refs: dict) -> dict:
        return refs[self.name]

    def check(self, inp: dict, out, ref: dict) -> bool:
        connected, exhaustive = out
        families = [[m.bits for m in c.family] for c in exhaustive.certificates()]
        sizes = {str(k): v for k, v in exhaustive.count_by_size().items()}
        return (
            connected.same_families(exhaustive)
            and catalog_digest(families) == ref["catalog_sha256"]
            and sizes == ref["count_by_size"]
        )


# --- space3 ------------------------------------------------------------------


class Space3:
    """Two CLI commands over every order on 3 items, stdout checked byte for byte.

    The inputs are the complete 3-item space, so the seed changes nothing.
    """

    name = "space3"
    commands = {
        "enumerate": ("enumerate", "--verify", "-n", "3", "--max-size", "6", "--json"),
        "connectedness": ("connectedness", "-n", "3", "--json"),
    }

    def inputs(self, seed: int) -> dict:
        return {"commands": self.commands}

    def prepare(self, inp: dict):
        return inp["commands"]

    def run(self, commands):
        return {name: run_cli(argv) for name, argv in commands.items()}

    def reference(self, inp: dict, refs: dict) -> dict:
        return refs[self.name]

    def check(self, inp: dict, out, ref: dict) -> bool:
        if any(code != 0 for code, _ in out.values()):
            return False
        if any(sha256_text(text) != ref[name] for name, (_, text) in out.items()):
            return False
        report = json.loads(out["connectedness"][1])
        want = ref["connected_families"]
        return report["checked"] == want and report["connected"] == want


# --- falsify4 ----------------------------------------------------------------


class Falsify4:
    """Seeded falsification trials on 4 items; the seed is the search seed."""

    name = "falsify4"
    sizes = (4,)
    budget = 1500

    def inputs(self, seed: int) -> dict:
        return {"seed": seed, "budget": self.budget}

    def prepare(self, inp: dict):
        return inp

    def run(self, inp):
        from ufgkit import connectedness

        return connectedness.falsification_search(
            list(self.sizes), inp["budget"], inp["seed"], threads=1
        )

    def cli_digest(self, seed: int) -> str:
        """Digest of the report from the CLI, on two threads, in a fresh process."""
        return sha256_text(cli_subprocess([
            "falsify", "-n", ",".join(map(str, self.sizes)), "--budget", str(self.budget),
            "--seed", str(seed), "--threads", "2", "--json",
        ]))

    def reference(self, inp: dict, refs: dict) -> str:
        stored = refs[self.name]
        if stored["budget"] == inp["budget"] and str(inp["seed"]) in stored["sha256"]:
            return stored["sha256"][str(inp["seed"])]
        return self.cli_digest(inp["seed"])

    def check(self, inp: dict, report, ref: str) -> bool:
        from ufgkit import jsonio

        text = jsonio.dumps_canonical(jsonio.falsification_to_obj(report))
        return report.violation is None and sha256_text(text) == ref


# --- posets6 -----------------------------------------------------------------


def canonical_rank(bits: int, width: int) -> int:
    """The canonical key as an integer: pair position 0 is the top bit."""
    return int(format(bits, f"0{width}b")[::-1], 2)


def is_strict_order(ground, bits: int) -> bool:
    """Transitive and asymmetric, checked on successor rows."""
    rows = [0] * ground.size
    k = 0
    while bits:
        if bits & 1:
            i, j = ground.pair_at(k)
            rows[i] |= 1 << j
        bits >>= 1
        k += 1
    for i, row in enumerate(rows):
        rest = row
        while rest:
            low = rest & -rest
            succ = rows[low.bit_length() - 1]
            if (succ >> i) & 1 or succ & ~row:
                return False
            rest ^= low
    return True


class Posets6:
    """Stream every partial order on 6 items through the interval walk.

    The input is the complete 6-item space, so the seed changes nothing.
    """

    name = "posets6"
    n = 6

    def __init__(self):
        self._verified = None

    def inputs(self, seed: int) -> dict:
        return {"n": self.n}

    def prepare(self, inp: dict):
        from ufgkit import GroundSet

        return GroundSet.numbered(inp["n"])

    def run(self, ground):
        from ufgkit import orders

        return [p.bits for p in orders.enumerate_all_posets(ground)]

    def reference(self, inp: dict, refs: dict) -> dict:
        return refs[self.name]

    def check(self, inp: dict, out: list[int], ref: dict) -> bool:
        if out == self._verified:
            return True  # identical to an output that passed every check below
        from ufgkit import GroundSet

        ground = GroundSet.numbered(inp["n"])
        width = ground.pair_count
        ranks = [canonical_rank(b, width) for b in out]
        ok = (
            len(out) == ref["count"]
            and all(a < b for a, b in zip(ranks, ranks[1:]))
            and all(is_strict_order(ground, b) for b in out)
        )
        if ok:
            self._verified = out
        return ok


WORKLOADS = {w.name: w for w in (Enum5(), Space3(), Falsify4(), Posets6())}
