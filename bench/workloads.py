"""Seeded input generators for the three benchmark workloads.

Every generator takes the seed and returns plain data: unit labels for the
regeneration worker, or the argv of ``sphroots`` CLI queries.  The program
under test only ever sees those inputs.  The same seed gives the same
inputs.  Different seeds change the order, which data are drawn and other
choices that leave the shape of a round alone, so figures from different
seeds are comparable.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

REFS = Path(__file__).resolve().parent / "refs"

# --- regen: enumeration.verify_tables on a fixed slice of the corpus --------

#: (family, rank) units of one regeneration pass: one type of every family
#: but G2 (which has no case) at rank 4-6.  A pass takes about 1.4 s, so
#: that a run holds enough passes for their 90th percentile to be steady.
REGEN_SLICE = {
    "full": [("A", 5), ("B", 5), ("C", 5), ("D", 6), ("E6", 6), ("F4", 4)],
    "tiny": [("B", 3), ("B", 4), ("C", 3)],
}

#: canonical cases one pass checks; every pass must repeat this exactly.
REGEN_PINNED_CASES = {"full": 53, "tiny": 11}


def regen_units(seed: int, size: str) -> list[str]:
    """The slice's units, as ``B3``-style labels, in seeded order."""
    units = [f"{family}{n}" if family in "ABCD" else family
             for family, n in REGEN_SLICE[size]]
    random.Random(seed).shuffle(units)
    return units


def split_unit(label: str) -> tuple[str, int | None]:
    """``B3`` -> ("B", 3); ``E8`` -> ("E8", None)."""
    if label[0] in "ABCD":
        return label[0], int(label[1:])
    return label, None


# --- cli_queries: one fresh CLI process per enumerated spherical case -------

#: the command mix; each round of nine queries runs each command three times.
CLI_COMMANDS = {
    "compute": ["compute"],
    "both": ["compute", "--method", "both"],
    "check": ["check"],
}

#: a round holds this many one-block and several-block cases.
ROUND_SINGLE, ROUND_MULTI = 6, 3


def datum_args(case: dict) -> list[str]:
    """CLI arguments naming one datum, JSON output."""
    return ["--type", case["type"], "--rank", str(case["rank"]),
            "--complement", ",".join(map(str, case["complement"])),
            "--psi", ";".join(",".join(map(str, v)) for v in case["psi"]),
            "--format", "json"]


def load_refs(name: str) -> dict:
    with open(REFS / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def cli_rounds(cases: list[dict], seed: int):
    """Endless rounds of (case, command) pairs drawn without replacement.

    Each round has six one-block and three several-block cases (the pool's
    own proportion) and three queries of each command, shuffled.  When the
    pool runs out it is reshuffled, so a run never repeats a datum before
    it has used all of them.
    """
    rng = random.Random(seed)
    single = [c for c in cases if c["blocks"] == 1]
    multi = [c for c in cases if c["blocks"] > 1]
    while True:
        rng.shuffle(single)
        rng.shuffle(multi)
        rounds = min(len(single) // ROUND_SINGLE, len(multi) // ROUND_MULTI)
        for r in range(rounds):
            group = (single[r * ROUND_SINGLE:(r + 1) * ROUND_SINGLE]
                     + multi[r * ROUND_MULTI:(r + 1) * ROUND_MULTI])
            commands = list(CLI_COMMANDS) * 3
            rng.shuffle(commands)
            rng.shuffle(group)
            yield list(zip(group, commands))


# --- large_rank: one-active-root leaves of table 1 at large rank ------------

#: table-1 rows of the classical families with the rank each is asked at;
#: every round asks each row once.  The ranks are fixed, not seeded, and
#: chosen so that every query costs about the same (0.5-0.9 s), so that the
#: 90th percentile of a run does not rest on one or two slow rows.
LEAF_SLOTS = [("A", 1, 24), ("B", 2, 22), ("B", 3, 21), ("C", 4, 22),
              ("C", 5, 20), ("C", 7, 21), ("C", 8, 22), ("C", 9, 21),
              ("C", 10, 20), ("D", 11, 21), ("D", "n", 22)]

#: the tiny size asks every row twelve ranks lower.
LEAF_RANK_SHIFT = {"full": 0, "tiny": -12}

#: choices of k for the (A_n, k) row.
LEAF_A_PARAMS = (1, 2, 3, 4)


def leaf_query(family: str, row, n: int, k: int) -> dict:
    """One leaf: the table-1 row and its datum in standard numbering."""
    if row == "n":
        row = 12 if n % 2 else 13
    params = (k,) if row == 1 else ()
    complement = {1: k, 2: 1, 3: n, 4: 1, 5: 2, 7: 3, 8: n - 2, 9: n - 1,
                  10: n, 11: 1, 12: n, 13: n}[row]
    return {"family": family, "row": row, "n": n, "params": params,
            "key": f"{family}{n}:r{row}:{','.join(map(str, params))}",
            "argv": ["compute", "--type", family, "--rank", str(n),
                     "--complement", str(complement), "--psi", "1",
                     "--format", "json"]}


def leaf_rounds(seed: int, size: str):
    """Endless rounds of one query per slot, in seeded order with seeded k."""
    rng = random.Random(seed)
    shift = LEAF_RANK_SHIFT[size]
    while True:
        queries = [leaf_query(family, row, n + shift, rng.choice(LEAF_A_PARAMS))
                   for family, row, n in LEAF_SLOTS]
        rng.shuffle(queries)
        yield queries


def all_leaf_queries(size: str) -> list[dict]:
    """Every query ``leaf_rounds`` can produce (for recording references)."""
    shift = LEAF_RANK_SHIFT[size]
    return [leaf_query(family, row, n + shift, k)
            for family, row, n in LEAF_SLOTS
            for k in (LEAF_A_PARAMS if row == 1 else (1,))]
