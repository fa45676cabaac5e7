"""Seeded op lists for the three workloads.

This module uses only the standard library: the benchmark builds every
input here, in the parent process, before any worker imports mackeykit.
An op is a JSON object with a seed-independent ``id`` (the key of its
reference output) and the data its kind needs.
"""

from __future__ import annotations

import copy
import json
import os
import random

WORKLOADS = ("tor", "spans", "cli-green")

# Seeds do not change `tor`: its inputs are fixed constructions.
SEEDED = {"tor": False, "spans": True, "cli-green": True}

SPAN_GROUPS = ("trivial", "C2", "C3", "C4", "C2xC2", "S3", "C6", "D4", "Q8")
MACKEY_GROUPS = ("C4", "C2xC2", "S3", "C6", "D4", "Q8")
GREEN_GROUPS = ("C4", "C2xC2", "S3", "C6")

SPAN_TRIPLES = 300
SPAN_INTERCHANGES = 30

DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def rep_rng(seed, rep):
    """The generator for repetition `rep` of a run with this seed."""
    return random.Random(f"{seed}/{rep}")


def tor_ops():
    ops = []
    for group in ("C4", "S3"):
        for left, right in (("FP", "Q"), ("R", "Q"), ("Q", "FP")):
            ops.append({"id": f"tor0/{group}/{left},{right}", "kind": "tor0",
                        "group": group, "left": left, "right": right})
    for group in ("C4", "C2xC2", "S3", "C6"):
        ops.append({"id": f"tor-free/{group}", "kind": "tor_free",
                    "group": group, "pmax": 3})
    for group in ("C2", "C3"):
        ops.append({"id": f"ss/{group}", "kind": "ss", "group": group,
                    "pmax": 2})
    return ops


def _element(rng, support=2):
    """A Burnside element as (basis selector, coefficient) pairs.

    The worker reduces each selector modulo the size of the hom basis, so
    the draw needs no knowledge of the group.
    """
    return [[rng.getrandbits(32), rng.randint(-2, 2)] for _ in range(support)]


def spans_ops(rng):
    ops = []
    for group in SPAN_GROUPS:
        triples = [[rng.getrandbits(16) for _ in range(4)]
                   + [_element(rng) for _ in range(3)]
                   for _ in range(SPAN_TRIPLES)]
        interchanges = [[rng.getrandbits(16) for _ in range(6)]
                        + [_element(rng) for _ in range(4)]
                        for _ in range(SPAN_INTERCHANGES)]
        ops.append({"id": f"spans/{group}", "kind": "spans", "group": group,
                    "triples": triples, "interchanges": interchanges})
    return ops


def load_base_docs():
    with open(os.path.join(DATA_DIR, "inputs.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _bump_transfer(rng, doc):
    doc = copy.deepcopy(doc)
    key = rng.choice(sorted(doc["tr"]))
    mat = doc["tr"][key]
    i = rng.randrange(len(mat))
    j = rng.randrange(len(mat[i]))
    mat[i][j] += 1
    return doc, f"tr[{key}][{i}][{j}] += 1"


def _bump_ring_cell(rng, doc):
    doc = copy.deepcopy(doc)
    label = rng.choice(sorted(doc["rings"]))
    table = doc["rings"][label]
    i = rng.randrange(len(table))
    j = rng.randrange(len(table[i]))
    k = rng.randrange(len(table[i][j]))
    table[i][j][k] += 1
    return doc, f"rings[{label}][{i}][{j}][{k}] += 1"


def cli_ops(rng, base, workdir):
    """CLI invocations on JSON files written to `workdir`.

    The CLI's own --seed (which drives the randomized Mackey check) is
    drawn from `rng` too, so the repetitions of a run cover several
    validator draws.
    """
    ops = []
    seed = rng.randrange(2 ** 31)

    def write(name, doc):
        path = os.path.join(workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    def cli(op_id, argv, note=None):
        op = {"id": op_id, "kind": "cli",
              "argv": argv + ["--format", "json", "--seed", str(seed)]}
        if note:
            op["corruption"] = note
        ops.append(op)

    for group in MACKEY_GROUPS:
        docs = base[group]
        fp_z = write(f"{group}-fp_z.json", docs["fp_z"])
        fp_zg = write(f"{group}-fp_zg.json", docs["fp_zg"])
        burnside = write(f"{group}-burnside.json", docs["burnside"])
        bad, note = _bump_transfer(rng, docs["burnside"])
        bad_path = write(f"{group}-burnside-bad.json", bad)
        cli(f"mackey-check/{group}/fp_z", ["mackey-check", fp_z])
        cli(f"mackey-check/{group}/fp_zg", ["mackey-check", fp_zg])
        cli(f"mackey-check/{group}/burnside-bad", ["mackey-check", bad_path],
            note)
        cli(f"box/{group}/burnside,fp_zg", ["box", burnside, fp_zg])
    for group in GREEN_GROUPS:
        docs = base[group]
        green = write(f"{group}-green.json", docs["green"])
        bad, note = _bump_ring_cell(rng, docs["green"])
        bad_path = write(f"{group}-green-bad.json", bad)
        cli(f"green-check/{group}/burnside", ["green-check", green])
        cli(f"green-check/{group}/burnside-bad", ["green-check", bad_path],
            note)
        cli(f"bpq/{group}", ["bpq", "--group", group])
    return ops


def build_ops(workload, seed, rep, workdir, base=None):
    """The op list of one repetition; the same (seed, rep) gives the same ops."""
    if workload == "tor":
        return tor_ops()
    rng = rep_rng(seed, rep)
    if workload == "spans":
        return spans_ops(rng)
    if workload == "cli-green":
        return cli_ops(rng, base or load_base_docs(), workdir)
    raise ValueError(f"unknown workload {workload!r}")
