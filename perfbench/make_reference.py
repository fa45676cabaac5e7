"""Regenerate data/inputs.json and data/reference.json.

    python3 perfbench/make_reference.py

inputs.json holds the JSON documents the `cli-green` workload feeds to
the CLI (FP(Z), FP(Z[G]), the Burnside Mackey functor and the Burnside
Green functor per group).  reference.json holds the outputs every
`tor` and `cli-green` op must reproduce.  Both were recorded from the
library as it stood when the benchmark was defined; rerun this only on
purpose, because later commits are checked against these outputs.
A corrupted input must be rejected, so its reference is exit code 1,
whatever the recording library did with it.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from mackeykit import jsonio  # noqa: E402
from mackeykit.abgroups import FinPresAbGroup  # noqa: E402
from mackeykit.convolution import burnside_green  # noqa: E402
from mackeykit.groups import builtin_group  # noqa: E402
from mackeykit.mackey import (  # noqa: E402
    burnside_mackey,
    fixed_point_mackey,
    regular_module,
    trivial_module,
)

import inputs  # noqa: E402
import ops  # noqa: E402

REJECTED = {"exit": 1, "payload": {"schema_version": 1, "valid": False}}


def base_docs():
    docs = {}
    for name in inputs.MACKEY_GROUPS:
        group = builtin_group(name)
        Z = FinPresAbGroup.free(1)
        docs[name] = {
            "fp_z": jsonio.mackey_to_json(
                fixed_point_mackey(group, Z, trivial_module(group, Z))),
            "fp_zg": jsonio.mackey_to_json(
                fixed_point_mackey(group, *regular_module(group))),
            "burnside": jsonio.mackey_to_json(burnside_mackey(group)),
        }
    for name in inputs.GREEN_GROUPS:
        docs[name]["green"] = jsonio.green_to_json(
            burnside_green(builtin_group(name)))
    return docs


def write_json(name, doc, indent=None):
    with open(os.path.join(inputs.DATA_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=indent, sort_keys=True)
        fh.write("\n")


def main(workdir):
    docs = base_docs()
    write_json("inputs.json", docs)
    reference = {}
    ctx = {}
    for op in inputs.tor_ops() + inputs.cli_ops(inputs.rep_rng(0, 0), docs,
                                                workdir):
        if "corruption" in op:
            reference[op["id"]] = REJECTED
        else:
            reference[op["id"]] = ops.run_op(op, ctx)
        print(op["id"], file=sys.stderr)
    write_json("reference.json", reference, indent=1)


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        main(tmp)
