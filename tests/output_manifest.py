"""The output manifest: one SHA-256 per named output of the library.

    PYTHONPATH=src python tests/output_manifest.py

rewrites tests/data/output_manifest.json from the library as it stands.
`tests/test_output_manifest.py` recomputes every hash and names each
artifact that differs, so a refactor that means to keep its outputs
proves it in Tier-1.  Rerun this only on purpose, when an output is
meant to change, and name every changed artifact and the reason in
CHANGES.md.

The artifacts are demo stdout; the Mackey JSON and the
`validate_functoriality` report of Burnside, FP(Z), FP(Z[G]), FP(Z)/2
and K0 on the built-in groups; criterion 7's Tor invariant factors and
Tor_0 witness matrices on the battery; one CLI JSON payload per
command; and the text output of the commands that print level tables.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from mackeykit import cli, intmat, jsonio  # noqa: E402
from mackeykit.abgroups import FinPresAbGroup  # noqa: E402
from mackeykit.burnside import hom_basis  # noqa: E402
from mackeykit.convolution import burnside_green  # noqa: E402
from mackeykit.groups import BUILTIN_GROUP_NAMES, builtin_group  # noqa: E402
from mackeykit.gsets import point_gset, standard_orbit  # noqa: E402
from mackeykit.homalg import canonical_module, free_module, tor  # noqa: E402
from mackeykit.ktheory import k0_mackey  # noqa: E402
from mackeykit.mackey import (  # noqa: E402
    MackeyMorphism,
    burnside_mackey,
    cokernel,
    fixed_point_mackey,
    regular_module,
    trivial_module,
)
from support import gset_to_json  # noqa: E402

MANIFEST = os.path.join(HERE, "data", "output_manifest.json")
DEMOS = os.path.join(ROOT, "demos")
BATTERY = ("trivial", "C2", "C3", "C4", "C2xC2", "S3", "C6")
# CLI commands whose `--format text` output is recorded as well
TEXT_COMMANDS = ("mackey-check", "box", "green-check", "tor")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _json_bytes(doc) -> bytes:
    return json.dumps(doc, sort_keys=True).encode()


def _fp_z(group):
    Z = FinPresAbGroup.free(1)
    return fixed_point_mackey(group, Z, trivial_module(group, Z))


def _mod_two(FP):
    two = MackeyMorphism(FP, FP, [intmat.intmat([[2]])] * len(FP.levels))
    return cokernel(two)[0]


def demo_artifacts():
    env = {**os.environ, "PYTHONPATH": SRC}
    for name in sorted(os.listdir(DEMOS)):
        if name.endswith(".py"):
            out = subprocess.run([sys.executable, os.path.join(DEMOS, name)],
                                 env=env, cwd=ROOT, capture_output=True,
                                 check=True).stdout
            yield f"demo/{name[:-3]}", out


def mackey_artifacts():
    """Mackey JSON and the validator's report, per functor and group."""
    for name in BUILTIN_GROUP_NAMES:
        group = builtin_group(name)
        FP = _fp_z(group)
        functors = {"burnside": burnside_mackey(group), "fp_z": FP,
                    "fp_zg": fixed_point_mackey(group, *regular_module(group)),
                    "fp_z_mod_2": _mod_two(FP), "k0": k0_mackey(group)}
        for kind, M in functors.items():
            yield f"mackey_json/{name}/{kind}", \
                _json_bytes(jsonio.mackey_to_json(M))
            yield f"validate_functoriality/{name}/{kind}", \
                _json_bytes(M.validate_functoriality())


def tor_artifacts():
    """Criterion 7 on the battery: factors and witness of each triple."""
    for name in BATTERY:
        group = builtin_group(name)
        R = burnside_green(group, check=False)
        FP = _fp_z(group)
        mods = {"FP": canonical_module(R, FP),
                "FP/2": canonical_module(R, _mod_two(FP)),
                "R": canonical_module(R, R.underlying)}
        F = free_module(R, standard_orbit(group, 0))
        runs = [(f"{a},{b}", mods[a], mods[b], 0)
                for a, b in (("FP", "FP/2"), ("R", "FP/2"), ("FP/2", "FP"))]
        runs.append(("FP,R^(G/e)", mods["FP"], F, 3))
        for label, M, N, pmax in runs:
            result = tor(R, M, N, pmax)
            yield f"tor/{name}/{label}/factors", _json_bytes(
                [[list(lvl.invariant_factors) for lvl in T.levels]
                 for T in result.tor])
            yield f"tor/{name}/{label}/witness", _json_bytes(
                [m.tolist() for m in result.tor0_witness.mats])


def _cli_run(argv):
    """(exit code, stdout) of the CLI on argv."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _cli_payload(argv) -> bytes:
    code, out = _cli_run(argv + ["--format", "json"])
    return _json_bytes({"exit": code, "payload": json.loads(out)})


def _cli_text(argv) -> bytes:
    code, out = _cli_run(argv + ["--format", "text"])
    return _json_bytes({"exit": code, "stdout": out})


def cli_artifacts():
    """One JSON payload per CLI command, on C2 and S3 inputs, and the text
    output of TEXT_COMMANDS."""
    S3 = builtin_group("S3")
    C2 = builtin_group("C2")
    O, pt = standard_orbit(C2, 0), point_gset(C2)
    with tempfile.TemporaryDirectory() as tmp:
        def write(name, doc):
            path = os.path.join(tmp, name)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            return path

        def element(src, tgt):
            return {"group": "C2", "source": gset_to_json(src),
                    "target": gset_to_json(tgt),
                    "coefficients": [[jsonio.code_to_json(
                        C2, hom_basis(src, tgt)[0]), 1]]}

        burnside_doc = jsonio.mackey_to_json(burnside_mackey(C2))
        fp = write("fp.json", jsonio.mackey_to_json(_fp_z(S3)))
        q = write("q.json", jsonio.mackey_to_json(_mod_two(_fp_z(S3))))
        runs = {
            "group-info": ["group-info", "--group", "S3"],
            "marks": ["marks", "--group", "S3"],
            "burnside-ring": ["burnside-ring", "--group", "S3"],
            "hom-basis": ["hom-basis", "--group", "S3", "--source", "e+C2",
                          "--target", "C3"],
            "compose": ["compose", write("tr.json", element(O, pt)),
                        write("res.json", element(pt, O))],
            "mackey-check": ["mackey-check", fp],
            "box": ["box", fp, q],
            "green-check": ["green-check", write(
                "green.json", jsonio.green_to_json(burnside_green(S3)))],
            "tor": ["tor", write("ring.json", {"burnside": "S3"}), fp, q,
                    "--pmax", "2"],
            "ss": ["ss", write("cx.json", {
                "group": "C2", "terms": {"0": burnside_doc, "1": burnside_doc},
                "diffs": {"1": {"e": [[2]], "C2": [[2, 0], [0, 2]]}},
                "filtration": "skeletal"}), "--rmax", "2"],
            "bpq": ["bpq", "--group", "S3"],
            "duality-check": ["duality-check", "--group", "S3"],
            "promonoidal-check": ["promonoidal-check", "--group", "S3",
                                  "--feet", "e", "C2"],
        }
        for command, argv in runs.items():
            yield f"cli/{command}", _cli_payload(argv)
            if command in TEXT_COMMANDS:
                yield f"cli_text/{command}", _cli_text(argv)


def compute():
    """{artifact name: SHA-256 of its bytes}."""
    out = {}
    for source in (demo_artifacts, mackey_artifacts, tor_artifacts,
                   cli_artifacts):
        for name, data in source():
            out[name] = _sha(data)
    return out


def load():
    with open(MANIFEST, encoding="utf-8") as fh:
        return json.load(fh)


def main():
    with open(MANIFEST, "w", encoding="utf-8") as fh:
        json.dump(compute(), fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
