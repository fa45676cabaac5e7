"""Outputs unchanged: every artifact hashes as `output_manifest.py` recorded.

A failure names each artifact whose SHA-256 differs, and each one that
is missing from either side.  Re-record with
`PYTHONPATH=src python tests/output_manifest.py` only when an output is
meant to change.
"""

import output_manifest


def test_every_artifact_matches_the_manifest():
    want = output_manifest.load()
    got = output_manifest.compute()
    changed = sorted(k for k in want.keys() & got.keys() if want[k] != got[k])
    missing = sorted(want.keys() - got.keys())
    new = sorted(got.keys() - want.keys())
    assert not (changed or missing or new), (
        f"changed: {changed}; no longer produced: {missing}; "
        f"not in the manifest: {new}")
