"""The byte contract: every reference output of the CLI hashes to the line
committed in ``tools/output_hashes.txt``."""
import itertools
import pathlib
import subprocess
import sys

import numpy as np

TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools"


def test_outputs_hash_to_the_committed_listing():
    recorded_with, *want = (TOOLS / "output_hashes.txt").read_text().splitlines()
    proc = subprocess.run(
        [sys.executable, str(TOOLS / "output_hashes.py")],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    changed = [
        f"  - {w}\n  + {g}"
        for w, g in itertools.zip_longest(want, proc.stdout.splitlines(), fillvalue="(no line)")
        if w != g
    ]
    assert not changed, (
        "output bytes differ from tools/output_hashes.txt:\n" + "\n".join(changed)
        + f"\nThe listing was made with {recorded_with.lstrip('# ')}, this run has numpy "
        f"{np.__version__}: a numpy upgrade, not the change, can move the bytes. A change "
        "that announces new bytes rewrites the listing (see tools/output_hashes.py)."
    )
