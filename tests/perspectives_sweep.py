"""Every ``frsim perspectives`` call over the 24 variants, hashed into one SHA-256.

A byte-for-byte gate on the perspectives command: run it before and after a
change, and compare the digests.  The file name keeps pytest from collecting
it; at about 20 s it is too slow for the tier-1 suite.  From the repository
root::

    python3 tests/perspectives_sweep.py

It imports this checkout's ``src/frsim``, prints the sweep's record as one
JSON line on stdout and its runtime on stderr, and exits 1 when the record
differs from ``tests/data/perspectives_sweep.json``.

The calls, 24 x 4 x 243 = 23 328, in this order:

* each variant of ``variants.ALL_VARIANTS``, in its order;
* each time ``t`` in 0, 1, 2, 3;
* each ``Given``: every field of ``GIVEN_LABELS`` in its order
  (r, s, wbar, intrusion, w), each left out or set to one of its two labels,
  as ``itertools.product`` over ``(None, *labels)`` per field.

Each call's argv is::

    perspectives --t T --notebooks NB --announce on|off [--cheat] [--intrusion]
        --agent all [--given k=label,...]

with ``NB`` one of none, fbar, f, both, ``--cheat`` and ``--intrusion`` only
when the variant sets them, and ``--given`` only when a field is set, its
items joined by commas in field order.  ``frsim.cli.main(argv)`` runs in
process with stdout and stderr captured.  Each call adds the UTF-8 bytes of
``json.dumps([argv, exit_code, stdout, stderr]) + "\\n"`` to the SHA-256,
``json.dumps`` with its default arguments.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from frsim.cli import main  # noqa: E402
from frsim.perspectives import GIVEN_LABELS  # noqa: E402
from variants import ALL_VARIANTS  # noqa: E402

RECORD = Path(__file__).parent / "data" / "perspectives_sweep.json"

_NOTEBOOK_FLAGS = {frozenset(): "none", frozenset({"Fbar"}): "fbar",
                   frozenset({"F"}): "f", frozenset({"Fbar", "F"}): "both"}


def sweep_argvs():
    """Every call's argv, in sweep order."""
    choices = [(None, *labels) for labels in GIVEN_LABELS.values()]
    for variant in ALL_VARIANTS:
        flags = ["--notebooks", _NOTEBOOK_FLAGS[variant.notebooks],
                 "--announce", "on" if variant.announce_wbar else "off"]
        flags += ["--cheat"] * variant.cheat + ["--intrusion"] * variant.intrusion
        for t in range(4):
            for labels in itertools.product(*choices):
                given = ",".join(f"{field}={label}"
                                 for field, label in zip(GIVEN_LABELS, labels) if label is not None)
                yield ["perspectives", "--t", str(t), *flags, "--agent", "all",
                       *(["--given", given] if given else [])]


def run_sweep() -> dict:
    digest, codes = hashlib.sha256(), Counter()
    for argv in sweep_argvs():
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        codes[code] += 1
        digest.update((json.dumps([argv, code, stdout.getvalue(), stderr.getvalue()]) + "\n")
                      .encode())
    return {"calls": sum(codes.values()),
            "exit_codes": {str(code): n for code, n in sorted(codes.items())},
            "sha256": digest.hexdigest()}


if __name__ == "__main__":
    start = time.perf_counter()
    record = run_sweep()
    print(json.dumps(record, sort_keys=True))
    matches = record == json.loads(RECORD.read_text())
    print(f"{record['calls']} calls in {time.perf_counter() - start:.1f} s; "
          f"{'matches' if matches else 'DIFFERS FROM'} {RECORD.relative_to(ROOT)}", file=sys.stderr)
    sys.exit(0 if matches else 1)
