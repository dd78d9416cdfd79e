"""Print a sha256 digest of each of a fixed list of reports, for byte-identity checks.

Usage::

    python tools/report_digests.py [LABEL ...]

Each report runs in process through ``cli.run`` with one BLAS thread,
from a scratch directory, so that the counterexample's witness lands at
the same relative path in every checkout; the witness gets its own
line.  Output is one ``<sha256>  <label>`` line per file, in list
order; with labels given, only those reports run.  Two checkouts give
the same reports byte for byte exactly when their outputs diff clean.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads

import hashlib  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from wy_stability import cli  # noqa: E402

PARITY = ["--set", "lam=0.7,0.5,-1.2"]
REPORTS = {
    "scan": ["scan"],
    "scan-25x50-l24-seed7": ["scan", "--grid", "25x50", "--ltrunc", "24", "--seed", "7"],
    "scan-25x51-l24-parity": ["scan", "--grid", "25x51", "--ltrunc", "24", *PARITY],
    "scan-49x98-l48-parity": ["scan", "--grid", "49x98", "--ltrunc", "48", *PARITY],
    "scan-r-list": ["scan", "--set", "r_list=0.5,0.3,0.2,1e-4"],
    "scan-13x26-l12-lam2": ["scan", "--grid", "13x26", "--ltrunc", "12", "--set", "lam=2,-1,-1"],
    # the Gram-sum rule refuses the (1e305, 0.1) row inside the rows' batch
    "scan-13x26-l12-row-refused": ["scan", "--grid", "13x26", "--ltrunc", "12", "--set", "bbar_list=0,1e305"],
    "scan-49x98-l48": ["scan", "--grid", "49x98", "--ltrunc", "48"],
    "scan-73x146-l72": ["scan", "--grid", "73x146", "--ltrunc", "72"],
    "scan-25x50-l24-bracket-odd": ["scan", "--grid", "25x50", "--ltrunc", "24", "--set", "bracket=0,0.02"],
    "scan-25x50-l24-bracket-refused-hi": ["scan", "--grid", "25x50", "--ltrunc", "24", "--set", "bracket=0.05,1e305"],
    "scan-7x26-l3-huge-bracket": [
        "scan", "--grid", "7x26", "--ltrunc", "3", "--set", "bracket=0,1e300", "--set", "bisect_r=1.3e-77",
    ],
    "certify-const-eps0.3": ["certify", "--set", "eps=0.3"],
    "certify-const-eps1.5": ["certify", "--set", "eps=1.5"],
    "certify-const-49x98-l48-eps1.5": ["certify", "--grid", "49x98", "--ltrunc", "48", "--set", "eps=1.5"],
    "certify-quartic": ["certify", "--set", "family=quartic"],
    "certify-quartic-parity": ["certify", "--set", "family=quartic", *PARITY],
    # the quartic certify path at a non-default r: margins.deficit reads
    # -3.8e-20 against a true 0, the digit that carrying h's mean moves
    "certify-quartic-25x50-l24-r1e-3": [
        "certify", "--grid", "25x50", "--ltrunc", "24", "--set", "family=quartic", "--set", "r=1e-3",
    ],
    "counterexample": ["counterexample"],
    "counterexample-13x26-l12": ["counterexample", "--grid", "13x26", "--ltrunc", "12"],
    "counterexample-49x98-l48-r1e-4": ["counterexample", "--grid", "49x98", "--ltrunc", "48", "--set", "r=1e-4"],
    "counterexample-25x50-l24-tilted": [
        "counterexample", "--grid", "25x50", "--ltrunc", "24", "--set", "a=0.3,-0.5,0.8", *PARITY,
    ],
    "gform": ["gform"],
    "gform-25x50-l24-directions8": ["gform", "--grid", "25x50", "--ltrunc", "24", "--set", "directions=8"],
    "gform-49x98-l48-directions8": ["gform", "--grid", "49x98", "--ltrunc", "48", "--set", "directions=8"],
}


def digests(labels):
    """Yield ``<sha256>  <label>`` for each report named, and for each witness it writes."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for label in labels:
                _, text = cli.run(cli.parse_args(REPORTS[label]))
                yield f"{hashlib.sha256(text.encode()).hexdigest()}  {label}"
                witness = Path("witness.json")
                if witness.exists():
                    yield f"{hashlib.sha256(witness.read_bytes()).hexdigest()}  {label}.witness"
                    witness.unlink()
        finally:
            os.chdir(home)


def main(argv: list[str]) -> int:
    unknown = [label for label in argv if label not in REPORTS]
    if unknown:
        print(f"unknown report label(s) {unknown}; known: {', '.join(REPORTS)}", file=sys.stderr)
        return 2
    for line in digests(argv or list(REPORTS)):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
