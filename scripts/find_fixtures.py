#!/usr/bin/env python3
"""Regenerate the committed test fixtures.

Writes the golden wire-format bytes for chain(2) and the canonical key of
the smallest non-homogeneous trivial-sharp algebra located by scanning the
enumerated universe (it is also the smallest non-homogeneous and the
smallest non-lattice algebra; all three coincide at size 6).  Enumeration
emits each class as its canonical key, so the table found is written as it
is.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from effectkit import chain, find_counterexample, serialize

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "tests", "fixtures")


def main():
    os.makedirs(FIXTURES, exist_ok=True)

    with open(os.path.join(FIXTURES, "chain2.json"), "wb") as fh:
        fh.write(serialize(chain(2).table))

    found = find_counterexample(7)
    assert found.theorem is None, "structure theorem counterexample?!"
    assert found.non_homogeneous == found.non_homogeneous_trivial_sharp
    assert found.non_lattice == found.non_homogeneous
    key = serialize(found.non_homogeneous_trivial_sharp)
    with open(
        os.path.join(FIXTURES, "smallest_non_homogeneous_trivial_sharp.json"), "wb"
    ) as fh:
        fh.write(key)
    print("fixtures written to", os.path.abspath(FIXTURES))


if __name__ == "__main__":
    main()
