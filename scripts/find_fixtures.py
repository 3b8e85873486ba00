#!/usr/bin/env python3
"""Regenerate the committed test fixtures.

Writes the golden wire-format bytes for chain(2) and the canonical key of
the smallest non-homogeneous algebra.  One scan over the enumerated keys of
sizes 2..6 finds it: the first key that is not homogeneous, which turns up
at size 6.  It also has trivial sharps and is not a lattice, and every key
before it is a lattice, so it is the smallest non-homogeneous trivial-sharp
algebra and the smallest non-lattice one as well; the scan asserts all of
this.  Enumeration emits each class as its canonical key, so the key found
is written as it is.

Run: python scripts/find_fixtures.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from effectkit import chain, enumerate_all, is_homogeneous, parse, serialize, validate

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "tests", "fixtures")


def _smallest_non_homogeneous():
    for n in range(2, 7):
        for key in enumerate_all(n):
            e = validate(parse(key))
            if not is_homogeneous(e):
                return key, e
            assert e.is_lattice, "a smaller non-lattice algebra"
    raise AssertionError("no non-homogeneous algebra up to size 6")


def fixtures():
    """The fixture files as {file name: bytes}."""
    key, e = _smallest_non_homogeneous()
    assert e.sharp_set == (0, e.one), "the smallest non-homogeneous has non-trivial sharps"
    assert not e.is_lattice, "the smallest non-homogeneous is a lattice"
    return {
        "chain2.json": serialize(chain(2).table),
        "smallest_non_homogeneous_trivial_sharp.json": key,
    }


def main():
    os.makedirs(FIXTURES, exist_ok=True)
    for name, data in fixtures().items():
        with open(os.path.join(FIXTURES, name), "wb") as fh:
            fh.write(data)
    print("fixtures written to", os.path.abspath(FIXTURES))


if __name__ == "__main__":
    main()
