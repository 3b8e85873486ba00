"""Constructors for the standard corpus algebras, plus JSON parse/serialize.

Wire format, bit-exact for hashing: {"size":N,"one":K,"sum":[[...],...]}
with -1 marking an undefined sum, no insignificant whitespace, newline
terminated.
"""

import json
import math
import sys

from .core import UNDEF, CheckedEffectAlgebra, EffectAlgebraTable, validate


# Largest algebra a table file or a spec may describe, checked before the
# matrix is walked or anything is built.  validate decides associativity
# from the atoms' triples; only on a non-associative table does it scan
# every triple, cubic in the size, to name the witness (about 0.18 s for
# the whole scan on chain:255).  On chain:255 the lemmas, analyze and
# decompose commands each take about 0.12-0.17 s (median of 9 runs,
# CPython 3.11, 2 vCPUs).
MAX_SIZE = 256


class ParseError(Exception):
    """offset is the byte offset of a JSON syntax error, None for errors
    about the document's content, where no offset is known."""

    def __init__(self, message, offset=None):
        self.offset = offset
        super().__init__(message if offset is None else f"{message} (byte offset {offset})")


class SpecError(ValueError):
    """Malformed compact constructor spec string."""


# A SpecError quotes at most this many characters of the spec, and a
# ParseError as many of a rejected cell's repr, then "...", so the error
# about a huge spec or cell is still one short line.
SPEC_QUOTE_CHARS = 100


def _clip(text):
    return text if len(text) <= SPEC_QUOTE_CHARS else text[:SPEC_QUOTE_CHARS] + "..."


def _quote(text):
    cut = text[:SPEC_QUOTE_CHARS]
    return repr(cut) if cut == text else repr(cut) + "..."


def chain(n):
    """Total-order algebra {0, a, 2a, ..., na = 1}; ka + ma defined iff k+m <= n."""
    if n < 1:
        raise ValueError("chain length must be >= 1")
    rows = [
        [i + j if i + j <= n else UNDEF for j in range(n + 1)] for i in range(n + 1)
    ]
    return validate(EffectAlgebraTable.from_rows(n + 1, n, rows))


def _as_checked(x):
    if isinstance(x, CheckedEffectAlgebra):
        return x
    return validate(x)


def horizontal_sum(summands):
    """Glue algebras at a shared 0 and shared 1.

    Interior elements of distinct summands are never summable; size-2
    summands contribute no interior elements and are absorbed.  Element
    order: 0, summand interiors in argument order, 1.
    """
    checked = [_as_checked(e) for e in summands]
    if not checked:
        raise ValueError("horizontal sum needs at least one summand")

    interiors = []  # (summand, local index) per global interior element
    local_to_global = []
    for t, e in enumerate(checked):
        mapping = {}
        for x in e.carrier:
            if x != 0 and x != e.one:
                mapping[x] = 1 + len(interiors)
                interiors.append((t, x))
        local_to_global.append(mapping)

    size = 2 + len(interiors)
    one = size - 1
    for t, mapping in enumerate(local_to_global):
        mapping[0] = 0
        mapping[checked[t].one] = one

    rows = [[UNDEF] * size for _ in range(size)]
    for x in range(size):
        rows[0][x] = rows[x][0] = x
    for gi, (t, x) in enumerate(interiors, start=1):
        e = checked[t]
        for y in e.carrier:
            v = e.table.sum[x][y]
            if v != UNDEF:
                rows[gi][local_to_global[t][y]] = local_to_global[t][v]
    return validate(EffectAlgebraTable.from_rows(size, one, rows))


def direct_product(e, f):
    """Coordinatewise product; (a,b)+(c,d) defined iff both coordinates are."""
    e, f = _as_checked(e), _as_checked(f)
    ne, nf = e.size, f.size
    size = ne * nf
    rows = [[UNDEF] * size for _ in range(size)]
    for a in range(ne):
        for b in range(nf):
            for c in range(ne):
                for d in range(nf):
                    ac = e.table.sum[a][c]
                    bd = f.table.sum[b][d]
                    if ac != UNDEF and bd != UNDEF:
                        rows[a * nf + b][c * nf + d] = ac * nf + bd
    return validate(
        EffectAlgebraTable.from_rows(size, e.one * nf + f.one, rows)
    )


def boolean_diamond():
    """The four-element Boolean algebra {0, p, q, 1} with p + q = 1, the
    product of two two-element chains."""
    return direct_product(chain(1), chain(1))


def serialize(table):
    """Canonical bytes: fixed key order, no whitespace, newline-terminated."""
    doc = {"size": table.size, "one": table.one, "sum": [list(r) for r in table.sum]}
    return (json.dumps(doc, separators=(",", ":")) + "\n").encode("ascii")


def parse(data):
    """Parse wire-format bytes into a table; axiom checking is validate's job.

    A size above MAX_SIZE raises ParseError before the matrix is read."""
    if isinstance(data, bytes):
        data = data.decode("utf-8", errors="replace")
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.pos) from exc
    except (RecursionError, ValueError) as exc:  # too deeply nested, too many digits
        raise ParseError(f"unreadable JSON: {exc}") from exc
    if not isinstance(doc, dict) or set(doc) != {"size", "one", "sum"}:
        raise ParseError("expected an object with keys size, one, sum")
    size, one, sum_ = doc["size"], doc["one"], doc["sum"]
    if type(size) is not int or size < 2:
        raise ParseError("size must be an integer >= 2")
    if size > MAX_SIZE:
        raise ParseError(f"size {size} is above the limit {MAX_SIZE}")
    if type(one) is not int or not 0 < one < size:
        raise ParseError("one must be an index in 1..size-1")
    if not isinstance(sum_, list) or len(sum_) != size:
        raise ParseError(f"sum must be a {size}x{size} matrix")
    for row in sum_:
        if not isinstance(row, list) or len(row) != size:
            raise ParseError(f"sum must be a {size}x{size} matrix")
        for v in row:
            if type(v) is not int or v < UNDEF or v >= size:
                raise ParseError(f"sum entry {_clip(repr(v))} out of range")
    return EffectAlgebraTable.from_rows(size, one, sum_)


CONSTRUCTOR_NAMES = ("chain", "hsum", "prod", "diamond")


def is_spec_string(text):
    head = text.split(":", 1)[0]
    return head in CONSTRUCTOR_NAMES


def from_spec(text):
    """Build a corpus algebra from a compact spec string.

    Grammar: "chain:N" | "hsum:L1,L2,..." | "prod:PART,PART" | "diamond",
    where PART is "chain:N" or "diamond".  A spec that would build more
    than MAX_SIZE elements raises SpecError.
    """
    name, colon, rest = text.partition(":")
    if name == "diamond":
        if colon:
            raise SpecError(f"diamond takes no arguments: {_quote(text)}")
        return boolean_diamond()
    if name == "chain":
        length = _spec_int(rest, text)
        _check_spec_size(length + 1, text)
        return chain(length)
    if name == "hsum":
        lengths = [_spec_int(p, text) for p in rest.split(",")]
        _check_spec_size(2 + sum(l - 1 for l in lengths), text)
        return horizontal_sum([chain(l) for l in lengths])
    if name == "prod":
        parts = rest.split(",")
        if not all(p.startswith("chain:") or p == "diamond" for p in parts):
            raise SpecError(f"prod factors must be chain:N or diamond: {_quote(text)}")
        if len(parts) < 2:
            raise SpecError(f"prod needs at least two factors: {_quote(text)}")
        sizes = [4 if p == "diamond" else _spec_int(p[len("chain:"):], p) + 1
                 for p in parts]
        _check_spec_size(math.prod(sizes), text)
        result = from_spec(parts[0])
        for p in parts[1:]:
            result = direct_product(result, from_spec(p))
        return result
    raise SpecError(f"unknown constructor {_quote(name)}")


def _check_spec_size(size, text):
    if size > MAX_SIZE:
        try:
            count = str(size)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            count = f"at least 10**{sys.get_int_max_str_digits()}"
        raise SpecError(f"{_quote(text)} has {count} elements, above the limit {MAX_SIZE}")


def _spec_int(text, whole):
    try:
        value = int(text)
    except ValueError:
        raise SpecError(f"expected an integer in {_quote(whole)}") from None
    if value < 1:
        raise SpecError(f"lengths must be >= 1 in {_quote(whole)}")
    return value
