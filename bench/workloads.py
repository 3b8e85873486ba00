"""The benchmark's workloads: input generation, one timed pass, and the
correctness gate applied to every operation of the pass.

Each workload turns a seed into a fixed list of operations (a "pass").  A
run repeats passes; `run_pass` returns the latency samples of the pass
(covering only the program's work) and one `ok` per operation, the verdict
of the correctness check made after the clock stopped.  The
program is reached only through its public modules, looked up at call time
so that tracing wrappers installed on those modules are seen.

Reference answers come from outside the code under test: the class counts
and survey columns pinned below, integer partitions, and the parameters each
input was built from.
"""

import contextlib
import io
import json
import random
import sys
import time
import traceback
from pathlib import Path

from stats import partition_count

UNDEF = -1

# --- enumeration ------------------------------------------------------------

MAX_SIZE = 8
SURVEY_HEADER = ("size", "total", "homogeneous", "trivial_sharp",
                 "hypothesis_class", "theorem_verified", "counterexamples")
# Isomorphism classes of effect algebras per size 2..8, and the two survey
# columns that are not fixed by the theorem (homogeneous, trivial-sharp).
CLASS_TOTALS = {2: 1, 3: 1, 4: 3, 5: 4, 6: 10, 7: 14, 8: 40}
HOMOGENEOUS = {2: 1, 3: 1, 4: 3, 5: 4, 6: 9, 7: 12, 8: 25}
TRIVIAL_SHARP = {2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 9, 8: 22}


def golden_survey_row(n):
    """The expected TSV row for size n: the hypothesis class has p(n-2)
    members, every one verified, and no counterexample."""
    hyp = partition_count(n - 2)
    cols = (n, CLASS_TOTALS[n], HOMOGENEOUS[n], TRIVIAL_SHARP[n], hyp, hyp, 0)
    return "\t".join(str(c) for c in cols)


GOLDEN_SURVEY = "".join(
    line + "\n"
    for line in ["\t".join(SURVEY_HEADER)]
    + [golden_survey_row(n) for n in range(2, MAX_SIZE + 1)]
)

# --- shared helpers ---------------------------------------------------------


def relabel(size, one, rows, rng):
    """A random relabelling fixing 0 (perm[old] = new): (one, rows)."""
    tail = list(range(1, size))
    rng.shuffle(tail)
    perm = [0] + tail
    inv = [0] * size
    for old, new in enumerate(perm):
        inv[new] = old
    out = []
    for i in range(size):
        src = rows[inv[i]]
        out.append([UNDEF if src[inv[j]] == UNDEF else perm[src[inv[j]]]
                    for j in range(size)])
    return perm[one], out


def wire_bytes(size, one, rows):
    """The documented wire format: fixed key order, no whitespace, newline."""
    doc = {"size": size, "one": one, "sum": rows}
    return (json.dumps(doc, separators=(",", ":")) + "\n").encode("ascii")


def run_cli(cli, argv):
    """One in-process CLI call with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejecting the arguments
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


_reported_errors = 0


def report_error(context):
    """Print the current exception's traceback (first few only)."""
    global _reported_errors
    _reported_errors += 1
    if _reported_errors <= 3:
        print(f"op raised in {context}:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)


def size_schedule(count, lo, hi):
    """`count` sizes in lo..hi, fixed so that every seed does the same amount
    of work: evenly spaced quantiles of a distribution whose logarithm is
    skewed towards lo (half fall below lo * (hi/lo)**0.25)."""
    return [int(round(lo * (hi / lo) ** (((j + 0.5) / count) ** 2)))
            for j in range(count)]


def near_even_split(rng, total, parts):
    """`total` as a sum of `parts` positive integers: an even split, then
    `parts` random unit moves between parts, so the seed varies the shape
    while the cost stays close to that of the even split."""
    split = [total // parts + (i < total % parts) for i in range(parts)]
    for _ in range(parts):
        i, j = rng.randrange(parts), rng.randrange(parts)
        if split[i] > 1:
            split[i] -= 1
            split[j] += 1
    rng.shuffle(split)
    return split


def product_shape(slot, n, max_n):
    """Chain lengths of a product of chains of size near n.  Slots cycle
    through shapes: chain:1 twice with a third factor, or two factors with
    the first of length 1..3."""
    if slot % 4 == 3:
        return [1, 1, max(1, min(max_n // 4 - 1, round(n / 4) - 1))]
    a = 1 + slot % 4
    b = max(a, min(max_n // (a + 1) - 1, round(n / (a + 1)) - 1))
    return [a, b]


# --- workloads --------------------------------------------------------------


class Enumerate:
    """`effectkit enumerate --max-size 8`, in-process.

    For the correctness gate one op is one size: its survey row must match
    the golden row, and the whole stdout must match byte for byte whatever
    --parallel is.  The latency sample is the whole command, because the
    command prints every row only when the last size is done.  The inputs do
    not depend on the seed."""

    def __init__(self, name, parallel):
        self.name = name
        self.parallel = parallel

    def setup(self, ek, seed, workdir):
        self.ek = ek
        self.argv = ["enumerate", "--max-size", str(MAX_SIZE)]
        if self.parallel > 1:
            self.argv += ["--parallel", str(self.parallel)]

    def run_pass(self, index):
        t0 = time.perf_counter()
        try:
            rc, out, _ = run_cli(self.ek.cli, self.argv)
        except Exception:
            report_error(self.name)
            rc, out = None, ""
        latency = time.perf_counter() - t0
        lines = out.split("\n")
        golden = GOLDEN_SURVEY.split("\n")
        header_ok = rc == 0 and lines[0] == golden[0]
        oks = [header_ok and len(lines) > k and lines[k] == golden[k]
               for k in range(1, MAX_SIZE)]
        if out != GOLDEN_SURVEY:
            oks = [False] * len(oks) if all(oks) else oks
        return [latency], oks


SUITE = ("L14", "L15", "L20", "L22", "L30", "L31", "L32", "L33", "T36", "C1", "C2", "C3")
PASS, NA = "Pass", "NotApplicable"
FIXTURE = Path("tests") / "fixtures" / "smallest_non_homogeneous_trivial_sharp.json"


class SingleAlgebra:
    """`analyze`, `lemmas` and `decompose --format json` on one file per op.

    Mix: 60% horizontal sums of chains (hypothesis class: every oracle runs),
    20% horizontal sums containing the committed non-homogeneous fixture
    (witness path; decompose exits 1), 20% products of chains (the
    NotApplicable early exits; decompose exits 1).  Sizes run from 4 to 75,
    skewed so that small algebras dominate the count and large ones the time.
    """

    name = "single-algebra"
    parallel = 1
    MIX = (("chains", 60, 4), ("fixture", 20, 8), ("product", 20, 4))
    MAX_N = 75

    def __init__(self, root):
        self.fixture_bytes = (root / FIXTURE).read_bytes()

    def setup(self, ek, seed, workdir):
        self.ek = ek
        rng = random.Random(f"{seed}/{self.name}")
        plan = [(kind, slot, n) for kind, count, lo in self.MIX
                for slot, n in enumerate(size_schedule(count, lo, self.MAX_N))]
        rng.shuffle(plan)
        chain, hsum = ek.corpus.chain, ek.corpus.horizontal_sum
        fixture = ek.core.validate(ek.corpus.parse(self.fixture_bytes))
        self.items = []
        for idx, (kind, slot, n) in enumerate(plan):
            expect = {"kind": kind}
            if kind == "chains":
                m = n - 2
                lengths = [p + 1 for p in near_even_split(rng, m, min(m, 1 + slot % 6))]
                e = hsum([chain(k) for k in lengths])
                expect["lengths"] = sorted(lengths)
            elif kind == "fixture":
                m = n - fixture.size
                lengths = [p + 1 for p in near_even_split(rng, m, min(m, 1 + slot % 4))]
                summands = [chain(k) for k in lengths]
                summands.insert(rng.randint(0, len(summands)), fixture)
                e = hsum(summands)
            else:
                factors = product_shape(slot, n, self.MAX_N)
                e = chain(factors[0])
                for k in factors[1:]:
                    e = ek.corpus.direct_product(e, chain(k))
                expect["lengths"] = sorted(factors)
            one, rows = relabel(e.size, e.one, e.table.sum, rng)
            data = wire_bytes(e.size, one, rows)
            path = workdir / f"{idx:04d}.json"
            path.write_bytes(data)
            expect.update(size=e.size, one=one)
            self.items.append((str(path), data, expect))
        self.witness_ok = {}

    def run_pass(self, index):
        latencies, oks = [], []
        for idx, (path, data, expect) in enumerate(self.items):
            t0 = time.perf_counter()
            try:
                outs = [run_cli(self.ek.cli, [cmd, path, "--format", "json"])
                        for cmd in ("analyze", "lemmas", "decompose")]
            except Exception:
                report_error(f"{self.name} op {idx}")
                outs = None
            latencies.append(time.perf_counter() - t0)
            oks.append(outs is not None and self.check(idx, data, expect, outs))
        return latencies, oks

    def check(self, idx, data, expect, outs):
        try:
            return self._check(idx, data, expect, outs)
        except (ValueError, TypeError, KeyError, IndexError, AttributeError):
            return False  # output of an unexpected shape

    def _check(self, idx, data, expect, outs):
        (rc_a, out_a, _), (rc_l, out_l, _), (rc_d, out_d, _) = outs
        if rc_a != 0 or rc_l != 0:
            return False
        report = json.loads(out_a)
        verdicts = {r["lemma"]: r["verdict"] for r in json.loads(out_l)}
        kind, n, one = expect["kind"], expect["size"], expect["one"]
        if report.get("size") != n or report.get("one") != one:
            return False
        if list(verdicts) != list(SUITE):
            return False
        if kind == "chains":
            dec = json.loads(out_d)
            return (
                rc_d == 0
                and report["sharp"] == sorted([0, one])
                and report["homogeneous"] is True
                and report["lattice"] is True
                and sorted(report["isotropy"]) == expect["lengths"]
                and all(v == PASS for v in verdicts.values())
                and dec.get("chains") == expect["lengths"]
                and len(dec.get("labeling", ())) == n
            )
        # Fixture sums keep trivial sharps (L20 applies) but are not
        # homogeneous; products are homogeneous but have more sharps.
        applicable = {"L14", "L15", ("L20" if kind == "fixture" else "L22")}
        if rc_d != 1 or out_d:
            return False
        if any(v != (PASS if k in applicable else NA) for k, v in verdicts.items()):
            return False
        if kind == "product":
            return (
                len(report["sharp"]) == 2 ** len(expect["lengths"])
                and report["homogeneous"] is True
                and report["lattice"] is True
                and sorted(report["isotropy"]) == expect["lengths"]
            )
        if report["sharp"] != sorted([0, one]) or report["homogeneous"] is not False:
            return False
        # The homogeneity witness must re-check.  Computed once per input and
        # set-up, in the first pass after it; a traced run sets up only
        # before its first pass, which is untraced, so this check never
        # appears in the spans.
        if idx not in self.witness_ok:
            e = self.ek.core.validate(self.ek.corpus.parse(data))
            w = self.ek.lemmas.homogeneity_witness(e)
            self.witness_ok[idx] = (
                w is not None and self.ek.lemmas.verify_homogeneity_witness(e, w)
            )
        return self.witness_ok[idx]


def make(name, root, usable_cpus):
    if name == "enum-serial":
        return Enumerate(name, 1)
    if name == "enum-par2":
        return Enumerate(name, min(2, usable_cpus))
    if name == "single-algebra":
        return SingleAlgebra(root)
    raise ValueError(f"unknown workload {name!r}")
