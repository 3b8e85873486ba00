"""Self-tests of the benchmark's own logic; they time nothing.

    python3 -m pytest -q bench
"""

import json
import os
import random
import types
from pathlib import Path

import pytest

import hostspeed
import run
import stats
import tracing
import workloads


# --- percentile rule --------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    random.Random(0).shuffle(values)
    assert stats.percentile(values, 0.5) == 50
    assert stats.percentile(values, 0.9) == 90
    assert stats.percentile([7.0], 0.9) == 7.0
    assert stats.percentile([3, 1, 2], 0.5) == 2
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)


def test_ten_samples_beyond_p90_needs_a_hundred_samples():
    assert stats.samples_beyond(100, 0.9) == 10
    assert stats.samples_beyond(99, 0.9) == 9
    assert stats.tail_percentile(100) == 90
    assert stats.tail_percentile(300) == 96
    assert stats.tail_percentile(14) == 28
    assert stats.tail_percentile(11) == 9
    assert stats.tail_percentile(10) is None


def test_tail_percentile_leaves_ten_beyond_and_the_next_would_not():
    for n in range(11, 400):
        p = stats.tail_percentile(n)
        assert stats.samples_beyond(n, p / 100) >= 10
        if p < 99:
            assert stats.samples_beyond(n, (p + 1) / 100) < 10


# --- failure counting -------------------------------------------------------


def test_failed_frac_counts_failures_over_attempts():
    assert stats.failed_frac([True] * 7) == 0
    assert stats.failed_frac([True, False, True, True]) == 0.25
    assert stats.failed_frac([False, False]) == 1
    with pytest.raises(ValueError):
        stats.failed_frac([])


# --- pass rule --------------------------------------------------------------


def test_pass_rule_honours_minimums_budget_and_cap():
    go = stats.start_another_pass
    assert go([], 0, 20, 2, 130)
    assert go([8.0], 8, 12, 2, 130)                  # minimum passes
    assert go([8.0, 8.0], 16, 24, 2, 130)            # ends exactly at 24
    assert not go([8.0, 8.0], 16, 23, 2, 130)        # would end after 23
    assert not go([5.0] * 3, 15.5, 20, 2, 130)
    assert not go([100.0], 100, 20, 2, 130)          # would end past the cap


# --- host speed -------------------------------------------------------------


def test_speed_scale_cancels_a_uniform_slowdown():
    nominal = 0.010
    # a pass of 6 s on a host where the loop takes 10 ms, and the same pass
    # on a host a third slower, where it takes 8 s and the loop 13.3 ms
    calm = 6.0 * stats.speed_scale(nominal, [0.010, 0.010])
    slow = 8.0 * stats.speed_scale(nominal, [0.040 / 3] * 5)
    assert calm == pytest.approx(6.0) and slow == pytest.approx(6.0)
    # the mean of the samples counts, not the last one
    assert stats.speed_scale(nominal, [0.010, 0.030]) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        stats.speed_scale(nominal, [])


def test_scales_use_the_samples_taken_during_each_interval():
    speed = hostspeed.HostSpeed()
    nominal = hostspeed.NOMINAL_S
    # the host is at nominal speed during the first pass and half as fast
    # during the second; set-up before them saw both speeds
    speed.samples = [(0.5, nominal), (1.5, nominal), (2.5, 2 * nominal),
                     (3.5, 2 * nominal), (4.5, 2 * nominal)]
    intervals = [(1.0, 2.0), (2.0, 4.0), (4.6, 4.7)]
    scales = run.speed_scales(intervals, speed)
    # the last interval holds no sample, so it takes the whole run's speed
    assert scales == pytest.approx([1.0, 0.5, 1 / 1.6])
    assert run.speed_scales([], speed) == []


def test_host_speed_pins_while_sampling_and_children_get_every_cpu():
    before = os.sched_getaffinity(0)
    speed = hostspeed.HostSpeed()
    speed.start()
    try:
        assert os.sched_getaffinity(0) == {min(before)}
        pid = os.fork()
        if pid == 0:  # a pool worker would be forked like this
            os._exit(0 if os.sched_getaffinity(0) == before else 1)
        assert os.waitpid(pid, 0)[1] == 0
    finally:
        speed.stop()
    speed.stop()  # a second stop is harmless
    assert os.sched_getaffinity(0) == before


def test_op_latency_is_each_ops_median_over_passes():
    phase = run.Phase()
    # three passes over the same two ops; the second pass ran on a host
    # half as fast, which its scale of 0.5 undoes
    phase.latencies = [[1.0, 3.0], [2.0, 6.0], [1.2, 2.6]]
    phase.walls = [sum(p) for p in phase.latencies]
    values = run.end_to_end(phase, [1.0, 0.5, 1.0], [0.010, 0.012, 0.011])
    assert values["wall_s"] == pytest.approx(4.0)     # of 4.0, 4.0, 3.8
    assert values["op_p50_ms"] == pytest.approx(2000.0)  # median of 1.0 and 3.0 s
    assert values["op_p90_ms"] == pytest.approx(3000.0)
    assert values["setup_s"] == 0.011
    phase.latencies.append([1.0])  # a pass of another length
    phase.walls.append(1.0)
    with pytest.raises(ValueError):
        run.end_to_end(phase, [1.0] * 4, [0.010])


# --- spans ------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    tr = tracing.Tracer(clock)

    def leaf():
        clock.now += 5

    def middle():
        clock.now += 2
        traced_leaf()
        clock.now += 1
        traced_leaf()

    def outer():
        clock.now += 10
        traced_middle()
        clock.now += 3

    traced_leaf = tr.wrap("m.leaf", leaf)
    traced_middle = tr.wrap("m.middle", middle)
    tr.wrap("m.outer", outer)()

    assert tracing.accounting_errors(tr.spans, tr.names) == []
    # outer lasts 10 + (2 + 5 + 1 + 5) + 3 = 26; middle 13; each leaf 5.
    assert tracing.self_times(tr.spans) == [13, 3, 5, 5]
    assert tracing.aggregate(tr.spans, tr.names) == {
        "m.outer": (1, 13), "m.middle": (1, 3), "m.leaf": (2, 10),
    }


def test_accounting_flags_unclosed_and_escaping_spans():
    names = ["a", "b"]
    nested = [[0, 0, 10, -1], [1, 2, 8, 0]]
    assert tracing.accounting_errors(nested, names) == []
    escaping = [[0, 0, 10, -1], [1, 5, 12, 0]]
    assert "outside its parent" in tracing.accounting_errors(escaping, names)[0]
    unclosed = [[0, 0, tracing.OPEN, -1]]
    assert "not closed" in tracing.accounting_errors(unclosed, names)[0]


def test_span_closes_when_the_call_raises():
    tr = tracing.Tracer(FakeClock())

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tr.wrap("m.boom", boom)()
    assert tracing.accounting_errors(tr.spans, tr.names) == []


def test_patch_rebinds_every_namespace_and_revert_restores():
    lib = types.ModuleType("pkg.lib")
    exec(
        "from functools import cached_property\n"
        "def public(x):\n    return helper(x) + 1\n"
        "def helper(x):\n    return 2 * x\n"
        "def _private():\n    return 0\n"
        "class Thing:\n"
        "    @cached_property\n"
        "    def prop(self):\n        return helper(3)\n",
        lib.__dict__,
    )
    for fn in (lib.public, lib.helper, lib._private):
        fn.__module__ = "pkg.lib"
    lib.Thing.__module__ = "pkg.lib"
    user = types.ModuleType("pkg.user")
    user.public = lib.public  # a from-import
    user._TABLE = {"go": lib.helper}  # a dispatch dict
    original, original_prop = lib.public, lib.Thing.__dict__["prop"]

    tr = tracing.Tracer(FakeClock())
    patch = tr.prepare([lib], [user, lib])
    assert user.public is original and tr.spans == []  # nothing applied yet
    for _ in range(2):
        patch.apply()
        assert user.public is lib.public is not original
        assert user._TABLE["go"] is lib.helper is not original
        assert user.public(1) == 3
        assert user._TABLE["go"](2) == 4
        assert lib.Thing().prop == 6

        patch.revert()
        assert user.public is original and lib.public is original
        assert user._TABLE["go"].__name__ == "helper" and not hasattr(
            user._TABLE["go"], "__wrapped__")
        assert lib.Thing.__dict__["prop"] is original_prop
        assert lib.Thing().prop == 6
    # wrappers are made once, so both applied intervals share the names
    assert sorted(tr.names) == ["lib.helper", "lib.prop", "lib.public"]
    calls = [tr.names[s[0]] for s in tr.spans]
    assert calls.count("lib.public") == 2 and calls.count("lib.prop") == 2
    assert calls.count("lib.helper") == 6  # via public, the dict and prop


# --- per-layer metric names -------------------------------------------------


def test_every_per_layer_metric_of_the_benchmark_has_a_rule():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer"]]
    phase = run.Phase()
    phase.walls, phase.oks, phase.child_cpu = [2.0], [True] * 4, [1.0]
    totals = {"lemmas.check_L14": (4, 10**9), "core.validate": (8, 2 * 10**9),
              "cli.cmd_analyze": (4, 3 * 10**9), "cli.main": (4, 10**9)}
    values = run.per_layer(names, phase, phase, totals, workers=2)
    assert set(values) == set(names)
    assert values["core.validate.calls_per_op"] == 2
    assert values["core.validate.self_s"] == 2
    assert values["lemmas.oracles.self_s"] == 1
    assert values["cli.commands.self_s"] == 3
    assert values["enumeration.pool.worker_util"] == 0.25
    assert values["trace.overhead_frac"] == 0


def test_trace_overhead_pairs_each_traced_pass_with_the_one_before():
    plain, traced = run.Phase(), run.Phase()
    # the host slows down over the run; each traced pass costs 10% more
    # than the untraced pass right before it, and an unpaired last
    # untraced pass is left out
    plain.walls, traced.walls = [1.0, 2.0, 4.0], [1.1, 2.2]
    traced.oks, traced.child_cpu = [True], [0.0, 0.0]
    value = run.per_layer(["trace.overhead_frac"], plain, traced, {}, 1)
    assert value["trace.overhead_frac"] == pytest.approx(0.1)


# --- reference answers ------------------------------------------------------


def test_partition_counts_and_golden_survey():
    assert [stats.partition_count(m) for m in range(8)] == [1, 1, 2, 3, 5, 7, 11, 15]
    rows = workloads.GOLDEN_SURVEY.splitlines()
    assert rows[0].split("\t")[0] == "size" and len(rows) == 8
    assert rows[-1] == "8\t40\t25\t22\t11\t11\t0"


def test_relabel_fixes_zero_and_preserves_every_sum():
    # chain of length 3: 0, a, 2a, 3a = 1
    rows = [[i + j if i + j <= 3 else -1 for j in range(4)] for i in range(4)]
    one, moved = workloads.relabel(4, 3, rows, random.Random(5))
    assert moved[0] == list(range(4))  # 0 stays the zero
    # h maps moved labels back to original labels: a is the atom, whose
    # double is defined and not the unit
    a = next(x for x in range(1, 4) if x != one and moved[x][x] not in (-1, one))
    h = {0: 0, a: 1, moved[a][a]: 2, one: 3}
    assert sorted(h) == [0, 1, 2, 3]
    for x in range(4):
        for y in range(4):
            v = moved[x][y]
            assert rows[h[x]][h[y]] == (-1 if v == -1 else h[v])


def test_size_schedule_and_splits_stay_in_range():
    sizes = workloads.size_schedule(60, 4, 75)
    assert sizes == sorted(sizes) and sizes[0] == 4 and sizes[-1] <= 75
    rng = random.Random(1)
    for total in range(1, 40):
        for parts in range(1, min(total, 6) + 1):
            split = workloads.near_even_split(rng, total, parts)
            assert sum(split) == total and len(split) == parts and min(split) >= 1
    for slot in range(20):
        for n in (4, 9, 30, 75):
            shape = workloads.product_shape(slot, n, 75)
            size = 1
            for k in shape:
                size *= k + 1
            assert 4 <= size <= 75
