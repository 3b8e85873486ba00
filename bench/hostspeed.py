"""The host's speed, measured with a fixed reference loop all through a run.

The benchmark runs on shared hosts whose speed changes by a third or more,
in spells that last from a tenth of a second to minutes; that is more than
any bound it can set.  While an untraced run works, a thread of its own
process wakes every EVERY_S and times a fixed pure-Python loop of about a
millisecond (the benchmark's own code, never the program's).  The spells
of the two vCPUs of such a host do not match, so the loop must run where
the program runs.  The process's main thread is pinned to one CPU, and the
loop runs on that CPU; while the program also runs worker processes, which
get every CPU back, the loop visits every CPU in turn.  So the loop runs
on the CPUs and in the spells the program runs in, and a spell that slows
the program slows the loop by about the same share.  The run reports each time of the
program multiplied by NOMINAL_S over the loop's mean time in the same
interval: the time it would take on a host on which the loop takes
NOMINAL_S.  The spell cancels in that ratio; a change to the program leaves
the loop alone.  The thread holds the interpreter lock while it times the
loop, so the program pauses for about one part in fifty; that share is the
same on every commit.
"""

import os
import threading
import time

# The reference loop's time on the nominal host: about its time on a
# 2-vCPU Intel Xeon running CPython 3.11 in a calm spell.
NOMINAL_S = 0.001
EVERY_S = 0.05


def reference_loop():
    """Fixed work of the kind the program does: small-int arithmetic,
    list indexing, dict and tuple traffic, about 1 ms on the nominal host."""
    table = [[(i * j) % 13 for j in range(13)] for i in range(13)]
    seen = {}
    acc = 0
    for k in range(1800):
        i, j = k % 13, (k * 7) % 13
        v = table[i][j]
        key = (i, v)
        seen[key] = seen.get(key, 0) + 1
        acc += v if v != 5 else -1
        if k % 97 == 0:
            table[i][j] = (v + 1) % 13
    return acc + len(seen)


class HostSpeed:
    """Times of the reference loop, sampled by a thread between `start()`
    and `stop()`.  `samples` holds (end, duration) pairs on
    time.perf_counter().
    With `all_cpus` the thread samples every CPU in turn while `in_pass`
    is set, for a program whose passes run worker processes; otherwise it
    samples the main thread's CPU only."""

    def __init__(self, all_cpus=False):
        self.all_cpus = all_cpus
        self.in_pass = False
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="hostspeed",
                                        daemon=True)

    def _sample(self):
        turn, visit = sorted(self._cpus), 0
        while not self._stop.wait(EVERY_S):
            if self.all_cpus:
                cpu = turn[visit % len(turn)] if self.in_pass else min(turn)
                os.sched_setaffinity(0, {cpu})
                visit += 1
            t0 = time.perf_counter()
            reference_loop()
            t1 = time.perf_counter()
            self.samples.append((t1, t1 - t0))

    def start(self):
        """Pin the calling thread to one of its CPUs, then start sampling
        in a thread that inherits the pin."""
        self._cpus = os.sched_getaffinity(0)
        os.register_at_fork(after_in_child=self._unpin)
        os.sched_setaffinity(0, {min(self._cpus)})
        self._thread.start()

    def _unpin(self):
        os.sched_setaffinity(0, self._cpus)

    def stop(self):
        """Stop the thread, wait for it and unpin the calling thread; safe
        to call more than once."""
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join()
            self._unpin()

    def durations(self, start=None, end=None):
        """Durations of the samples that ended within [start, end]."""
        return [d for t, d in self.samples
                if (start is None or t >= start) and (end is None or t <= end)]
