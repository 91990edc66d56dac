"""What the simulator holds in host memory per object and per histogram.

The companion of ``tests/test_op_budget.py`` for memory: ``tracemalloc``
counts the bytes that lines of ``src/repro`` allocated while something
was built and that are still held afterwards, and each figure is held to
an upper bound.  The bounds are the CPython 3.11 figures, rounded up to
the next 10 bytes per object and 100 per histogram; 3.9 and 3.12
measure under them too.  A figure repeats exactly from run to run.  A
layout that pays for what it does not hold (a dense
bucket array, a set or an empty table per object) goes past them.

* **A loadgen-materialized object** on a 3-node runtime: 4,096 objects
  made by ``LoadGenerator._ref_for`` as a tenant's first touches make
  them, divided by 4,096.  That is the object (its 256-byte pool and
  oid), its ``GlobalRef`` and the entries of the space, the runtime's
  directory (``locations``, ``_homes``, ``_sizes``) and the tenant's
  refs.  829.8 bytes on 3.11, 778.3 on 3.9, 821.8 on 3.12.  With a
  formatted label per object:
  888.5 (837.0 on 3.9, 872.5 on 3.12); when ``locations`` also held a
  one-element set per object and every object built an empty FOT:
  1,257.7 (1,317.4 on 3.9, 1,225.7 on 3.12).
* **A 1,024-sub-bucket histogram with 10,000 samples** of a
  simulator-like latency distribution (a 60 us floor plus a log-normal
  tail, on a 1/8 us grid): 656 touched buckets, 39,560 bytes on 3.11
  and 3.12 (37,575 on 3.9).  The dense list of all 26,625 buckets held
  213,112 (213,770 on 3.9).
"""

import gc
import os
import random
import tracemalloc

import repro
from repro.core import FunctionRegistry
from repro.loadgen import LatencyHistogram, LoadGenerator, TenantSpec
from repro.net import build_star
from repro.runtime.engine import GlobalSpaceRuntime
from repro.sim import Simulator

# Upper bounds, in bytes.
PER_OBJECT_BYTES = 830
HISTOGRAM_BYTES = 39_600

OBJECTS = 4_096

_PACKAGE = os.path.dirname(os.path.abspath(repro.__file__))


def _held(build):
    """Bytes allocated in ``src/repro`` by ``build()`` and still held
    when it returns, and what it returned (kept alive until the figure
    is read).  Only allocations made by the package's own lines count:
    not the test's, nor those of a profiling hook that runs alongside."""
    only_repro = [tracemalloc.Filter(True, os.path.join(_PACKAGE, "*"))]
    gc.collect()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot().filter_traces(only_repro)
        kept = build()
        gc.collect()
        after = tracemalloc.take_snapshot().filter_traces(only_repro)
    finally:
        if started:
            tracemalloc.stop()
    return sum(stat.size_diff
               for stat in after.compare_to(before, "filename")), kept


def test_a_materialized_object():
    sim = Simulator(seed=1)
    net = build_star(sim, 3, prefix="n")
    runtime = GlobalSpaceRuntime(net, FunctionRegistry())
    for name in ("n0", "n1", "n2"):
        runtime.add_node(name)
    generator = LoadGenerator(runtime, [TenantSpec(
        name="t", client="n0", rate_per_sec=1_000.0, keyspace=1 << 20,
        mix=(("load", 1.0),))], duration_us=1_000.0)
    state = generator._states[0]
    held, refs = _held(
        lambda: [generator._ref_for(state, rank) for rank in range(OBJECTS)])
    assert len(set(refs)) == state.materialized == OBJECTS
    assert all(runtime.locations[ref.oid] for ref in refs)
    assert held / OBJECTS <= PER_OBJECT_BYTES


def test_a_fine_histogram_with_ten_thousand_samples():
    def build():
        rng = random.Random(1)
        hist = LatencyHistogram(1.0, 60e6, 1024)
        for _ in range(10_000):
            hist.record(round((60.0 + rng.lognormvariate(3.0, 0.6)) * 8) / 8)
        return hist

    held, hist = _held(build)
    assert hist.count == 10_000
    assert held <= HISTOGRAM_BYTES
