"""Fixed loops that gauge how fast the machine runs right now.

The benchmark's host changes speed by up to 2x, both from second to second
and over minutes, and every op's wall time moves with it.  The workload
process therefore runs a loop of fixed work next to each op and around each
set-up phase, in the same process, and the time metrics divide each wall
time by the loop time next to it.  The ``*_REFERENCE_S`` constants turn that
ratio back into seconds: the time on a machine on which one pass of the
loop takes that long.

Not all code slows down alike.  Tight interpreted loops move the most,
imports and small numpy calls about half as much (elasticity 0.4-0.6
against the former, measured on this host).  So each loop mixes the kinds
of work it stands in for:

- ``op_loop_s`` runs per-element Python calls on tuples of floats and then
  small numpy calls.  Over 10 s windows of 150 s of ops it left less drift
  than either half alone: the IQR/median of the window medians of op time
  over loop time was 0.027-0.064, against 0.055-0.079 for the better half
  and 0.093-0.106 with no loop at all.  It allocates nothing the cyclic
  garbage collector tracks, so it never pays for collecting the program's
  garbage.  It runs only after set-up, when the program has imported numpy.
- ``import_loop_s`` unmarshals and runs a fixed module body, as an import
  does.  Set-up time divided by it spread less over ~90 set-ups in a row
  (IQR/median 0.092) than raw set-up time (0.12-0.17), while set-up time
  divided by the interpreted loop alone spread more (0.20-0.21).

No loop uses the program, so no change to the program changes them.
"""
from __future__ import annotations

import marshal
import statistics
from time import perf_counter

# The loops' median times on the reference machine (2-vCPU KVM guest, Intel
# Xeon family 6 model 207, Python 3.11.7, numpy 2.4.6) while the benchmark ran.
OP_REFERENCE_S = 0.0045
IMPORT_REFERENCE_S = 0.0023

_A = tuple((float((i * 7919) % 997), float((i * 104729) % 991)) for i in range(72))
_B = tuple((float((i * 6007) % 983), float((i * 3571) % 977)) for i in range(72))
_SMALL = tuple(tuple(float((i * 31 + k * 17) % 101) for k in range(8 + i))
               for i in range(8))


def _dist(a: tuple, b: tuple) -> float:
    return max(abs(a[0] - b[0]), abs(a[1] - b[1]))


def op_loop_s() -> float:
    """Wall time of one pass of the op loop, in seconds."""
    import numpy as np  # already imported by the program at this point

    t0 = perf_counter()
    best = 0.0
    for a in _A:
        for b in _B:
            d = _dist(a, b)
            if d > best:
                best = d
    spread = 0.0
    for k in range(150):
        x = np.asarray(_SMALL[k % 8])
        order = np.argsort(x)
        spread += float(x[order].cumsum()[-1]) + float(np.abs(x - x.mean()).max())
    elapsed = perf_counter() - t0
    if best <= 0.0 or spread <= 0.0:  # keeps the work observable
        raise AssertionError("op loop computed nothing")
    return elapsed


_MODULE = "\n".join(
    f"class C{i}:\n    x = {i}\n"
    f"    def f(self, a, b={i}):\n        return [a, b, '{i}']\n"
    f"def g{i}(x, *a, **k):\n    return {{'k{i}': x, 'v': ({i}, {i}.5)}}\n"
    f"T{i} = tuple(range({i % 7}))\n"
    for i in range(150))
_CODE = marshal.dumps(compile(_MODULE, "<calib>", "exec"))


def import_loop_s() -> float:
    """Wall time of one pass of the import-like loop, in seconds."""
    t0 = perf_counter()
    namespace: dict = {}
    exec(marshal.loads(_CODE), namespace)
    elapsed = perf_counter() - t0
    if "C149" not in namespace:
        raise AssertionError("import-like loop defined nothing")
    return elapsed


def median_loop_s(passes: int, loop) -> float:
    """Median of ``passes`` passes of ``loop``, after one untimed pass."""
    loop()
    return statistics.median(loop() for _ in range(passes))
