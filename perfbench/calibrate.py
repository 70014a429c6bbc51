"""Machine-speed calibration.

On a shared machine the interpreter's speed drifts by 10-30 % over tens
of seconds, with the whole process slowing at once.  A fixed kernel,
timed between the solves, measures that drift: it does the same kinds of
work as the solver (bitmask loops, a dict memo keyed by tuples, Fraction
sums) and belongs to the benchmark, so no change to p5hom alters it.
Dividing a pass's solve times by the kernel's mean time in that pass,
then multiplying by REFERENCE_S, gives seconds at a fixed reference speed.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# about the kernel's median time on a shared 2-vCPU x86-64 VM, CPython 3.11
REFERENCE_S = 0.004


def _kernel() -> tuple[int, Fraction]:
    memo: dict[tuple, int] = {}
    acc = Fraction(0)
    x = 12345
    for i in range(1500):
        x = (x * 1103515245 + 12345) & 0xFFFFFF
        bits = []
        m = x
        while m:
            low = m & -m
            bits.append(low.bit_length())
            m ^= low
        key = (x & 255, tuple(bits[:4]))
        if key not in memo:
            memo[key] = len(bits)
        if i % 16 == 0:
            acc += Fraction(x & 7, 1 + (x & 3))
    return len(memo), acc


def time_kernel() -> float:
    t0 = perf_counter()
    _kernel()
    return perf_counter() - t0
