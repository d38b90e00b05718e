"""Drift correction for timings on a shared machine.

On a shared virtual machine other tenants' work runs on the same cores, and
the interpreter's speed swings by up to 60% for seconds or minutes at a time,
which no run length averages away.  So every timing is bracketed by a
fixed reference kernel, and reported scaled to the speed at which that kernel
takes ``REFERENCE_S``:

    corrected = measured * REFERENCE_S / kernel time around the measurement

The kernel uses only the standard library, never the engine, so an engine
change moves corrected times exactly as it moves measured ones.  It mixes the
interpreter work the engine does: ``Fraction`` arithmetic into dicts, small
slotted objects with method calls, tuple keys, sorting, and building and
hashing nested tuples.  Changing it changes every corrected figure, so it is
frozen: a new kernel is a new benchmark, with a new baseline.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# Kernel time at this repository's reference speed; it is about the kernel's
# time on a 2-core Intel Xeon VM when no other tenant contends.
REFERENCE_S = 0.004


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def mul(self, other):
        return _Pair(self.a * other.a - self.b * other.b,
                     self.a * other.b + self.b * other.a)


def _fractions():
    acc = {}
    x = Fraction(1, 3)
    for i in range(500):
        k = (i * 7919) % 257
        v = acc.get(k, Fraction(0)) + x * Fraction(i % 11 + 1, i % 13 + 2)
        if v == 0:
            acc.pop(k, None)
        else:
            acc[k] = v
    return len(acc)


def _objects():
    acc = {}
    p = _Pair(3, 5)
    for i in range(800):
        key = (i % 37, (i * 31) % 17)
        q = acc.get(key)
        q = _Pair(i % 7 + 1, i % 5) if q is None else q.mul(p)
        if abs(q.a) > 10 ** 6:
            q = _Pair(q.a % 1000 + 1, q.b % 1000)
        acc[key] = q
        if i % 3 == 0:
            acc.pop(((i + 1) % 37, i % 17), None)
    return len(sorted(acc.items(), key=lambda kv: kv[0]))


def _tree(depth, i):
    if depth == 0:
        return (i, str(i))
    return (_tree(depth - 1, 2 * i), _tree(depth - 1, 2 * i + 1))


def _tuples():
    total = 0
    for j in range(6):
        t = _tree(7, j)
        total += (hash(t) & 1) + len(repr(t))
    return total


def _once() -> float:
    t0 = perf_counter()
    _fractions()
    _objects()
    _tuples()
    return perf_counter() - t0


def kernel_seconds() -> float:
    """Kernel time now: the faster of two runs, so that one interrupted run
    does not skew the correction."""
    return min(_once(), _once())
