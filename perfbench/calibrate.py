"""Calibrated seconds: end-to-end times divided by the machine's speed
at the moment they were taken.

The sandbox this benchmark has to be repeatable on changes speed under
it: the same single-threaded repeat of ``sssp_frontier`` cost 1.75 s to
3.0 s of CPU time (zero steal, process CPU time tracking wall time)
within a quarter of an hour, and shifts of ±20 % between two adjacent
seconds are common. Medians of raw seconds spread 10–28 % between
identical runs and drifted up to 35 % between two sets of ten runs —
wider than any regression bound worth having.

So every timed section is bracketed by a fixed pure-Python kernel (the
same mix the program runs: ``struct`` packing, dict and list traffic,
sorting, ``bytes`` joins), and its wall seconds are multiplied by
``REFERENCE_S / kernel seconds`` (mean of the kernel run before and the
one after). A calibrated second is a second on a machine on which the
kernel takes exactly ``REFERENCE_S`` — about this box in its fast phase.
On the probes that motivated this (10 runs each) the spread between
identical runs fell from 20.6 % to 6.7 % (``sssp_frontier``) and from
9.5 % to 7.6 % (``cc_ooc``, which also waits for real file writes).

Only end-to-end metrics are calibrated. Per-layer times stay raw;
``calibration.kernel_s`` is printed beside them so they can be converted.
"""

import struct
import time

ITERATIONS = 240000
REFERENCE_S = 0.125

_PAIR = struct.Struct(">Qd")


def kernel_s(iterations=ITERATIONS):
    """Wall seconds of one run of the calibration kernel."""
    started = time.perf_counter()
    counts = {}
    rows = []
    for i in range(iterations):
        encoded = _PAIR.pack(i, i * 0.5)
        key = encoded[:8]
        counts[key] = counts.get(key, 0) + 1
        rows.append((key, _PAIR.unpack(encoded)[1]))
        if len(rows) >= 4096:
            rows.sort(key=lambda row: row[0])
            b"".join(key for key, _value in rows)
            rows = []
            counts = {}
    return time.perf_counter() - started


def factor(before_s, after_s):
    """Multiplier that turns wall seconds measured between two kernel
    runs into calibrated seconds."""
    return REFERENCE_S / ((before_s + after_s) / 2.0)
