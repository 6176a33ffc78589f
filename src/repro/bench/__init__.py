"""The evaluation harness: regenerates every table and figure of Section 7.

Each experiment function in :mod:`repro.bench.figures` reruns the
corresponding paper experiment at simulation scale and returns (and
prints) the same rows/series the paper reports. Absolute numbers are
simulation numbers; the *shapes* — who fails where, who wins, where the
crossovers fall — are the reproduction targets (see EXPERIMENTS.md).
"""
