"""The benchmark's workloads: which vector files a run partitions and certifies.

Each workload turns ``--seed`` into a list of instances ``(name, spec,
modes)``.  Every round of a run partitions and certifies each instance once
in each of its modes, so every round does the same operations; only their
order changes from round to round.
"""

from __future__ import annotations

import math

from frame_partition.generators import GeneratorSpec

BOTH_MODES = ("feichtinger", "uniform")

# Tamper probes certify edited copies of these reports.  They do not depend
# on --seed, so the probes give the same outcome in every run.
PROBE_SPEC = GeneratorSpec("random_unit", dim=4, count=16, seed=1, field="real")


def corpus_grid() -> list[GeneratorSpec]:
    """The 556-instance acceptance grid (a copy of tests/conftest.py::corpus_specs)."""
    specs = []
    for dim in (1, 2, 3, 4, 8, 16, 32):
        for count in sorted({1, max(1, dim // 2), dim}):
            specs.append(GeneratorSpec("orthonormal", dim=dim, count=count))
    for dim in (1, 2, 4):
        for mult in (1, 2, 3, 5):
            specs.append(GeneratorSpec("duplicates", dim=dim, multiplicity=mult))
    for dim in (2, 4):
        for angle in (0.0, math.pi / 6, math.pi / 3, 0.49 * math.pi, math.pi / 2):
            specs.append(GeneratorSpec("angle_pair", dim=dim, angle=angle))
    for dim in (2, 3, 4, 5, 8):
        for angle in (0.0, math.pi / 8, math.pi / 4, math.pi / 2):
            specs.append(GeneratorSpec("basis_union", dim=dim, angle=angle))
    for count, dim in ((4, 2), (8, 4), (8, 8), (12, 6), (16, 4), (16, 16), (24, 8)):
        specs.append(GeneratorSpec("harmonic", dim=dim, count=count))
    for dim in (2, 4, 8, 16, 32):
        for count in (4, 8, 16, 32, 64):
            for field in ("real", "complex"):
                for seed in range(1, 6):
                    specs.append(
                        GeneratorSpec("random_unit", dim=dim, count=count, seed=seed, field=field)
                    )
    for dim in (3, 5, 6, 12, 20, 24):
        for count in (6, 12, 24, 48):
            for field in ("real", "complex"):
                for seed in (11, 12, 13, 14, 15):
                    specs.append(
                        GeneratorSpec("random_unit", dim=dim, count=count, seed=seed, field=field)
                    )
    return specs


def corpus(seed: int) -> list[tuple[str, GeneratorSpec, tuple[str, ...]]]:
    # One pass over the whole grid takes about 55 s, longer than a run, so a
    # run takes half of it: the seed picks which half.  Grid positions are
    # dealt to the halves in the order 0,1,1,0,0,1,1,0,... so that both
    # halves hold 278 instances and nearly the same number of blocks
    # (5288 and 5284 at the time of writing).
    half = seed % 2
    return [
        (f"corpus{i:03d}", spec, BOTH_MODES)
        for i, spec in enumerate(corpus_grid())
        if (i % 2) ^ (i // 2 % 2) == half
    ]


def halving(seed: int) -> list[tuple[str, GeneratorSpec, tuple[str, ...]]]:
    # Random inputs at count = 16*dim, dim 8..12, whose Bessel bounds stay
    # well inside one halving level for every seed (Schur B 40..58,
    # spectral B 19..27 over seeds 0..199), so each gives 64 feichtinger and
    # 32 uniform blocks; plus tie-heavy structured frames that do not depend
    # on the seed.  Many instances of graded sizes keep the pooled median
    # from jumping between a few size clusters, and average out how much
    # local search one seed's random inputs happen to need.
    instances = []
    for field in ("real", "complex"):
        for dim in range(8, 13):
            count = 16 * dim
            spec = GeneratorSpec(
                "random_unit", dim=dim, count=count, seed=1000 * seed + dim, field=field
            )
            instances.append((f"random{count}x{dim}{field[0]}", spec, BOTH_MODES))
    for count, dim in ((80, 16), (96, 16), (128, 32)):
        spec = GeneratorSpec("harmonic", dim=dim, count=count)
        instances.append((f"harmonic{count}x{dim}", spec, BOTH_MODES))
    for dim in (64, 80, 96):
        spec = GeneratorSpec("basis_union", dim=dim, angle=math.pi / 4)
        instances.append((f"basis_union{dim}", spec, BOTH_MODES))
    return instances


def wide(seed: int) -> list[tuple[str, GeneratorSpec, tuple[str, ...]]]:
    # Spectral bound below 2 means zero halving levels in uniform mode.
    # Harmonic tight frames have B = count/dim exactly (1.6 to 1.8 here).
    # For real random inputs dim = 6*count gave B > 2 on some seeds (up to
    # 2.16 at count 48 over 1500 seeds) and dim = 8*count came within 0.04
    # of 2, so dim is 10*count (B at most 1.84 over 1500 to 3000 seeds at
    # counts 24 to 48).  Graded sizes keep the pooled median smooth.
    instances = []
    for count in range(128, 289, 16):
        dim = count // 2 + 16
        spec = GeneratorSpec("harmonic", dim=dim, count=count)
        instances.append((f"harmonic{count}x{dim}", spec, ("uniform",)))
    for k, count in enumerate(range(24, 89, 8)):
        spec = GeneratorSpec(
            "random_unit", dim=10 * count, count=count, seed=1000 * seed + k, field="real"
        )
        instances.append((f"random{count}x{10 * count}r", spec, ("uniform",)))
    return instances


WORKLOADS = {"corpus": corpus, "halving": halving, "wide": wide}

# Workloads whose runs start with one untimed round.  The first round of a
# process took 11 to 30% longer than the later ones in three runs checked,
# and a run that counted it would weigh it by a share (a third to a fifth)
# that changes with how many rounds fit.  A `corpus` round is the whole
# run, so every `corpus` run counts its one cold round alike.
WARM_UP_ROUND = ("halving", "wide")
