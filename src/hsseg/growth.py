"""Seed scheduling shared by the eta and mu passes.

Both passes cut each class into regions seed by seed, and each pass owns how
a region grows: classes of 2 to _LOCKSTEP_MAX_PIXELS pixels step together,
one region per class per step (the pass's `step`), and larger classes are
walked seed by seed (the pass's `region`).
"""

from __future__ import annotations

import numpy as np

from .grid import LabelMap

# Largest class grown in lockstep. On 1 000 column classes of K pixels (one
# region each, 8 and 64 bands) the lockstep beat the walk at every K from 24 to
# 128, eta by 27-71 times and mu by 6-12. On the many-classes cube gate 128 was
# slower than 16 nowhere, and at lambda 0.035 8-conn and 0.04 4-conn eta ran 5-7
# and mu 3-4 times faster. Above it the walk wins: stepping hsbench's one large
# class (seed 7, 2-vCPU Xeon, medians of 5 alternating, a pass's jobs summed)
# took one-class eta 38 -> 55 ms and mu 16 -> 41, sweep eta 60 -> 95 and mu 49 -> 83.
_LOCKSTEP_MAX_PIXELS = 128


def _distinct(a: np.ndarray) -> np.ndarray:
    """The distinct entries of a, ascending, by a sort: np.unique would import numpy.ma."""
    a = np.sort(a, axis=None)
    first = np.empty(a.size, dtype=bool)
    first[:1] = True  # a may be empty
    np.not_equal(a[1:], a[:-1], out=first[1:])
    return a[first]


def refine_classes(flat: LabelMap, ordering: np.ndarray, step, region) -> LabelMap:
    """Labels of the regions every class is cut into: class by class, then seed by seed.

    owner[p] is p's class while p is free and -1 once a region took it; its
    last entry stays -1, so an off-grid neighbour (-1) is in no class. Each
    lockstep step seeds every class not yet covered at its first free pixel,
    and step(owner, seeds) takes their regions from owner and returns their
    flat indices. After the lockstep has drained, each seed of a larger class
    that is still free takes region(seed, owner), likewise. ordering, the
    seed sequence of order_classes, runs in the order of the output labels,
    so a region's label counts the seeds at earlier places than its seed's.
    """
    lab = flat.labels.ravel()
    sizes = flat.sizes
    # place[p]: the place in ordering of the seed of p's region; every pixel
    # starts as its own seed, which a one-pixel class keeps
    place = np.empty(lab.size, dtype=np.int32)
    place[ordering] = np.arange(lab.size, dtype=np.int32)
    owner = np.append(lab, np.int32(-1))
    # the free pixels of the lockstep classes, grouped by class in seed order
    queue = ordering[np.repeat((sizes > 1) & (sizes <= _LOCKSTEP_MAX_PIXELS), sizes)]
    seed_place = np.empty(flat.count, dtype=np.int32)  # per class, its current seed's place
    while len(queue):
        seeds = queue[np.concatenate(([True], lab[queue[1:]] != lab[queue[:-1]]))]
        seed_place[lab[seeds]] = place[seeds]
        members = step(owner, seeds)
        place[members] = seed_place[lab[members]]
        queue = queue[owner[queue] >= 0]
    walked = np.flatnonzero(np.repeat(sizes > _LOCKSTEP_MAX_PIXELS, sizes))
    # memoryviews yield Python ints one at a time, where lists of them would
    # hold one object per walked pixel at once
    for i, seed in zip(walked.data, ordering[walked].data):
        if owner[seed] >= 0:
            place[region(seed, owner)] = i
    seeded = np.zeros(lab.size, dtype=bool)
    seeded[place] = True
    label_of = np.cumsum(seeded, dtype=np.int32)  # of a place, plus one
    labels = label_of[place]
    labels -= 1
    return LabelMap(labels.reshape(flat.labels.shape), int(label_of[-1]))
