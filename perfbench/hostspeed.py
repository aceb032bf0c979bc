"""Host speed reference: a fixed slice of interpreter work, timed in the measured process.

On a shared host the same work can take from half again to twice as long
from one second to the next, process CPU time swells with wall time, and
the two vCPUs change speed independently, so neither clock alone gives
figures that repeat. child.py therefore times `reference_slice`, a fixed mix
of the interpreter work the program does (indexed float accumulation, filter
and sort, dict and string building, a small dynamic program, JSON and
hashing) written here and sharing no code with the program, every PERIOD_S
in the measured process. A time measured while the slice ran in `NOMINAL_S`
is left as it is; one measured while the slice ran slower is scaled down by
the same factor (see `Marks.adjust`). Model waits, which do not depend on
the host, are never scaled. The readings assume the program runs one thread
at a time: a reading that competes with the program's own threads for the
interpreter lock reads the host as slower than it is.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import random
import time
from array import array

# Median slice time on an idle 2.1 GHz Xeon vCPU with CPython 3.11. Only
# its constancy matters: results are compared on one host.
NOMINAL_S = 0.008

_rng = random.Random(20240601)
_DOCS = 4000
_INDICES = [array("i", sorted(_rng.sample(range(_DOCS), n))) for n in (2400, 900, 300)]
_TFS = [array("i", (_rng.randint(1, 4) for _ in ix)) for ix in _INDICES]
_LENS = array("i", (_rng.randint(50, 70) for _ in range(_DOCS)))
_WORDS = ["".join(_rng.choice("bdfgklmnprstvz") + _rng.choice("aeiou") for _ in range(3))
          for _ in range(400)]
_LEFT = [_rng.randrange(40) for _ in range(60)]
_RIGHT = [_rng.randrange(40) for _ in range(60)]


def reference_slice() -> int:
    """A fixed amount of mixed interpreter work; returns a checksum."""
    scores = array("d", [0.0]) * _DOCS
    for ix, tfs in zip(_INDICES, _TFS):
        for i in range(len(ix)):
            d = ix[i]
            tf = tfs[i]
            scores[d] += 1.7 * (tf * 2.2) / (tf + 1.2 * (0.25 + 0.75 * _LENS[d] / 60.0))
    ranked = [i for i in range(_DOCS) if scores[i] > 0.0]
    ranked.sort(key=lambda i: (-scores[i], i))

    counts: dict[str, int] = {}
    for n in range(1500):
        word = _WORDS[(n * 7) % len(_WORDS)] + str(n % 13)
        counts[word] = counts.get(word, 0) + 1
    text = " ".join(sorted(counts, key=lambda w: (-counts[w], w)))

    prev = [0] * (len(_RIGHT) + 1)
    for a in _LEFT:
        curr = [0]
        for j, b in enumerate(_RIGHT, start=1):
            curr.append(prev[j - 1] + 1 if a == b else max(prev[j], curr[j - 1]))
        prev = curr

    blob = json.dumps({"ranked": ranked[:50], "text": text.split()[:200]}, sort_keys=True)
    digest = hashlib.sha256(blob.encode()).digest()
    return len(ranked) + prev[-1] + digest[0]


def timed_slice() -> float:
    start = time.perf_counter()
    reference_slice()
    return time.perf_counter() - start


class Marks:
    """Reference slice readings: (time, slice seconds, model wait so far,
    seconds the reading took).

    `adjust(start, end, wait)` rescales a measured interval to the nominal
    host speed: the part of it spent neither waiting on the model nor taking
    readings is multiplied by NOMINAL_S over the slice time, interpolated
    linearly between the readings around each instant and held flat outside
    them.
    """

    def __init__(self, readings) -> None:
        self.readings = sorted(tuple(r) for r in readings)
        self.times = [r[0] for r in self.readings]
        self.factors = [NOMINAL_S / r[1] for r in self.readings]

    def factor(self, t: float) -> float:
        i = bisect.bisect_left(self.times, t)
        if i == 0:
            return self.factors[0]
        if i == len(self.times):
            return self.factors[-1]
        t0, t1 = self.times[i - 1], self.times[i]
        f0, f1 = self.factors[i - 1], self.factors[i]
        return f0 + (f1 - f0) * (t - t0) / (t1 - t0) if t1 > t0 else f1

    def mean_factor(self, start: float, end: float) -> float:
        """Time-weighted mean factor over [start, end]."""
        if end <= start:
            return self.factor(start)
        points = [start] + [t for t in self.times if start < t < end] + [end]
        area = 0.0
        for a, b in zip(points, points[1:]):
            area += (b - a) * (self.factor(a) + self.factor(b)) / 2.0
        return area / (end - start)

    def raw(self, start: float, end: float) -> float:
        """The interval less the readings taken inside it."""
        return end - start - sum(r[3] for r in self.readings if start < r[0] < end)

    def adjust(self, start: float, end: float, wait: float = 0.0) -> float:
        compute = max(self.raw(start, end) - wait, 0.0)
        return wait + compute * self.mean_factor(start, end)

    def waited(self) -> float:
        """Model wait over the whole process."""
        return self.readings[-1][2]
