"""The SPECweb96 static file set.

"We replace all file fetches from the logs with the 40 representative files
from SPECWeb96.  For each file request in the log, the file in this set with
the closest size is returned."

SPECweb96 organises its working set into four size classes; each class holds
files at nine regular size steps, and classes are accessed with a fixed
frequency mix that makes small files dominate:

* class 0: 0.1 KB – 0.9 KB, 35 % of accesses
* class 1: 1 KB – 9 KB, 50 %
* class 2: 10 KB – 90 KB, 14 %
* class 3: 100 KB – 900 KB, 1 %

(The benchmark's per-directory layout makes the canonical set 36 distinct
sizes; the paper's "40 representative files" refers to the same mix.)
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

_KB = 1024

#: Access probability of each size class.
CLASS_WEIGHTS = (0.35, 0.50, 0.14, 0.01)

#: Base size of each class in bytes.
_CLASS_BASE = (102, 1 * _KB, 10 * _KB, 100 * _KB)

#: Distinct file sizes, ascending (class base times 1..9).
FILE_SIZES: tuple[int, ...] = tuple(
    sorted(base * step for base in _CLASS_BASE for step in range(1, 10))
)

#: Mean transferred size under the class mix (uniform within a class).
MEAN_FILE_SIZE: float = float(
    sum(w * np.mean([base * s for s in range(1, 10)])
        for w, base in zip(CLASS_WEIGHTS, _CLASS_BASE))
)


def closest_files(sizes_bytes, sizes: Sequence[int] = FILE_SIZES
                  ) -> np.ndarray:
    """Map every logged response size to the nearest fileset size.

    ``sizes`` is ascending; a size exactly halfway between two files maps
    to the smaller one.

    >>> closest_files([7400, 0, 7900, 10**9]).tolist()
    [7168, 102, 8192, 921600]
    """
    logged = np.asarray(sizes_bytes)
    if (logged < 0).any():
        raise ValueError("size must be >= 0")
    table = np.asarray(sizes)
    # A size at or below the midpoint of two neighbours maps to the smaller.
    return table[np.searchsorted((table[:-1] + table[1:]) / 2, logged)]


def closest_file(size_bytes: int, sizes: Sequence[int] = FILE_SIZES) -> int:
    """Map one logged response size to the nearest fileset size.

    >>> closest_file(7400)
    7168
    >>> closest_file(0)
    102
    """
    return closest_files([size_bytes], sizes)[0].item()


def sample_files(n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` file sizes from the SPECweb96 class mix."""
    if n < 0:
        raise ValueError("n must be >= 0")
    classes = rng.choice(4, size=n, p=CLASS_WEIGHTS)
    steps = rng.integers(1, 10, size=n)
    bases = np.array(_CLASS_BASE)
    return bases[classes] * steps
