"""numpy's pairwise summation, rebuilt over values that come in pieces.

numpy sums a contiguous float64 or complex128 vector as a tree (Higham,
"The accuracy of floating point summation", SIAM J. Sci. Comput. 14,
1993): a node of more than 128 scalars, a complex value counting as two,
is cut at half its scalar count rounded down to a multiple of 8, and each
half is summed alike.  The tree depends on the length alone, so the sum of
a vector too large to hold is the same tree over runs that fit one buffer:
numpy sums each run, and the run sums are added back up the tree, bit for
bit the whole vector's sum.
"""

from __future__ import annotations

import functools
from typing import Callable

from . import _np as np


def split(n: int, width: int) -> int:
    """The values of the first half where numpy's pairwise sum cuts n values
    of ``width`` scalars each (1 for float64, 2 for complex128)."""
    half = n * width // 2
    return (half - half % 8) // width


@functools.lru_cache(maxsize=64)
def _plan(n: int, width: int, piece: int) -> tuple[tuple[int, int], ...]:
    """The runs of the tree of n values, cut until each holds at most
    ``piece``: (values, merges) of each run in order, where merges counts
    the nodes that the run ends, each one addition once its sum is in.

    ``piece * width`` must be at least 128, so that no run is cut where
    numpy would not cut it.
    """
    if n <= piece:
        return ((n, 0),)
    half = split(n, width)
    *right, (last, merges) = _plan(n - half, width, piece)
    return _plan(half, width, piece) + (*right, (last, merges + 1))


def _push(stack: list, total, merges: int) -> None:
    """Put a run's sum on the stack of open nodes and add up the nodes it ends."""
    stack.append(total)
    for _ in range(merges):
        right = stack.pop()
        stack[-1] = stack[-1] + right


def tree_sum(n: int, width: int, piece: int, leaf: Callable):
    """numpy's sum of n values of ``width`` scalars, where ``leaf(m)`` returns
    numpy's sum of the next m values; it is called on the consecutive runs
    of the tree, each of at most ``piece`` values, in order."""
    stack: list = []
    for run, merges in _plan(n, width, piece):
        _push(stack, leaf(run), merges)
    return stack[0]


class StreamSum:
    """numpy's sum of n values of ``dtype`` that arrive as consecutive 1-D
    contiguous arrays of any lengths.

    A run of the tree that lies whole in one array is summed where it lies;
    the others are gathered in one buffer of at most ``piece`` values.
    """

    def __init__(self, n: int, dtype, piece: int):
        self.n = n
        self._plan = _plan(n, np.dtype(dtype).itemsize // 8, piece)
        self._next = 0  # the run being filled
        self._buf = np.empty(max(run for run, _ in self._plan), dtype)
        self._held = 0  # values of that run already in the buffer
        self._stack: list = []

    def add(self, values: np.ndarray) -> None:
        lo = 0
        while lo < len(values):
            run, merges = self._plan[self._next]
            if self._held == 0 and len(values) - lo >= run:
                total = values[lo : lo + run].sum()
                lo += run
            else:
                take = min(run - self._held, len(values) - lo)
                self._buf[self._held : self._held + take] = values[lo : lo + take]
                self._held += take
                lo += take
                if self._held < run:
                    return
                total = self._buf[:run].sum()
                self._held = 0
            _push(self._stack, total, merges)
            self._next += 1

    def total(self):
        """numpy's sum of all n values, once all have been added."""
        return self._stack[0]

    def mean(self) -> complex:
        """numpy's mean of all n values: it divides the sum by an ``intp``."""
        return complex(self.total() / np.intp(self.n))
