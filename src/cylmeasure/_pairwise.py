"""numpy's pairwise summation, rebuilt over values that come in pieces.

numpy sums a contiguous float64 or complex128 vector as a tree (Higham,
"The accuracy of floating point summation", SIAM J. Sci. Comput. 14,
1993): a node of more than 128 scalars, a complex value counting as two,
is cut at half its scalar count rounded down to a multiple of 8, and each
half is summed alike.  The tree depends on the length alone, so the sum of
a vector too large to hold is the same tree over runs that fit one buffer:
numpy sums each run, and the run sums are added back up the tree, bit for
bit the whole vector's sum.  ``StreamSum`` is the one interface: it takes
the values as they come, the quadrature grid of ``bohr`` block by block and
a one-column chunk of ``support.mc_tail_growth`` row block by row block.
"""

from __future__ import annotations

import functools

from . import _np as np


@functools.lru_cache(maxsize=64)
def _plan(n: int, width: int, piece: int) -> tuple[tuple[int, int], ...]:
    """The runs of the tree of n values, cut until each holds at most
    ``piece``: (values, merges) of each run in order, where merges counts
    the nodes that the run ends, each one addition once its sum is in.

    ``piece * width`` is at least 128 (``StreamSum`` refuses less), so
    that no run is cut where numpy would not cut it.
    """
    if n <= piece:
        return ((n, 0),)
    half = n * width // 2 // 8 * 8 // width  # the values before numpy's cut
    *right, (last, merges) = _plan(n - half, width, piece)
    return _plan(half, width, piece) + (*right, (last, merges + 1))


class StreamSum:
    """numpy's sum of n values of ``dtype`` that arrive as consecutive 1-D
    contiguous arrays of any lengths.

    A run of the tree that lies whole in one array is summed where it lies;
    the others are gathered in one buffer of at most ``piece`` values.  A
    piece below 128 scalars would cut runs where numpy does not, and is
    refused.
    """

    def __init__(self, n: int, dtype, piece: int):
        width = np.dtype(dtype).itemsize // 8
        if piece * width < 128:
            raise ValueError(f"a piece of {piece} values holds fewer than 128 scalars")
        self.n = n
        self._plan = _plan(n, width, piece)
        self._next = 0  # the run being filled
        self._buf = np.empty(max(run for run, _ in self._plan), dtype)
        self._held = 0  # values of that run already in the buffer
        self._stack: list = []  # the sums of the open nodes of the tree

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
            self._stack.append(total)
            for _ in range(merges):  # the nodes this run ends, each one addition
                right = self._stack.pop()
                self._stack[-1] = self._stack[-1] + right
            self._next += 1

    def total(self):
        """numpy's sum of all n values, once all have been added."""
        return self._stack[0]

    def mean(self) -> complex:
        """numpy's mean of all n values: it divides the sum by an ``intp``."""
        return complex(self.total() / np.intp(self.n))
