"""Deterministic derivation of independent seed streams.

Every stochastic entry point takes one explicit 64-bit seed.  When an
operation (or the self-test suite) needs several independent streams, it
derives stream i from the master seed through

    derive_seed(master, i, ...)  =  first uint64 drawn from
                                    numpy SeedSequence([master, i, ...])

SeedSequence hashes the key material, so distinct key tuples give
decorrelated streams and the mapping is stable across runs and worker
counts.
"""

from __future__ import annotations

from . import _np as np
from .errors import require_seed

__all__ = ["derive_seed"]


def derive_seed(master: int, *key: int) -> int:
    """A 64-bit seed for the sub-stream identified by ``key``."""
    require_seed(master)
    seq = np.random.SeedSequence([master, *key])
    return int(seq.generate_state(1, np.uint64)[0])
