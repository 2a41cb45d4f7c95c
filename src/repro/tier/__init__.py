"""repro.tier — the two-level burst buffer between compute and disk.

The package has two symmetrical halves:

* :mod:`repro.tier.burst` — the *simulated* tier: a block-granular
  memory+SSD cache attached to a node's :class:`~repro.fs.localfs.LocalFS`
  that turns disk reads into sub-tier transfers, buffers writes
  (write-back) and absorbs readahead prefetch.
* :mod:`repro.tier.store` — the *real-engine* tier: a byte-budgeted
  memory+SSD store the out-of-core engine spills into, writing each run
  through to its SSD file in the caller, with crc-checked degradation (a
  lying tier causes a recompute, never corruption).

:mod:`repro.tier.prefetch` adds readahead for the real engine: kernel
hints (``posix_fadvise``) for the next fragments, with no thread.  All
halves emit the same ``tier.*`` counter vocabulary through
:mod:`repro.obs`.
"""

from repro.config import TierSpec
from repro.tier.burst import BurstBuffer
from repro.tier.prefetch import ReadaheadPrefetcher
from repro.tier.store import TieredStore, live_tier_dirs

__all__ = [
    "TierSpec",
    "BurstBuffer",
    "ReadaheadPrefetcher",
    "TieredStore",
    "live_tier_dirs",
]
