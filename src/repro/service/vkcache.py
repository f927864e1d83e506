"""Content-addressed verifying-key precomputation cache.

Verification traffic pairs fresh G1 points against a small set of *fixed* G2
points: Groth16 verifying keys (beta, delta), BLS public keys and the G2
generator.  :func:`repro.pairing.batch.precompute_g2` walks the Miller loop
once for such a point; this cache stores those walks keyed the same way the
compile artifact store keys kernels -- a SHA-256 digest of the full semantic
content (curve, point coordinates), so two structurally equal points hit the
same entry no matter which object identity carried them.

Eviction is LRU by last use under a fixed entry budget; ``stats()`` reports
the hit/miss/eviction counters and the number of entries held.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict

from repro.config import positive_int
from repro.errors import PairingError, ServiceError
from repro.obs import Counters
from repro.pairing.ate import as_affine_pair
from repro.pairing.batch import G2Precomputation, precompute_g2


def g2_point_digest(curve, Q) -> str:
    """SHA-256 content digest of a G2 point's precomputation identity.

    Keyed like the artifact store: every input that changes the precomputed
    line coefficients -- the curve and the affine coordinates (the service
    walks the signed-digit loop only) -- is hashed; nothing else is.  Infinity
    has no precomputation (``precompute_g2`` rejects it) and is rejected here
    for the same reason.
    """
    affine = as_affine_pair(Q, role="Q (G2 point)")
    if affine is None:
        raise PairingError("the point at infinity has no precomputation digest")
    x, y = affine
    material = [curve.name.encode()]
    for coord in (x, y):
        for coeff in coord.to_base_coeffs():
            material.append(int(coeff).to_bytes((int(coeff).bit_length() + 8) // 8, "big"))
    return hashlib.sha256(b"\x00".join(material)).hexdigest()


class VerifyingKeyCache:
    """Bounded LRU cache of :class:`G2Precomputation` entries for one curve."""

    def __init__(self, curve, max_entries: int = 128):
        positive_int(max_entries, "max_entries", ServiceError)
        self.curve = curve
        self.max_entries = max_entries
        self._entries: OrderedDict = OrderedDict()
        self.counters = Counters("hits", "misses", "evictions")

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, Q) -> G2Precomputation:
        """The precomputation of ``Q``, computed at most once per content digest."""
        key = g2_point_digest(self.curve, Q)
        entry = self._entries.get(key)
        if entry is not None:
            self.counters.hits += 1
            self._entries.move_to_end(key)
            return entry
        self.counters.misses += 1
        entry = precompute_g2(self.curve, Q)
        self._entries[key] = entry
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.counters.evictions += 1
        return entry

    def stats(self) -> dict:
        """The counts (no derived rate) and the number of entries held."""
        return dict(self.counters.delta(), entries=len(self._entries))
