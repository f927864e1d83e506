"""Streaming verification service: async dynamic batching for pairing traffic.

Production proof/signature verification is a traffic problem, not a
single-kernel problem.  This package turns the repo's fused pairing kernels
into a serving layer:

* :mod:`repro.service.service` -- :class:`VerificationService`, the asyncio
  front end (admission, verifying-key cache, fused batch verification);
* :mod:`repro.service.batcher` -- the dynamic batcher (flush on max-batch OR
  once no companion is expected before the deadline, bounded queue,
  reject-with-retry-after backpressure);
* :mod:`repro.service.workloads` -- the Groth16/BLS request shapes and
  synthetic traffic generators;
* :mod:`repro.service.vkcache` -- the content-addressed ``precompute_g2``
  cache for fixed G2 points;
* :mod:`repro.service.metrics` -- queue depth, batch-size histogram,
  latency percentiles, sustained verifications/sec;
* :mod:`repro.service.simulate` -- the deterministic virtual-time model of
  the same policy (the live batcher's twin) and the seeded arrival traces;
* :mod:`repro.service.loadgen` -- the open-loop load generator
  (``python -m repro.service.loadgen``).

See ``docs/serving.md`` for the operator guide and ``docs/architecture.md``
for where this layer sits in the stack.
"""

from repro.service.batcher import DynamicBatcher
from repro.service.config import ServiceConfig
from repro.service.metrics import ServiceMetrics, percentile
from repro.service.service import VerificationService
from repro.service.simulate import arrival_times, simulate_batch_queue
from repro.service.vkcache import VerifyingKeyCache, g2_point_digest
from repro.service.workloads import (
    BLSRequest,
    Groth16Proof,
    Groth16Request,
    Groth16VerifyingKey,
    hash_to_g1,
    make_bls_requests,
    make_groth16_requests,
)

__all__ = [
    "VerificationService",
    "ServiceConfig",
    "ServiceMetrics",
    "DynamicBatcher",
    "VerifyingKeyCache",
    "g2_point_digest",
    "Groth16Proof",
    "Groth16VerifyingKey",
    "Groth16Request",
    "BLSRequest",
    "hash_to_g1",
    "make_groth16_requests",
    "make_bls_requests",
    "arrival_times",
    "simulate_batch_queue",
    "percentile",
]
