"""Verification request shapes served by the streaming service.

Both production workloads reduce to one pairing-product-is-one check, which is
what lets the service coalesce them into a single ``multi_pairing`` call:

* **Groth16 proofs** (:class:`Groth16Request`) -- the zero-knowledge-proof
  verifier shape of ``examples/groth16_verification.py``:
  ``e(A, B) = e(alpha, beta) * e(C, delta)``, i.e.
  ``e(-A, B) * e(alpha, beta) * e(C, delta) == 1``.  The verifying-key points
  ``beta`` and ``delta`` are fixed G2 points and come out of the service's
  :class:`~repro.service.vkcache.VerifyingKeyCache`.
* **BLS signatures** (:class:`BLSRequest`) -- the short-signature shape of
  ``examples/bls_signature.py``: ``e(sigma, g2) == e(H(m), pk)``, i.e.
  ``e(-sigma, g2) * e(H(m), pk) == 1``.  The G2 generator and the public key
  are the cacheable fixed points.

:func:`make_groth16_requests` / :func:`make_bls_requests` build deterministic
synthetic traffic (valid instances plus optional forgeries with known expected
verdicts) for the load generator, the benchmarks and the tests.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from random import Random

from repro.config import non_negative_int, number, positive_int
from repro.errors import ServiceError


def hash_to_g1(curve, message: bytes):
    """Hash a message to a G1 point (try-and-increment + cofactor clearing).

    The domain is SHA-256 over ``message || counter``; candidate x-coordinates
    are lifted until one lands on the curve and survives cofactor clearing.
    Deterministic per (curve, message) -- the signer and the verifier must
    agree on the point.  This is **not** RFC 9380 hash-to-curve: it is
    variable-time in the message, has no domain-separation tag and matches no
    standard suite -- synthetic traffic for this repo's own curves only.
    """
    counter = 0
    while True:
        digest = hashlib.sha256(message + counter.to_bytes(4, "big")).digest()
        x = curve.curve.field(int.from_bytes(digest, "big"))
        point = curve.curve.lift_x(x)
        if point is not None:
            point = point.scalar_mul(curve.cofactor_g1)
            if not point.is_infinity():
                return point
        counter += 1


# ---------------------------------------------------------------------------
# Request shapes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Groth16VerifyingKey:
    """The fixed points of one Groth16 circuit: alpha in G1, beta/delta in G2."""

    alpha_g1: object
    beta_g2: object
    delta_g2: object


@dataclass(frozen=True)
class Groth16Proof:
    """One proof: A, C in G1 and B in G2 (fresh per proof, never cached)."""

    a: object
    b: object
    c: object


@dataclass(frozen=True)
class Groth16Request:
    """Verify ``e(A, B) = e(alpha, beta) * e(C, delta)`` for one proof."""

    proof: Groth16Proof
    vk: Groth16VerifyingKey

    def build_pairs(self, curve, vk_cache) -> list:
        """The request as ``multi_pairing`` pairs; fixed G2 points cached."""
        return [
            (-self.proof.a, self.proof.b),
            (self.vk.alpha_g1, vk_cache.get(self.vk.beta_g2)),
            (self.proof.c, vk_cache.get(self.vk.delta_g2)),
        ]


@dataclass(frozen=True)
class BLSRequest:
    """Verify one BLS signature: ``e(sigma, g2) == e(H(m), pk)``."""

    public_key: object
    message: bytes
    signature: object

    def build_pairs(self, curve, vk_cache) -> list:
        return [
            (-self.signature, vk_cache.get(curve.g2_generator)),
            (hash_to_g1(curve, self.message), vk_cache.get(self.public_key)),
        ]


def build_request_pairs(request, curve, vk_cache) -> list:
    """Dispatch any supported request shape to its pair list."""
    build = getattr(request, "build_pairs", None)
    if build is None:
        raise ServiceError(
            f"unsupported request type {type(request).__name__}: requests must "
            "provide build_pairs(curve, vk_cache)")
    return build(curve, vk_cache)


# ---------------------------------------------------------------------------
# Synthetic traffic
# ---------------------------------------------------------------------------

#: Key pairs cycled by :func:`make_bls_requests`.
BLS_SIGNERS = 4


def _forge_every(n, forge_fraction) -> int:
    """Check the arguments both generators share; returns every how many
    requests one is forged (0: none)."""
    non_negative_int(n, "n (requests)", ServiceError)
    number(forge_fraction, "forge_fraction", ServiceError)
    if forge_fraction > 1:
        raise ServiceError(f"forge_fraction must be at most 1, got {forge_fraction!r}")
    return int(round(1.0 / forge_fraction)) if forge_fraction > 0 else 0


def make_groth16_requests(curve, n: int, seed: int = 0, forge_fraction: float = 0.0,
                          n_circuits: int = 2) -> list:
    """``n`` synthetic Groth16 requests with known expected verdicts.

    Returns ``[(request, expected_bool), ...]``.  Instances are built so the
    pairing-product equation holds by construction (the shape of
    ``examples/groth16_verification.py``); every ``1/forge_fraction``-th proof
    is forged by perturbing ``A`` and must verify ``False``.  ``n_circuits``
    distinct verifying keys are cycled so the vk cache sees realistic reuse.
    ``n`` must be an ``int >= 0``, ``forge_fraction`` a number in [0, 1] and
    ``n_circuits`` an ``int >= 1``; anything else raises ``ServiceError``.
    """
    forge_every = _forge_every(n, forge_fraction)
    positive_int(n_circuits, "n_circuits", ServiceError)
    rng = Random(seed)
    g1, g2, r = curve.g1_generator, curve.g2_generator, curve.r
    vks = []
    for _ in range(n_circuits):
        alpha, beta, delta = (rng.randrange(2, r) for _ in range(3))
        vks.append((alpha, beta, delta, Groth16VerifyingKey(
            alpha_g1=g1.scalar_mul(alpha),
            beta_g2=g2.scalar_mul(beta),
            delta_g2=g2.scalar_mul(delta),
        )))
    requests = []
    for index in range(n):
        alpha, beta, delta, vk = vks[index % len(vks)]
        c = rng.randrange(2, r)
        a = rng.randrange(2, r)
        b = ((alpha * beta + c * delta) * pow(a, -1, r)) % r
        forged = bool(forge_every) and index % forge_every == forge_every - 1
        proof = Groth16Proof(
            a=g1.scalar_mul(a + 1 if forged else a),
            b=g2.scalar_mul(b),
            c=g1.scalar_mul(c),
        )
        requests.append((Groth16Request(proof=proof, vk=vk), not forged))
    return requests


def make_bls_requests(curve, n: int, seed: int = 0, forge_fraction: float = 0.0) -> list:
    """``n`` synthetic BLS requests (``[(request, expected_bool), ...]``).

    :data:`BLS_SIGNERS` key pairs are cycled (public keys are the cacheable
    fixed points); forged entries carry a signature over a different message.
    ``n`` and ``forge_fraction`` are checked as for
    :func:`make_groth16_requests`.
    """
    forge_every = _forge_every(n, forge_fraction)
    rng = Random(seed)
    g2, r = curve.g2_generator, curve.r
    signers = []
    for _ in range(BLS_SIGNERS):
        secret = rng.randrange(2, r)
        signers.append((secret, g2.scalar_mul(secret)))
    requests = []
    for index in range(n):
        secret, public = signers[index % len(signers)]
        message = b"finesse request %d" % index
        forged = bool(forge_every) and index % forge_every == forge_every - 1
        signed = message + b"!tampered" if forged else message
        signature = hash_to_g1(curve, signed).scalar_mul(secret)
        requests.append((BLSRequest(public_key=public, message=message,
                                    signature=signature), not forged))
    return requests
