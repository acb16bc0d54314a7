"""Deterministic seed derivation for independent pipeline consumers."""

import hashlib


def derive_seed(master: int, role: str) -> int:
    """Derive a stable 64-bit sub-seed from a master seed and a role tag.

    Each cross-validation fold trains from its own role's seed, so results
    do not depend on the folds' order or schedule. Synthetic slide i and
    random-forest tree i use np.random.SeedSequence(seed, spawn_key=(i,)).
    """
    digest = hashlib.sha256(f"{master}:{role}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")
