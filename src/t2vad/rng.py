"""Seed derivation and RNG construction.

A single master seed fans out to per-stage seeds so pipeline stages can be
rerun independently yet deterministically. Stage names are hashed with
SHA-256 (never Python's randomized ``hash``) and the generator is numpy's
PCG64, a published 64-bit PRNG; determinism is per-platform.
"""

from __future__ import annotations

import hashlib

import numpy as np


def derive_seed(master_seed: int, stage: str) -> int:
    """Deterministic 63-bit seed for a named pipeline stage."""
    digest = hashlib.sha256(f"{master_seed}:{stage}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))
