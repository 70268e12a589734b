"""The repo-wide stable content digest.

Everything that needs a deterministic identity -- cache keys, chaos
fault rolls, retry jitter, trace span IDs -- derives it from
:func:`stable_hash`, so "same content, same identity" holds across
processes and interpreter runs.  The helper lives here (leaf of the
import graph) so low-level packages like :mod:`repro.obs` can use it
without importing the engine; :mod:`repro.engine.cache` re-exports it
for its historical callers.  :func:`content_digest` is the in-process
counterpart the structural memos key on.
"""

from __future__ import annotations

import hashlib
import json
import pickle


def stable_hash(obj) -> str:
    """SHA-256 hex digest of an object's canonical JSON form.

    ``sort_keys`` makes dict ordering irrelevant; non-JSON values fall
    back to ``repr`` (deterministic for the dataclasses used here).
    """
    blob = json.dumps(obj, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def content_digest(obj) -> bytes:
    """A 16-byte BLAKE2b digest of an object's pickled content.

    The in-process memos key on this rather than on ``hash``/``==``:
    equality conflates ``0.0`` with ``-0.0`` (and ``1`` with ``1.0``),
    which compile to different code, while pickle records every float's
    exact bits.  Equal objects with different internal sharing may
    digest differently; that costs a memo miss, never a wrong hit.
    """
    return hashlib.blake2b(pickle.dumps(obj, protocol=5),
                           digest_size=16).digest()
