"""SHA-256 from the interpreter's built-in module, not from OpenSSL.

`hashlib` loads OpenSSL's `_hashlib`, about 4 ms of every command that
imports it, while the cache's two checks and `--redact`'s labels need
only SHA-256. CPython's `random` takes SHA-512 the same way. The
digests are the same either way.
"""
from __future__ import annotations

try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:  # an interpreter built without them
        from hashlib import sha256


def sha256_hex(data: bytes) -> str:
    """The SHA-256 digest of data, as lowercase hex."""
    return sha256(data).hexdigest()
