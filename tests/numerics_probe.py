"""Does this platform round like the one the pinned numbers were recorded on?

Float rounding of matmul and the transcendental ufuncs depends on the BLAS
build, its CPU kernels and the numpy version.  The weights pins of
``test_network_training.py`` and CI's golden-fingerprint check hold only
where :func:`numerics_probe_sha256` equals :data:`PINNED_PROBE`, and skip
elsewhere.  Imports numpy only, so CI steps without pytest can use it.
"""

import hashlib

import numpy as np


def numerics_probe_sha256():
    """SHA-256 of plain numpy/BLAS results at the pinned model's GEMM shapes."""
    rng = np.random.default_rng(0)
    digest = hashlib.sha256()
    for m, k, n in ((3200, 9, 4), (4, 3200, 9), (288, 36, 8), (32, 24, 16), (16, 32, 10)):
        a = rng.standard_normal((m, k)).astype(np.float32)
        b = rng.standard_normal((k, n)).astype(np.float32)
        digest.update((a @ b).tobytes())
    x = rng.standard_normal((32, 10)).astype(np.float32)
    outputs = (np.exp(x), np.log(np.abs(x) + 1e-3), np.sqrt(np.abs(x)), x.sum(0), x.mean(1))
    for out in outputs:
        digest.update(np.ascontiguousarray(out).tobytes())
    return digest.hexdigest()


#: recorded together on one platform (x86-64, OpenBLAS 0.3.31, numpy 2.4)
PINNED_PROBE = "d7cd723621b0695173c3abc391782ef066fd74877d0a0ae39c650930135b8717"
