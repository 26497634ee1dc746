"""Numpy batch kernels for the ``vectorized`` simulation backend.

Design rule: **a vectorized kernel must be bit-identical to the scalar
closed form it replaces**, because the golden-trace suite and the
cross-backend differential harness (:mod:`repro.perf.diff`) compare traces
byte-for-byte.  That rules out ``np.power`` for the FER curve: numpy's SIMD
``pow`` differs from CPython's ``float.__pow__`` (both call a pow, but not
the same one) by 1-2 ulp on a few percent of inputs — measured on this
container, ~5% of random ``(ber, size)`` pairs diverge in the last bits.
Division and ``np.ceil``, by contrast, are IEEE-exact operations, so the
airtime formula vectorizes directly.

Hence two strategies:

* :func:`airtime_array` — straight numpy translation of
  :func:`repro.phy.params.airtime_formula` (add/div/ceil only, exact).
* :func:`fer_array` — *unique-then-gather*: evaluate the scalar
  :func:`repro.phy.error.frame_error_rate` once per distinct
  ``(ber, size)`` pair and scatter with a vectorized gather.  Real traffic
  has a handful of distinct frame sizes, so this is O(distinct) scalar pows
  plus O(n) numpy indexing — batch-shaped *and* exact by construction.

``tests/test_vectorized_phy.py`` pins both element-wise (``==``, not
approx) to the scalar forms with hypothesis, including zero-length frames
and FER saturation at 1.0.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.phy.error import PLCP_BYTES, frame_error_rate

if TYPE_CHECKING:
    import numpy

    from repro.phy.params import PhyParams


def airtime_array(
    sizes: "Sequence[int] | numpy.ndarray",
    rate: float,
    preamble: float,
    ofdm: bool,
    ofdm_bits_per_symbol: int,
) -> "numpy.ndarray":
    """Vectorized :func:`repro.phy.params.airtime_formula` (bit-exact).

    ``sizes`` is an array of frame sizes in bytes; the remaining arguments
    mirror the scalar formula.  Every element equals the scalar result
    exactly: ``8 * size`` and ``16 + 6 + bits`` are integer-exact in
    float64 far beyond any frame size, and division/``ceil`` round
    identically in numpy and CPython.
    """
    import numpy as np

    bits = 8.0 * np.asarray(sizes, dtype=np.float64)
    if ofdm:
        bits_per_symbol = ofdm_bits_per_symbol * (rate / 6.0)
        symbols = np.ceil((16.0 + 6.0 + bits) / bits_per_symbol)
        return preamble + 4.0 * symbols
    return preamble + bits / rate


def phy_airtime_array(
    phy: "PhyParams", sizes: "Sequence[int] | numpy.ndarray", rate: float | None = None
) -> "numpy.ndarray":
    """:meth:`PhyParams.airtime` over an array of sizes at one rate."""
    if rate is None:
        rate = phy.data_rate
    return airtime_array(
        sizes, rate, phy.preamble, phy.ofdm, phy.ofdm_bits_per_symbol
    )


def fer_array(
    ber: "float | Sequence[float] | numpy.ndarray",
    sizes: "int | Sequence[int] | numpy.ndarray",
    plcp_bytes: int = PLCP_BYTES,
) -> "numpy.ndarray":
    """Vectorized :func:`repro.phy.error.frame_error_rate` (bit-exact).

    ``ber`` and ``sizes`` broadcast against each other.  Each distinct
    ``(ber, size)`` pair is evaluated once through the scalar (cached)
    closed form — see the module docstring for why ``np.power`` is not an
    option — then gathered back to the broadcast shape.  Raises exactly the
    scalar validation errors for out-of-range inputs.
    """
    import numpy as np

    ber_b, size_b = np.broadcast_arrays(
        np.asarray(ber, dtype=np.float64), np.asarray(sizes, dtype=np.int64)
    )
    if ber_b.size == 0:
        return np.zeros(ber_b.shape, dtype=np.float64)
    pairs = np.stack(
        [ber_b.ravel(), size_b.ravel().astype(np.float64)], axis=1
    )
    uniq, inverse = np.unique(pairs, axis=0, return_inverse=True)
    table = np.array(
        [frame_error_rate(float(b), int(s), plcp_bytes) for b, s in uniq],
        dtype=np.float64,
    )
    return table[inverse.reshape(ber_b.shape)]


def sinr_array(
    rss: "float | Sequence[float] | numpy.ndarray",
    interference: "float | Sequence[float] | numpy.ndarray",
    noise_floor: float,
) -> "numpy.ndarray":
    """Signal-to-interference-plus-noise ratio over arrays (bit-exact).

    ``rss / (noise_floor + interference)`` with broadcasting — addition and
    division are IEEE-exact, so every element equals the scalar python
    expression bit-for-bit (unlike ``np.power``; see the module docstring).
    The simulation's own decision uses the equivalent multiply form
    ``rss >= threshold * (noise_floor + interference)`` on both backends
    (shared code in :class:`repro.phy.medium._SinrMixin`); this kernel is
    the batch twin for analysis and property tests.
    """
    import numpy as np

    rss_a = np.asarray(rss, dtype=np.float64)
    interference_a = np.asarray(interference, dtype=np.float64)
    return rss_a / (noise_floor + interference_a)


__all__ = [
    "airtime_array",
    "fer_array",
    "phy_airtime_array",
    "sinr_array",
]
