"""Kernel performance layer: reusable workspaces and cached tables.

The paper's contribution is making collapsed Gibbs sampling fast; this
package removes the Python-side costs that stand between the NumPy
expression of those kernels and the hardware:

- :class:`~repro.perf.workspace.Workspace` — a grow-only buffer pool
  keyed by (role, dtype) so steady-state sampling iterations reuse the
  same arrays instead of reallocating ~15 temporaries per chunk pass;
- :mod:`~repro.perf.tables` — cached ``lnG(n + offset)`` lookup tables
  turning the likelihood's per-element ``gammaln`` calls into gathers;
- :mod:`~repro.perf.native` — the sampler's theta-row walk and the
  update-phi scatter as C loops, built with ``gcc`` on first use, with
  the NumPy code as the automatic fallback.

Everything here is value-preserving by construction: a kernel given a
workspace produces bit-identical float64 results to the same kernel
allocating fresh arrays, and the native loops are bit-identical to the
NumPy ones (asserted by tests/test_golden_regression.py and
tests/test_native_kernels.py).
"""

from repro.perf.tables import counts_of_counts_lngamma, lngamma_table
from repro.perf.workspace import Workspace

__all__ = ["Workspace", "counts_of_counts_lngamma", "lngamma_table"]
