"""torsionflow: intrinsic-torsion diagnostics for almost Hermitian structures.

The package builds exact chart-level derivatives with truncated Taylor
arithmetic (``jets``), derives Levi-Civita data and curvature from metric
fields (``geometry``), splits the intrinsic torsion of a U(n)-structure into
its Gray-Hervella components (``unstruct``), and evaluates harmonicity
criteria and identity suites at sampled points (``diagnostics``).  A worked
set of chart geometries lives in ``catalog``, a discrete total-bending
gradient flow on flat tori in ``flow``, and a JSON-driven command line in
``cli``.  The top level exports the jet type, ``JetField``, and its index
tables, ``jet_space``.
"""

from .jets import JetField, jet_space

__version__ = "0.1.0"

__all__ = ["JetField", "jet_space", "__version__"]
