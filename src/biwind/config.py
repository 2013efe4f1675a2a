"""Central numeric defaults.

Every tunable shared by the library and the command line lives here so that
a CLI flag, a test, and a library call all resolve the same number.  The
values themselves are plain floats/ints; anything run-specific is passed
explicitly through the dataclasses that consume them.
"""

from __future__ import annotations

# Integration defaults.
REL_TOL = 1e-10
ABS_TOL = 1e-12
MAX_STEP = 0.25
BLOWUP_NORM = 1e8
MAX_SPAN = 25.0
EVENT_REFINE_TOL = 1e-10

# Unstable-manifold shooting defaults.
EPS0 = 1e-3
THETA_TOL = 1e-10
# The command line's `shoot` raises a smaller --theta-tol to this floor and
# records it; library calls such as manifold.find_heteroclinic do not clamp.
THETA_TOL_FLOOR = 1e-13
SHOOT_SPAN = 25.0
HETEROCLINIC_TOL = 1e-3  # end-state closeness that flags a candidate

# Winding-profile defaults.
WIND_THETA_OFFSET = 0.2  # seed angle beyond the boundary root
WIND_EPS0 = 1e-3

# Certificate defaults.
MIN_WIDTH_COEFF = 1e-5  # branch-and-bound floor for the coefficient tasks
MIN_WIDTH_QUAD = 1e-4   # floor for the discriminant/cone source tasks
# How every certificate rounds its interval endpoints; recorded in certificates
# and manifests.
ROUNDING_MODE = "nextafter-outward"

# Region-membership boundary tolerance.
BOUNDARY_TOL = 1e-9
