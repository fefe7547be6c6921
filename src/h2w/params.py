"""Default parameters shared across modules.

Ensemble suites, the CLI and the report run at eps=0.49, r=6 with a
below-the-diagonal gap of 6: the smallest gap at which good intervals exist
at every depth.  The classical strict gap r=9 is not a default anywhere.
With eps=1/4 its nonvacuously-good set is empty (an interval of positive
width cannot sit a quarter-length away from both endpoints of a half-cell
exactly 2^(r-1) levels up), so every interval deeper than r-2 levels is
bad; the grid tests pin that fact down.
"""

# Feasible configuration used by ensemble suites and recorded regressions.
SUITE_EPS = 0.49
SUITE_R = 6
SUITE_BELOW_GAP = 6
SUITE_DEPTH = 12

# Energy-stopping threshold scale before calibration.
DEFAULT_C0 = 1.0

# Truncation-scan refinement: number of geometric points inserted between
# consecutive critical distances for the tapered kernels, and the rank
# subsample width for the hard cutoffs.
DEFAULT_REFINEMENT = 8

# Interval-ladder refinement for the Poisson product search.
DEFAULT_A2_REFINEMENT = 6

# Bytes of the largest array a pair may ask for: the kernel stack, the
# candidate arrays of the A2 search, the truncation scan's refined
# distances and the columns of a node table.
MAX_ARRAY_BYTES = 1 << 28
