"""Fixed parameters of the benchmark: matrices, sizes and recorded answers.

Matrix texts are top row first, as ``GridMatrix.parse`` reads them.  All
three row-column graphs are forests, so the word sweep and the permutation
sweep must agree on them at every length.
"""

MATRICES = {
    "DEMO": ". + +\n+ . -",        # 3x2, 4 cells, the README example
    "M22": "+ .\n+ -",             # 2x2, 3 cells
    "M33": ". . +\n. - +\n+ + .",  # 3x3, 5 cells, path-shaped row-column graph
}

# Matrices each workload parses (and runs find_signs on) during set-up.
WORKLOAD_MATRICES = {
    "membership": ("DEMO", "M33"),
    "sweep": ("M22", "DEMO", "M33"),
    "codec": ("DEMO", "M33"),
}

# membership: lengths per matrix; every length gets one member and one
# planted non-member per pass.
MEMBERSHIP_LENGTHS = {"DEMO": (20, 30, 40), "M33": (10, 14, 18)}
PLANTED_LENGTH = 5

# sweep: (matrix, n_max) count requests; M33 at 7 would take ~14 s alone.
SWEEPS = (("M22", 6), ("M22", 7), ("DEMO", 6), ("DEMO", 7), ("M33", 6))

# codec: word lengths per matrix.
CODEC_LENGTHS = (40, 80, 160)

# Class sizes at lengths 1, 2, ... as the seed commit computes them by both
# sweep routes; lengths up to 5 are re-derived by brute force in the tests.
COUNTS = {
    "DEMO": (1, 2, 6, 20, 67, 221, 717),
    "M22": (1, 2, 6, 19, 58, 170, 483),
    "M33": (1, 2, 6, 22, 87, 347),
}

# Passes of distinct inputs written per run.  A run that needs more passes
# reuses them from the start and reports how many ops were repeats.
POOL_PASSES = {"membership": 1024, "sweep": 64, "codec": 4096}

# Reference kernel: the benchmark's own brute-force membership test
# (oracle.is_member) on a fixed DEMO non-member, so it tries every division
# pair.  Untraced runs time one run of it every REFERENCE_EVERY_S, which is
# short enough to follow the host's speed through an op, and report op
# latencies as multiples of the samples taken around each op.
REFERENCE_PERM = (2, 4, 1, 6, 3, 7, 5, 8)
REFERENCE_EVERY_S = 0.05
REFERENCE_WARMUP = 2

# A run continues past its seconds until it has this many op latencies.
# Only sweep (five ops a pass, seconds each) gets this few; with at least six
# of each op, its median falls on the third-cheapest request and its tail
# (ten samples beyond) on the fourth, however fast the host runs that day.
MIN_OPS = 30
