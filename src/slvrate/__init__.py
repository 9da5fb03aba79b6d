"""slvrate: recombination-to-mutation rate estimation from MLST single-locus variants.

The package turns MLST profile + allele files into per-locus and joint
estimates of the relative rate at which a locus is affected by
recombination versus mutation, with composite-likelihood confidence
intervals and a cross-locus rate-variation test. A built-in clonal-frame
simulator supports end-to-end validation without external tools.
"""

import os

# Before numpy loads: an idle OpenBLAS helper thread spins ~0.13 s after each
# threaded BLAS call, on the cores that forked workers (parallel.fork_map) need.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
