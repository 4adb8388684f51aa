"""Mine epidemiological data from Wikipedia outbreak articles.

Two extraction routes: a trainable CRF tagger for case/death/hospitalization
phrases in revision text, and a revision-history table miner that rebuilds
per-country case/death time series and scores them against ground truth.

Import from the modules (``from outbreakminer.crf import train``): the
package root re-exports nothing, so a command loads only the layers it runs.
"""

import os

# One BLAS thread, set before numpy loads: threaded BLAS reductions, such as
# the dot products inside crf.minimize_lbfgs, round differently per thread
# count, so trained model files would differ between machines.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

__version__ = "0.1.0"
