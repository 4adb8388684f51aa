"""Mine epidemiological data from Wikipedia outbreak articles.

Two extraction routes: a trainable CRF tagger for case/death/hospitalization
phrases in revision text, and a revision-history table miner that rebuilds
per-country case/death time series and scores them against ground truth.
"""

import os

# One BLAS thread, set before numpy loads: threaded BLAS reductions, such as
# the dot products inside L-BFGS-B, round differently per thread count, so
# trained model files would differ between machines.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

__version__ = "0.1.0"

from .corpus import LABELS, LabeledToken, build_corpus, cohen_kappa, trigram_jaccard
from .crf import CrfModel, FeatureConfig, TagResult, train, viterbi
from .ingest import ArticleRevision, RevisionCache, RevisionQuery, fetch_revisions
from .timeseries import TimeSeries, interpolate_daily, rmse, rmse_report
from .wikitext import RawTable, Sentence, parse_tables, strip_markup, tokenize

__all__ = [
    "__version__",
    "LABELS", "LabeledToken", "build_corpus", "cohen_kappa", "trigram_jaccard",
    "CrfModel", "FeatureConfig", "TagResult", "train", "viterbi",
    "ArticleRevision", "RevisionCache", "RevisionQuery", "fetch_revisions",
    "TimeSeries", "interpolate_daily", "rmse", "rmse_report",
    "RawTable", "Sentence", "parse_tables", "strip_markup", "tokenize",
]
