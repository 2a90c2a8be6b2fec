"""Keyword-weighted document clustering toolkit.

Pipeline: scholarly-article JSON -> 2-3 sentence chunks -> tf-idf vectors
-> PCA reduction -> query-weighted K-means with two-cluster assignment and
centroid damping -> comparison reports against keyword search and the
standard K-means baseline.
"""

from .cluster import Assignment, ClusterConfig, ClusterModel, elbow_scan, run
from .corpus import Document, LoadReport, StageStore, batch_iter, load_corpus
from .pca import PcaModel, fit_pca, pca_transform
from .preprocess import Chunk, CleaningConfig, TokenTable, chunk_document
from .vectorize import Vocabulary, build_vocabulary, tfidf_vector
from .weighting import assign_weights

__all__ = [
    "Assignment",
    "Chunk",
    "CleaningConfig",
    "ClusterConfig",
    "ClusterModel",
    "Document",
    "LoadReport",
    "PcaModel",
    "StageStore",
    "TokenTable",
    "Vocabulary",
    "assign_weights",
    "batch_iter",
    "build_vocabulary",
    "chunk_document",
    "elbow_scan",
    "fit_pca",
    "load_corpus",
    "pca_transform",
    "run",
    "tfidf_vector",
]

__version__ = "0.1.0"
