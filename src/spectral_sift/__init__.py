"""Hyperspectral parasite-detection toolkit.

Spectral preprocessing, correlation-gated PCA, supervised K-means++
clustering on the gated component scores, Kernel-Flows-tuned kernel PLS-DA,
and PLS-based wavelength selection, with a batch CLI (``spectral-sift``) on
top.
"""

__version__ = "0.1.0"
