"""Clustering substrate (KMeans) for the km-Purity / km-NMI evaluation."""

from repro.cluster.kmeans import KMeans

__all__ = ["KMeans"]
