"""Classification accuracy."""

from __future__ import annotations

import numpy as np


def accuracy(predictions: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of exact matches; 0.0 on an empty input."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise ValueError(
            f"shape mismatch: {predictions.shape} vs {labels.shape}"
        )
    if len(labels) == 0:
        return 0.0
    return float((predictions == labels).mean())
