"""Softmax cross-entropy loss with integrated, numerically-stable backward."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ExecutionError, ShapeError
from repro.nn.module import Module


class SoftmaxCrossEntropy(Module):
    """Mean cross-entropy over a batch of logits against integer labels.

    Combines softmax and NLL so the backward is the clean ``p - onehot``
    form without materializing log-probabilities twice.
    """

    def __init__(self, name: str = "softmax_ce"):
        super().__init__(name)
        self._probs: Optional[np.ndarray] = None
        self._labels: Optional[np.ndarray] = None

    def forward(self, logits: np.ndarray, labels: np.ndarray) -> float:
        if logits.ndim != 2:
            raise ShapeError(f"{self.name}: logits must be (N, K), got {logits.shape}")
        if labels.shape != (logits.shape[0],):
            raise ShapeError(
                f"{self.name}: labels must be (N,), got {labels.shape} for "
                f"logits {logits.shape}"
            )
        shifted = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        probs = exp / exp.sum(axis=1, keepdims=True)
        self._probs = probs
        self._labels = labels
        n = logits.shape[0]
        picked = probs[np.arange(n), labels]
        return float(-np.log(np.maximum(picked, 1e-30)).mean())

    def backward(self) -> np.ndarray:
        if self._probs is None or self._labels is None:
            raise ExecutionError(f"{self.name}: backward before forward")
        n = self._probs.shape[0]
        grad = self._probs.copy()
        grad[np.arange(n), self._labels] -= 1.0
        return (grad / n).astype(self._probs.dtype)

    def release(self) -> None:
        self._probs = None
        self._labels = None
