"""Fully-connected layer (the classifier head of every model in the paper)."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ExecutionError, ShapeError
from repro.nn.init import xavier_uniform, zeros
from repro.nn.module import Module, Parameter


class Linear(Module):
    """``y = x @ W.T + b`` on (N, in_features) inputs.

    Accepts (N, C, 1, 1) as produced by global average pooling and flattens
    it, which keeps model definitions free of explicit reshape layers.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        name: str = "fc",
        seed: Optional[int] = None,
    ):
        super().__init__(name)
        if in_features <= 0 or out_features <= 0:
            raise ShapeError("feature counts must be positive")
        self.in_features = in_features
        self.out_features = out_features
        self.weight = self.register_parameter(
            Parameter(xavier_uniform((out_features, in_features), seed=seed), name="weight")
        )
        self.bias = (
            self.register_parameter(Parameter(zeros((out_features,)), name="bias"))
            if bias
            else None
        )
        self._x: Optional[np.ndarray] = None
        self._orig_shape = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._orig_shape = x.shape
        if x.ndim == 4:
            x = x.reshape(x.shape[0], -1)
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ShapeError(
                f"{self.name}: expected (N, {self.in_features}), got {self._orig_shape}"
            )
        self._x = x
        y = x @ self.weight.data.T
        if self.bias is not None:
            y += self.bias.data
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise ExecutionError(f"{self.name}: backward before forward")
        if dy.shape != (self._x.shape[0], self.out_features):
            raise ShapeError(f"{self.name}: bad dY shape {dy.shape}")
        self.weight.accumulate_grad((dy.T @ self._x).astype(self.weight.data.dtype))
        if self.bias is not None:
            self.bias.accumulate_grad(dy.sum(axis=0).astype(self.bias.data.dtype))
        dx = dy @ self.weight.data
        return dx.reshape(self._orig_shape)

    def release(self) -> None:
        self._x = None
