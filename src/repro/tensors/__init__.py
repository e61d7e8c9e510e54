"""Tensor metadata substrate: shapes, dtypes and byte accounting.

The performance simulator never materializes mini-batch tensors; it reasons
about :class:`~repro.tensors.tensor_spec.TensorSpec` records (shape + dtype +
role). The functional executor uses real numpy arrays whose shapes are
validated against the same specs.
"""

from repro.tensors.tensor_spec import TensorKind, TensorSpec
from repro.tensors.shapes import conv2d_output_hw, pool2d_output_hw

__all__ = [
    "TensorKind",
    "TensorSpec",
    "conv2d_output_hw",
    "pool2d_output_hw",
]
