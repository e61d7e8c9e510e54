"""Unit tests for conv/pool shape inference."""

import pytest

from repro.errors import ShapeError
from repro.tensors import conv2d_output_hw, pool2d_output_hw


class TestConvShapes:
    def test_identity_1x1(self):
        assert conv2d_output_hw((56, 56), 1) == (56, 56)

    def test_same_padding_3x3(self):
        assert conv2d_output_hw((56, 56), 3, padding=1) == (56, 56)

    def test_stem_7x7_stride2(self):
        # DenseNet/ResNet stem: 224 -> 112.
        assert conv2d_output_hw((224, 224), 7, stride=2, padding=3) == (112, 112)

    def test_alexnet_11x11_stride4(self):
        assert conv2d_output_hw((224, 224), 11, stride=4, padding=2) == (55, 55)

    def test_rectangular_input(self):
        assert conv2d_output_hw((10, 20), 3, padding=1) == (10, 20)

    def test_kernel_too_large_raises(self):
        with pytest.raises(ShapeError):
            conv2d_output_hw((4, 4), 7)

    def test_bad_stride_raises(self):
        with pytest.raises(ShapeError):
            conv2d_output_hw((8, 8), 3, stride=0)

    def test_negative_padding_raises(self):
        with pytest.raises(ShapeError):
            conv2d_output_hw((8, 8), 3, padding=-1)


class TestPoolShapes:
    def test_default_stride_equals_kernel(self):
        assert pool2d_output_hw((56, 56), 2) == (28, 28)

    def test_stem_maxpool(self):
        # 3x3 stride-2 pad-1: 112 -> 56.
        assert pool2d_output_hw((112, 112), 3, stride=2, padding=1) == (56, 56)

    def test_ceil_mode_rounds_up(self):
        assert pool2d_output_hw((7, 7), 2, stride=2) == (3, 3)
        assert pool2d_output_hw((7, 7), 2, stride=2, ceil_mode=True) == (4, 4)

    def test_window_too_large_raises(self):
        with pytest.raises(ShapeError):
            pool2d_output_hw((2, 2), 5)
