"""Unit tests for the SDK baseline reconstruction [2]."""

import pytest

from repro import ConvLayer, PIMArray, compare_schemes, resnet18, vgg13
from repro.networks.zoo import resnet18_full
from repro.search import im2col_solution, sdk_solution
from repro.search.sdk import sdk_cycles_for, sdk_window_for_duplication


class TestWindowForDuplication:
    def test_d1_is_kernel(self):
        layer = ConvLayer.square(14, 3, 8, 8)
        assert sdk_window_for_duplication(layer, 1).area == 9

    def test_d2_3x3_kernel(self):
        layer = ConvLayer.square(14, 3, 8, 8)
        win = sdk_window_for_duplication(layer, 2)
        assert (win.h, win.w) == (4, 4)

    def test_d2_7x7_kernel(self):
        layer = ConvLayer.square(112, 7, 3, 64)
        win = sdk_window_for_duplication(layer, 2)
        assert (win.h, win.w) == (8, 8)


class TestSelectionRule:
    """The duplication must not add AR or AC cycles over im2col."""

    def test_vgg_l1_picks_4x4(self):
        layer = ConvLayer.square(224, 3, 3, 64)
        sol = sdk_solution(layer, PIMArray.square(512))
        assert str(sol.window) == "4x4"
        assert sol.cycles == 12321

    def test_vgg_l1_not_5x5_because_columns(self):
        # d=3 would need 64*9=576 columns > 512 (AC 2 > AC_im2col 1).
        layer = ConvLayer.square(224, 3, 3, 64)
        bd = sdk_cycles_for(layer, PIMArray.square(512), 3)
        assert bd.ac == 2

    def test_vgg_l2_keeps_4x4_with_ar2(self):
        # AR_sdk = ceil(1024/512) = 2 == AR_im2col -> allowed.
        layer = ConvLayer.square(224, 3, 64, 64)
        sol = sdk_solution(layer, PIMArray.square(512))
        assert str(sol.window) == "4x4"
        assert sol.breakdown.ar == 2
        assert sol.cycles == 24642

    def test_vgg_l4_falls_back_to_im2col(self):
        # AR_sdk(4x4) = ceil(2048/512) = 4 > AR_im2col 3 -> rejected.
        layer = ConvLayer.square(112, 3, 128, 128)
        sol = sdk_solution(layer, PIMArray.square(512))
        assert sol.is_im2col_shaped
        assert sol.cycles == 36300

    def test_resnet_l1_picks_8x8(self):
        layer = ConvLayer.square(112, 7, 3, 64)
        sol = sdk_solution(layer, PIMArray.square(512))
        assert str(sol.window) == "8x8"
        assert sol.cycles == 2809

    def test_resnet_l3_falls_back(self):
        layer = ConvLayer.square(28, 3, 128, 128)
        sol = sdk_solution(layer, PIMArray.square(512))
        assert sol.is_im2col_shaped
        assert sol.cycles == 2028

    def test_fallback_equals_im2col_cycles(self):
        layer = ConvLayer.square(28, 3, 512, 512)
        arr = PIMArray.square(512)
        assert (sdk_solution(layer, arr).cycles
                == im2col_solution(layer, arr).cycles)

    def test_large_array_allows_bigger_duplication(self):
        layer = ConvLayer.square(224, 3, 3, 64)
        small = sdk_solution(layer, PIMArray.square(512))
        big = sdk_solution(layer, PIMArray.square(2048))
        assert big.window.area > small.window.area
        assert big.cycles < small.cycles

    def test_duplication_reported_as_square(self):
        layer = ConvLayer.square(224, 3, 3, 64)
        sol = sdk_solution(layer, PIMArray.square(512))
        assert sol.duplication == 4  # 2x2 copies

    def test_scheme_label(self):
        layer = ConvLayer.square(224, 3, 3, 64)
        assert sdk_solution(layer, PIMArray.square(512)).scheme == "sdk"


class TestCyclesFor:
    def test_window_beyond_ifm_returns_none(self):
        layer = ConvLayer.square(5, 3, 4, 4)
        assert sdk_cycles_for(layer, PIMArray.square(512), 4) is None

    def test_d2_breakdown_values(self):
        layer = ConvLayer.square(56, 3, 64, 64)
        bd = sdk_cycles_for(layer, PIMArray.square(512), 2)
        assert (bd.n_pw, bd.ar, bd.ac) == (729, 2, 1)
        assert bd.total == 1458

    def test_table_cell_uses_full_channels(self):
        # The paper's SDK column prints full IC/OC.
        layer = ConvLayer.square(224, 3, 64, 64)
        sol = sdk_solution(layer, PIMArray.square(512))
        assert sol.table_cell == "4x4x64x64"


class TestStridedLayers:
    """A strided layer keeps im2col: the duplicated window's stride-1
    count (eq. 3) does not apply, so SDK must not raise there."""

    STRIDED = ("conv1", "conv3_1", "conv3_down", "conv4_1", "conv4_down",
               "conv5_1", "conv5_down")

    def test_resnet18_full_strided_layers_map_as_im2col(self):
        layers = {layer.name: layer for layer in resnet18_full()}
        assert sorted(name for name, layer in layers.items()
                      if layer.stride != 1) == sorted(self.STRIDED)
        arr = PIMArray.square(512)
        for name in self.STRIDED:
            sol = sdk_solution(layers[name], arr)
            assert sol.duplication == 1, name
            assert sol.cycles == im2col_solution(layers[name], arr).cycles

    def test_duplicated_window_on_strided_layer_is_none(self):
        layer = ConvLayer.square(56, 3, 64, 128, stride=2, padding=1)
        arr = PIMArray.square(512)
        assert sdk_cycles_for(layer, arr, 2) is None
        assert sdk_cycles_for(layer, arr, 1) is not None

    def test_table1_sdk_totals_unchanged(self):
        arr = PIMArray.square(512)
        assert compare_schemes(resnet18(), arr)["sdk"].total_cycles == 7240
        assert compare_schemes(vgg13(), arr)["sdk"].total_cycles == 114697
