"""ID configurations and the exception hierarchy."""

import numpy as np
import pytest

from repro import errors
from repro.types import (
    ID32,
    ID32_V64E,
    ID64,
    IdConfig,
    invalid_vertex,
)


class TestIdConfig:
    def test_default_widths(self):
        assert ID32.vertex_bytes == 4
        assert ID32.size_bytes == 4
        assert ID64.vertex_bytes == 8
        assert ID32_V64E.vertex_bytes == 4
        assert ID32_V64E.size_bytes == 8

    def test_value_dtype_default(self):
        assert ID32.value_bytes == 8

    def test_rejects_float_ids(self):
        with pytest.raises(TypeError):
            IdConfig(np.float32, np.int32)
        with pytest.raises(TypeError):
            IdConfig(np.int32, np.float64)

    def test_max_vertex(self):
        assert ID32.max_vertex() == 2**31 - 1
        assert ID64.max_vertex() == 2**63 - 1

    def test_max_size(self):
        assert ID32_V64E.max_size() == 2**63 - 1

    def test_invalid_vertex_is_max(self):
        assert invalid_vertex(ID32) == 2**31 - 1

    def test_frozen(self):
        with pytest.raises(Exception):
            ID32.vertex_dtype = np.int64

    def test_equality(self):
        assert IdConfig(np.int32, np.int32) == ID32
        assert ID32 != ID64

    def test_describe(self):
        assert "int32" in ID32.describe()

    def test_unsigned_allowed(self):
        cfg = IdConfig(np.uint32, np.uint64)
        assert cfg.vertex_bytes == 4

    def test_graph_id_overflow_checked(self):
        from repro.errors import GraphFormatError
        from repro.graph.build import from_edges

        g = from_edges(4, [(0, 1)])
        tiny = IdConfig(np.int8, np.int8)
        # 4 vertices fit int8; make sure with_ids validates capacity
        g2 = g.with_ids(tiny)
        assert g2.col_indices.dtype == np.int8
        big = from_edges(200, [(0, 199)])
        with pytest.raises(GraphFormatError):
            big.with_ids(tiny)


class TestErrorHierarchy:
    ALL = [
        errors.GraphFormatError,
        errors.PartitionError,
        errors.DeviceMemoryError,
        errors.SimulationError,
        errors.ConvergenceError,
        errors.CommunicationError,
    ]

    def test_all_derive_from_repro_error(self):
        for exc in self.ALL:
            assert issubclass(exc, errors.ReproError)

    def test_catchable_as_base(self):
        with pytest.raises(errors.ReproError):
            raise errors.DeviceMemoryError("boom")

    def test_distinct(self):
        assert len(set(self.ALL)) == len(self.ALL)

    def test_repro_error_not_builtin(self):
        assert not issubclass(errors.ReproError, (ValueError, TypeError))
