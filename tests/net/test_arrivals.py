"""Trace-file loading and looping trace replay."""

import pytest

from repro.errors import ConfigError
from repro.net import TracePopulation, load_trace_timestamps


class TestTraceLoop:
    def test_replays_gaps_and_loops(self):
        # the first gap elapses before the first arrival; the trace
        # then repeats gap for gap
        src = TracePopulation([0.0, 5.0, 7.0])
        assert list(src.take(0.0, 20.0)) == [5.0, 7.0, 12.0, 14.0, 19.0]

    def test_validation(self):
        # (trace-shape checks: TestTracePopulation in test_population.py)
        with pytest.raises(ConfigError):
            TracePopulation([0.0, 5.0], rate_per_us=0.0)
        with pytest.raises(ConfigError):
            TracePopulation([0.0, 5.0], rate_per_us=-1.0)


class TestTraceFromFile:
    def test_npy_round_trip(self, tmp_path):
        import numpy as np

        path = str(tmp_path / "trace.npy")
        np.save(path, np.array([0.0, 5.0, 7.0]))
        src = TracePopulation.from_file(path)
        assert list(src.take(0.0, 15.0)) == [5.0, 7.0, 12.0, 14.0]

    def test_csv_with_header_and_extra_columns(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("timestamp_us,flow\n0.0,a\n5.0,b\n7.0,a\n")
        assert load_trace_timestamps(str(path)) == [0.0, 5.0, 7.0]

    def test_bare_text_one_per_line(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("1.5\n2.5\n10.0\n")
        src = TracePopulation.from_file(str(path))
        assert list(src.take(0.0, 9.0)) == [1.0, 8.5]

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_trace_timestamps("/nonexistent/trace.csv")

    def test_unparsable_row_after_data(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0\n2.0\noops\n")
        with pytest.raises(ConfigError):
            load_trace_timestamps(str(path))

    def test_too_short(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("header\n1.0\n")
        with pytest.raises(ConfigError):
            load_trace_timestamps(str(path))

    def test_npy_rejects_2d(self, tmp_path):
        import numpy as np

        path = str(tmp_path / "grid.npy")
        np.save(path, np.zeros((2, 2)))
        with pytest.raises(ConfigError):
            load_trace_timestamps(path)
