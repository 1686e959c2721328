"""Tests for layouts, compression codecs and the SHDF container."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import FormatError
from repro.formats import (
    GzipCodec,
    HDF5CostModel,
    Layout,
    Precision16Codec,
    SHDFReader,
    SHDFWriter,
    compress_pipeline,
    decompress_pipeline,
)
from repro.formats.compression import (
    GZIP16_MODEL,
    GZIP_MODEL,
    CompressionModel,
    compression_ratio_percent,
)


class TestLayout:
    def test_paper_example(self):
        # <layout name="my_layout" type="real" dimensions="64,16,2"
        #         language="fortran" />
        layout = Layout.parse("my_layout", "real", "64,16,2", "fortran")
        assert layout.element_count == 64 * 16 * 2
        assert layout.nbytes == 64 * 16 * 2 * 4
        assert layout.shape == (2, 16, 64)  # fortran: reversed for numpy
        assert layout.dtype == np.float32

    def test_c_ordering_keeps_shape(self):
        layout = Layout.parse("l", "double", "4,8")
        assert layout.shape == (4, 8)
        assert layout.element_size == 8

    def test_matches(self):
        layout = Layout("l", "float", (8, 8))
        assert layout.matches(np.zeros((8, 8), dtype=np.float32))
        assert layout.matches(np.zeros(64, dtype=np.float32))
        assert not layout.matches(np.zeros((8, 8), dtype=np.float64))
        assert not layout.matches(np.zeros((4, 8), dtype=np.float32))

    def test_unknown_type(self):
        with pytest.raises(FormatError):
            Layout("l", "quaternion", (4,))

    def test_bad_dimensions(self):
        with pytest.raises(FormatError):
            Layout("l", "int", ())
        with pytest.raises(FormatError):
            Layout("l", "int", (0, 4))
        with pytest.raises(FormatError):
            Layout.parse("l", "int", "a,b")

    def test_bad_language(self):
        with pytest.raises(FormatError):
            Layout("l", "int", (4,), language="cobol")


class TestCodecs:
    def test_gzip_roundtrip(self):
        rng = np.random.default_rng(0)
        array = rng.normal(size=(16, 16)).astype(np.float32)
        codec = GzipCodec()
        payload, meta = codec.encode(array)
        back = codec.decode(payload, meta)
        assert np.array_equal(array, back)

    def test_gzip_compresses_smooth_data(self):
        smooth = np.zeros((64, 64), dtype=np.float32)
        payload, _ = GzipCodec().encode(smooth)
        assert len(payload) < smooth.nbytes / 10

    def test_gzip_level_validation(self):
        with pytest.raises(FormatError):
            GzipCodec(level=0)

    def test_precision16_halves_floats(self):
        array = np.linspace(0, 1, 128, dtype=np.float32)
        payload, meta = Precision16Codec().encode(array)
        assert len(payload) == array.nbytes // 2
        back = Precision16Codec().decode(payload, meta)
        assert back.dtype == np.float32
        assert np.allclose(array, back, atol=1e-3)

    def test_precision16_passes_ints_through(self):
        array = np.arange(10, dtype=np.int32)
        payload, meta = Precision16Codec().encode(array)
        back = Precision16Codec().decode(payload, meta)
        assert np.array_equal(array, back)

    def test_pipeline_chain_roundtrip(self):
        rng = np.random.default_rng(1)
        array = rng.normal(size=(32, 32)).astype(np.float32)
        codecs = [Precision16Codec(), GzipCodec()]
        payload, metas = compress_pipeline(array, codecs)
        back = decompress_pipeline(payload, metas)
        assert back.shape == array.shape
        assert np.allclose(array, back, atol=2e-3)

    def test_empty_pipeline_is_raw(self):
        array = np.arange(6, dtype=np.int16).reshape(2, 3)
        payload, metas = compress_pipeline(array, [])
        assert payload == array.tobytes()
        assert np.array_equal(decompress_pipeline(payload, metas), array)

    @given(hnp.arrays(dtype=np.float32,
                      shape=hnp.array_shapes(min_dims=1, max_dims=3,
                                             max_side=16),
                      elements=st.floats(-1e6, 1e6, width=32)))
    @settings(max_examples=40, deadline=None)
    def test_gzip_roundtrip_property(self, array):
        payload, metas = compress_pipeline(array, [GzipCodec()])
        assert np.array_equal(decompress_pipeline(payload, metas), array)


class TestCompressionModel:
    def test_paper_conventions(self):
        assert compression_ratio_percent(187, 100) == pytest.approx(187.0)
        assert GZIP_MODEL.output_bytes(187.0) == pytest.approx(100.0)
        assert GZIP16_MODEL.output_bytes(600.0) == pytest.approx(100.0)

    def test_cpu_seconds(self):
        model = CompressionModel(bandwidth=100e6, ratio_percent=200.0)
        assert model.cpu_seconds(200e6) == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(FormatError):
            CompressionModel(bandwidth=0)
        with pytest.raises(FormatError):
            CompressionModel(ratio_percent=50.0)
        with pytest.raises(FormatError):
            compression_ratio_percent(100, 0)


class TestHDF5CostModel:
    def test_file_bytes_adds_overheads(self):
        model = HDF5CostModel(file_overhead_bytes=100,
                              dataset_overhead_bytes=10)
        assert model.file_bytes(1000, ndatasets=3) == 1130


class TestSHDF:
    def test_roundtrip_plain(self, tmp_path):
        path = str(tmp_path / "f.shdf")
        rng = np.random.default_rng(2)
        array = rng.normal(size=(20, 30)).astype(np.float64)
        with SHDFWriter(path) as writer:
            writer.write_dataset("grid/temp", array)
            writer.set_attr("iteration", 7)
        with SHDFReader(path) as reader:
            assert reader.datasets == ["grid/temp"]
            assert "grid" in reader.groups
            assert reader.attrs["iteration"] == 7
            assert np.array_equal(reader.read_dataset("grid/temp"), array)

    def test_roundtrip_chunked_compressed(self, tmp_path):
        path = str(tmp_path / "f.shdf")
        x = np.linspace(0, 4 * np.pi, 96)
        array = np.sin(np.add.outer(x, x)).astype(np.float32)
        with SHDFWriter(path) as writer:
            stored = writer.write_dataset("v", array, chunk_shape=(32, 32),
                                          codecs=[GzipCodec()])
        assert stored < array.nbytes  # smooth field compresses
        with SHDFReader(path) as reader:
            assert np.array_equal(reader.read_dataset("v"), array)
            assert reader.stored_bytes("v") == stored
            assert reader.raw_bytes("v") == array.nbytes

    def test_lossy_pipeline(self, tmp_path):
        path = str(tmp_path / "f.shdf")
        array = np.linspace(0, 1, 1000, dtype=np.float32)
        with SHDFWriter(path) as writer:
            writer.write_dataset("v", array,
                                 codecs=[Precision16Codec(), GzipCodec()])
        with SHDFReader(path) as reader:
            assert np.allclose(reader.read_dataset("v"), array, atol=1e-3)

    def test_dataset_attrs(self, tmp_path):
        path = str(tmp_path / "f.shdf")
        with SHDFWriter(path) as writer:
            writer.write_dataset("v", np.zeros(4), attrs={"unit": "K"})
            writer.set_attr("source", 3, dataset="v")
        with SHDFReader(path) as reader:
            assert reader.dataset_attrs("v") == {"unit": "K", "source": 3}

    def test_duplicate_dataset_raises(self, tmp_path):
        path = str(tmp_path / "f.shdf")
        with SHDFWriter(path) as writer:
            writer.write_dataset("v", np.zeros(4))
            with pytest.raises(FormatError):
                writer.write_dataset("v", np.zeros(4))

    def test_missing_dataset_raises(self, tmp_path):
        path = str(tmp_path / "f.shdf")
        with SHDFWriter(path) as writer:
            writer.write_dataset("v", np.zeros(4))
        with SHDFReader(path) as reader:
            with pytest.raises(FormatError):
                reader.read_dataset("nope")

    def test_not_shdf_file(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"definitely not shdf")
        with pytest.raises(FormatError):
            SHDFReader(str(path))

    def test_write_after_close_raises(self, tmp_path):
        path = str(tmp_path / "f.shdf")
        writer = SHDFWriter(path)
        writer.close()
        with pytest.raises(FormatError):
            writer.write_dataset("v", np.zeros(4))

    def test_scalar_promoted_to_1d(self, tmp_path):
        path = str(tmp_path / "f.shdf")
        with SHDFWriter(path) as writer:
            writer.write_dataset("s", np.float64(3.5))
        with SHDFReader(path) as reader:
            assert reader.read_dataset("s").tolist() == [3.5]

    def test_bad_chunk_shape(self, tmp_path):
        path = str(tmp_path / "f.shdf")
        with SHDFWriter(path) as writer:
            with pytest.raises(FormatError):
                writer.write_dataset("v", np.zeros((4, 4)), chunk_shape=(2,))
            with pytest.raises(FormatError):
                writer.write_dataset("v", np.zeros((4, 4)),
                                     chunk_shape=(0, 2))

    @given(hnp.arrays(dtype=np.float32,
                      shape=hnp.array_shapes(min_dims=1, max_dims=3,
                                             max_side=20),
                      elements=st.floats(-1e3, 1e3, width=32)))
    @settings(max_examples=25, deadline=None)
    def test_shdf_roundtrip_property(self, tmp_path_factory, array):
        path = str(tmp_path_factory.mktemp("shdf") / "f.shdf")
        chunk = tuple(max(1, s // 2) for s in array.shape)
        with SHDFWriter(path) as writer:
            writer.write_dataset("v", array, chunk_shape=chunk,
                                 codecs=[GzipCodec()])
        with SHDFReader(path) as reader:
            assert np.array_equal(reader.read_dataset("v"), array)
