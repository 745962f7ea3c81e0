import os
import pathlib

import numpy as np
import pytest

from miquant import vio
from miquant.errors import FormatError, ManifestError
from miquant.volcore import LabeledCase, Mask, Volume


def _toy_case(spacing=(1.25, 1.25, 8.0), nz=2, n=6):
    rng = np.random.default_rng(1)
    vol = Volume(spacing, rng.uniform(0, 255, (nz, n, n)).astype("<f4").astype(np.float64))
    endo = np.zeros((nz, n, n), dtype=bool)
    endo[:, 2:4, 2:4] = True
    myo = np.zeros((nz, n, n), dtype=bool)
    myo[:, 1:5, 1:5] = True
    myo &= ~endo
    scar = np.zeros((nz, n, n), dtype=bool)
    scar[1, 1, 1:3] = True
    return LabeledCase(
        "case_t",
        vol,
        Mask(spacing, myo),
        Mask(spacing, endo),
        Mask(spacing, myo | endo),
        gt_scar=Mask(spacing, scar),
    )


def test_volume_roundtrip_bit_exact(tmp_path):
    data = np.array([[[1.5, -2.25], [0.0, 1024.125]]], dtype=np.float32)
    vol = Volume((1.25, 1.25, 8.0), data.astype(np.float64))
    path = str(tmp_path / "v.mhd")
    vio.write_volume(vol, path)
    back = vio.read_volume(path)
    assert back.dims == vol.dims
    assert back.spacing == vol.spacing
    assert back.data.astype("<f4").tobytes() == data.tobytes()


def test_spacing_roundtrip_exact(tmp_path):
    spacing = (1.3671875, 0.9765625, 8.0)
    path = str(tmp_path / "s.mhd")
    vio.write_mask(Mask(spacing, np.ones((1, 2, 2), dtype=bool)), path)
    assert vio.read_mask(path).spacing == spacing
    vio.write_volume(Volume(spacing, np.zeros((1, 2, 2))), path)
    assert vio.read_volume(path).spacing == spacing


def test_mask_roundtrip(tmp_path):
    m = Mask((1, 1, 1), np.random.default_rng(2).random((2, 3, 4)) < 0.5)
    path = str(tmp_path / "m.mhd")
    vio.write_mask(m, path)
    back = vio.read_mask(path)
    np.testing.assert_array_equal(back.data, m.data)


def test_reject_wrong_ndims(tmp_path):
    path = tmp_path / "bad.mhd"
    path.write_text(
        "NDims = 2\nDimSize = 2 2\nElementSpacing = 1 1\n"
        "ElementType = MET_FLOAT\nElementDataFile = bad.raw\n"
    )
    (tmp_path / "bad.raw").write_bytes(b"\x00" * 16)
    with pytest.raises(FormatError):
        vio.read_volume(str(path))


def test_reject_short_payload(tmp_path):
    path = tmp_path / "short.mhd"
    path.write_text(
        "NDims = 3\nDimSize = 2 2 2\nElementSpacing = 1 1 1\n"
        "ElementType = MET_FLOAT\nElementDataFile = short.raw\n"
    )
    (tmp_path / "short.raw").write_bytes(b"\x00" * 8)  # needs 32
    with pytest.raises(FormatError):
        vio.read_volume(str(path))


def test_reject_missing_header_key(tmp_path):
    path = tmp_path / "nokey.mhd"
    path.write_text("NDims = 3\nDimSize = 1 1 1\nElementType = MET_FLOAT\n")
    with pytest.raises(FormatError):
        vio.read_volume(str(path))


def test_case_roundtrip_and_manifest_load(tmp_path):
    case = _toy_case()
    manifest_path = vio.write_case(case, str(tmp_path / "case_t"))
    manifest = vio.read_manifest(manifest_path)
    assert manifest.case_id == "case_t"
    back = vio.load_case(manifest)
    np.testing.assert_allclose(back.volume.data, case.volume.data)
    np.testing.assert_array_equal(back.myocardium.data, case.myocardium.data)
    np.testing.assert_array_equal(back.gt_scar.data, case.gt_scar.data)
    assert back.gt_mvo is None
    # labels were derived from gt at write time
    assert back.per_slice_labels == ["healthy", "diseased"]


def test_manifest_healthy_case_without_gt_is_valid(tmp_path):
    case = _toy_case()
    case.gt_scar = None
    manifest_path = vio.write_case(case, str(tmp_path / "healthy"))
    manifest = vio.read_manifest(manifest_path)
    assert "gt_scar" not in manifest.mask_paths


def test_manifest_rejects_dim_mismatch(tmp_path):
    case = _toy_case()
    manifest_path = vio.write_case(case, str(tmp_path / "c"))
    bad = Mask(case.volume.spacing, np.zeros((2, 6, 7), dtype=bool))
    vio.write_mask(bad, str(tmp_path / "c" / "myocardium.mhd"))
    with pytest.raises(ManifestError):
        vio.read_manifest(manifest_path)


def test_manifest_and_load_read_each_payload_once(tmp_path, monkeypatch):
    manifest_path = vio.write_case(_toy_case(), str(tmp_path / "c"))
    opened = []

    def counting_open(path, *args, **kwargs):
        opened.append(os.path.basename(path))
        return open(path, *args, **kwargs)

    monkeypatch.setattr(vio, "open", counting_open, raising=False)
    vio.load_case(vio.read_manifest(manifest_path))
    raws = sorted(name for name in opened if name.endswith(".raw"))
    assert raws == ["endocardium.raw", "epicardium.raw", "gt_scar.raw",
                    "myocardium.raw", "volume.raw"]


def test_manifest_rejects_non_uchar_mask(tmp_path):
    case = _toy_case()
    manifest_path = vio.write_case(case, str(tmp_path / "c"))
    vio.write_volume(Volume(case.volume.spacing, case.myocardium.data.astype(np.float64)),
                     str(tmp_path / "c" / "myocardium.mhd"))
    with pytest.raises(FormatError):
        vio.read_manifest(manifest_path)


def _rewrite_header_field(path, key, value):
    lines = [f"{key} = {value}" if line.split(" = ")[0] == key else line
             for line in path.read_text().splitlines()]
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("key,value", [
    ("ElementSpacing", "0.0 1.0 1.0"),
    ("ElementSpacing", "-1 1.0 1.0"),
    ("ElementSpacing", "nan 1.0 1.0"),
    ("ElementSpacing", "1.0 inf 1.0"),
    ("DimSize", "6 6 0"),
    ("DimSize", "-6 6 2"),
])
def test_bad_grid_geometry_in_header_is_a_format_error(tmp_path, key, value):
    manifest_path = vio.write_case(_toy_case(), str(tmp_path / "c"))
    header = tmp_path / "c" / "myocardium.mhd"
    _rewrite_header_field(header, key, value)
    with pytest.raises(FormatError):
        vio.read_mask(str(header))
    with pytest.raises(FormatError):
        vio.read_manifest(manifest_path)


def test_nan_in_volume_payload_is_a_format_error(tmp_path):
    manifest_path = vio.write_case(_toy_case(), str(tmp_path / "c"))
    raw = tmp_path / "c" / "volume.raw"
    payload = bytearray(raw.read_bytes())
    payload[:4] = np.array([np.nan], dtype="<f4").tobytes()
    raw.write_bytes(bytes(payload))
    with pytest.raises(FormatError):
        vio.read_volume(str(tmp_path / "c" / "volume.mhd"))
    with pytest.raises(FormatError):
        vio.load_case(vio.read_manifest(manifest_path))


def test_manifest_rejects_label_length(tmp_path):
    case = _toy_case()
    case.per_slice_labels = ["healthy", "diseased"]
    d = tmp_path / "c2"
    manifest_path = vio.write_case(case, str(d))
    doc = vio.read_json(manifest_path)
    doc["per_slice_labels"] = ["healthy"]
    vio.write_json(doc, manifest_path)
    with pytest.raises(ManifestError):
        vio.read_manifest(manifest_path)



@pytest.mark.parametrize("edit", [
    lambda doc: 3,
    lambda doc: [doc],
    lambda doc: {**doc, "volume": 7},
    lambda doc: {**doc, "masks": "myocardium.mhd"},
    lambda doc: {**doc, "masks": {**doc["masks"], "gt_scar": 1}},
    lambda doc: {**doc, "per_slice_labels": [["healthy"], ["diseased"]]},
    lambda doc: {**doc, "per_slice_labels": 2},
], ids=["number", "list", "volume not a name", "masks a string", "mask not a name",
        "labels of lists", "labels a number"])
def test_malformed_manifest_is_a_manifest_error(tmp_path, edit):
    manifest_path = vio.write_case(_toy_case(), str(tmp_path / "c"))
    vio.write_json(edit(vio.read_json(manifest_path)), manifest_path)
    with pytest.raises(ManifestError):
        vio.read_manifest(manifest_path)

def test_array_codec_roundtrip():
    arr = np.random.default_rng(3).normal(size=(3, 4, 2))
    np.testing.assert_array_equal(vio.decode_array(vio.encode_array(arr)), arr)


def test_report_empty_is_header_only(tmp_path):
    path = str(tmp_path / "r.csv")
    vio.write_report(vio.MetricsReport(), path)
    text = pathlib.Path(path).read_text().strip()
    assert text == ",".join(vio.REPORT_COLUMNS)


def test_report_dice_in_percent_and_blanks(tmp_path):
    report = vio.MetricsReport()
    report.add(vio.ReportRow("c1", "all", "proposed", dice_pct=50.0, hausdorff_mm=None,
                             scar_volume_cm3=2.5, pct_infarct=10.0, mvo_sensitivity=None))
    path = str(tmp_path / "r.csv")
    vio.write_report(report, path)
    line = pathlib.Path(path).read_text().splitlines()[1]
    assert line == "c1,all,proposed,50.0000,,2.5000,10.0000,"


def test_report_roundtrip_two_methods_two_cases(tmp_path):
    report = vio.MetricsReport()
    for case in ("a", "b"):
        for method in ("otsu", "fwhm"):
            report.add(vio.ReportRow(case, "all", method, dice_pct=12.3456789,
                                     scar_volume_cm3=0.0125))
    path = str(tmp_path / "r.csv")
    vio.write_report(report, path)
    back = vio.read_report(path)
    assert len(back.rows) == 4
    assert back.rows[0].dice_pct == pytest.approx(12.3457)
    assert back.rows[0].hausdorff_mm is None
    assert back.rows[0].scar_volume_cm3 == pytest.approx(0.0125)
