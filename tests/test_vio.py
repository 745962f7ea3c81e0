import os
import pathlib

import numpy as np
import pytest

from miquant import vio
from miquant.errors import FormatError, IoError, ManifestError, UnsupportedElementType
from miquant.learnlib import NetModel
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
    assert "per_slice_labels" not in vio.read_json(manifest_path)
    assert [back.slice_label(k) for k in range(back.nz)] == ["healthy", "diseased"]


def test_case_with_an_mvo_core_roundtrips_every_mask(tmp_path):
    case = _toy_case()
    mvo = np.zeros(case.volume.data.shape, dtype=bool)
    mvo[1, 2, 1] = True  # beside the scar, not in it
    case.gt_mvo = Mask(case.volume.spacing, mvo)
    manifest = vio.read_manifest(vio.write_case(case, str(tmp_path / "c")))
    assert sorted(manifest.mask_paths) == ["endocardium", "gt_mvo", "gt_scar", "myocardium"]
    back = vio.load_case(manifest)
    for role in manifest.mask_paths:
        np.testing.assert_array_equal(getattr(back, role).data, getattr(case, role).data)


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
    assert raws == ["endocardium.raw", "gt_scar.raw", "myocardium.raw", "volume.raw"]


def test_a_manifest_listing_an_epicardium_loads_the_same_case(tmp_path):
    # manifests written while cases stored their epicardium list it as a role
    case = _toy_case()
    plain = vio.load_case(vio.read_manifest(vio.write_case(case, str(tmp_path / "plain"))))
    old = tmp_path / "old"
    vio.write_case(case, str(old))
    epi = Mask(case.volume.spacing, case.myocardium.data | case.endocardium.data)
    vio.write_mask(epi, str(old / "epicardium.mhd"))
    _edit_manifest(old, lambda doc: doc["masks"].update(epicardium="epicardium.mhd"))
    manifest = _read_manifest(old)
    assert sorted(manifest.mask_paths) == ["endocardium", "epicardium", "gt_scar", "myocardium"]
    back = vio.load_case(manifest)
    np.testing.assert_array_equal(back.volume.data, plain.volume.data)
    for role in ("myocardium", "endocardium", "gt_scar"):
        np.testing.assert_array_equal(getattr(back, role).data, getattr(plain, role).data)
    assert (back.case_id, back.gt_mvo) == (plain.case_id, plain.gt_mvo)
    assert [back.slice_label(k) for k in range(back.nz)] == ["healthy", "diseased"]


@pytest.mark.parametrize("labels", [
    ["diseased", "diseased"], ["healthy"], ["healthy", "sick"], [["healthy"], ["diseased"]], 2,
], ids=["contradicting gt_scar", "too few labels", "unknown slice labels", "labels of lists",
        "labels a number"])
def test_a_manifests_slice_labels_are_ignored(tmp_path, labels):
    # manifests written while cases stored their slice labels list them; a
    # slice is diseased iff its gt_scar holds a voxel
    case = _toy_case()
    plain = vio.load_case(vio.read_manifest(vio.write_case(case, str(tmp_path / "plain"))))
    old = tmp_path / "old"
    vio.write_case(case, str(old))
    _edit_manifest(old, lambda doc: doc.update(per_slice_labels=labels))
    back = vio.load_case(_read_manifest(old))
    for role in ("volume", "myocardium", "endocardium", "gt_scar"):
        np.testing.assert_array_equal(getattr(back, role).data, getattr(plain, role).data)
    assert (back.case_id, back.gt_mvo) == (plain.case_id, plain.gt_mvo)
    assert [back.slice_label(k) for k in range(back.nz)] == ["healthy", "diseased"]


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
    ("DimSize", "6 six 2"),
    ("ElementSpacing", "1.25 1.25"),
])
def test_bad_grid_geometry_in_header_is_a_format_error(tmp_path, key, value):
    manifest_path = vio.write_case(_toy_case(), str(tmp_path / "c"))
    header = tmp_path / "c" / "myocardium.mhd"
    _rewrite_header_field(header, key, value)
    with pytest.raises(FormatError):
        vio.read_mask(str(header))
    with pytest.raises(FormatError):
        vio.read_manifest(manifest_path)


def test_blank_header_lines_are_skipped(tmp_path):
    vio.write_case(_toy_case(), str(tmp_path / "c"))
    header = tmp_path / "c" / "myocardium.mhd"
    want = vio.read_mask(str(header))
    header.write_text("\n" + header.read_text().replace("\n", "\n\n  \n"))
    got = vio.read_mask(str(header))
    assert got.spacing == want.spacing
    np.testing.assert_array_equal(got.data, want.data)


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


@pytest.mark.parametrize("edit", [
    lambda doc: 3,
    lambda doc: [doc],
    lambda doc: {**doc, "volume": 7},
    lambda doc: {**doc, "masks": "myocardium.mhd"},
    lambda doc: {**doc, "masks": {**doc["masks"], "gt_scar": 1}},
], ids=["number", "list", "volume not a name", "masks a string", "mask not a name"])
def test_malformed_manifest_is_a_manifest_error(tmp_path, edit):
    manifest_path = vio.write_case(_toy_case(), str(tmp_path / "c"))
    vio.write_json(edit(vio.read_json(manifest_path)), manifest_path)
    with pytest.raises(ManifestError):
        vio.read_manifest(manifest_path)


def _append(path, text):
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(text)


def _edit_manifest(d, edit):
    path = str(d / "manifest.json")
    doc = vio.read_json(path)
    edit(doc)
    vio.write_json(doc, path)


def _read_volume(d):
    return vio.read_volume(str(d / "volume.mhd"))


def _read_manifest(d):
    return vio.read_manifest(str(d / "manifest.json"))


@pytest.mark.parametrize("edit,read,error", [
    (lambda d: _append(d / "volume.mhd", "no equals sign\n"), _read_volume, FormatError),
    (lambda d: _rewrite_header_field(d / "volume.mhd", "ElementType", "MET_SHORT"),
     _read_volume, UnsupportedElementType),
    (lambda d: None, lambda d: vio.read_mask(str(d / "volume.mhd")), FormatError),
    (lambda d: _append(d / "manifest.json", "}"), _read_manifest, ManifestError),
    (lambda d: _edit_manifest(d, lambda doc: doc.pop("case_id")), _read_manifest, ManifestError),
    (lambda d: _edit_manifest(d, lambda doc: doc["masks"].pop("endocardium")),
     _read_manifest, ManifestError),
    (lambda d: os.remove(d / "volume.mhd"), _read_manifest, ManifestError),
    (lambda d: os.remove(d / "endocardium.mhd"), _read_manifest, ManifestError),
    (lambda d: _rewrite_header_field(d / "myocardium.mhd", "ElementSpacing", "1.25 1.25 9.0"),
     _read_manifest, ManifestError),
    (lambda d: _append(d / "model.json", "{"),
     lambda d: vio.load_model(str(d / "model.json"), NetModel), FormatError),
    (lambda d: _append(d / "report.csv", "case,method\n"),
     lambda d: vio.read_report(str(d / "report.csv")), FormatError),
], ids=["malformed header line", "unsupported element type", "a float volume read as a mask",
        "invalid manifest JSON", "missing manifest key", "missing mask role",
        "missing volume file", "missing mask file", "mask spacing mismatch",
        "invalid model JSON", "unexpected report columns"])
def test_each_malformed_file_raises_its_error(tmp_path, edit, read, error):
    vio.write_case(_toy_case(), str(tmp_path))
    edit(tmp_path)
    with pytest.raises(error):
        read(tmp_path)


def _read_without_payload(d):
    os.remove(d / "volume.raw")
    return _read_volume(d)


@pytest.mark.parametrize("act", [
    lambda d: vio.read_volume(str(d / "absent.mhd")),
    _read_without_payload,
    lambda d: vio.read_manifest(str(d / "absent.json")),
    lambda d: vio.read_json(str(d / "absent.json")),
    lambda d: vio.read_report(str(d / "absent.csv")),
    lambda d: vio.write_volume(_toy_case().volume, str(d / "absent" / "volume.mhd")),
    lambda d: vio.write_json({}, str(d / "absent" / "doc.json")),
    lambda d: vio.write_report(vio.MetricsReport(), str(d / "absent" / "report.csv")),
], ids=["header", "payload", "manifest", "JSON", "report", "write volume", "write JSON",
        "write report"])
def test_each_filesystem_failure_is_an_io_error(tmp_path, act):
    vio.write_case(_toy_case(), str(tmp_path))
    with pytest.raises(IoError) as info:
        act(tmp_path)
    assert isinstance(info.value.__cause__, OSError)


def test_array_codec_roundtrip():
    arr = np.random.default_rng(3).normal(size=(3, 4, 2))
    np.testing.assert_array_equal(vio.decode_array(vio.encode_array(arr)), arr)


@pytest.mark.parametrize("shape", [[-1], [2, -1]])
def test_array_codec_rejects_a_shape_that_is_not_sizes(shape):
    doc = vio.encode_array(np.zeros(4))
    doc["shape"] = shape
    with pytest.raises(FormatError):
        vio.decode_array(doc)


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


@pytest.mark.parametrize("row,column", [
    ("c1,all,proposed,50.0,,n/a,,", "scar_volume_cm3"),
    ("c1,all,proposed,50.0,1.5", "scar_volume_cm3"),  # a short row
], ids=["not a number", "short row"])
def test_report_with_a_non_numeric_metric_is_a_format_error(tmp_path, row, column):
    path = tmp_path / "r.csv"
    path.write_text(",".join(vio.REPORT_COLUMNS) + "\n" + row + "\n")
    with pytest.raises(FormatError, match=rf"r\.csv.*'{column}'"):
        vio.read_report(str(path))
