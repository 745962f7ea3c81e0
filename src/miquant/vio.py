"""On-disk formats: MetaImage-subset volumes, JSON manifests and models,
and the metrics report CSV.

Volumes are a text header (``Key = Value`` lines) next to a raw
little-endian payload, x-fastest. Scalar volumes are written as MET_FLOAT
(32-bit), masks as MET_UCHAR with values {0, 1}.

Model files are UTF-8 JSON with float64 weights embedded as base64. One
codec (``encode_model``/``decode_model``) owns that format for every model
type: model classes register a kind with ``@model_kind`` and network layers
register their spec tags, and neither writes nor parses documents itself.
"""
from __future__ import annotations

import base64
import csv
import json
import math
import os
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import (
    DataError,
    FormatError,
    IoError,
    ManifestError,
    ShapeError,
    UnsupportedElementType,
)
from .volcore import LabeledCase, Mask, Volume

_ELEMENT_DTYPES = {
    "MET_FLOAT": np.dtype("<f4"),
    "MET_UCHAR": np.dtype("<u1"),
}

REPORT_COLUMNS = [
    "case_id",
    "slice",
    "method",
    "dice_pct",
    "hausdorff_mm",
    "scar_volume_cm3",
    "pct_infarct",
    "mvo_sensitivity",
]


# ---------------------------------------------------------------------------
# volumes and masks
# ---------------------------------------------------------------------------

def _parse_header(path: str) -> dict:
    fields = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                if "=" not in line:
                    raise FormatError(f"{path}: malformed header line {line!r}")
                key, value = line.split("=", 1)
                fields[key.strip()] = value.strip()
    except OSError as exc:
        raise IoError(f"cannot read header {path}: {exc}") from exc
    for key in ("NDims", "DimSize", "ElementSpacing", "ElementType", "ElementDataFile"):
        if key not in fields:
            raise FormatError(f"{path}: missing header key {key}")
    return fields


def _read_header(path: str):
    """(spacing, dims, element type, payload path) from a header alone."""
    fields = _parse_header(path)
    if fields["NDims"] != "3":
        raise FormatError(f"{path}: NDims must be 3, got {fields['NDims']}")
    try:
        nx, ny, nz = (int(t) for t in fields["DimSize"].split())
        sx, sy, sz = (float(t) for t in fields["ElementSpacing"].split())
    except ValueError as exc:
        raise FormatError(f"{path}: bad DimSize/ElementSpacing: {exc}") from exc
    if min(nx, ny, nz) < 1:
        raise FormatError(f"{path}: DimSize must be >= 1 on every axis, got {nx} {ny} {nz}")
    if not all(math.isfinite(s) and s > 0 for s in (sx, sy, sz)):
        raise FormatError(f"{path}: ElementSpacing must be finite and > 0, got {sx} {sy} {sz}")
    etype = fields["ElementType"]
    if etype not in _ELEMENT_DTYPES:
        raise UnsupportedElementType(f"{path}: element type {etype}")
    raw_path = os.path.join(os.path.dirname(path), fields["ElementDataFile"])
    return (sx, sy, sz), (nx, ny, nz), etype, raw_path


def _read_grid(path: str):
    spacing, (nx, ny, nz), etype, raw_path = _read_header(path)
    try:
        with open(raw_path, "rb") as fh:
            payload = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read payload {raw_path}: {exc}") from exc
    dtype = _ELEMENT_DTYPES[etype]
    n = nx * ny * nz
    if len(payload) < n * dtype.itemsize:
        raise FormatError(
            f"{path}: payload holds {len(payload)} bytes, "
            f"expected {n * dtype.itemsize}"
        )
    data = np.frombuffer(payload, dtype=dtype, count=n).reshape(nz, ny, nx)
    return spacing, data, etype


def read_volume(path: str) -> Volume:
    spacing, data, etype = _read_grid(path)
    try:
        return Volume(spacing, data.astype(np.float64))
    except DataError as exc:  # a NaN or Inf in the payload
        raise FormatError(f"{path}: {exc}") from exc


def read_mask(path: str) -> Mask:
    spacing, data, etype = _read_grid(path)
    if etype != "MET_UCHAR":
        raise FormatError(f"{path}: masks must be MET_UCHAR, got {etype}")
    return Mask(spacing, data > 0)


def _write_grid(path: str, spacing, data: np.ndarray, etype: str) -> None:
    nz, ny, nx = data.shape
    base, _ = os.path.splitext(path)
    raw_name = os.path.basename(base) + ".raw"
    header = (
        "NDims = 3\n"
        f"DimSize = {nx} {ny} {nz}\n"
        f"ElementSpacing = {' '.join(repr(float(v)) for v in spacing)}\n"
        f"ElementType = {etype}\n"
        f"ElementDataFile = {raw_name}\n"
    )
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(header)
        with open(os.path.join(os.path.dirname(path), raw_name), "wb") as fh:
            fh.write(np.ascontiguousarray(data).tobytes())
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def write_volume(volume: Volume, path: str) -> None:
    _write_grid(path, volume.spacing, volume.data.astype("<f4"), "MET_FLOAT")


def write_mask(mask: Mask, path: str) -> None:
    _write_grid(path, mask.spacing, mask.data.astype("<u1"), "MET_UCHAR")


# ---------------------------------------------------------------------------
# case manifests
# ---------------------------------------------------------------------------

_REQUIRED_MASKS = ("myocardium", "endocardium", "epicardium")


@dataclass
class CaseManifest:
    case_id: str
    volume_path: str
    mask_paths: dict  # role -> path; gt_scar / gt_mvo optional
    per_slice_labels: list[str] | None = None


def read_manifest(path: str) -> CaseManifest:
    """Parse and fully validate a case manifest (cross-file invariants too)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise IoError(f"cannot read manifest {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ManifestError(f"{path}: invalid JSON: {exc}") from exc

    if not isinstance(doc, dict):
        raise ManifestError(f"{path}: the manifest is not a JSON object")
    for key in ("case_id", "volume", "masks"):
        if key not in doc:
            raise ManifestError(f"{path}: missing key {key!r}")
    masks, labels = doc["masks"], doc.get("per_slice_labels")
    if not isinstance(doc["volume"], str):
        raise ManifestError(f"{path}: 'volume' is not a file name")
    if not (isinstance(masks, dict) and all(isinstance(rel, str) for rel in masks.values())):
        raise ManifestError(f"{path}: 'masks' is not a JSON object of file names")
    if labels is not None and not (isinstance(labels, list)
                                   and all(isinstance(label, str) for label in labels)):
        raise ManifestError(f"{path}: 'per_slice_labels' is not a list of strings")
    root = os.path.dirname(os.path.abspath(path))
    volume_path = os.path.join(root, doc["volume"])
    if not os.path.exists(volume_path):
        raise ManifestError(f"{path}: volume file not found: {doc['volume']}")
    mask_paths = {}
    for role in _REQUIRED_MASKS:
        if role not in masks:
            raise ManifestError(f"{path}: missing mask role {role!r}")
    for role, rel in masks.items():
        full = os.path.join(root, rel)
        if not os.path.exists(full):
            raise ManifestError(f"{path}: mask file not found: {rel}")
        mask_paths[role] = full

    manifest = CaseManifest(str(doc["case_id"]), volume_path, mask_paths, labels)
    _validate_manifest(manifest, path)
    return manifest


def _validate_manifest(manifest: CaseManifest, path: str) -> None:
    """Check grid agreement from the headers; payloads are read by load_case."""
    spacing, dims, _, _ = _read_header(manifest.volume_path)
    for role, mask_path in manifest.mask_paths.items():
        mask_spacing, mask_dims, etype, _ = _read_header(mask_path)
        if etype != "MET_UCHAR":
            raise FormatError(f"{mask_path}: masks must be MET_UCHAR, got {etype}")
        if mask_dims != dims:
            raise ManifestError(f"{path}: mask {role!r} dims {mask_dims} != volume dims {dims}")
        if mask_spacing != spacing:
            raise ManifestError(
                f"{path}: mask {role!r} spacing {mask_spacing} != volume spacing {spacing}"
            )
    if manifest.per_slice_labels is not None:
        nz = dims[2]
        if len(manifest.per_slice_labels) != nz:
            raise ManifestError(
                f"{path}: {len(manifest.per_slice_labels)} slice labels for {nz} slices"
            )
        bad = set(manifest.per_slice_labels) - {"healthy", "diseased"}
        if bad:
            raise ManifestError(f"{path}: unknown slice labels {sorted(bad)}")


def load_case(manifest: CaseManifest) -> LabeledCase:
    masks = {role: read_mask(p) for role, p in manifest.mask_paths.items()}
    return LabeledCase(
        case_id=manifest.case_id,
        volume=read_volume(manifest.volume_path),
        myocardium=masks["myocardium"],
        endocardium=masks["endocardium"],
        epicardium=masks["epicardium"],
        gt_scar=masks.get("gt_scar"),
        gt_mvo=masks.get("gt_mvo"),
        per_slice_labels=manifest.per_slice_labels,
    )


def write_case(case: LabeledCase, directory: str) -> str:
    """Write a case's volume, masks, and manifest; returns the manifest path."""
    os.makedirs(directory, exist_ok=True)
    write_volume(case.volume, os.path.join(directory, "volume.mhd"))
    roles = {
        "myocardium": case.myocardium,
        "endocardium": case.endocardium,
        "epicardium": case.epicardium,
    }
    if case.gt_scar is not None:
        roles["gt_scar"] = case.gt_scar
    if case.gt_mvo is not None:
        roles["gt_mvo"] = case.gt_mvo
    for role, mask in roles.items():
        write_mask(mask, os.path.join(directory, f"{role}.mhd"))
    doc = {
        "case_id": case.case_id,
        "volume": "volume.mhd",
        "masks": {role: f"{role}.mhd" for role in roles},
    }
    labels = case.per_slice_labels
    if labels is None and case.gt_scar is not None:
        labels = [case.slice_label(k) for k in range(case.nz)]
    if labels is not None:
        doc["per_slice_labels"] = labels
    manifest_path = os.path.join(directory, "manifest.json")
    write_json(doc, manifest_path)
    return manifest_path


# ---------------------------------------------------------------------------
# JSON helpers and model files
# ---------------------------------------------------------------------------

def write_json(doc, path: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON: {exc}") from exc


def encode_array(arr: np.ndarray) -> dict:
    """Array -> JSON-safe dict with base64 little-endian float64 payload."""
    arr = np.asarray(arr, dtype=np.float64)
    return {
        "shape": list(arr.shape),
        "data_b64": base64.b64encode(arr.astype("<f8").tobytes()).decode("ascii"),
    }


def decode_array(doc: dict) -> np.ndarray:
    raw = base64.b64decode(doc["data_b64"])
    arr = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    return arr.reshape(doc["shape"])


# One codec owns the model-file format. A registered model dataclass is
# written as its fields plus its "kind", a network layer as its spec plus its
# parameters, an array as ``encode_array``'s dict; lists and dicts are
# converted item by item. The decoder reverses this by structure, so those
# three markers are reserved keys inside a model file.

_KINDS: dict[str, type] = {}    # model kind -> dataclass
_LAYERS: dict[str, type] = {}   # layer tag -> layer class


def model_kind(kind: str):
    """Class decorator registering a model dataclass under ``kind``."""
    def register(cls):
        cls.model_kind = kind
        _KINDS[kind] = cls
        return cls
    return register


def register_layers(table: dict) -> None:
    """Register layer classes by spec tag. A layer has ``spec()`` (tag
    first) and ``param_names``; it is rebuilt from its parameters, or, if it
    has none, from the spec's arguments."""
    _LAYERS.update(table)


def encode_model(obj):
    """A model (or any value inside one) -> JSON-safe document."""
    if isinstance(obj, np.ndarray):
        return encode_array(obj)
    if type(obj) in _KINDS.values():
        doc = {f.name: encode_model(getattr(obj, f.name)) for f in fields(obj)}
        return {"kind": obj.model_kind, **doc}
    if type(obj) in _LAYERS.values():
        doc = {name: encode_array(getattr(obj, name)) for name in obj.param_names}
        return {"spec": list(obj.spec()), **doc}
    if isinstance(obj, dict):
        return {key: encode_model(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [encode_model(value) for value in obj]
    return obj


def decode_model(doc):
    """Inverse of ``encode_model``."""
    if isinstance(doc, list):
        return [decode_model(value) for value in doc]
    if not isinstance(doc, dict):
        return doc
    if "data_b64" in doc:
        return decode_array(doc)
    if "spec" in doc:
        tag, *args = doc["spec"]
        if tag not in _LAYERS:
            raise ShapeError(f"unknown layer tag {tag!r}")
        cls = _LAYERS[tag]
        params = [decode_array(doc[name]) for name in cls.param_names]
        return cls(*(params or args))
    if "kind" in doc:
        kind = doc["kind"]
        if kind not in _KINDS:
            raise FormatError(f"unknown model kind {kind!r}")
        values = {key: decode_model(value) for key, value in doc.items() if key != "kind"}
        try:
            return _KINDS[kind](**values)
        except TypeError as exc:
            raise FormatError(f"bad {kind!r} model: {exc}") from exc
    return {key: decode_model(value) for key, value in doc.items()}


def save_model(model, path: str) -> None:
    write_json(encode_model(model), path)


def load_model(path: str, cls: type):
    """Read a model file that must hold a ``cls`` model."""
    doc = read_json(path)
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if kind != cls.model_kind:
        raise FormatError(f"{path}: expected model kind {cls.model_kind!r}, got {kind!r}")
    return decode_model(doc)


# ---------------------------------------------------------------------------
# metrics report
# ---------------------------------------------------------------------------

@dataclass
class ReportRow:
    case_id: str
    slice: str  # slice index as string, or "all" for volume-level rows
    method: str
    dice_pct: float | None = None
    hausdorff_mm: float | None = None
    scar_volume_cm3: float | None = None
    pct_infarct: float | None = None
    mvo_sensitivity: float | None = None


@dataclass
class MetricsReport:
    rows: list = field(default_factory=list)

    def add(self, row: ReportRow) -> None:
        self.rows.append(row)


def _fmt(value) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return ""
    return f"{float(value):.4f}"


def write_report(report: MetricsReport, path: str) -> None:
    """Emit the report CSV; undefined metrics are left blank, never zero."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(REPORT_COLUMNS)
            for row in report.rows:
                values = [getattr(row, column) for column in REPORT_COLUMNS]
                writer.writerow(values[:3] + [_fmt(v) for v in values[3:]])
    except OSError as exc:
        raise IoError(f"cannot write report {path}: {exc}") from exc


def read_report(path: str) -> MetricsReport:
    report = MetricsReport()
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames != REPORT_COLUMNS:
                raise FormatError(f"{path}: unexpected report columns {reader.fieldnames}")
            for rec in reader:
                report.add(
                    ReportRow(
                        case_id=rec["case_id"],
                        slice=rec["slice"],
                        method=rec["method"],
                        **{
                            k: (float(rec[k]) if rec[k] != "" else None)
                            for k in REPORT_COLUMNS[3:]
                        },
                    )
                )
    except OSError as exc:
        raise IoError(f"cannot read report {path}: {exc}") from exc
    return report
