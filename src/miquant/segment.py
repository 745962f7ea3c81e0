"""The segmentation cascade: rotated-bar top-hat enhancement with Otsu
thresholding (coarse stage), boundary-patch ensemble refinement, and
microvascular-obstruction inclusion by hole filling.

Refinement reclassifies each boundary-band voxel by the majority vote of an
odd ensemble of patch classifiers. The vote short-circuits: a patch leaves
the tally once one class holds a majority, so later members run only on the
patches still undecided (see ``PatchEnsemble.vote``).
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import learnlib as ll
from . import vio
from .errors import (
    ConfigError,
    DataError,
    DegenerateHistogram,
    EmptyClassError,
    EmptyMask,
    NoGroundTruth,
)
from .volcore import (
    INPUT_SCALE,
    LabeledCase,
    Mask,
    binary_dilate,
    binary_erode,
    binary_opening,
    bounding_box,
    check_shapes,
    extract_patches,
    fill_holes_2d,
    intensity_levels,
    make_bar_se,
    make_disk_se,
    otsu_threshold,
    pad_for_patches,
    real_array,
    white_tophat,
)

BAR_LENGTH = 34
BAR_ANGLES_DEG = (0.0, 30.0, 60.0, 90.0, 120.0, 150.0)
OPENING_RADIUS = 1
BOUNDARY_RADIUS = 2
TRAINING_BAND_RADIUS = 5
PATCH_SIZE = 49
PATCH_STRIDE = 3
ENSEMBLE_MEMBERS = 7

_BAR_SES = tuple(make_bar_se(BAR_LENGTH, theta) for theta in BAR_ANGLES_DEG)


def tophat_enhance(img: np.ndarray, box) -> np.ndarray:
    """Image plus the sum of white top-hats over six bar orientations
    (30-degree steps); clamped to [0, 255] after summation. img is a slice
    or a stack of slices (..., ny, nx). Returns ``box = (y0, y1, x0, x1)``
    of each enhanced slice only; see ``white_tophat``."""
    img = real_array(img)
    y0, y1, x0, x1 = box
    acc = img[..., y0:y1, x0:x1].copy()
    for se in _BAR_SES:
        acc += white_tophat(img, se, box)
    return np.clip(acc, 0.0, 255.0)


def coarse_segment(img: np.ndarray, myo: np.ndarray):
    """Coarse scar masks of a stack of slices (nz, ny, nx): per slice, the
    Otsu threshold of the enhanced myocardial intensities, then a binary
    opening (disk radius 1) to drop isolated speckles. Returns (masks,
    degenerate): ``degenerate[k]`` flags a slice whose myocardial histogram
    has no split, and its mask is empty.

    Only myocardial pixels of the enhanced image are read, so the top-hat
    runs once for the stack, on the union of the slices' boxes
    ``bounding_box(myo.any(axis=0), OPENING_RADIUS)`` (see
    ``white_tophat``), and the threshold and the opening on that crop. The
    thresholded mask is False off the myocardium. The box holds every
    slice's myocardium with a 1-px ring, which gives the opening the False
    neighbours it sees on the whole slice, and where the ring is clipped
    the crop's border is the slice's, so each mask is the whole-slice one;
    the rest of the union box only adds False pixels. Raises EmptyMask
    when a slice's myocardium is empty and AlignmentError when img and myo
    differ in shape.
    """
    check_shapes(img=img, myo=myo)
    if np.ndim(img) != 3:
        raise DataError(f"coarse segmentation takes a stack of slices, not shape {np.shape(img)}")
    myo = np.asarray(myo, dtype=bool)
    if not myo.any(axis=(-2, -1)).all():
        raise EmptyMask("coarse segmentation needs a non-empty myocardium on every slice")
    y0, y1, x0, x1 = box = bounding_box(myo.any(axis=0), OPENING_RADIUS)
    crop = (slice(None), slice(y0, y1), slice(x0, x1))
    enhanced = tophat_enhance(img, box)
    myo_crop = myo[crop]
    levels = intensity_levels(enhanced)
    fg = np.zeros(myo_crop.shape, dtype=bool)
    degenerate = np.zeros(len(myo), dtype=bool)
    for k, (values, m) in enumerate(zip(enhanced, myo_crop)):
        try:
            fg[k] = levels[k] > otsu_threshold(values[m])
        except DegenerateHistogram:
            degenerate[k] = True
    out = np.zeros(myo.shape, dtype=bool)
    out[crop] = binary_opening(fg & myo_crop, make_disk_se(OPENING_RADIUS)) & myo_crop
    return out, degenerate


def boundary_region(mask: np.ndarray, radius: int = BOUNDARY_RADIUS) -> np.ndarray:
    """Dilated mask minus eroded mask (disk structuring element), of a
    slice or of each slice of a stack. Raises DataError on fewer than two
    axes."""
    if np.ndim(mask) < 2:
        raise DataError(f"a boundary region is of a slice or a stack, not shape {np.shape(mask)}")
    se = make_disk_se(radius)
    return binary_dilate(mask, se) & ~binary_erode(mask, se)


@vio.model_kind("ensemble")
@dataclass
class PatchEnsemble:
    """An odd ensemble of patch voters that share one input centring: each
    patch, scaled by ``INPUT_SCALE``, minus ``mean_patch`` scaled alike.

    ``mean_patch`` is one scalar, the pooled mean intensity of the training
    patches. A constant ``(patch_size, patch_size)`` array is read as its
    value; any other array, such as the per-pixel mean of a model file
    saved before ensembles were centred on a scalar, raises ConfigError, as
    does a non-finite mean. Members that are not a list of nets raise
    TypeError, and a member whose trunk ``forward_windows`` cannot scan
    raises ShapeError, so such a model file fails at load."""

    members: list  # odd number of NetModel voters
    mean_patch: float
    patch_size: int = PATCH_SIZE

    def __post_init__(self):
        if not (isinstance(self.members, list)
                and all(isinstance(member, ll.NetModel) for member in self.members)):
            raise TypeError("an ensemble's members must be a list of nets")
        if len(self.members) % 2 == 0:
            raise ConfigError(f"the ensemble needs an odd member count, got {len(self.members)}")
        size = self.patch_size
        mean = np.asarray(self.mean_patch)
        if mean.ndim and mean.shape != (size, size):
            raise ConfigError(f"mean patch {mean.shape} does not match the {size}-px patch size")
        if mean.dtype.kind not in "biuf" or not np.isfinite(mean).all():
            raise ConfigError("the ensemble's mean intensity is not a finite number")
        if mean.ndim and mean.min() != mean.max():
            raise ConfigError("a per-pixel mean patch is not supported: the ensemble is "
                              "centred on one scalar mean intensity")
        self.mean_patch = float(mean.flat[0])
        for i, member in enumerate(self.members):
            if member.input_shape != (size, size, 1):
                raise ConfigError(f"member {i} takes input {member.input_shape}, "
                                  f"not a {size}-px patch")
            member.windowed_trunk()

    def vote(self, ys, xs, img: np.ndarray) -> np.ndarray:
        """Majority vote on the centred patch of img around each (ys[i],
        xs[i]), zero-padded as ``extract_patches`` crops it; True means
        scar. Each member runs its trunk once, as one stride-1 scan of the
        box that holds the patches it votes on, with its kernels dilated
        after each pool (``NetModel.forward_windows``); on the padded slice
        (``pad_for_patches``) a patch's top-left corner is its centre.

        The vote stops early where it is settled: once one class holds
        (M + 1) // 2 of the M votes on a patch, the members still to come
        skip it. The first (M + 1) // 2 members see every patch, each later
        one only the patches still open, over their smaller box, and
        members after the last open patch do not run. A settled majority
        cannot change, so the result is the full tally's (a member's output
        on a patch does not depend on the other patches in the call, up to
        the rounding noted in ``learnlib.net``)."""
        padded = pad_for_patches(img, self.patch_size) * INPUT_SCALE
        offset = self.mean_patch * INPUT_SCALE
        need = (len(self.members) + 1) // 2
        scar = np.zeros(len(ys), dtype=np.int64)
        open_ = np.arange(len(ys))
        for cast, member in enumerate(self.members, start=1):
            if not len(open_):
                break
            scar[open_] += member.forward_windows(
                padded, ys[open_], xs[open_], offset).argmax(axis=1)
            tally = scar[open_]
            open_ = open_[(tally < need) & (cast - tally < need)]
        return scar >= need


def sample_training_patches(case: LabeledCase, seed: int = 0):
    """Class-balanced boundary patches around the ground-truth scar.

    The band is ``boundary_region(GT, TRAINING_BAND_RADIUS)``, split by
    GT: healthy centers come from the band outside GT, scar centers from
    the band inside it (all of GT on slices where the erosion empties it),
    subsampled on a stride lattice. This is not the band refine votes on,
    ``boundary_region(coarse, BOUNDARY_RADIUS)``. Raises NoGroundTruth
    without scar ground truth and EmptyClassError when either class gets
    no patch.
    """
    centres = _training_centres(case, seed)
    return _cut_patches(case.volume.data, centres[:, :3]), centres[:, 3].copy()


def _training_centres(case: LabeledCase, seed: int) -> np.ndarray:
    """The centres of ``sample_training_patches``'s patches, in its order,
    as rows (slice, row, column, label): the class balance is drawn on the
    centres, so no patch is cut before it is kept."""
    if case.gt_scar is None or case.gt_scar.count() == 0:
        raise NoGroundTruth(f"case {case.case_id} has no scar ground truth")
    centres = []
    for k in range(case.nz):
        gt = case.gt_scar.data[k]
        if not gt.any():
            continue
        # the dilation reaches no further than GT's box grown by the
        # radius, and where that box is clipped its border is the slice's,
        # so the band cut from it is the whole-slice one
        y0, y1, x0, x1 = bounding_box(gt, TRAINING_BAND_RADIUS)
        gt = gt[y0:y1, x0:x1]
        band = boundary_region(gt, TRAINING_BAND_RADIUS)
        for in_band, label in ((band & ~gt, 0), (band & gt, 1)):
            ys, xs = np.nonzero(in_band)
            ys, xs = ys + y0, xs + x0
            keep = (ys % PATCH_STRIDE == 0) & (xs % PATCH_STRIDE == 0)
            centres.append(np.column_stack([np.full(keep.sum(), k), ys[keep], xs[keep],
                                            np.full(keep.sum(), label)]))
    centres = np.concatenate(centres)
    if len(np.unique(centres[:, 3])) < 2:
        raise EmptyClassError(
            f"case {case.case_id}: the stride-{PATCH_STRIDE} lattice misses a class")
    keep, _ = ll.balance_classes(np.arange(len(centres)), centres[:, 3], seed=seed)
    return centres[keep]


def _cut_patches(volume: np.ndarray, centres: np.ndarray) -> np.ndarray:
    """(n, PATCH_SIZE, PATCH_SIZE, 1) patches of a stack of slices at rows
    (slice, row, column) whose slices do not decrease, in their order."""
    k, ys, xs = centres.T
    return np.concatenate([extract_patches(volume[s], ys[k == s], xs[k == s], PATCH_SIZE)
                           for s in np.unique(k)])[..., None]


@dataclass(frozen=True)
class EnsembleConfig:
    """Ensemble size, member net and training settings. ``train.seed`` is
    not read: ``train_patch_ensemble`` derives each member's seed from its
    own ``seed`` argument."""

    members: int = ENSEMBLE_MEMBERS
    widths: tuple[int, ...] = (16, 32, 64)
    fc: int = 128
    train: ll.TrainConfig = ll.TrainConfig()  # Table-style defaults
    max_patches_per_class: int | None = None

    def __post_init__(self):
        if self.members < 3 or self.members % 2 == 0:
            raise ConfigError(f"the ensemble needs an odd member count >= 3, got {self.members}")
        if self.max_patches_per_class is not None and self.max_patches_per_class < 1:
            raise ConfigError("max_patches_per_class must be >= 1 (or None for no cap), "
                              f"got {self.max_patches_per_class}")


def train_patch_ensemble(cases: list[LabeledCase], cfg: EnsembleConfig, seed: int) -> PatchEnsemble:
    """Train the voter ensemble on pooled boundary patches.

    Members follow a k-fold strategy over the patch pool: member i trains
    on every fold but its own. Each case's sample is class-balanced, so the
    pool is too. All patches are centred on one scalar, the pooled mean
    intensity of the pool, so that overlapping patches see the same input
    at a shared pixel and refine can scan each member's trunk densely (see
    ``NetModel.forward_windows``). Cases without scar ground truth, or
    whose stride lattice misses a class, are skipped. The per-case balance
    and the cap are drawn on patch centres, so only the kept patches are
    cut.
    """
    ss = np.random.SeedSequence(seed)
    case_seeds = ss.spawn(len(cases))
    kept = []  # rows (case, slice, row, column, label)
    for i, (case, child) in enumerate(zip(cases, case_seeds)):
        try:
            centres = _training_centres(case, seed=int(child.generate_state(1)[0]))
        except (NoGroundTruth, EmptyClassError):
            continue
        kept.append(np.column_stack([np.full(len(centres), i), centres]))
    if not kept:
        raise NoGroundTruth("no case provided patches of both classes")
    kept = np.concatenate(kept)

    _, cap_child, order_child = ss.spawn(3)
    if cfg.max_patches_per_class is not None:
        keep, _ = ll.balance_classes(np.arange(len(kept)), kept[:, 4],
                                     seed=int(cap_child.generate_state(1)[0]),
                                     cap=cfg.max_patches_per_class)
        kept = kept[keep]
    x = np.concatenate([_cut_patches(cases[i].volume.data, kept[kept[:, 0] == i, 1:4])
                        for i in np.unique(kept[:, 0])])
    y = kept[:, 4].copy()

    mean = float(x.mean())
    xc = (x - mean) * INPUT_SCALE

    rng = np.random.default_rng(int(order_child.generate_state(1)[0]))
    order = rng.permutation(len(xc))
    folds = np.array_split(order, cfg.members)
    members = []
    for i in range(cfg.members):
        train_idx = np.sort(np.concatenate([f for j, f in enumerate(folds) if j != i]))
        member_seed = int(np.random.SeedSequence([seed, i]).generate_state(1)[0])
        net = ll.build_classifier(
            PATCH_SIZE, seed=member_seed, widths=cfg.widths, fc=cfg.fc,
            dropout=cfg.train.dropout,
        )
        ll.net_train(xc[train_idx], y[train_idx], net,
                     replace(cfg.train, seed=member_seed))
        members.append(net)
    return PatchEnsemble(members=members, mean_patch=mean)


def refine(img: np.ndarray, coarse: np.ndarray, ensemble: PatchEnsemble,
           myo: np.ndarray) -> np.ndarray:
    """Reclassify boundary-band voxels of a slice or a stack of slices
    (..., ny, nx) by ensemble majority vote, one vote call per slice.

    Voxels inside the eroded coarse mask stay scar; voxels outside the
    dilated mask stay background; the output is limited to the myocardium.
    Raises AlignmentError when img, coarse and myo differ in shape.
    """
    check_shapes(img=img, coarse=coarse, myo=myo)
    band = boundary_region(coarse)
    out = coarse & ~band  # the eroded core
    for k in np.ndindex(band.shape[:-2]):
        ys, xs = np.nonzero(band[k])
        scar = ensemble.vote(ys, xs, img[k])
        out[k][ys[scar], xs[scar]] = True
    return out & np.asarray(myo, dtype=bool)


def include_mvo(hyper: np.ndarray, endo: np.ndarray, myo: np.ndarray) -> np.ndarray:
    """The MVO mask of a slice or a stack (..., ny, nx): the myocardial
    holes of each slice's (endocardium | hyper), disjoint from hyper.

    Holes are filled once, on the union over slices of their boxes
    ``bounding_box(endo | hyper, 1)``. A slice's box lies in the crop, and
    its 1-px ring and all beyond it is one background frame that touches
    the slice border, so a background pixel of the crop reaches the crop's
    border exactly when it reaches the slice's: each filled slice is the
    whole-slice one, and nothing outside the crop is a hole. An empty union
    gives no MVO. Raises AlignmentError when hyper, endo and myo differ in
    shape, and DataError unless their slices are 2-D with pixels.
    """
    check_shapes(hyper=hyper, endo=endo, myo=myo)
    if np.ndim(hyper) < 2 or 0 in np.shape(hyper)[-2:]:
        raise DataError(f"MVO inclusion takes slices with pixels, not shape {np.shape(hyper)}")
    union = np.asarray(endo, dtype=bool) | np.asarray(hyper, dtype=bool)
    mvo = np.zeros(union.shape, dtype=bool)
    y0, y1, x0, x1 = bounding_box(union.reshape((-1,) + union.shape[-2:]).any(axis=0), 1)
    if y1 > y0:
        crop = (..., slice(y0, y1), slice(x0, x1))
        part = union[crop]
        mvo[crop] = fill_holes_2d(part) & ~part & np.asarray(myo, dtype=bool)[crop]
    return mvo


@dataclass
class SliceOutcome:
    gated_out: bool = False
    empty_myocardium: bool = False
    degenerate_histogram: bool = False
    refined: bool = False


@dataclass
class SegmentationResult:
    """The masks of each stage; ``final`` is ``hyper | mvo``."""

    case_id: str
    coarse: Mask
    hyper: Mask
    mvo: Mask
    outcomes: list = field(default_factory=list)  # a SliceOutcome per slice, in order
    final: Mask = field(init=False)

    def __post_init__(self):
        if (self.hyper.data & self.mvo.data).any():
            raise DataError(f"case {self.case_id}: hyperenhanced and MVO masks overlap")
        self.final = Mask(self.hyper.spacing, self.hyper.data | self.mvo.data)


def segment_case(case: LabeledCase, ensemble: PatchEnsemble | None = None,
                 gate: list[str] | None = None) -> SegmentationResult:
    """Run the cascade over every slice of a preprocessed case.

    ``gate`` holds one "healthy"/"diseased" label per slice (for instance
    the second item of each (score, label) pair that
    ``detect.detect_predict`` returns); slices labelled healthy get empty
    masks. Without an ``ensemble`` the coarse mask is not refined.
    The result keeps each stage: ``coarse``, ``hyper`` (refined, before MVO
    inclusion), ``mvo`` and ``final``. Per-slice numeric failures produce
    empty masks plus a flag rather than aborting the case.

    Each stage runs once, on a stack: the coarse stage on the slices that
    are neither gated nor empty (its top-hat on the union of their
    myocardium boxes, see ``coarse_segment``, so a slice outside the stack
    does not widen the box); refinement and MVO inclusion on those of them
    whose histogram has a split.
    """
    nz = case.nz
    if gate is not None and (len(gate) != nz or not set(gate) <= {"healthy", "diseased"}):
        raise DataError(f"case {case.case_id}: gate {list(gate)} is not one 'healthy' or "
                        f"'diseased' label for each of the {nz} slices")
    img, myo = case.volume.data, case.myocardium.data
    gated = np.zeros(nz, dtype=bool) if gate is None else np.asarray(gate) == "healthy"
    empty = ~gated & ~myo.any(axis=(1, 2))
    live = ~gated & ~empty
    coarse_v = np.zeros(img.shape, dtype=bool)
    degenerate = np.zeros(nz, dtype=bool)
    coarse_v[live], degenerate[live] = coarse_segment(img[live], myo[live])
    done = live & ~degenerate
    hyper_v = coarse_v.copy()
    refined = done & (ensemble is not None)
    if ensemble is not None:
        hyper_v[done] = refine(img[done], coarse_v[done], ensemble, myo[done])
    mvo_v = np.zeros(img.shape, dtype=bool)
    mvo_v[done] = include_mvo(hyper_v[done], case.endocardium.data[done], myo[done])

    outcomes = [SliceOutcome(*flags) for flags in zip(
        gated.tolist(), empty.tolist(), degenerate.tolist(), refined.tolist())]
    spacing = case.volume.spacing
    return SegmentationResult(
        case_id=case.case_id,
        coarse=Mask(spacing, coarse_v),
        hyper=Mask(spacing, hyper_v),
        mvo=Mask(spacing, mvo_v),
        outcomes=outcomes,
    )
