"""Per-slice healthy/diseased classification: feature network -> PCA ->
linear margin classifier, with ROC characterization, high-sensitivity
operating points, and the split/permutation analysis.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import learnlib as ll
from . import vio
from .errors import ConfigError, EmptyDenominator, EmptyMask, SingleClassError, Unachievable
from .volcore import LabeledCase, extract_patches

DETECT_INPUT_SIZE = 89
INPUT_SCALE = 1.0 / 255.0  # conditions [0, 255] crops for the feature net
SPLIT_FRACTIONS = (0.8, 0.1, 0.1)  # train, validation, test


@dataclass(frozen=True)
class DetectConfig:
    widths: tuple[int, ...] = (16, 32, 64)
    fc: int = 128
    train: ll.TrainConfig = ll.TrainConfig(
        learning_rate=1e-2, momentum=0.9, batch_size=16, l2=1e-4, epochs=20,
        dropout=0.5, seed=0,
    )
    augment_copies: int = 1


@vio.model_kind("detection")
@dataclass
class DetectionModel:
    net: ll.NetModel
    pca: ll.PcaModel
    margin: ll.MarginModel
    tau: float = 0.0
    meta: dict = field(default_factory=dict)

    def save(self, path: str) -> None:
        vio.save_model(self, path)

    @classmethod
    def load(cls, path: str) -> "DetectionModel":
        return vio.load_model(path, cls)


def extract_detection_input(case: LabeledCase, k: int, size: int = DETECT_INPUT_SIZE) -> np.ndarray:
    """Centroid-centered crop of slice k, masked within the myocardium.

    The crop is centered on the epicardial-mask centroid, zero-padded where
    it leaves the slice.
    """
    epi = case.epicardium.data[k]
    if not epi.any():
        raise EmptyMask(f"slice {k} has an empty epicardial mask")
    coords = np.argwhere(epi)
    cy, cx = (int(round(c)) for c in coords.mean(axis=0))
    masked = np.where(case.myocardium.data[k], case.volume.data[k], 0.0)
    return extract_patches(masked, [cy], [cx], size)[0]


def _slice_inputs(case: LabeledCase, size: int = DETECT_INPUT_SIZE):
    """(inputs, blank): every slice's (size, size, 1) detection input, and
    which slices have an empty epicardium and so a blank input."""
    blank = ~case.epicardium.data.any(axis=(1, 2))
    x = np.stack([np.zeros((size, size)) if b else extract_detection_input(case, k, size)
                  for k, b in enumerate(blank)])
    return x[..., None], blank


def _slice_labels(case: LabeledCase) -> np.ndarray:
    """0/1 (healthy/diseased) label of every slice."""
    return np.array([case.slice_label(k) == "diseased" for k in range(case.nz)], dtype=np.int64)


def collect_slice_patches(cases: list[LabeledCase]):
    """Per-slice inputs and 0/1 labels across the given cases. A slice with
    an empty epicardium has no crop to learn from and is left out."""
    patches, labels = [], []
    for case in cases:
        x, blank = _slice_inputs(case)
        patches.append(x[~blank])
        labels.append(_slice_labels(case)[~blank])
    return np.concatenate(patches), np.concatenate(labels)


def detect_fit_patches(x: np.ndarray, y: np.ndarray, cfg: DetectConfig, seed: int) -> DetectionModel:
    """Fit feature net + PCA + margin classifier on pre-extracted patches."""
    if len(np.unique(y)) < 2:
        raise SingleClassError("training slices cover a single class")
    ss = np.random.SeedSequence(seed)
    seeds = [int(s.generate_state(1)[0]) for s in ss.spawn(4)]
    xb, yb = ll.balance_classes(x, y, seed=seeds[0])
    xa, ya = ll.augment_dataset(xb, yb, cfg.augment_copies, seed=seeds[1])
    net = ll.build_classifier(
        DETECT_INPUT_SIZE, seed=seeds[2], widths=cfg.widths, fc=cfg.fc,
        dropout=cfg.train.dropout,
    )
    ll.net_train(xa * INPUT_SCALE, ya, net, replace(cfg.train, seed=seeds[3]))
    # re-feed the full (unbalanced) training set through the fitted network
    feats = net.features(x * INPUT_SCALE)
    pca = ll.pca_fit(feats)
    margin = ll.margin_train(ll.pca_project(pca, feats), np.where(y == 1, 1.0, -1.0))
    return DetectionModel(
        net=net, pca=pca, margin=margin, tau=0.0,
        meta={"seed": seed, "n_slices": int(len(y)), "n_train": int(len(ya)),
              "pca_k": pca.k},
    )


def detect_fit(cases: list[LabeledCase], cfg: DetectConfig, seed: int) -> DetectionModel:
    x, y = collect_slice_patches(cases)
    return detect_fit_patches(x, y, cfg, seed)


def detect_scores(model: DetectionModel, case: LabeledCase) -> np.ndarray:
    """Per-slice margin scores. A slice with an empty epicardium has no crop
    to classify: it scores -inf, so every finite threshold labels it
    healthy. Its batch row holds a blank crop, so the other slices score
    exactly as they would with its epicardium in place."""
    x, blank = _slice_inputs(case, model.net.input_shape[0])
    feats = model.net.features(x * INPUT_SCALE)
    scores = ll.margin_decide(model.margin, ll.pca_project(model.pca, feats))
    scores[blank] = -np.inf
    return scores


def detect_predict(model: DetectionModel, case: LabeledCase):
    """Per-slice (score, label); diseased iff score >= tau, so a slice with
    an empty epicardium (score -inf) is healthy."""
    scores = detect_scores(model, case)
    return [(float(s), "diseased" if s >= model.tau else "healthy") for s in scores]


# ---------------------------------------------------------------------------
# ROC analysis
# ---------------------------------------------------------------------------

@dataclass
class RocCurve:
    points: list  # (fpr, tpr, threshold), descending threshold
    auc: float


def roc_curve(scores, labels) -> RocCurve:
    """Threshold sweep over the unique scores; AUC by the trapezoid rule,
    which equals the Mann-Whitney pair count with ties counted half."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise SingleClassError("ROC needs both classes")
    points = [(0.0, 0.0, np.inf)]
    for t in np.unique(scores)[::-1]:
        pred = scores >= t
        tpr = float((pred & (labels == 1)).sum()) / n_pos
        fpr = float((pred & (labels == 0)).sum()) / n_neg
        points.append((fpr, tpr, float(t)))
    auc = 0.0
    for (f0, t0, _), (f1, t1, _) in zip(points, points[1:]):
        auc += (f1 - f0) * (t0 + t1) / 2.0
    return RocCurve(points=points, auc=auc)


def pick_operating_point(roc: RocCurve, target_sensitivity: float):
    """Largest threshold whose sensitivity reaches the target (the first one
    met in the descending sweep); returns (threshold, sensitivity,
    specificity)."""
    if not (0.0 < target_sensitivity <= 1.0):
        raise ConfigError(f"target sensitivity must be in (0, 1], got {target_sensitivity}")
    for fpr, tpr, threshold in roc.points:
        if tpr >= target_sensitivity and np.isfinite(threshold):
            return threshold, tpr, 1.0 - fpr
    raise Unachievable(f"no threshold reaches sensitivity {target_sensitivity}")


# ---------------------------------------------------------------------------
# splits and permutation analysis
# ---------------------------------------------------------------------------

def case_label(case: LabeledCase) -> str:
    return "diseased" if _slice_labels(case).any() else "healthy"


def stratified_split(cases: list[LabeledCase], seed: int):
    """Case-level stratified split by SPLIT_FRACTIONS; every partition keeps
    whole cases and the test partition holds at least one case of each
    class."""
    rng = np.random.default_rng(seed)
    strata: dict[str, list[int]] = {"healthy": [], "diseased": []}
    for i, case in enumerate(cases):
        strata[case_label(case)].append(i)
    train, val, test = [], [], []
    for label in ("healthy", "diseased"):
        idx = np.asarray(strata[label])
        if len(idx) == 0:
            continue
        idx = idx[rng.permutation(len(idx))]
        n = len(idx)
        n_test = max(1, int(round(SPLIT_FRACTIONS[2] * n)))
        n_val = max(1, int(round(SPLIT_FRACTIONS[1] * n))) if n - n_test >= 2 else 0
        test.extend(idx[:n_test].tolist())
        val.extend(idx[n_test : n_test + n_val].tolist())
        train.extend(idx[n_test + n_val :].tolist())
    return sorted(train), sorted(val), sorted(test)


@dataclass
class PermutationResult:
    n: int
    auc_unpermuted: list
    auc_permuted: list

    @property
    def p_value(self) -> float:
        """(hits + 1) / (n + 1), where a hit is a split whose permuted-label
        AUC reaches its own unpermuted AUC; the add-one form of Phipson &
        Smyth (2010) is never 0 for finitely many splits.

        The test is paired per split: each split's true-label fit is
        compared only with the permuted-label fit on the same split and
        seeds, so the value is the add-one share of splits on which the
        permuted fit does as well. It is not the test of Ojala & Garriga
        (2010), which ranks one unpermuted score within the distribution
        of the permuted ones."""
        if self.n == 0:
            raise EmptyDenominator("permutation p-value needs at least one split")
        hits = sum(
            1 for ap, anp in zip(self.auc_permuted, self.auc_unpermuted) if ap >= anp
        )
        return (hits + 1) / (self.n + 1)


def permutation_test(cases: list[LabeledCase], n_splits: int, cfg: DetectConfig,
                     seed: int) -> PermutationResult:
    """Paired unpermuted/permuted fits over stratified splits.

    Each split fits once on true train+validation labels and once on a
    permutation of them (same split, same seeds); both models score the
    untouched test slices.
    """
    ss = np.random.SeedSequence(seed)
    auc_np, auc_p = [], []
    for child in ss.spawn(n_splits):
        s_split, s_fit, s_perm = (int(c.generate_state(1)[0]) for c in child.spawn(3))
        train, val, test = stratified_split(cases, s_split)
        pool = [cases[i] for i in train + val]
        x, y = collect_slice_patches(pool)
        test_cases = [cases[i] for i in test]

        model = detect_fit_patches(x, y, cfg, s_fit)
        scores, labels = _score_cases(model, test_cases)
        auc_np.append(roc_curve(scores, labels).auc)

        y_perm = y[np.random.default_rng(s_perm).permutation(len(y))]
        model_p = detect_fit_patches(x, y_perm, cfg, s_fit)
        scores, labels = _score_cases(model_p, test_cases)
        auc_p.append(roc_curve(scores, labels).auc)
    return PermutationResult(n=n_splits, auc_unpermuted=auc_np, auc_permuted=auc_p)


def _score_cases(model: DetectionModel, cases: list[LabeledCase]):
    return (np.concatenate([detect_scores(model, case) for case in cases]),
            np.concatenate([_slice_labels(case) for case in cases]))
