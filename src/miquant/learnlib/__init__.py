"""From-scratch numerical learning kernel: conv nets with SGDM, PCA,
linear-margin classification, augmentation, and class balancing."""

from .margin import MarginModel, hinge_objective, margin_decide, margin_train
from .net import (
    NetModel,
    TrainConfig,
    build_classifier,
    build_net,
    net_loss,
    net_train,
)
from .pca import PcaModel, pca_fit, pca_project
from .sampling import (
    AugmentParams,
    apply_augment,
    augment_dataset,
    balance_classes,
)

__all__ = [
    "AugmentParams",
    "MarginModel",
    "NetModel",
    "PcaModel",
    "TrainConfig",
    "apply_augment",
    "augment_dataset",
    "balance_classes",
    "build_classifier",
    "build_net",
    "hinge_objective",
    "margin_decide",
    "margin_train",
    "net_loss",
    "net_train",
    "pca_fit",
    "pca_project",
]
