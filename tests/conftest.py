import pytest

from miquant import detect, learnlib as ll, phantom, preprocess, segment


@pytest.fixture(scope="session")
def diseased_cases():
    """Six preprocessed diseased phantom cases, two with MVO cores."""
    corpus = phantom.CorpusSpec(
        n_cases=6, diseased_fraction=1.0, mvo_fraction=0.34,
        base=phantom.PhantomSpec(dims=(96, 96, 2)), seed=42,
    )
    return [preprocess.preprocess_case(c) for c in phantom.generate_corpus(corpus)]


@pytest.fixture(scope="session")
def golden_cases():
    """The golden corpus of test_golden, preprocessed."""
    from test_golden import CORPUS

    return [preprocess.preprocess_case(c) for c in phantom.generate_corpus(CORPUS)]


@pytest.fixture(scope="session")
def mixed_cases():
    """Eight preprocessed cases, half healthy, half diseased."""
    corpus = phantom.CorpusSpec(
        n_cases=8, diseased_fraction=0.5, mvo_fraction=0.0,
        base=phantom.PhantomSpec(dims=(96, 96, 2)), seed=7,
    )
    return [preprocess.preprocess_case(c) for c in phantom.generate_corpus(corpus)]


@pytest.fixture(scope="session")
def tiny_ensemble(diseased_cases):
    """Three-member patch ensemble sized for test speed."""
    cfg = segment.EnsembleConfig(
        members=3, widths=(4, 8), fc=16,
        train=ll.TrainConfig(learning_rate=1e-2, momentum=0.75, batch_size=32,
                             l2=1e-4, epochs=15, dropout=0.5, seed=0),
        max_patches_per_class=250,
    )
    return segment.train_patch_ensemble(diseased_cases[:4], cfg, seed=13)


@pytest.fixture(scope="session")
def tiny_detect_cfg():
    return detect.DetectConfig(
        widths=(4, 8), fc=16,
        train=ll.TrainConfig(learning_rate=1e-2, momentum=0.9, batch_size=8,
                             l2=1e-4, epochs=6, dropout=0.5, seed=0),
        augment_copies=0,
    )


@pytest.fixture(scope="session")
def tiny_detector(mixed_cases, tiny_detect_cfg):
    return detect.detect_fit(mixed_cases, tiny_detect_cfg, seed=21)
