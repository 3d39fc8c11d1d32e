"""Data substrate: synthetic geospatial imagery and loading machinery.

The paper pretrains on MillionAID and probes on UCM / AID / NWPU — none
redistributable or usable offline at this scale. This package provides
the synthetic equivalent: a procedural remote-sensing scene generator
with land-cover-like classes (fields, urban grids, water, forest, ...)
whose parameters control intra-class variation and sensor noise, plus
dataset builders matching each paper dataset's class count and
train/test ratio (scaled down).

- :mod:`repro.data.synthetic` — the scene generator.
- :mod:`repro.data.datasets` — MillionAID/UCM/AID/NWPU analogues.
- :mod:`repro.data.transforms` — normalization / augmentation.
- :mod:`repro.data.segmentation` — per-patch land-cover labels.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "synthetic": ("SceneGenerator",),
        "datasets": (
            "ArrayDataset",
            "SplitDataset",
            "DatasetSpec",
            "DATASET_SPECS",
            "build_dataset",
            "build_pretraining_corpus",
        ),
        "transforms": ("normalize_images", "random_flip", "augment_view"),
        "segmentation": (
            "SegmentationDataset",
            "build_segmentation_dataset",
            "patch_majority_labels",
        ),
    },
)
