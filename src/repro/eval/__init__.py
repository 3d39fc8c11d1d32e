"""Downstream evaluation: feature extraction, the probing and fine-tuning
protocols (each a setup around one training loop,
:func:`repro.eval.linear_probe.fit`), metrics.

Implements the paper's Section V-C protocol: freeze the MAE-pretrained
encoder, replace the head with a single linear classifier, train it with
LARS (base LR 0.1, no weight decay), and report top-1 / top-5 scene
classification accuracy per probing epoch.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "features": ("extract_features", "standardize_features"),
        "linear_probe": ("linear_probe", "LinearProbeResult"),
        "few_shot": ("few_shot_probe", "FewShotResult"),
        "finetune": ("finetune", "FinetuneResult", "vit_from_mae"),
        "segmentation": ("segmentation_probe", "SegProbeResult", "mean_iou"),
        "metrics": ("topk_accuracy",),
    },
)
