"""Physics-attention point-cloud surrogate for aerodynamic prediction."""

import ctypes

from .pointcloud import (PointCloud, SampleRecord, NormalizationStats,
                         load_sample, save_sample, normalize, compute_stats,
                         load_dataset)
from .sampling import (SamplingConfig, estimate_curvature, sample_random,
                       sample_curvature, sample_adaptive, sample_indices)
from .model import (ModelConfig, ModelState, Prediction, init_model, forward,
                    predict_denormalized, save_checkpoint, load_checkpoint)
from .training import (LossWeights, TrainConfig, relative_l2, adam_step,
                       train, grad_check)
from .metrics import MetricReport, mse, mae, max_ae, r2, rel_errors, evaluate
from .datagen import (ShapeSpec, DatasetSpec, generate_sample,
                      generate_records, generate_dataset)

__version__ = "0.1.0"


# glibc malloc hands freed memory back to the OS (it trims the heap top and
# unmaps arrays of 128 KiB or more), so each prediction or train step faults
# the same pages in again: ~5000 minor faults per 8192+4096-point desk
# prediction, 400-600 per desk train step. Fixed thresholds keep it for
# reuse: arrays up to 32 MiB (the 64-bit maximum) come from the heap, and at
# most 64 MiB of free heap is kept. Without glibc's mallopt only speed differs.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD, _TRIM_THRESHOLD = 32 << 20, 64 << 20


def _keep_freed_memory() -> bool:
    """Set both thresholds; True if mallopt exists and accepted both."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return all([mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD),
                mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)])


_MALLOC_THRESHOLDS_SET = _keep_freed_memory()
