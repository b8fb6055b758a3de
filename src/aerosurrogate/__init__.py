"""Physics-attention point-cloud surrogate for aerodynamic prediction."""

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
