"""Two-layer unsupervised convolutional features with block-histogram
encoding and linear classification."""

from .classify import (LinearSvmModel, WpcaCosineModel, WpcaModel, cosine_nn,
                       svm_predict_many, svm_train, wpca_apply, wpca_fit)
from .encoder import (binarize, compress_groups, feature_of, partition_blocks,
                      read_sparse_features, write_sparse_features)
from .experiment import (EvalResult, evaluate_model, extract_features,
                         train_model)
from .filters import (DaeTrainConfig, learn_dae_filters, learn_pca_filters,
                      sample_patches)
from .pipeline import build_stack, map_layer
from .preprocess import (LcnParams, lcn_matrix, lcn_patch, whiten_apply,
                         whiten_fit)
from .rng import Rng
from .types import (Config, EncoderConfig, FeatureMapStack, FilterBank,
                    GrayImage, HistogramFeature, PatchMatrix, PatchShape,
                    TrainedModel, WhiteningTransform, load_config,
                    parse_config, validate_config)

__version__ = "0.1.0"
