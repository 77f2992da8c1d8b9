"""JSON (de)serialization for every fitted model.

Float arrays travel as base64-encoded little-endian float64 payloads with an
explicit shape, which keeps model files diff-able, language-portable, and
byte-for-byte reproducible. Small integer lists stay plain JSON for
readability.
"""

from __future__ import annotations

import base64

import numpy as np

from .cluster import ClusterModel
from .kernel import KernelCenterStats, KernelPlsModel, KernelSpec
from .pca import ComponentSelection, PcaModel
from .pls import DaEncoding
from .preprocess import ScaleModel

#: 2: kmeans centroids live in the score space of the selected components
#: (format 1 stored them in reconstructed-spectrum space)
FORMAT_VERSION = 2


def encode_array(arr: np.ndarray) -> dict:
    arr = np.ascontiguousarray(np.asarray(arr, dtype=np.float64))
    return {
        "shape": list(arr.shape),
        "data": base64.b64encode(arr.astype("<f8").tobytes()).decode("ascii"),
    }


def decode_array(doc: dict) -> np.ndarray:
    raw = base64.b64decode(doc["data"])
    arr = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    return arr.reshape(doc["shape"])


def scale_to_dict(model: ScaleModel) -> dict:
    return {
        "means": encode_array(model.means),
        "stds": encode_array(model.stds),
        "flagged": [int(i) for i in np.flatnonzero(model.flagged)],
        "epsilon": model.epsilon,
    }


def scale_from_dict(doc: dict) -> ScaleModel:
    means = decode_array(doc["means"])
    flagged = np.zeros(means.size, dtype=bool)
    flagged[doc["flagged"]] = True
    return ScaleModel(
        means=means, stds=decode_array(doc["stds"]), flagged=flagged, epsilon=doc["epsilon"]
    )


def pca_to_dict(model: PcaModel) -> dict:
    return {
        "loadings": encode_array(model.loadings),
        "singular_values": encode_array(model.singular_values),
        "explained_variance_ratio": encode_array(model.explained_variance_ratio),
    }


def pca_from_dict(doc: dict) -> PcaModel:
    return PcaModel(
        loadings=decode_array(doc["loadings"]),
        singular_values=decode_array(doc["singular_values"]),
        explained_variance_ratio=decode_array(doc["explained_variance_ratio"]),
    )


def selection_to_dict(selection: ComponentSelection) -> dict:
    return {
        "selected": [int(i) for i in selection.selected],
        "correlations": encode_array(selection.correlations),
        "rule": selection.rule,
    }


def selection_from_dict(doc: dict) -> ComponentSelection:
    return ComponentSelection(
        selected=np.asarray(doc["selected"], dtype=int),
        correlations=decode_array(doc["correlations"]),
        rule=doc["rule"],
    )


def cluster_to_dict(model: ClusterModel) -> dict:
    return {
        "centroids": encode_array(model.centroids),
        "class_of_cluster": {str(j): c for j, c in sorted(model.class_of_cluster.items())},
    }


def cluster_from_dict(doc: dict) -> ClusterModel:
    return ClusterModel(
        centroids=decode_array(doc["centroids"]),
        class_of_cluster={int(j): str(c) for j, c in doc["class_of_cluster"].items()},
    )


def kernel_pls_to_dict(model: KernelPlsModel) -> dict:
    return {
        "family": model.kernel.family,
        "lengthscale": model.kernel.lengthscale,
        "variance": model.kernel.variance,
        "support": encode_array(model.support),
        "center_col_means": encode_array(model.center_stats.col_means),
        "center_mean_all": model.center_stats.mean_all,
        "dual_coef": encode_array(model.dual_coef),
        "y_means": encode_array(model.y_means),
        "classes": [int(c) for c in model.encoding.classes],
        "a": model.a,
    }


def kernel_pls_from_dict(doc: dict) -> KernelPlsModel:
    classes = np.asarray(doc["classes"])
    # the training indicator matrix itself is not needed for prediction
    encoding = DaEncoding(classes=classes, indicators=np.eye(classes.size))
    return KernelPlsModel(
        kernel=KernelSpec(doc["family"], doc["lengthscale"], doc["variance"]),
        support=decode_array(doc["support"]),
        center_stats=KernelCenterStats(
            col_means=decode_array(doc["center_col_means"]),
            mean_all=doc["center_mean_all"],
        ),
        dual_coef=decode_array(doc["dual_coef"]),
        y_means=decode_array(doc["y_means"]),
        encoding=encoding,
        a=int(doc["a"]),
    )
