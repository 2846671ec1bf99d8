"""spanagree: collect span annotations from LLMs and score annotation
campaigns against each other."""

from .model import (
    AnnotationSet,
    Campaign,
    Category,
    CategorySet,
    Dataset,
    Example,
    ModelError,
    SpanAnnotation,
    Trace,
    normalize_annotation_set,
)

__version__ = "0.1.0"

__all__ = [
    "AnnotationSet",
    "Campaign",
    "Category",
    "CategorySet",
    "Dataset",
    "Example",
    "ModelError",
    "SpanAnnotation",
    "Trace",
    "__version__",
    "normalize_annotation_set",
]
