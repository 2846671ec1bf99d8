"""Collecting annotation campaigns from LLM providers."""

from ..config import (
    AnnotatorConfig,
    DecodingParams,
    FewshotExample,
    PromptVariant,
    SchemaMode,
    TemplateError,
    fewshot_from_config,
)
from .adapters import (
    CompletionResult,
    MissingApiKey,
    MockAdapter,
    OpenAIChatAdapter,
    ProviderAdapter,
    ProviderError,
)
from .runner import (
    TraceCache,
    annotate_dataset,
    annotate_example,
    cache_key,
    trace_record,
)
from .templates import build_annotation_schema, format_categories, render_prompt

__all__ = [
    "AnnotatorConfig",
    "CompletionResult",
    "DecodingParams",
    "FewshotExample",
    "MissingApiKey",
    "MockAdapter",
    "OpenAIChatAdapter",
    "PromptVariant",
    "ProviderAdapter",
    "ProviderError",
    "SchemaMode",
    "TemplateError",
    "TraceCache",
    "annotate_dataset",
    "annotate_example",
    "build_annotation_schema",
    "cache_key",
    "fewshot_from_config",
    "format_categories",
    "render_prompt",
    "trace_record",
]
