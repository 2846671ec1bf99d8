"""Collecting annotation campaigns from LLM providers."""

from .adapters import (
    CompletionResult,
    DecodingParams,
    MissingApiKey,
    MockAdapter,
    OpenAIChatAdapter,
    ProviderAdapter,
    ProviderError,
)
from .runner import (
    AnnotatorConfig,
    SchemaMode,
    TraceCache,
    annotate_dataset,
    annotate_example,
    cache_key,
    trace_record,
)
from .templates import (
    FewshotExample,
    PromptVariant,
    TemplateError,
    build_annotation_schema,
    fewshot_from_config,
    format_categories,
    render_prompt,
)

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
