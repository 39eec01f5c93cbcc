"""Assembly-level program similarity metrics and corpus grouping studies."""

from .asm_parser import parse_assembly, segment_basic_blocks
from .corpus import build_grid, load_datasets, run_study
from .features import extract_ngrams, features_for_program
from .metrics import MetricKind, pair_value, pair_values

__version__ = "0.1.0"
