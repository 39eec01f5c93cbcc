"""Assembly-level program similarity metrics and corpus grouping studies."""

from .asm_parser import (AssemblyProgram, ParserConfig, linear_blocks, parse_assembly,
                         segment_basic_blocks)
from .corpus import (APPLICATION_SPECIFIC, PROGRAMMER_SPECIFIC, TD_LABEL,
                     CorpusGrid, GroupingKind, GroupingScheme, ProgramEntry,
                     StudyReport, StudySuite, Subset, build_grid, build_suite,
                     build_universes, coprime_strides, default_strides,
                     enumerate_subsets, load_datasets, normalize, pairwise_values,
                     run_study, totally_different)
from .errors import (AsmSimError, EmptyProgramError, InputError, ManifestError,
                     NormalizationError, ParseError, ToolError)
from .features import (PatternSet, ProgramFeatures, compute_features,
                       extract_ngrams, features_for_program, features_to_dict)
from .metrics import METRIC_ORDER, MetricKind, pair_value, pair_values

__version__ = "0.1.0"
