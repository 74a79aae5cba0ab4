"""Two-step beamforming codeword design and beam-training simulation.

Ideal codewords are synthesized against a target beam pattern, then
factored through quantized phase shifters and a small number of RF
chains; hierarchical codebooks built from both steps feed a Monte-Carlo
beam-training simulator.
"""

from .arrays import (
    beam_gain,
    main_lobe_mse,
    pattern_csv,
    sample_pattern,
    steering_matrix,
    steering_vector,
)
from .channel import (
    Channel,
    TrainingConfig,
    draw_channel,
    exhaustive_best_pair,
    hierarchical_search,
    measure,
    success_rate,
)
from .codebook import (
    CodebookEntry,
    HierarchicalCodebook,
    build_codebook,
    layer_count,
    training_test_count,
)
from .ideal import PhaseOptimizer, SynthesisError, ls_icd, ps_icd
from .practical import (
    HybridCodeword,
    PhaseSet,
    design_nrf1,
    deviation,
    fs_altmin,
    fs_row,
    ls_fbb,
    phase_set,
    quantize_index,
    solve_two_rf,
    wrap_phase,
)
from .targets import TargetPattern, make_target

__version__ = "0.1.0"
