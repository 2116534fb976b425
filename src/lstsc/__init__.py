"""Array-agnostic spatial-coherence features for target-activity detection
and masking-based multichannel speech enhancement, plus the synthetic
room-acoustics scene generator used to validate them."""

__version__ = "0.1.0"

from .coherence import (
    CoherenceConfig,
    LstscFeatures,
    arcsine_warp,
    coherence,
    compute_lstsc,
    lambda_schedule,
    read_features,
    short_term_whitened_rtf,
    stream_frames,
    whiten,
    write_features,
)
from .enhance import EnhanceResult, HeuristicMaskEstimator, enhance_stream, heuristic_mask
from .erb import ErbFilterbank, design_filterbank, pool_feature
from .metrics import SiSdrReport, si_sdr
from .roomsim import (
    ArrayGeometry,
    MixResult,
    MixSpec,
    Rir,
    RoomScene,
    SceneConstraints,
    Source,
    measure_t60,
    mix_scene,
    sample_scene,
    simulate_rir,
    simulate_rirs,
)
from .signal_core import (
    Mask,
    MultichannelAudio,
    StftConfig,
    apply_mask,
    istft,
    load_wav,
    save_wav,
    stft,
    stft_multichannel,
)

__all__ = [
    "__version__",
    "CoherenceConfig",
    "LstscFeatures",
    "arcsine_warp",
    "coherence",
    "compute_lstsc",
    "lambda_schedule",
    "read_features",
    "short_term_whitened_rtf",
    "stream_frames",
    "whiten",
    "write_features",
    "EnhanceResult",
    "HeuristicMaskEstimator",
    "enhance_stream",
    "heuristic_mask",
    "ErbFilterbank",
    "design_filterbank",
    "pool_feature",
    "SiSdrReport",
    "si_sdr",
    "ArrayGeometry",
    "MixResult",
    "MixSpec",
    "Rir",
    "RoomScene",
    "SceneConstraints",
    "Source",
    "measure_t60",
    "mix_scene",
    "sample_scene",
    "simulate_rir",
    "simulate_rirs",
    "Mask",
    "MultichannelAudio",
    "StftConfig",
    "apply_mask",
    "istft",
    "load_wav",
    "save_wav",
    "stft",
    "stft_multichannel",
]
