"""Array-agnostic spatial-coherence features for target-activity detection
and masking-based multichannel speech enhancement, plus the synthetic
room-acoustics scene generator used to validate them.  Callers import the
submodules (``lstsc.coherence``, ...); the package holds only ``__version__``."""

__version__ = "0.1.0"
