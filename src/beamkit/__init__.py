"""Two-step beamforming codeword design and beam-training simulation.

Ideal codewords are synthesized against a target beam pattern, then
factored through quantized phase shifters and a small number of RF
chains; hierarchical codebooks built from both steps feed a Monte-Carlo
beam-training simulator.
"""

from .arrays import *
from .channel import *
from .codebook import *
from .ideal import *
from .practical import *
from .targets import *

__version__ = "0.1.0"
