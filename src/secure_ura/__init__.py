"""Link-level simulator for secure unsourced random access.

Active users derive secret keys and artificial noise from a broadcast
feedback signal, encrypt their messages, and transmit pilot/polar/key
segments; the base station runs an iterative OMP + MMSE + SIC receiver and
reconciles each key from its transmitted parity.  An analytic bound tracks
what the same transmissions leak to a passive eavesdropper.
"""

from .channel import feedback_observation, uplink
from .config import ConfigError, SystemConfig, load_config
from .crypto import decrypt, encrypt, expand_key
from .harness import (SweepResult, TrialError, TrialReport, emit_csv,
                      run_leakage, run_point, run_sweep, run_trial, selftest,
                      split_power_budget)
from .keys import (DegenerateFeedbackError, artificial_noise, extract_key,
                   standardize)
from .ldpc import LdpcCode
from .leakage import (LeakageSizeError, equivocation_lower, leakage_eigen,
                      leakage_logdet, leakage_report)
from .modulation import LLR_CLAMP, bpsk_map, clamp_llr
from .params import PublicParams, generate_public_params
from .polar import PolarCode, default_crc_poly, polar_transform
from .pilots import atom_energies, omp_detect, omp_noise_floor
from .receiver import (DecodedSplit, decode_frame, decode_keys_and_decrypt,
                       feature_noise_variances, iterative_decode, llr_parity,
                       llr_systematic, mmse_polar_llr, polar_decode)
from .transmitter import index_to_bits, pilot_polar_rows, transmit

__version__ = "0.1.0"
