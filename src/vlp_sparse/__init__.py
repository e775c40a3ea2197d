"""Sparse-recovery simulation of cooperative multi-target visible light positioning.

Builds grid fingerprints from a Lambertian LED channel model, synthesizes
cooperative multi-target measurements (aggregated powers and anchor-pair
correlations), recovers target cells by sparse recovery, and benchmarks the
schemes against a conventional per-target RSS-lateration baseline.
"""

__version__ = "0.1.0"

import numpy.random  # noqa: F401  numpy 2 would load it at a trial's first draw

from .channel import (GainModel, PairIndexMap, build_correlation_fingerprint,
                      gain_to_range, gains_to_points, lambertian_order)
from .evaluation import (CampaignReport, Scene, TrialResult,
                         aligned_estimates, build_scene,
                         cell_quantization_floor, match_and_error,
                         rss_baseline_locate, run_campaign, run_trial)
from .measurement import (indicator_from_cells, remove_noise_floor,
                          synthesize_ideal_correlation, synthesize_ideal_power,
                          synthesize_snapshot_correlation,
                          synthesize_snapshot_power)
from .recovery import (RecoveryAdvisory, SparseSolution, locate_cocsm,
                       locate_csm, nnls_top_k, omp, recoverability_advisory,
                       refine_off_grid)
from .scenario import (SCHEMES, SOLVERS, ConfigError, GridModel, PdOptics,
                       SceneConfig, apply_overrides, build_grid,
                       config_from_dict, config_to_dict, load_config,
                       place_leds, realized_snr_db, sample_targets,
                       snr_to_noise_variance)

__all__ = [name for name in dir() if not name.startswith("_")]
