"""Structured compressive channel estimation for hybrid mmWave arrays."""

__version__ = "0.1.0"

from .channel import (
    AngularChannelSet,
    LinkBudgetParams,
    MultipathChannel,
    PathComponent,
    SystemConfig,
    angular_channel_set,
    draw_multipath,
    path_loss_db,
)
from .pilots import (
    KroneckerOperator,
    PilotEnsemble,
    calibrate_noise_variance,
    draw_ensemble,
    measurement_operators,
    pilot_subcarrier_indices,
    synthesize_received,
)
from .recovery import (
    P_TH_NOISELESS,
    EstimationResult,
    adaptive_omp,
    nmse_db,
    oracle_ls,
    p_th_for_snr,
    ssamp,
    support_metrics,
)
from .simulate import (
    ResultTable,
    TrialRecord,
    ber_experiment,
    run_trial,
    sweep,
)
from .theory import (
    GmmvInstance,
    UniquenessCertificate,
    bridge_matrices,
    draw_gmmv_instance,
    exhaustive_l0_solve,
    min_time_slots,
    orthogonal_pilot_overhead,
    spark,
    uniqueness_check,
    unique_minimal_support,
)
