"""Signature volatility models: weighted tensor algebra, Brownian signatures,
stochastic-exponential simulation, Riccati transform flows and GKW hedging."""

from .algebra import (
    GradedTensor,
    Weight,
    Word,
    antipode,
    concat_product,
    dual_pairing,
    format_tensor,
    format_word,
    parse_tensor,
    parse_word,
    shuffle_product,
    weight_check,
    weighted_norms,
)
from .hedging import (
    DegenerateGram,
    GKWResult,
    HedgeBasis,
    depth_scan,
    gkw_project,
    kappa_tail,
    simulate_hedge_dataset,
)
from .models import ModelPreset, kernel_expansion, preset
from .riccati import (
    FlowOutcome,
    GeneratorTable,
    RiccatiState,
    build_generator,
    integrate_flow,
    mc_transform,
)
from .sde import (
    PriceBatch,
    SigVolParams,
    check_H1,
    estimate_H3,
    martingale_check,
    simulate_price,
)
from .signature import (
    BatchSignature,
    BrownianBatch,
    simulate_brownian_grid,
)

__version__ = "0.1.0"
