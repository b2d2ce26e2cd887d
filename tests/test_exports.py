import inspect

import steindelta
from steindelta import bounds, mcverify

# Parameter names of every public callable, in order (a dataclass lists its
# fields).  A new or removed knob fails here, so it shows up in review.
SIGNATURES = {
    "BoundReport": "theorem n d m t rate_exponent terms term_weights applicability rigor value "
    "notes",
    "DataModel": "kind d p scores atom_probs atom_values",
    "DistanceEstimate": "value std_error replicates seed",
    "ExperimentPlan": "name builtin params model mapspec n_grid replicates seed testfn bound_kind "
    "mode fn_env w_reps",
    "FnEnvelope": "A B r",
    "GrowthEnvelope": "t A r even_map vanishing_third",
    "MapSpec": "evaluator derivative_tensor envelope",
    "MomentTable": "n d sigma abs_moments mixed_third w_abs_moments source",
    "RateFit": "slope intercept r_squared slope_se ci95 points",
    "SmoothTestFunction": "family a phase",
    "TestBudget": "order sup_norms",
    "a_factor": "n d r",
    "abs_normal_moment": "r sigma",
    "analytic_moments": "model orders n w_orders w_seed w_reps",
    "bound_delta_multivariate": "mode env table budget m",
    "bound_delta_univariate": "mode env table hprime hdoubleprime",
    "bound_fn_multivariate": "mode fn_env table budget m parity",
    "bound_fn_univariate": "mode fn_env table hprime hdoubleprime parity",
    "builtin": "name params",
    "centered_bernoulli": "p",
    "dominating_envelope": "kind mode env n d",
    "estimate_delta": "sampler_a sampler_b h replicates seed threads",
    "estimate_delta_h": "plan h n replicates threads",
    "faa_di_bruno_enumerate": "nu lam",
    "fit_rate": "points",
    "h_budget": "budget m order",
    "model_covariance": "model",
    "multinomial_indicator": "probs",
    "plan_bound_report": "plan n",
    "point_mass_check": "n",
    "rademacher": "d",
    "rank_scores": "scores",
    "required_moment_orders": "kind mode n env",
    "small_constants": "r sigma tilde",
    "stein_derivative_bound": "kind t_or_order fn_env budget m w sigmas",
    "stein_solution_check": "fn_env g h sigma points s_max steps mc_reps seed budget",
    "stirling2": "n k",
    "theorem_constants": "family n env",
    "verify_bound": "estimate report",
}
MODULE_SIGNATURES = {
    (bounds, "evaluate_bound"): "kind mode env table budget m parity",
    (mcverify, "run_verification"): "plan threads",
    (mcverify, "run_rate"): "plan threads",
}


def _params(obj) -> str:
    return " ".join(inspect.signature(obj).parameters)


def test_every_exported_name_resolves():
    missing = [name for name in steindelta.__all__ if not hasattr(steindelta, name)]
    assert missing == []
    assert len(set(steindelta.__all__)) == len(steindelta.__all__)


def test_star_import_is_clean():
    namespace = {}
    exec("from steindelta import *", namespace)
    assert set(steindelta.__all__) <= set(namespace)


def test_public_signatures_pinned():
    exported = {
        name: _params(getattr(steindelta, name))
        for name in steindelta.__all__
        if callable(getattr(steindelta, name))
    }
    assert exported == SIGNATURES


def test_sweep_and_dispatch_signatures_pinned():
    for (module, name), expected in MODULE_SIGNATURES.items():
        assert _params(getattr(module, name)) == expected, f"{module.__name__}.{name}"
