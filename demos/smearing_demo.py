"""One whale, many magnitudes: how far does a single corrupted treated
outcome move the average CATE prediction over the whole control group?

The squared-error X-Learner shifts roughly linearly with the whale size,
the Huber variant plateaus, and the robust X-Learner barely moves.
"""

from rxlearner import (
    ContaminationSpec,
    ScenarioSpec,
    learner_spec,
    mse_x_spec,
    rx_spec,
    smearing_study,
)

spec = ScenarioSpec(
    n=2000,
    treated_fraction=0.1,
    tau_form="constant",
    tau_value=2.0,
    contamination=ContaminationSpec(rate=0.0),
    seed=11,
)
learners = {"mse_x": mse_x_spec(), "huber_x": learner_spec("huber_x"), "rx": rx_spec()}

report = smearing_study(spec, magnitudes=[0, 100, 1000], learners=learners)

print(f"{'magnitude':>10} " + " ".join(f"{n:>10}" for n in sorted(learners)))
for mag in report.magnitudes:
    row = " ".join(f"{report.shifts[n][mag]:>+10.4f}" for n in sorted(learners))
    print(f"{mag:>10.0f} {row}")
