"""Poisoning the training window of an anomaly-based intrusion detector.

An anomaly detector retrains on traffic collected during operation, so an
adversary can inject crafted packets into that window.  The strongest
injection simply mirrors the malicious traffic she will send later: the
detector then learns to treat it as normal.  Model selection looks very
different once this is taken into account: the kernel width that wins the
clean comparison is the one that collapses first under poisoning.
"""

from clfsec import ClassifierConfig, resample
from clfsec.config import canned_config, scenario_from_config
from clfsec.data_model import Chronological
from clfsec.evaluation import Auc10, security_sweep
from clfsec.synth import synthetic_ids_traffic

traffic = synthetic_ids_traffic(seed=5)  # train window, then mixed test traffic
folds = resample(traffic, Chronological(300), seed=42)
scenario = scenario_from_config(canned_config("ids_poison")["attack"])
strengths = [0, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5]

print("partial AUC vs fraction of poisoned training samples (3 repetitions):")
print("p_max:  " + "  ".join(f"{s:>6}" for s in strengths))
curves = {}
for gamma in (0.1, 50.0):
    curve = security_sweep(
        folds,
        scenario,
        ClassifierConfig("one_class_svm", {"nu": 0.1, "gamma": gamma}),
        strengths,
        Auc10(),
        seed=42,
        repetitions=3,
    )
    curves[gamma] = curve
    print(f"g={gamma:>4}: " + "  ".join(f"{v:6.4f}" for v in curve.means))
    print("   std: " + "  ".join(f"{v:6.4f}" for v in curve.stds))

print(
    "\nthe sharp kernel (gamma=50) overfits a peak around every training\n"
    "point, including injected ones, so a small poison fraction already\n"
    "carves out a 'normal' region around the adversary's packets; the\n"
    "smooth kernel degrades far more gracefully."
)
