"""Spam filtering under good-word insertion / bad-word obfuscation.

An adversary who knows a linear filter's weights can greedily flip the
highest-|weight| words in each spam (insert "good" words, obfuscate "bad"
ones).  This script trains a linear SVM and an online logistic regression
on a synthetic bag-of-words corpus, sweeps the attack budget n_max, and
prints the partial-AUC security curves.  The curve at n_max = 0 is exactly
the classical (attack-free) evaluation.
"""

from clfsec import ClassifierConfig, resample
from clfsec.attacks import gwi_bwo_pool
from clfsec.classifiers import decision_scores, train_linear_svm
from clfsec.config import canned_config, scenario_from_config
from clfsec.data_model import Chronological, Label
from clfsec.evaluation import Auc10, security_sweep
from clfsec.synth import synthetic_spam_corpus

corpus = synthetic_spam_corpus(seed=7, n=2000, d=200)
folds = resample(corpus, Chronological(1000), seed=42)
d_tr, d_ts = folds.pairs[0]

# one attacked email, up close
model = train_linear_svm(d_tr, c_param=1.0)
spam = d_ts.restrict(label=Label.MALICIOUS).subset(slice(0, 1))
print("one spam email under increasing budgets:")
for n_max in (0, 1, 2, 5, 10, 30):
    g = decision_scores(model, gwi_bwo_pool(spam, model, n_max).features)[0]
    print(f"  n_max={n_max:>3}  discriminant g(A(x)) = {g:+.3f}")

# the full sweep, for both classifier families, past the canned scenario's n_max range
strengths = [0, 1, 2, 3, 4, 5, 7, 10, 15, 20, 30, 50, 200]
attack = canned_config("spam_gwi_bwo")["attack"]
attack["strength"]["values"] = strengths
scenario = scenario_from_config(attack)
print("\npartial AUC (in [0, 0.1]) as the word budget grows:")
print("n_max: " + "  ".join(f"{s:>6}" for s in strengths))
for label, family, params in (
    ("  svm", "linear_svm", {"c": 1.0}),
    ("   lr", "logistic_regression", {"learning_rate": 0.5, "epochs": 20}),
):
    curve = security_sweep(
        folds, scenario, ClassifierConfig(family, params), strengths, Auc10(), seed=42
    )
    print(f"{label}: " + "  ".join(f"{v:6.4f}" for v in curve.means))

print(
    "\nboth filters look identical at n_max=0; security evaluation is what\n"
    "separates them (and shows every filter collapsing by n_max ~ 30)."
)
