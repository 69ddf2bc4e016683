"""The extraction gate: verified gradients, then learning to copy.

First checks the hand-written backward pass against central finite
differences on a small random instance. Then trains the gated model on the
synthetic copy task, where target values only ever appear in the source
sequence, and contrasts it with an ablation whose gate is forced to zero:
the gated model copies held-out values it never saw in training, the
ablation cannot beat chance.
"""

import numpy as np

from textsql.gate import (
    CopyTaskConfig,
    grad_check,
    make_example,
    random_check_instance,
    train_copy_model,
)

# Gradient check: analytic gradients from the tape vs central differences,
# per parameter. Relative errors around 1e-6 are float64 noise.
model, src_ids, tgt_ids = random_check_instance(seed=0)
result = grad_check(model, src_ids, tgt_ids, epsilon=1e-5)
print(f"max relative error {result.max_rel_error:.2e} (worst: {result.worst_param})")
for name in sorted(result.per_param)[:4]:
    print(f"  {name}: {result.per_param[name]:.2e}")

# The error is dominated by truncation above and roundoff below; a sweep
# over step sizes shows the characteristic valley.
print("epsilon sweep:")
for eps in (1e-3, 1e-5, 1e-7):
    err = grad_check(model, src_ids, tgt_ids, epsilon=eps).max_rel_error
    print(f"  eps={eps:.0e} -> {err:.2e}")

# A small copy-task configuration keeps this demo to a few seconds; the
# defaults reproduce the same separation with wider margins.
cfg = CopyTaskConfig(d_model=16, steps=150, batch_size=8, eval_size=40, seed=0)

print("training gated model...")
gated = train_copy_model(cfg)
print("training ablation (gate forced to zero)...")
ablation = train_copy_model(cfg, gated=False)

for step, loss in gated.history:
    print(f"  step {step:4d}  loss {loss:.4f}")

# Held-out values never appeared in any training pair, so generation alone
# cannot produce them; only copying from the source can.
print(f"value accuracy on held-out values: gated {gated.metrics.value_copy_accuracy:.3f}"
      f" vs ablation {ablation.metrics.value_copy_accuracy:.3f}")

# The learned gate opens almost fully on the copy position and stays shut
# on keyword positions.
print(f"mean gate weight at the value slot:   {gated.metrics.mean_p_ext_value:.4f}")
print(f"mean gate weight at keyword slots:    {gated.metrics.mean_p_ext_keyword:.4f}")
print(f"ablation gate weight everywhere:      {ablation.metrics.mean_p_ext_value:.4f}")

# Greedy decode of one held-out example, tokens spelled out.
rng = np.random.default_rng(99)
src, tgt = make_example(gated.vocab, rng, heldout=True)
decoded = gated.model.decode_greedy(src, len(tgt))
words = gated.vocab.tokens
print("source: ", [words[i] for i in src])
print("target: ", [words[i] for i in tgt])
print("decoded:", [words[i] for i in decoded])
