#!/bin/sh
# Regenerate every table/figure output into results/ (see EXPERIMENTS.md).
set -x
mkdir -p results
cargo run --release --offline -q -p dp-bench --bin train_models
for b in table1 table3 table4 fig3 fig4 fig5 fig6 fig7 mixed_precision speedup setup_time ablations; do
  cargo run --release --offline -q -p dp-bench --bin "$b" > "results/$b.txt" 2>&1
done
