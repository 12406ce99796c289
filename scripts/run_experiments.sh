#!/usr/bin/env bash
# Regenerate every table and figure of the paper's evaluation.
# Usage: ./scripts/run_experiments.sh [scale]   (default 0.25)
set -euo pipefail
SCALE="${1:-0.25}"
cd "$(dirname "$0")/.."
for bin in table1 table2 table3 fig1_buffer_truncation fig3_target_sweep \
           ablation_spatial ablation_early_filter ablation_cursor; do
  echo "==================== $bin (scale $SCALE) ===================="
  cargo run -p bench --release --bin "$bin" -- --scale "$SCALE"
  echo
done
echo "JSON reports in ./reports/"
