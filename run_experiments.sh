#!/bin/bash
# Regenerates every table and figure of the paper (mini scale).
set -u
cd "$(dirname "$0")"
RUN() {
  local name="$1"; shift
  echo "=== $name: $* ==="
  local start=$SECONDS
  cargo run -q --release -p graphrare-bench --bin "$name" -- "$@" \
    > "results/${name}.txt" 2> "results/${name}.log"
  echo "elapsed: $((SECONDS-start)) s" >> "results/${name}.txt"
  echo "--- $name done (tail of output):"
  tail -3 "results/${name}.txt"
}
RUN repro_table2
RUN repro_fig8
RUN repro_fig6   --splits 3
RUN repro_fig7   --splits 3
RUN repro_table3 --splits 3
RUN repro_table5 --splits 3
RUN repro_table4 --splits 2
RUN repro_ablation_rl --splits 3
RUN repro_sweep_homophily --splits 3
RUN repro_table6
RUN repro_fig5   --splits 2
echo ALL-EXPERIMENTS-DONE
