#!/bin/bash
# Regenerate every experiment output into results/.
set -u
cd "$(dirname "$0")"
R=results
run() { echo "== $1 =="; cargo run -p bench --release --bin "$1" ${3:-} > "$R/$2" 2>/dev/null; }
run fig3_adaptive_cost fig3.tsv
run fig4_uniform_gap fig4.tsv
run fig6_cpu_speedup fig6.tsv
run table1_gpu_scaling table1.tsv
run fig7_hetero_speedup fig7.tsv
run ablation_report ablations.tsv
run ext_offload_pl ext_offload.tsv
run fig10_finegrained fig10.tsv
run fig8_dynamic_strategies fig8.tsv
echo ALL EXPERIMENTS DONE
