#!/usr/bin/env bash
# bench/agree.sh — run the full benchmark as two sets of five runs on the
# same commit, alternating between the sets so that slow machine drift
# lands on both, and check that the sets agree the way the bounds were
# derived (bounds.md): the medians of every end-to-end metric within its
# bound, every count, nex_err_pct and every result digest exactly. The
# first run of each set adds the traced round and the probes, which hold
# the counts the untraced rounds do not take. Extra arguments go to every
# run (for example: bench/agree.sh -seed 2). Exits non-zero on any breach.
# About half an hour on the reference box.
set -euo pipefail
a=() b=()
for i in 1 2 3 4 5; do
	trace=0
	if [ "$i" = 1 ]; then trace=1; fi
	bash bench/run.sh -trace "$trace" "$@" -out "bench/out/agree_a$i"
	bash bench/run.sh -trace "$trace" "$@" -out "bench/out/agree_b$i"
	a+=("bench/out/agree_a$i/results.json")
	b+=("bench/out/agree_b$i/results.json")
done
join() { local IFS=,; echo "$*"; }
exec .bench_build/simbench -agree "$(join "${a[@]}"):$(join "${b[@]}")"
