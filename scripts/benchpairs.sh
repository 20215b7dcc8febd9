#!/bin/sh
# benchpairs.sh BASE [N]: the paired comparison ROADMAP prescribes. Builds
# ./benchmark at commit BASE (a git-archive copy in a temporary directory)
# and at the working tree, runs the two binaries N times per workload with
# tracing off, alternating which goes first, and prints for each workload ×
# end-to-end metric every value, both medians and how many pairs each won.
set -eu
base=${1:?usage: benchpairs.sh BASE [N]}
n=${2:-5}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/src"
git archive "$base" | tar -x -C "$tmp/src"
(cd "$tmp/src" && go build -o "$tmp/base" ./benchmark)
go build -o "$tmp/head" ./benchmark
# The NRHS-1 sweep reads slower when this kernel's short loop straddles a
# cache line (DESIGN §14), so say where each side put it.
kernel='forwardSupernode1[go.shape.float64]'
mod64() { # mod64 BINARY: the kernel's address in BINARY, mod 64
	addr=$(go tool nm -n "$1" | awk -v k="sptrsv/internal/native.$kernel" '$3 == k { print $1 }')
	echo $((0x${addr:-0} % 64))
}
base_mod=$(mod64 "$tmp/base")
head_mod=$(mod64 "$tmp/head")
echo "$kernel mod 64: base $base_mod, head $head_mod"
[ "$base_mod" = "$head_mod" ] || echo "WARNING: $kernel mod 64 differs (base $base_mod, head $head_mod); engine-grid-1rhs solve rows can move with byte-identical kernel code"
metrics="setup_s solve_p50_ms solves_per_s resident_mb"
run() { # run SIDE WORKLOAD: one value per metric appended to $tmp/SIDE.WORKLOAD.METRIC
	"$tmp/$1" -workload "$2" -trace 0 | tail -n 1 >"$tmp/line"
	grep -q '"correct":true' "$tmp/line" || { echo "$1 $2: no correct result line" >&2; exit 1; }
	for m in $metrics; do
		sed "s/.*\"$m\":{\"value\":\([^,}]*\).*/\1/" "$tmp/line" >>"$tmp/$1.$2.$m"
	done
}
median() { sort -g "$1" | awk '{ v[NR] = $1 } END { print (v[int((NR + 1) / 2)] + v[int(NR / 2) + 1]) / 2 }'; }
for w in engine-grid-1rhs engine-cube-30rhs daemon-solve cluster-update; do
	for i in $(seq "$n"); do
		if [ $((i % 2)) = 1 ]; then run base "$w" && run head "$w"; else run head "$w" && run base "$w"; fi
	done
	for m in $metrics; do
		echo "$w $m"
		echo "  base: $(tr '\n' ' ' <"$tmp/base.$w.$m") median $(median "$tmp/base.$w.$m")"
		echo "  head: $(tr '\n' ' ' <"$tmp/head.$w.$m") median $(median "$tmp/head.$w.$m")"
		paste "$tmp/base.$w.$m" "$tmp/head.$w.$m" | awk -v up="$m" '
			{ if ($1 == $2) tie++; else if (($2 < $1) == (up != "solves_per_s")) head++; else base++ }
			END { printf "  pairs won: base %d, head %d, tied %d\n", base, head, tie }'
	done
done
