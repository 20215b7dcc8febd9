#!/bin/sh
# benchpairs.sh BASE [N]: the paired comparison ROADMAP prescribes. Builds
# ./benchmark at commit BASE (a git-archive copy in a temporary directory)
# and at the working tree, runs the two binaries N times per workload with
# tracing off, alternating which goes first, and prints for each workload ×
# end-to-end metric every value, each side's quartiles, how many pairs each
# won, and the verdict of the claim rule (choosing-metrics §8): the head
# shows a gain only when it wins at least nine tenths of the pairs, ties
# counting for neither, and its median is better than the base's by more
# than the base's interquartile range.
set -eu
base=${1:?usage: benchpairs.sh BASE [N]}
n=${2:-5}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/src"
git archive "$base" | tar -x -C "$tmp/src"
(cd "$tmp/src" && go build -o "$tmp/base" ./benchmark)
go build -o "$tmp/head" ./benchmark

# Where each side put the kernels (DESIGN §14), for information only:
# every loop head of the assembly bodies is 32-byte aligned, and a build
# padded by 32 bytes ahead of rowops and native read the cube within the
# unpadded build's spread, so an offset that moved does not explain a
# delta. A symbol missing from the head's binary is an error, never an
# offset of 0.
rowops=sptrsv/internal/rowops
native=sptrsv/internal/native
kernels="$rowops.forwardPanelAVX2f64.abi0 $rowops.backwardBlockAVX2f64.abi0
$rowops.forwardRows1AVX2f64.abi0 $rowops.forwardRows1AVX2f32.abi0
$rowops.backwardRows1AVX2f64.abi0 $rowops.backwardRows1AVX2f32.abi0
$rowops.schurAVX2f64.abi0
$native.forwardSupernodeM[go.shape.float64] $native.backwardSupernodeM[go.shape.float64]
$native.forwardSupernodeM[go.shape.float32] $native.backwardSupernodeM[go.shape.float32]"
go tool nm -n "$tmp/base" >"$tmp/base.nm"
go tool nm -n "$tmp/head" >"$tmp/head.nm"
mod64() { # mod64 SIDE SYMBOL: the symbol's address in SIDE's binary mod 64, empty if absent
	addr=$(awk -v k="$2" '$2 == "T" && $3 == k { print $1; exit }' "$tmp/$1.nm")
	[ -z "$addr" ] || echo $((0x$addr % 64))
}
set -f # the symbol names hold brackets
for k in $kernels; do
	b=$(mod64 base "$k")
	h=$(mod64 head "$k")
	[ -n "$h" ] || { echo "error: $k is not in the head's benchmark binary" >&2; exit 1; }
	echo "$k mod 64: base ${b:-(not in base)}, head $h"
done
set +f

metrics="setup_s solve_p50_ms solves_per_s resident_mb"
run() { # run SIDE WORKLOAD: one value per metric appended to $tmp/SIDE.WORKLOAD.METRIC
	"$tmp/$1" -workload "$2" -trace 0 | tail -n 1 >"$tmp/line"
	grep -q '"correct":true' "$tmp/line" || { echo "$1 $2: no correct result line" >&2; exit 1; }
	for m in $metrics; do
		sed "s/.*\"$m\":{\"value\":\([^,}]*\).*/\1/" "$tmp/line" >>"$tmp/$1.$2.$m"
	done
}
# quartiles FILE: the first quartile, median and third quartile of the
# values in FILE, interpolated linearly between order statistics.
quartiles() {
	sort -g "$1" | awk '
		function q(p,  h, i) { h = (NR - 1) * p + 1; i = int(h); return i >= NR ? v[NR] : v[i] + (h - i) * (v[i + 1] - v[i]) }
		{ v[NR] = $1 }
		END { print q(0.25), q(0.5), q(0.75) }'
}
for w in engine-grid-1rhs engine-cube-30rhs daemon-solve cluster-update; do
	for i in $(seq "$n"); do
		if [ $((i % 2)) = 1 ]; then run base "$w" && run head "$w"; else run head "$w" && run base "$w"; fi
	done
	for m in $metrics; do
		bq=$(quartiles "$tmp/base.$w.$m")
		hq=$(quartiles "$tmp/head.$w.$m")
		echo "$w $m"
		echo "  base: $(tr '\n' ' ' <"$tmp/base.$w.$m")" | awk -v q="$bq" '{ split(q, a, " "); print $0 "q1 " a[1] " median " a[2] " q3 " a[3] }'
		echo "  head: $(tr '\n' ' ' <"$tmp/head.$w.$m")" | awk -v q="$hq" '{ split(q, a, " "); print $0 "q1 " a[1] " median " a[2] " q3 " a[3] }'
		paste "$tmp/base.$w.$m" "$tmp/head.$w.$m" | awk -v up="$m" -v bq="$bq" -v hq="$hq" '
			{ if ($1 == $2) tie++; else if (($2 < $1) == (up != "solves_per_s")) head++; else base++ }
			END {
				split(bq, b, " "); split(hq, h, " ")
				gain = up == "solves_per_s" ? h[2] - b[2] : b[2] - h[2]
				iqr = b[3] - b[1]
				need = int((9 * NR + 9) / 10)
				printf "  pairs won: base %d, head %d, tied %d\n", base, head, tie
				printf "  claim rule: head wins %d/%d (needs %d), median better by %g, base IQR %g: %s\n",
					head, NR, need, gain, iqr, (head >= need && gain > iqr) ? "GAIN" : "no gain"
			}'
	done
done
