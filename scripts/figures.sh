#!/bin/sh
# figures.sh: rebuild the paper's published outputs — results/fig5iso.txt,
# fig7table.txt, fig8curves.txt and redistbench.txt — with each command's
# default flags into a temporary directory, and fail when any differs from
# its committed file, naming the file and its first differing line. They
# are deterministic virtual time, so a difference means the cost model, the
# set-up or a simulated schedule moved; a change that means to move one
# regenerates the file and says why.
set -u
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
status=0
for f in fig5iso fig7table fig8curves redistbench; do
	want=results/$f.txt
	got=$tmp/$f.txt
	if ! go run ./cmd/$f > "$got"; then
		echo "figures: go run ./cmd/$f failed"
		status=1
		continue
	fi
	if cmp -s "$want" "$got"; then
		echo "figures: $want identical"
		continue
	fi
	status=1
	# The first line at which the two files differ, from diff's first
	# command: "NcM" and "NdM" start at line N, "NaM" (lines added after
	# line N, so the committed file is a prefix) at line N+1.
	set -- $(diff "$want" "$got" | sed -n '1s/^\([0-9]*\)[0-9,]*\([acd]\).*/\1 \2/p')
	line=$1
	[ "$2" = a ] && line=$((line + 1))
	echo "figures: $want differs from a rebuild at line $line:"
	echo "  committed: $(sed -n "${line}p" "$want")"
	echo "  rebuilt:   $(sed -n "${line}p" "$got")"
done
exit $status
