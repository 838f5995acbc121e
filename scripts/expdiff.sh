#!/usr/bin/env bash
# Shows what a change does to the paper's experiment outputs. Builds
# cmd/coca-bench at <rev> and from the working tree (uncommitted changes
# included), runs every registered experiment (-exp all) at -scale 0.15
# -seed 3 with each, then -exp churn at full scale, seed 3 (at -scale
# 0.15 churn's anti-entropy arm runs 4 nodes for 2 rounds, too few to show
# a change to its peer sampling), and diffs the two outputs with the
# "completed in" timing lines removed. A refactor that claims unchanged
# behaviour must show an empty diff; a change that moves an output shows
# exactly which rows and notes moved. Exits 0 when the outputs are
# identical and 1 when they differ.
#
# Usage: scripts/expdiff.sh <rev>
# Needs bash, git and go. <rev> is unpacked with git archive into a
# temporary directory that is removed on exit.
set -euo pipefail

[ $# -eq 1 ] || { echo "usage: scripts/expdiff.sh <rev>" >&2; exit 2; }
cd "$(git rev-parse --show-toplevel)"
sha=$(git rev-parse --verify "$1^{commit}")

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git archive "$sha" | tar -x -C "$tmp/base"
(cd "$tmp/base" && go build -o "$tmp/coca-bench.base" ./cmd/coca-bench)
go build -o "$tmp/coca-bench.tree" ./cmd/coca-bench

for side in base tree; do
	start=$SECONDS
	{
		"$tmp/coca-bench.$side" -exp all -scale 0.15 -seed 3 2>&1
		"$tmp/coca-bench.$side" -exp churn -scale 1 -seed 3 2>&1
	} | grep -v ' completed in ' >"$tmp/$side.txt"
	echo "expdiff.sh: $side ($([ $side = base ] && echo "${sha:0:12}" || echo "working tree")) ran in $((SECONDS - start))s" >&2
done

if diff -u --label "${sha:0:12}" --label "working tree" "$tmp/base.txt" "$tmp/tree.txt"; then
	echo "expdiff.sh: experiment outputs identical" >&2
	exit 0
fi
exit 1
