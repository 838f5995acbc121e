#!/usr/bin/env bash
# Prints the non-test Go and assembly lines of every package outside bench/:
# the size ROADMAP's aim 2 tracks and each change reports. One row per
# directory, then the total. The working tree is counted: tracked files and
# untracked ones git does not ignore, so an uncommitted change shows too.
# With <rev>, each row also shows that revision's count and the change from
# it; a package that exists on one side only counts 0 on the other.
#
# Usage: scripts/loc.sh [<rev>]
# Needs bash, git and awk.
set -euo pipefail

[ $# -le 1 ] || { echo "usage: scripts/loc.sh [<rev>]" >&2; exit 2; }
cd "$(git rev-parse --show-toplevel)"

# counted keeps the paths that count: .go and .s files, no tests, no bench/.
counted() {
	grep -E '\.(go|s)$' | grep -v '_test\.go$' | grep -v '^bench/' || true
}

# per_dir turns "lines path" rows into "dir<TAB>lines" sums.
per_dir() {
	awk '{ n = split($2, p, "/"); d = "."; if (n > 1) { d = p[1]; for (i = 2; i < n; i++) d = d "/" p[i] }
		sum[d] += $1 } END { for (d in sum) printf "%s\t%d\n", d, sum[d] }'
}

tree_counts() {
	git ls-files --cached --others --exclude-standard | counted |
		while read -r f; do
			[ -f "$f" ] && printf '%d %s\n' "$(wc -l <"$f")" "$f"
		done | per_dir
}

rev_counts() {
	git ls-tree -r --name-only "$1" | counted |
		while read -r f; do
			printf '%d %s\n' "$(git show "$1:$f" | wc -l)" "$f"
		done | per_dir
}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
tree_counts >"$tmp/head"
if [ $# -eq 0 ]; then
	sort "$tmp/head" | awk -F'\t' '{ printf "%-28s %7d\n", $1, $2; t += $2 }
		END { printf "%-28s %7d\n", "total", t }'
	exit 0
fi
rev=$(git rev-parse --verify "$1^{commit}")
rev_counts "$rev" >"$tmp/base"
awk -F'\t' 'FNR == NR { base[$1] = $2; seen[$1] = 1; next } { head[$1] = $2; seen[$1] = 1 }
	END { for (d in seen) print d "\t" head[d] + 0 "\t" base[d] + 0 }' "$tmp/base" "$tmp/head" |
	sort | awk -F'\t' -v rev="${rev:0:7}" '
	BEGIN { printf "%-28s %7s %7s %7s\n", "package", "lines", rev, "delta" }
	{ printf "%-28s %7d %7d %+7d\n", $1, $2, $3, $2 - $3; h += $2; b += $3 }
	END { printf "%-28s %7d %7d %+7d\n", "total", h, b, h - b }'
