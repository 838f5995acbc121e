#!/usr/bin/env bash
# Compares the committed HEAD against another revision on one bench/
# workload, the way a performance claim is judged in this repository:
# N pairs of `bash bench/run.sh -workload W -seed S`, both sides of a pair on
# the same fresh seed, the side that runs first alternating from pair to
# pair. For every end-to-end metric BENCHMARK.json names it prints each
# side's median, the base revision's quartile spread (IQR, quartiles as in
# bench/'s -repeat report), how many pairs HEAD won and lost (ties count for
# neither), and a verdict:
#   gain / loss   at least ten pairs ran, one side won at least nine tenths
#                 of them and the medians differ by more than the base's IQR;
#   over bound    HEAD's median is worse than the base's by more than the
#                 metric's BENCHMARK.json bound;
#   -             neither.
# Then, for the workloads that print the paper's outputs (`output quality.*`
# lines: stream-ref), each output's floor and, per side, its median and its
# lowest run, so a speed claim shows that quality held.
#
# Usage: scripts/ab.sh <rev> [-pairs N] [-workload W]
#   -pairs N      pairs to run (default 10)
#   -workload W   bench/ workload (default stream-ref)
#
# Both sides run from clean `git worktree` checkouts in a temporary
# directory that is removed on exit, so uncommitted changes are not measured.
# Each checkout builds its own benchmark binary once, before the first pair.
# Needs bash, git and jq.
set -euo pipefail

usage() {
	echo "usage: scripts/ab.sh <rev> [-pairs N] [-workload W]" >&2
	exit 2
}

[ $# -ge 1 ] || usage
rev=$1
shift
pairs=10
workload=stream-ref
while [ $# -gt 0 ]; do
	[ $# -ge 2 ] || usage
	case $1 in
	-pairs) pairs=$2 ;;
	-workload) workload=$2 ;;
	*) usage ;;
	esac
	shift 2
done
[[ $pairs =~ ^[1-9][0-9]*$ ]] || usage
command -v jq >/dev/null || { echo "ab.sh: jq not found" >&2; exit 1; }

repo=$(git rev-parse --show-toplevel)
base_sha=$(git -C "$repo" rev-parse --verify "$rev^{commit}")
head_sha=$(git -C "$repo" rev-parse --verify HEAD)
tmp=$(mktemp -d)
cleanup() {
	git -C "$repo" worktree remove --force "$tmp/base" >/dev/null 2>&1 || true
	git -C "$repo" worktree remove --force "$tmp/head" >/dev/null 2>&1 || true
	rm -rf "$tmp"
}
trap cleanup EXIT
git -C "$repo" worktree add --quiet --detach "$tmp/base" "$base_sha"
git -C "$repo" worktree add --quiet --detach "$tmp/head" "$head_sha"
for side in base head; do
	# run.sh builds the binary on first use; -h then only prints the usage.
	(cd "$tmp/$side" && bash bench/run.sh -h) >"$tmp/$side.build.log" 2>&1 || true
done

# Fresh seeds on every invocation: a claim must hold on seeds not used while
# the change was written.
seed0=$((1000 + RANDOM * 32768 + RANDOM))
echo "ab.sh: $workload, $pairs pair(s), seeds $seed0..$((seed0 + pairs - 1));" \
	"base $rev (${base_sha:0:12}), head HEAD (${head_sha:0:12})" >&2

run() { # side pair seed
	local log="$tmp/$1.$2.log" line
	if ! (cd "$tmp/$1" && bash bench/run.sh -workload "$workload" -seed "$3") >"$log" 2>&1; then
		echo "ab.sh: $1 run of pair $2 failed:" >&2
		tail -n 20 "$log" >&2
		exit 1
	fi
	line=$(grep '^{' "$log" | tail -n 1)
	if ! jq -e '.metrics' <<<"$line" >/dev/null 2>&1; then
		echo "ab.sh: $1 run of pair $2 printed no result line:" >&2
		tail -n 20 "$log" >&2
		exit 1
	fi
	jq -c '.' <<<"$line" >>"$tmp/$1.jsonl"
	# "output quality.accuracy_pct 74.8612 % over 9000 frames (floor 73.0)"
	sed -n 's/^output \(quality\.[a-z_]*\) \([-0-9.eE+]*\) % over .*(floor \([-0-9.]*\))$/\1 \2 \3/p' \
		"$log" >>"$tmp/$1.quality"
	echo "ab.sh: pair $2 $1 done (correct: $(jq -r '.correct' <<<"$line"))" >&2
}

for ((i = 0; i < pairs; i++)); do
	seed=$((seed0 + i))
	if ((i % 2 == 0)); then
		run base "$i" "$seed"
		run head "$i" "$seed"
	else
		run head "$i" "$seed"
		run base "$i" "$seed"
	fi
done

defs='
def median: sort | length as $n
  | if $n == 0 then null elif $n % 2 == 1 then .[($n - 1) / 2] else (.[$n / 2 - 1] + .[$n / 2]) / 2 end;
def num: if . == null then "-" else (. * 1000 | round) / 1000 | tostring end;
def pad($n): tostring | if length < $n then . + (" " * ($n - length)) else . end;'

jq -n -r --slurpfile base "$tmp/base.jsonl" --slurpfile head "$tmp/head.jsonl" \
	--slurpfile spec "$repo/BENCHMARK.json" "$defs"'
# Python statistics.quantiles(data, n=4), the default "exclusive" method.
def quartiles: sort as $d | ($d | length) as $ld
  | if $ld < 2 then null else
      [range(1; 4) as $i | ($i * ($ld + 1)) as $im
       | (($im / 4) | floor | if . < 1 then 1 elif . > $ld - 1 then $ld - 1 else . end) as $j
       | ($im - $j * 4) as $delta
       | ($d[$j - 1] * (4 - $delta) + $d[$j] * $delta) / 4]
    end;
def row: [., [18, 6, 7, 12, 12, 9, 10, 12, 0]] | transpose | map(. as [$v, $w] | $v | pad($w)) | join(" ");
($head | length) as $n
| (["metric", "unit", "better", "base median", "head median", "change", "base IQR", "wins/losses", "verdict"] | row),
  ($spec[0].end_to_end[] as $m
   | [$base[] | .metrics[$m.name].value] as $b
   | [$head[] | .metrics[$m.name].value] as $h
   | (if $m.better == "lower" then -1 else 1 end) as $sign
   | ([range(0; $n) | select(($h[.] - $b[.]) * $sign > 0)] | length) as $wins
   | ([range(0; $n) | select(($h[.] - $b[.]) * $sign < 0)] | length) as $losses
   | ($b | median) as $bm | ($h | median) as $hm
   | ($b | quartiles) as $q
   | (if $q == null then null else $q[2] - $q[0] end) as $iqr
   | (if $bm == 0 then null else 100 * ($hm - $bm) / $bm end) as $chg
   | ($n >= 10 and ($hm - $bm | fabs) > $iqr) as $apart
   | (if $apart and $wins >= 0.9 * $n and ($hm - $bm) * $sign > 0 then "gain"
      elif $apart and $losses >= 0.9 * $n and ($hm - $bm) * $sign < 0 then "loss"
      elif $bm != 0 and ($bm - $hm) * $sign / ($bm | fabs) > $m.bound then "over bound"
      else "-" end) as $verdict
   | [$m.name, $m.unit, $m.better, ($bm | num), ($hm | num),
      (if $chg == null then "-" else ($chg | num) + "%" end), ($iqr | num),
      "\($wins)/\($losses)", $verdict] | row),
  "\nincorrect runs: base \($base | map(select(.correct != true)) | length), head \($head | map(select(.correct != true)) | length)"'

if [ -s "$tmp/base.quality" ] || [ -s "$tmp/head.quality" ]; then
	jq -n -r --rawfile base "$tmp/base.quality" --rawfile head "$tmp/head.quality" "$defs"'
def runs: split("\n") | map(select(length > 0) | split(" ")
  | {name: .[0], value: (.[1] | tonumber), floor: (.[2] | tonumber)});
def row: [., [38, 7, 12, 10, 12, 10]] | transpose | map(. as [$v, $w] | $v | pad($w)) | join(" ");
($base | runs) as $b | ($head | runs) as $h
| "",
  (["output", "floor", "base median", "base min", "head median", "head min"] | row),
  ($b + $h | map(.name) | unique[] as $name
   | [$b[] | select(.name == $name)] as $bs
   | [$h[] | select(.name == $name)] as $hs
   | [$name, (($bs + $hs)[0].floor | num),
      ($bs | map(.value) | median | num), ($bs | map(.value) | min | num),
      ($hs | map(.value) | median | num), ($hs | map(.value) | min | num)] | row)'
fi
