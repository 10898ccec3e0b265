#!/usr/bin/env bash
# known-red.sh RUNS [REF]: the known-red rates by one protocol. Each test in
# scripts/known-red.txt runs RUNS times in two modes: unloaded (one test
# process at a time) and loaded (built with -race, two busy loops running
# beside it). Per test, mode and side it prints the fail count, the panic
# count and the failures by signature class. REF, a second checkout of the
# repository, adds a second side: every run goes to both, the side that
# goes first alternating from run to run.
set -u
runs=${1:-10}
ref=${2:-}
head=$(cd "$(dirname "$0")/.." && pwd)
list=$head/scripts/known-red.txt
work=$(mktemp -d)
busy=()
stop_busy() {
	if [ ${#busy[@]} -gt 0 ]; then kill "${busy[@]}" 2>/dev/null; wait "${busy[@]}" 2>/dev/null; fi
	busy=()
}
trap 'stop_busy; rm -rf "$work"' EXIT

sides=(head)
declare -A root=([head]=$head)
if [ -n "$ref" ]; then
	sides+=(ref)
	root[ref]=$(cd "$ref" && pwd)
fi

# classify names the signature of a failed run from its output.
classify() {
	if grep -q -e 'two live tokens' -e 'servicing without token' -e 'simultaneous CS holders' -e 'token regenerations' "$1"; then
		echo two-live-tokens
	elif grep -q -e 'messages across the crash' -e 'stream lost' -e 'lost or double-applied' -e 'prefix order violated' "$1"; then
		echo resync-hole
	elif grep -q -e 'did not drain' "$1"; then
		echo did-not-drain
	elif grep -q -e 'grants over' -e 'CS entry' -e 'entered the critical section' "$1"; then
		echo missing-grant
	else
		echo other
	fi
}

# bin builds (once) and names the test binary of package pkg on side s in
# mode m.
bin() {
	local s=$1 pkg=$2 m=$3 out flags=()
	out=$work/$s-$(echo "$pkg" | tr -c 'a-zA-Z0-9\n' _)-$m.test
	[ "$m" = loaded ] && flags=(-race)
	if [ ! -x "$out" ]; then
		(cd "${root[$s]}" && go test "${flags[@]}" -c -o "$out" "$pkg") >&2 || return 1
	fi
	echo "$out"
}

declare -A fails panics classes
grep -v -e '^#' -e '^$' "$list" > "$work/list"
for mode in unloaded loaded; do
	if [ "$mode" = loaded ]; then
		for _ in 1 2; do (while :; do :; done) & busy+=($!); done
	fi
	while read -r pkg name; do
		for ((i = 0; i < runs; i++)); do
			order=("${sides[@]}")
			if [ ${#sides[@]} -eq 2 ] && [ $((i % 2)) -eq 1 ]; then order=(ref head); fi
			for s in "${order[@]}"; do
				b=$(bin "$s" "$pkg" "$mode") || exit 1
				key="$name $mode $s"
				out=$work/out
				(cd "${root[$s]}/$pkg" && "$b" -test.run "^$name\$" -test.count 1 -test.timeout 10m) > "$out" 2>&1
				rc=$?
				: "${fails[$key]:=0}" "${panics[$key]:=0}" "${classes[$key]:=}"
				grep -q '^panic:' "$out" && panics[$key]=$((panics[$key] + 1))
				if [ $rc -ne 0 ]; then
					fails[$key]=$((fails[$key] + 1))
					classes[$key]+=" $(classify "$out")"
				fi
			done
		done
	done < "$work/list"
	stop_busy
done

printf '%-38s %-8s %-4s %6s %6s  %s\n' test mode side fails panics classes
while read -r pkg name; do
	for mode in unloaded loaded; do
		for s in "${sides[@]}"; do
			key="$name $mode $s"
			cls=$(for c in ${classes[$key]}; do echo "$c"; done | sort | uniq -c | awk '{printf "%s:%s ", $2, $1}')
			printf '%-38s %-8s %-4s %3d/%-2d %6d  %s\n' "$name" "$mode" "$s" "${fails[$key]}" "$runs" "${panics[$key]}" "$cls"
		done
	done
done < "$work/list"
