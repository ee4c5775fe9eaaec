#!/bin/sh
# covgate.sh — coverage ratchet for the packages the property harness
# leans on. Fails if statement coverage of the ledger, contract runtime
# or token contracts drops below the post-harness baseline; raise a
# floor when coverage improves, never lower one to make CI pass.
set -eu

cd "$(dirname "$0")/.."
GO="${GO:-go}"

# Floors sit one point under the measured baseline (ledger 94.1,
# contract 84.2, token 76.6, semantic 84.3, vm 84.8) to absorb
# formatting-level churn while still catching any real regression.
check() {
	pkg="$1"
	floor="$2"
	line=$("$GO" test -cover "./internal/$pkg/" | tail -n 1)
	case "$line" in
	ok*coverage:*) ;;
	*)
		echo "covgate: $pkg tests failed: $line" >&2
		exit 1
		;;
	esac
	pct=$(printf '%s\n' "$line" | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p')
	if [ -z "$pct" ]; then
		echo "covgate: could not parse coverage from: $line" >&2
		exit 1
	fi
	# Integer compare on tenths of a percent keeps this POSIX-sh only.
	got=$(printf '%s' "$pct" | awk '{printf "%d", $1 * 10}')
	want=$(printf '%s' "$floor" | awk '{printf "%d", $1 * 10}')
	if [ "$got" -lt "$want" ]; then
		echo "covgate: internal/$pkg coverage $pct% is below the $floor% floor" >&2
		exit 1
	fi
	echo "covgate: internal/$pkg $pct% (floor $floor%)"
}

check ledger 93.1
check contract 83.2
check token 75.6
check semantic 83.3
check vm 83.8
