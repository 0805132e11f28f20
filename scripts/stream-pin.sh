#!/usr/bin/env bash
# stream-pin.sh regenerates a fixed set of baexp reports and checks their
# sha256 against testdata/stream-pin.sha256. The reports draw on every
# adversary random stream (strategy plans, proposals, per-message coins,
# fuzz mutations, the matrix's Byzantine machines), so a change that
# moves any stream fails here and has to land as a visible re-baseline
# commit that rewrites the pin.
#
# Usage:
#   scripts/stream-pin.sh          # build ./cmd/baexp and check
#   scripts/stream-pin.sh -update  # rewrite the pin (re-baseline)
set -euo pipefail

repo=$(cd "$(dirname "$0")/.." && pwd)
pin="$repo/testdata/stream-pin.sha256"
update=0
if [ "${1:-}" = "-update" ]; then
	update=1
fi

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
baexp="$work/baexp"
(cd "$repo" && go build -o "$baexp" ./cmd/baexp)

cd "$work"
"$baexp" hunt -proto floodset -n 16 -t 3 -strategy random-omission -seeds 0:200 -json > hunt-random-omission.json
"$baexp" hunt -proto floodset -n 16 -t 3 -strategy silent-crash -seeds 0:200 -json > hunt-silent-crash.json
"$baexp" fuzz -n 4 -t 3 -budget 768 -corpus fuzz.corpus.json -json > fuzz.json
"$baexp" matrix -sizes 4:1,5:1 -seeds 0:8 -json > matrix.json

files=(hunt-random-omission.json hunt-silent-crash.json fuzz.json fuzz.corpus.json matrix.json)
if [ "$update" = 1 ]; then
	sha256sum "${files[@]}" > "$pin"
	echo "stream-pin: wrote $pin"
else
	sha256sum -c "$pin"
fi
