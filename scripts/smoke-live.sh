#!/usr/bin/env bash
# smoke-live.sh boots a real 2-shard, 6-process ringnode cluster through
# the orchestrator (cmd/ringload): port allocation, ring wiring and
# readiness are the orchestrator's job — no hand-rolled sleeps or
# hardcoded port ranges. ringload writes a manifest of live endpoints as
# soon as every /healthz answers; while the synchronized open-loop load
# window runs, the smoke curls each node's /healthz, scrapes /metrics for
# the expected Prometheus series (token traffic, responsiveness
# histogram, shard labels with a cross-shard leak check), and pulls a
# 1-second CPU profile from /debug/pprof/profile. ringload itself then
# asserts the hard invariants — clean staged shutdown, no leaked timers,
# no cross-process mutual-exclusion violations, nonzero completed
# sessions — via its exit status. Run via `make smoke-live`.
set -euo pipefail

GO=${GO:-go}
tmp=$(mktemp -d)
ringload_pid=""

cleanup() {
	if [ -n "$ringload_pid" ]; then
		kill "$ringload_pid" 2>/dev/null || true
	fi
	rm -rf "$tmp"
}
trap cleanup EXIT

$GO build -o "$tmp/ringnode" ./cmd/ringnode
$GO build -o "$tmp/ringload" ./cmd/ringload

"$tmp/ringload" -n 6 -shards 2 -rate 20 -duration 12s -hold 1ms -seed 1 \
	-node-bin "$tmp/ringnode" \
	-manifest "$tmp/manifest.json" -out "$tmp/bench.json" \
	>"$tmp/ringload.out" 2>"$tmp/ringload.log" &
ringload_pid=$!

# The manifest appears (atomically, via rename) once every node's
# /healthz has answered — that is the readiness barrier.
deadline=$((SECONDS + 60))
while [ ! -s "$tmp/manifest.json" ]; do
	if ! kill -0 "$ringload_pid" 2>/dev/null; then
		echo "smoke-live: ringload exited before the cluster became ready" >&2
		sed 's/^/ringload | /' "$tmp/ringload.log" >&2 || true
		exit 1
	fi
	if [ "$SECONDS" -ge "$deadline" ]; then
		echo "smoke-live: cluster never became ready" >&2
		exit 1
	fi
	sleep 0.2
done

# Pull each node's metrics address and shard out of the manifest. The
# format is stable JSON (one key per line); no jq dependency needed.
mapfile -t maddrs < <(grep -o '"metrics": "[^"]*"' "$tmp/manifest.json" | cut -d'"' -f4)
mapfile -t nshards < <(grep -o '"shard": [0-9]*' "$tmp/manifest.json" | awk '{print $2}')
if [ "${#maddrs[@]}" -ne 6 ] || [ "${#nshards[@]}" -ne 6 ]; then
	echo "smoke-live: manifest lists ${#maddrs[@]} nodes / ${#nshards[@]} shards, want 6" >&2
	cat "$tmp/manifest.json" >&2
	exit 1
fi
echo "smoke-live: cluster ready — ${maddrs[*]}"

status=0

# curl_retry URL PATTERN: scrape URL until PATTERN appears (the load
# window needs a moment to generate traffic) or the deadline passes.
curl_retry() {
	local url=$1 pattern=$2 deadline=$((SECONDS + 15)) body=""
	while [ "$SECONDS" -lt "$deadline" ]; do
		body=$(curl -fsS --max-time 2 "$url" 2>/dev/null || true)
		if printf '%s' "$body" | grep -q "$pattern"; then
			return 0
		fi
		sleep 0.2
	done
	echo "smoke-live: $url never matched $pattern" >&2
	return 1
}

# Probe the live cluster while load is flowing: health, a live CPU
# profile (started early, while every node is guaranteed alive), then
# the Prometheus series each node must expose — token traffic and the
# responsiveness histogram, always carrying the node's own shard label
# and never the other shard's (the rings are disjoint).
for m in "${maddrs[@]}"; do
	curl_retry "http://$m/healthz" "^ok$" || status=1
done
curl -fsS --max-time 10 -o "$tmp/profile.pb.gz" \
	"http://${maddrs[0]}/debug/pprof/profile?seconds=1" &
profile_pid=$!
for i in "${!maddrs[@]}"; do
	m=${maddrs[$i]} shard=${nshards[$i]}
	curl_retry "http://$m/metrics" "adaptivetoken_messages_total{kind=\"token\",shard=\"$shard\"}" || status=1
	curl_retry "http://$m/metrics" '^# TYPE adaptivetoken_responsiveness_time_units histogram$' || status=1
	other=$((1 - shard))
	if curl -fsS --max-time 2 "http://$m/metrics" | grep -q "shard=\"$other\""; then
		echo "smoke-live: node $i (shard $shard) metrics leak shard $other labels" >&2
		status=1
	fi
done
if ! wait "$profile_pid" || [ ! -s "$tmp/profile.pb.gz" ]; then
	echo "smoke-live: /debug/pprof/profile fetch failed" >&2
	status=1
fi

# The orchestrator's own verdict: nonzero on any node exiting dirty
# (leaked timers, guard violations), census violations, or zero
# completed sessions.
if ! wait "$ringload_pid"; then
	status=1
fi
ringload_pid=""
sed 's/^/ringload | /' "$tmp/ringload.out"

# The aggregated record must show real work: grants reported by the
# fleet ("grants" appears exactly once — the cluster-wide sum).
grants=$(grep -o '"grants": [0-9]*' "$tmp/bench.json" | head -1 | awk '{print $2}')
if [ -z "$grants" ] || [ "$grants" -eq 0 ]; then
	echo "smoke-live: aggregated record shows no grants" >&2
	status=1
fi

if [ "$status" -ne 0 ]; then
	sed 's/^/ringload | /' "$tmp/ringload.log" >&2 || true
	echo "smoke-live: FAIL" >&2
	exit 1
fi
echo "smoke-live: ok ($grants grants across the fleet)"
