#!/usr/bin/env bash
# CI gauntlet: build, test, formatting, lints. Run from anywhere; exits
# non-zero on the first failure. Pass extra cargo flags (e.g. --offline)
# via CARGO_FLAGS.
set -euo pipefail
cd "$(dirname "$0")/.."

CARGO_FLAGS=${CARGO_FLAGS:-}

# Smoke artifacts are gitignored; remove them even when a gate between
# their creation and the explicit cleanup fails. PNA processes from the
# wire smoke are reaped too, so a failed headend never leaks children.
PNA_PIDS=""
HEADEND_PIDS=""
cleanup() {
    for pid in ${PNA_PIDS} ${HEADEND_PIDS}; do
        kill "${pid}" 2>/dev/null || true
    done
    rm -f results/ci-smoke.json results/ci-smoke.trace.jsonl \
        results/ci-smoke.trace.stream.json results/ci-wire-smoke.json \
        results/ci-smoke-bin.json results/ci-smoke-bin.trace.bin \
        results/ci-smoke-bin.trace.jsonl results/ci-smoke-bin.trace.stream.json \
        results/ci-top.json results/ci-help.txt results/ci-autoscale.json \
        results/ci-failover-primary.json results/ci-failover-standby.json \
        results/ci-failover-pna-201.json results/ci-failover-pna-202.json \
        results/ci-failover-pna-203.json results/ci-soak.json
    rm -rf results/ci-failover-snap
}
trap cleanup EXIT

run() {
    echo "==> $*"
    "$@"
}

run cargo build --release ${CARGO_FLAGS}
run cargo test -q ${CARGO_FLAGS}
run cargo fmt --check
run cargo clippy --workspace --all-targets ${CARGO_FLAGS} -- -D warnings

# Documentation gate: every intra-doc link must resolve and every public
# item stay documented; warnings are promoted to errors.
run env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps ${CARGO_FLAGS}

# Concurrency gates: the workspace lint (raw-lock ban, telemetry phase
# vocabulary, no unwrap in live hot paths) must be clean, and a bounded
# model-check over the scaled-down headend scenarios must find every
# seeded bug and none in the fixed protocols — including the autoscale
# trim race (scale-down-vs-heartbeat and its seeded-bug twin). Fixed
# seed, bounded schedules: deterministic and well under 30 s.
run cargo run -q --release ${CARGO_FLAGS} -p oddci-check --bin oddci-check -- lint
run cargo run -q --release ${CARGO_FLAGS} -p oddci-check --bin oddci-check -- \
    model --seed 11 --schedules 400

# Streamed-trace smoke: run one small scenario with the streaming sink
# attached, then let schema_check validate the streamed JSONL + Chrome
# artifacts alongside the metrics envelopes.
run cargo run -q --release ${CARGO_FLAGS} -p oddci-cli --bin oddci -- trace \
    --scenario small --seed 7 \
    --out results/ci-smoke.json --stream results/ci-smoke.trace.jsonl

# Binary-trace round trip: stream the same scenario through the binary
# sink (must drop nothing), convert the artifact back to JSONL + Chrome
# offline, then let schema_check validate the binary header alongside
# the converted text artifacts.
run cargo run -q --release ${CARGO_FLAGS} -p oddci-cli --bin oddci -- trace \
    --scenario small --seed 7 --binary \
    --out results/ci-smoke-bin.json --stream results/ci-smoke-bin.trace.bin
run cargo run -q --release ${CARGO_FLAGS} -p oddci-cli --bin oddci -- trace \
    convert results/ci-smoke-bin.trace.bin
run cargo run -q --release ${CARGO_FLAGS} -p oddci-bench --bin schema_check

ODDCI_BIN=target/release/oddci

# Soak smoke: the default sharded in-process headend (several controller
# shards and dispatch workers, release build) serves 40000 tasks through
# the shared Backend ledger; every task must be in a ledger at shutdown
# and no headend thread may have panicked.
echo "==> soak smoke: sharded headend, 8 nodes, 40000 tasks"
"${ODDCI_BIN}" soak --nodes 8 --queries 40000 --json > results/ci-soak.json
python3 - <<'EOF'
import json
with open("results/ci-soak.json") as f:
    soak = json.load(f)
assert soak["mode"] == "sharded", soak
assert soak["tasks_unaccounted"] == 0, soak
assert soak["threads_failed"] == 0, soak
print("    soak smoke: {} shards x {} dispatch workers, {} tasks, none unaccounted".format(
    soak["shards"], soak["dispatch"], soak["queries"]))
EOF

# Wire smoke: one real multi-process run of the socket-backed live plane —
# a headend process plus three PNA processes complete an alignment job
# over loopback TCP, and the headend's accounting must balance exactly.
WIRE_PORT=${WIRE_PORT:-7841}
echo "==> wire smoke: headend + 3 pna processes on 127.0.0.1:${WIRE_PORT}"
"${ODDCI_BIN}" headend --listen "127.0.0.1:${WIRE_PORT}" \
    --pnas 3 --target 3 --queries 9 --timeout 60 --json \
    > results/ci-wire-smoke.json &
HEADEND_PID=$!
sleep 1
# Live-stats smoke: poll the running headend's metrics plane over the
# same socket. StatsQuery is answered without a Hello handshake, so the
# monitoring connection never consumes a node identity.
"${ODDCI_BIN}" top --connect "127.0.0.1:${WIRE_PORT}" --count 1 --json \
    > results/ci-top.json
python3 - <<'EOF'
import json
with open("results/ci-top.json") as f:
    snap = json.load(f)
assert snap["registry"]["counters"], snap
print("    live stats: non-empty metrics registry from the running headend")
EOF
for seed in 101 102 103; do
    "${ODDCI_BIN}" pna --connect "127.0.0.1:${WIRE_PORT}" --seed "${seed}" \
        > /dev/null &
    PNA_PIDS="${PNA_PIDS} $!"
done
wait "${HEADEND_PID}"
for pid in ${PNA_PIDS}; do
    wait "${pid}"
done
PNA_PIDS=""
python3 - <<'EOF'
import json
with open("results/ci-wire-smoke.json") as f:
    report = json.load(f)
assert report["tasks_completed"] == 9, report
assert report["tasks_unaccounted"] == 0, report
assert report["threads_failed"] == 0, report
assert report["wire"]["multi_chunk_tx"] >= 1, report
assert report["wire"]["checksum_rejects"] == 0, report
print("    wire smoke: 9 tasks over loopback, accounting balanced")
EOF

# Failover smoke: a snapshotting primary plus three reconnecting PNAs;
# SIGKILL the primary mid-job (no goodbye — the listener just dies),
# boot a standby from the latest snapshot on the same port, and require
# the job to finish with zero tasks lost and every PNA re-acked at the
# bumped fencing epoch.
FAILOVER_PORT=${FAILOVER_PORT:-7842}
FAILOVER_SNAP=results/ci-failover-snap
rm -rf "${FAILOVER_SNAP}"
echo "==> failover smoke: SIGKILL primary, standby adoption on 127.0.0.1:${FAILOVER_PORT}"
# The library is sized so the job outlives the kill below: with 500 kB a
# 2-core box finished all 96 queries in about 0.35 s, before the kill
# landed, and the standby then had no job in flight to adopt.
"${ODDCI_BIN}" headend --listen "127.0.0.1:${FAILOVER_PORT}" \
    --pnas 3 --target 3 --queries 96 --db-len 4000000 --timeout 60 \
    --snapshot-dir "${FAILOVER_SNAP}" --snapshot-interval-ms 50 --json \
    > results/ci-failover-primary.json &
HEADEND_PIDS="$!"
for seed in 201 202 203; do
    "${ODDCI_BIN}" pna --connect "127.0.0.1:${FAILOVER_PORT}" --seed "${seed}" \
        --reconnect-ms 30000 --json > "results/ci-failover-pna-${seed}.json" &
    PNA_PIDS="${PNA_PIDS} $!"
done
# Pull the plug only once a snapshot exists (otherwise there is nothing
# to adopt) and a beat of work has flowed through the instance.
for _ in $(seq 1 100); do
    [ -f "${FAILOVER_SNAP}/headend.snap" ] && break
    sleep 0.05
done
sleep 0.4
kill -9 ${HEADEND_PIDS} || true
wait ${HEADEND_PIDS} 2>/dev/null || true
HEADEND_PIDS=""
"${ODDCI_BIN}" headend --listen "127.0.0.1:${FAILOVER_PORT}" \
    --standby "${FAILOVER_SNAP}" --pnas 3 --timeout 60 --json \
    > results/ci-failover-standby.json
for pid in ${PNA_PIDS}; do
    wait "${pid}"
done
PNA_PIDS=""
python3 - <<'EOF'
import json
with open("results/ci-failover-standby.json") as f:
    standby = json.load(f)
assert standby["epoch"] == 1, standby
assert standby["adopted_jobs"] >= 1, standby
assert standby["tasks_completed"] == 96, standby
assert standby["tasks_unaccounted"] == 0, standby
assert standby["threads_failed"] == 0, standby
for seed in (201, 202, 203):
    with open(f"results/ci-failover-pna-{seed}.json") as f:
        pna = json.load(f)
    assert pna["epoch"] == 1, (seed, pna)
# The snapshot the headend processes published is in the current
# container format ("OSNP", version 2 as a little-endian u16): the CLI
# binaries, not only the library under test, write it.
with open("results/ci-failover-snap/headend.snap", "rb") as f:
    head = f.read(6)
assert head[:4] == b"OSNP", head
assert int.from_bytes(head[4:6], "little") == 2, head
print("    failover smoke: standby adopted at epoch 1, 96 tasks, none lost, OSNP v2")
EOF
rm -rf "${FAILOVER_SNAP}"

# Autoscale smoke: the elastic-sizing drill on a fixed seed. The drill
# submits one backlog at the minimum instance size and fails by itself
# unless the reconciler scaled up at least once, trimmed back down at
# least once, replaced the revoked membership, and lost no work; the
# assertions below re-check that verdict from the JSON artifact so CI
# output records the evidence, not just the exit code.
echo "==> autoscale smoke: elastic drill, spot-like revocation, fixed seed"
"${ODDCI_BIN}" autoscale --seed 42 --json > results/ci-autoscale.json
python3 - <<'EOF'
import json
with open("results/ci-autoscale.json") as f:
    drill = json.load(f)
assert drill["scale_ups"] >= 1, drill
assert drill["scale_downs"] >= 1, drill
assert drill["tasks_lost"] == 0, drill
assert drill["tasks_unaccounted"] == 0, drill
assert drill["threads_failed"] == 0, drill
assert drill["tasks_completed"] == drill["queries"], drill
print(
    "    autoscale smoke: {} up / {} down / {} replace, "
    "{} tasks, none lost".format(
        drill["scale_ups"], drill["scale_downs"],
        drill["replacements"], drill["tasks_completed"],
    )
)
EOF

# Docs gates: every relative markdown cross-reference must resolve, and
# every `--flag` the operator runbook documents must exist in `oddci
# help` (so the runbook cannot drift from the CLI).
echo "==> docs: markdown link check + runbook flag check"
"${ODDCI_BIN}" help > results/ci-help.txt
python3 - <<'EOF'
import os, re

bad = []
for root, dirs, files in os.walk("."):
    dirs[:] = [d for d in dirs if d not in (".git", "target", "vendor", "results")]
    for name in files:
        if not name.endswith(".md"):
            continue
        path = os.path.join(root, name)
        with open(path, encoding="utf-8") as f:
            text = f.read()
        for m in re.finditer(r"\[[^\]]*\]\(([^)\s]+)\)", text):
            target = m.group(1)
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            target = target.split("#", 1)[0]
            if not target:
                continue
            resolved = os.path.normpath(os.path.join(os.path.dirname(path), target))
            if not os.path.exists(resolved):
                bad.append(f"{path}: broken link -> {m.group(1)}")
assert not bad, "\n".join(bad)
print("    docs: every relative markdown link resolves")

with open("results/ci-help.txt", encoding="utf-8") as f:
    known = set(re.findall(r"--[a-z][a-z0-9-]*", f.read()))
# Cargo's own flags show up in runbook build/test instructions.
known |= {"--release", "--offline", "--workspace"}
with open("OPERATIONS.md", encoding="utf-8") as f:
    ops = f.read()
# Link targets (e.g. anchors like `#6-durability--failover`) are not
# documented flags — drop them before scanning.
ops = re.sub(r"\]\([^)]*\)", "]", ops)
missing = sorted({f for f in re.findall(r"--[a-z][a-z0-9-]*", ops) if f not in known})
assert not missing, f"OPERATIONS.md documents flags `oddci help` does not know: {missing}"
print(f"    docs: every OPERATIONS.md flag appears in `oddci help`")
EOF

echo "==> CI green"
