#!/usr/bin/env bash
# The repo's tier-1 gate, runnable locally and from CI:
#   build, tests, static analysis, formatting, lints.
set -euo pipefail
cd "$(dirname "$0")/.."

# Every scratch file lives in one directory, removed (and the daemon
# stopped, if it is still up) however the script exits.
work="$(mktemp -d)"
serve_pid=""
cleanup() {
    if [ -n "$serve_pid" ]; then
        kill "$serve_pid" 2>/dev/null || true
    fi
    rm -rf "$work"
}
trap cleanup EXIT

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q --workspace"
# The root package is a workspace member, so this also runs every file
# under tests/: the chain and audit equivalence gates and the frozen
# goldens (tests/core_goldens.rs).
cargo test -q --workspace

echo "==> symcosim-lint --all --json"
cargo run --release -p symcosim-lint -- --all --json > /dev/null

echo "==> symcosim-lint --dataflow (absint findings)"
# The dataflow pass must come back clean: no statically-dead branches on
# live paths.
cargo run --release -p symcosim-lint -- --dataflow --json > "$work/dataflow.json"
grep -q '"schema": "symcosim-lint/1"' "$work/dataflow.json"
grep -q '"dead_branches": \[\]' "$work/dataflow.json"

echo "==> coverage certificate + proof audit (BRANCH slice, both surfaces)"
# The run certifies itself in-process (--certify exits 1 on any
# uncovered word or double-claimed path; --audit exits 1 if the
# independent checker rejects any solver answer), dumps the
# symcosim-report/1 and symcosim-audit/1 documents, and symcosim-lint
# re-derives the certificate and re-verifies the proof artifact offline.
# --no-preflight keeps the UNSAT queries on the SAT core so the audit
# artifact retains replayable conflict cones; with the preflight on the
# lattice answers them statically and the artifact is (correctly) empty.
cargo run --release -p symcosim-core --bin symcosim-cli -- \
    verify --rv32i-only --opcode 0x63 --certify --audit --no-preflight \
    --report-json "$work/report.json" --audit-json "$work/audit.json" > /dev/null
cargo run --release -p symcosim-lint -- --coverage "$work/report.json" > /dev/null
cargo run --release -p symcosim-lint -- --audit "$work/audit.json" > /dev/null
# A tampered artifact must be rejected (exit 1, structured findings):
# stripping the assumption cores leaves every conflict cone unable to
# re-derive its conflict.
sed -z 's/"core": \[[^]]*\]/"core": []/g' "$work/audit.json" > "$work/tampered.json"
if cargo run --release -p symcosim-lint -- --audit "$work/tampered.json" > /dev/null 2>&1; then
    echo "symcosim-lint --audit accepted a tampered artifact"; exit 1
fi

echo "==> serve smoke (daemon round-trip: audited submit, merge, certify, shutdown)"
# Boot the daemon on an ephemeral port, submit a sharded audited BRANCH
# job over localhost, verify the merged certificate the service hands
# back plus the auditor's counters in the status, and shut down cleanly.
# Everything is bounded by `timeout` so a wedged daemon fails the gate
# instead of hanging it.
serve_bin=target/release/symcosim-serve
cargo build --release -p symcosim-serve --bin symcosim-serve
timeout 300 "$serve_bin" --addr 127.0.0.1:0 --workers 2 \
    --port-file "$work/addr" &
serve_pid=$!
for _ in $(seq 100); do
    [ -s "$work/addr" ] && break
    kill -0 "$serve_pid" 2>/dev/null || { echo "serve: daemon died before binding"; exit 1; }
    sleep 0.1
done
serve_addr="$(cat "$work/addr")"
serve_client() { timeout 120 "$serve_bin" client --addr "$serve_addr" "$@"; }
job="$(serve_client submit --opcode 99 --slices 2 --audit)"
serve_client wait "$job" --timeout-secs 120 > "$work/status"
grep -q '"state": "done"' "$work/status"
grep -q '"verdict": "complete"' "$work/status"
grep -q '"audit_failures": 0' "$work/status"
if grep -q '"audit_steps": 0' "$work/status"; then
    echo "serve: audited job re-checked no proof steps"; exit 1
fi
serve_client cert "$job" > "$work/cert"
grep -q '"schema": "symcosim-cert/1"' "$work/cert"
grep -q '"verdict": "complete"' "$work/cert"
serve_client shutdown > /dev/null
wait "$serve_pid"
serve_pid=""

echo "==> e2e benchmark smoke (metric contract + pinned report digests)"
# The benchmark is a package of its own, outside the workspace, so the
# workspace test run above does not build it.
cargo test --release --manifest-path e2e-bench/Cargo.toml

echo "==> solver --smoke (gates chain-on == chain-off reports)"
# On GitHub Actions the document lands in the runner's temp directory,
# where the workflow's artifact upload picks it up.
cargo run --release -p symcosim-bench --bin solver -- --smoke \
    --out "${RUNNER_TEMP:-$work}/BENCH_solver.json"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> ci OK"
