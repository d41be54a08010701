#!/usr/bin/env bash
# The repo's tier-1 gate, runnable locally and from CI:
#   build, tests, static analysis, formatting, lints.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q --workspace"
# The root package is a workspace member, so this also runs every file
# under tests/: the merge, chain and audit equivalence gates and the
# frozen goldens (tests/core_goldens.rs).
cargo test -q --workspace

echo "==> symcosim-lint --all --json"
cargo run --release -p symcosim-lint -- --all --json > /dev/null

echo "==> symcosim-lint --dataflow --merge-report (absint findings + merge lint)"
# The dataflow pass must come back clean (no statically-dead branches on
# live paths) and the merge-opportunity analysis must keep proving at
# least one sibling group disjoint from its diverging fetch-slot bits.
dataflow_json="$(mktemp)"
cargo run --release -p symcosim-lint -- --dataflow --merge-report --json > "$dataflow_json"
grep -q '"schema": "symcosim-lint/1"' "$dataflow_json"
grep -q '"dead_branches": \[\]' "$dataflow_json"
if grep -q '"mergeable_groups": 0,' "$dataflow_json"; then
    echo "merge report proved no sibling group mergeable"; rm -f "$dataflow_json"; exit 1
fi
rm -f "$dataflow_json"

echo "==> coverage certificate + proof audit (BRANCH slice, both surfaces)"
# The run certifies itself in-process (--certify exits 1 on any
# uncovered word or double-claimed path; --audit exits 1 if the
# independent checker rejects any solver answer), dumps the
# symcosim-report/1 and symcosim-audit/1 documents, and symcosim-lint
# re-derives the certificate and re-verifies the proof artifact offline.
report_json="$(mktemp)"
audit_json="$(mktemp)"
trap 'rm -f "$report_json" "$audit_json"' EXIT
# --no-preflight keeps the UNSAT queries on the SAT core so the audit
# artifact retains replayable conflict cones; with the preflight on the
# lattice answers them statically and the artifact is (correctly) empty.
cargo run --release -p symcosim-core --bin symcosim-cli -- \
    verify --rv32i-only --opcode 0x63 --certify --audit --no-preflight \
    --report-json "$report_json" --audit-json "$audit_json" > /dev/null
cargo run --release -p symcosim-lint -- --coverage "$report_json" > /dev/null
cargo run --release -p symcosim-lint -- --audit "$audit_json" > /dev/null
# A tampered artifact must be rejected (exit 1, structured findings):
# stripping the assumption cores leaves every conflict cone unable to
# re-derive its conflict.
tampered_json="$(mktemp)"
sed -z 's/"core": \[[^]]*\]/"core": []/g' "$audit_json" > "$tampered_json"
if cargo run --release -p symcosim-lint -- --audit "$tampered_json" > /dev/null 2>&1; then
    echo "symcosim-lint --audit accepted a tampered artifact"; rm -f "$tampered_json"; exit 1
fi
rm -f "$tampered_json"

echo "==> state merging (merged limit-2 BRANCH certificate gate + limit-4 smoke)"
# The merged limit-2 BRANCH sweep must certify complete and its report
# must be byte-identical to the unmerged run — merging changes which
# physical states execute, never what is recorded (DESIGN.md §16).
merge_on_json="$(mktemp)"
merge_off_json="$(mktemp)"
trap 'rm -f "$report_json" "$audit_json" "$merge_on_json" "$merge_off_json"' EXIT
cargo run --release -p symcosim-core --bin symcosim-cli -- \
    verify --rv32i-only --opcode 0x63 --limit 2 --certify \
    --report-json "$merge_on_json" > /dev/null
cargo run --release -p symcosim-core --bin symcosim-cli -- \
    verify --rv32i-only --opcode 0x63 --limit 2 --certify --no-merge \
    --report-json "$merge_off_json" > /dev/null
cmp "$merge_on_json" "$merge_off_json" || {
    echo "merged limit-2 BRANCH report differs from the unmerged run"; exit 1; }
rm -f "$merge_on_json" "$merge_off_json"
# Limit-4 smoke: the merged deep sweep must run (paths-capped — the
# full certified sweep lives in EXPERIMENTS.md, not the gate).
cargo run --release -p symcosim-core --bin symcosim-cli -- \
    verify --rv32i-only --opcode 0x63 --limit 4 --paths 300 > /dev/null

echo "==> serve smoke (daemon round-trip: audited submit, merge, certify, shutdown)"
# Boot the daemon on an ephemeral port, submit a sharded audited BRANCH
# job over localhost, verify the merged certificate the service hands
# back plus the auditor's counters in the status, and shut down cleanly.
# Everything is bounded by `timeout` so a wedged daemon fails the gate
# instead of hanging it.
serve_dir="$(mktemp -d)"
serve_bin=target/release/symcosim-serve
cargo build --release -p symcosim-serve --bin symcosim-serve
timeout 300 "$serve_bin" --addr 127.0.0.1:0 --workers 2 \
    --port-file "$serve_dir/addr" &
serve_pid=$!
trap 'rm -f "$report_json"; rm -rf "$serve_dir"; kill "$serve_pid" 2>/dev/null || true' EXIT
for _ in $(seq 100); do
    [ -s "$serve_dir/addr" ] && break
    kill -0 "$serve_pid" 2>/dev/null || { echo "serve: daemon died before binding"; exit 1; }
    sleep 0.1
done
serve_addr="$(cat "$serve_dir/addr")"
serve_client() { timeout 120 "$serve_bin" client --addr "$serve_addr" "$@"; }
job="$(serve_client submit --opcode 99 --slices 2 --audit)"
serve_client wait "$job" --timeout-secs 120 > "$serve_dir/status"
grep -q '"state": "done"' "$serve_dir/status"
grep -q '"verdict": "complete"' "$serve_dir/status"
grep -q '"audit_failures": 0' "$serve_dir/status"
if grep -q '"audit_steps": 0' "$serve_dir/status"; then
    echo "serve: audited job re-checked no proof steps"; exit 1
fi
serve_client cert "$job" > "$serve_dir/cert"
grep -q '"schema": "symcosim-cert/1"' "$serve_dir/cert"
grep -q '"verdict": "complete"' "$serve_dir/cert"
serve_client shutdown > /dev/null
wait "$serve_pid"

echo "==> e2e benchmark smoke (metric contract + pinned report digests)"
# The benchmark is a package of its own, outside the workspace, so the
# workspace test run above does not build it.
cargo test --release --manifest-path e2e-bench/Cargo.toml

echo "==> pathengine --smoke (informational, non-gating)"
cargo run --release -p symcosim-bench --bin pathengine -- --smoke

echo "==> solver --smoke (gates chain-on == chain-off reports)"
cargo run --release -p symcosim-bench --bin solver -- --smoke

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> ci OK"
