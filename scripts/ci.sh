#!/usr/bin/env bash
# CI gate: tier-1 verify plus lint. Run from the repo root.
#
#   scripts/ci.sh          # build + test + clippy
#   scripts/ci.sh --bench  # additionally run the hotpath comparison,
#                          # the campaign matrix and the fleet scaling
#                          # curve
#
# The workspace is offline-first: everything here works with no network
# and no registry deps. Fleet runs pin their worker count via
# AIR_FLEET_WORKERS (default 4) so CI results are reproducible machine
# to machine.
set -euo pipefail
cd "$(dirname "$0")/.."

export AIR_FLEET_WORKERS="${AIR_FLEET_WORKERS:-4}"

echo "== tier-1: release build =="
cargo build --release

echo "== tier-1: tests =="
cargo test -q

echo "== benchmark: perfbench's own tests (span trees, metric schema) =="
cargo test -q --offline --manifest-path perfbench/Cargo.toml

echo "== benchmark: clippy over perfbench (all targets, warnings are errors) =="
cargo clippy --offline --all-targets --manifest-path perfbench/Cargo.toml -- -D warnings

echo "== lint: clippy (all targets, warnings are errors) =="
cargo clippy --all-targets -- -D warnings

echo "== lint: no panicking constructs in kernel-grade crates =="
scripts/forbid.sh

# The release build above already produced the airlint binary; invoking
# it directly spares one cargo workspace check per corpus case (~30 of
# them) per CI run.
airlint=target/release/airlint
[[ -x "$airlint" ]] || { echo "missing $airlint after release build" >&2; exit 1; }

echo "== lint: airlint over the example configurations =="
"$airlint" examples/*.air

echo "== lint: timing certification over the example configurations =="
# One invocation per file: --timing treats its input files as one member
# set, and the examples are independent systems. constellation_hub.air
# carries the deadlined command flow; flow-free examples certify nothing
# but must still exit clean.
for example in examples/*.air; do
    "$airlint" --timing "$example" > /dev/null \
        || { echo "timing certification failed for $example" >&2; exit 1; }
done
"$airlint" --timing examples/constellation_hub.air

echo "== lint: airlint cluster cross-check over the node pair =="
"$airlint" --cluster examples/cluster_degraded_a.air examples/cluster_degraded_b.air

echo "== lint: airlint mesh cross-check over the five-node example =="
"$airlint" --cluster examples/mesh_n0.air examples/mesh_n1.air \
    examples/mesh_n2.air examples/mesh_n3.air examples/mesh_n4.air

echo "== lint: bounded mode/HM exploration of the examples (depth 3) =="
"$airlint" --explore --depth 3 examples/full_system.air
"$airlint" --explore --depth 3 examples/constellation_hub.air
"$airlint" --explore --depth 3 \
    examples/cluster_degraded_a.air examples/cluster_degraded_b.air

echo "== lint: airlint golden corpus (JSON diff) =="
corpus_out=$(mktemp)
trap 'rm -f "$corpus_out"' EXIT
for case in tests/lint_corpus/*.air; do
    case "$case" in *_pair_a.air|*_pair_b.air|*_mesh_[a-z].air) continue ;; esac
    # A first-line '#!explore depth=N [max_states=M]' marker runs the
    # case through the bounded exploration under those settings, matching
    # the corpus test harness.
    args=(--json)
    marker=$(head -n 1 "$case")
    if [[ "$marker" == '#!explore '* ]]; then
        args+=(--explore)
        for token in ${marker#'#!explore'}; do
            case "$token" in
                depth=*)      args+=(--depth "${token#depth=}") ;;
                max_states=*) args+=(--max-states "${token#max_states=}") ;;
                *) echo "unrecognised #!explore token '$token' in $case" >&2
                   exit 1 ;;
            esac
        done
    fi
    # airlint exits 1 on Error-level findings -- expected for the corpus.
    "$airlint" "${args[@]}" "$case" > "$corpus_out" || true
    diff -u "${case%.air}.expected" "$corpus_out" \
        || { echo "golden drift in $case" >&2; exit 1; }
done
for pair_a in tests/lint_corpus/*_pair_a.air; do
    base="${pair_a%_a.air}"
    "$airlint" --json --cluster "$pair_a" "${base}_b.air" > "$corpus_out" || true
    diff -u "${base}.expected" "$corpus_out" \
        || { echo "golden drift in ${base}" >&2; exit 1; }
done
for mesh_a in tests/lint_corpus/*_mesh_a.air; do
    base="${mesh_a%_a.air}"
    members=()
    for member in "${base}"_[a-z].air; do
        [[ -e "$member" ]] && members+=("$member")
    done
    "$airlint" --json --cluster "${members[@]}" > "$corpus_out" || true
    diff -u "${base}.expected" "$corpus_out" \
        || { echo "golden drift in ${base}" >&2; exit 1; }
done

echo "== smoke fault-injection campaign (3 seeds x all fault classes) =="
cargo run --release -q -p bench --bin campaign -- --smoke

echo "== smoke link-fault campaign (3 seeds, exactly-once delivery) =="
cargo run --release -q -p bench --bin campaign -- --smoke-link

echo "== smoke fleet (256 machines x 3 MTFs, $AIR_FLEET_WORKERS workers) =="
cargo run --release -q -p bench --bin fleet -- --smoke-fleet

echo "== smoke mesh (24 five-node line meshes, $AIR_FLEET_WORKERS workers) =="
cargo run --release -q -p bench --bin mesh -- --smoke-mesh

echo "== smoke reroute (64 seeded partition campaigns, 3 topologies) =="
cargo run --release -q -p bench --bin mesh -- --smoke-reroute

echo "== smoke wcrt (certified flow bounds vs 24 observed partition campaigns) =="
cargo run --release -q -p bench --bin mesh -- --smoke-wcrt

echo "== smoke fuzz farm (64 generated configs, explore -> replay, 0 divergences) =="
cargo run --release -q -p bench --bin fuzz -- --smoke-fuzz

if [[ "${1:-}" == "--bench" ]]; then
    echo "== hotpath before/after comparison =="
    cargo run --release -p bench --bin hotpath
    echo "== full fault-injection campaign matrix =="
    cargo run --release -p bench --bin campaign
    echo "== fleet scaling curve (1k machines, 1/2/4/8/16 workers) =="
    cargo run --release -p bench --bin fleet
    echo "== mesh matrix (line/star/ring x 3/5/9 nodes) =="
    cargo run --release -p bench --bin mesh
    echo "== lint stage timings (corpus, depth curve, worker scaling) =="
    cargo run --release -p bench --bin lint
    echo "== fuzz soak sweep (256 generated configs, depth 4) =="
    cargo run --release -p bench --bin fuzz
fi

echo "CI OK"
