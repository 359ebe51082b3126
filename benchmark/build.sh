# Sourced by run.sh and aa.sh: where the two builds go and how they are
# made. Honours CARGO_TARGET_DIR; the traced build gets a target dir of
# its own so switching passes never rebuilds.
target="${CARGO_TARGET_DIR:-$here/target}"
gated_bin="$target/release/cilkm-benchmark"
traced_bin="$target/traced/release/cilkm-benchmark"

build_gated() {
    cargo build --release --offline --quiet \
        --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
}

build_traced() {
    cargo build --release --offline --quiet --features traced \
        --manifest-path "$here/Cargo.toml" --target-dir "$target/traced" >&2
}
