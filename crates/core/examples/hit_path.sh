#!/usr/bin/env bash
# Counts the lookup hit in the disassembly of the `hit_path` example and
# fails when a loop is longer than its budget.
#
#   cargo build -p cilkm-core --release --example hit_path
#   bash crates/core/examples/hit_path.sh target/release/examples/hit_path
#
# Build with `-p cilkm-core` alone: the `instrument` feature, which the
# root package's dev-dependency turns on, adds a counter to the hit.
#
# `update` tests the reducer key's backend bit at run time, so the
# compiler unswitches the example's one loop on it: `hit_path` holds one
# loop per backend. The memory-mapped loop is the one whose hot body
# calls nothing; the hypermap loop calls its out-of-line `lookup`, whose
# whole instruction count is printed beside it. A loop's hot body runs
# from its header to the first backward jump to that header; the cold
# path is laid out after it. Loads and stores count memory operands,
# Intel syntax: a read-modify-write such as the user's
# `inc QWORD PTR [rax]` is one of each, a `cmp` or `test` against memory
# a load.
set -euo pipefail

bin="${1:?usage: hit_path.sh <path to the hit_path example binary>}"

# Budgets, per iteration: instructions, loads, stores, branches. The
# memory-mapped hit is two loads (the TLS base of the worker's slot
# space, then the view pointer at base plus the key's address bits,
# masked once before the loop) and the null test with its branch, then
# the user's `inc` and the loop's decrement and branch: 7. The hypermap
# loop passes the key and the instance to `lookup`, calls it, tests the
# pointer it returns, and runs the user's `inc` and the loop control: 8,
# plus the call's `lookup`, whose size is budgeted at what it compiles
# to.
mmap_budget="7 3 1 2"
hypermap_budget="8 1 1 2"
lookup_budget=47

disasm() {
    objdump -d --no-show-raw-insn -M intel "$@" "$bin"
}

# The instructions of symbol $1, one per line as "address<TAB>text".
function_body() {
    local addr size
    read -r addr size < <(nm -S "$bin" | awk -v s="$1" '$4 == s { print $1, $2 }')
    if [[ -z "${addr:-}" ]]; then
        echo "hit_path.sh: no symbol $1 in $bin" >&2
        exit 1
    fi
    disasm --start-address="0x$addr" \
        --stop-address="$(printf '0x%x' $((0x$addr + 0x$size)))" |
        awk -F'\t' '/^ *[0-9a-f]+:\t/ { sub(/^ */, "", $1); sub(/:$/, "", $1); print $1 "\t" $2 }'
}

# Reads function_body lines and prints "instructions loads stores
# branches calls" for the hot body of the first loop that calls
# ($want_call 1) or does not call ($want_call 0). Only the first
# backward jump to a header closes its hot body, and only if the body
# falls through from the header to it: a jump from the cold path back
# into the middle of the hot one is no loop.
count_loop() {
    awk -F'\t' -v want_call="$1" '
    function hex(s,    v, k) {
        v = 0
        for (k = 1; k <= length(s); k++) v = v * 16 + index("0123456789abcdef", substr(s, k, 1)) - 1
        return v
    }
    function padding(t) { return t ~ /(^|[ \t])nop([ \t]|$)/ || t ~ /^xchg +ax,ax$/ || t ~ /^int3/ }
    { addr[NR] = hex($1); text[NR] = $2; n = NR }
    END {
        for (i = 1; i <= n; i++) {
            split(text[i], f, /[ \t]+/)
            if (f[1] !~ /^j/ || f[2] !~ /^[0-9a-f]+$/) continue
            target = hex(f[2])
            if (target >= addr[i] || target in seen) continue
            seen[target] = 1
            calls = 0
            straight = 1
            for (j = 1; j < i; j++) {
                if (addr[j] < target) continue
                if (text[j] ~ /^call/) calls = 1
                if (text[j] ~ /^(jmp|ret)/) straight = 0
            }
            if (!straight || calls != want_call) continue
            ins = ld = st = br = cl = 0
            for (j = 1; j <= i; j++) {
                if (addr[j] < target) continue
                t = text[j]
                split(t, g, /[ \t]+/)
                op = g[1]
                if (padding(t)) continue
                ins++
                if (op ~ /^j/) br++
                if (op ~ /^call/) cl++
                if (op == "lea" || t !~ /\[/) continue
                ops = substr(t, length(op) + 1)
                comma = index(ops, ",")
                dst = comma ? substr(ops, 1, comma - 1) : ops
                if (dst !~ /\[/ || op ~ /^(cmp|test|call|push)/) ld++
                else if (op ~ /^mov/) st++
                else { ld++; st++ }
            }
            print ins, ld, st, br, cl
            exit
        }
        exit 1
    }'
}

fail=0
check() {
    local name="$1" got="$2" budget="$3"
    read -r ins ld st br cl <<<"$got"
    read -r bins bld bst bbr <<<"$budget"
    printf '%-9s loop: %2d instructions, %d loads, %d stores, %d branches, %d calls per iteration (budget %d, %d, %d, %d)\n' \
        "$name" "$ins" "$ld" "$st" "$br" "$cl" "$bins" "$bld" "$bst" "$bbr"
    if ((ins > bins || ld > bld || st > bst || br > bbr)); then
        echo "  over budget" >&2
        fail=1
    fi
}

body=$(function_body hit_path)
mmap=$(count_loop 0 <<<"$body") || {
    echo "hit_path.sh: no call-free loop in hit_path" >&2
    exit 1
}
hypermap=$(count_loop 1 <<<"$body") || {
    echo "hit_path.sh: no calling loop in hit_path" >&2
    exit 1
}
check mmap "$mmap" "$mmap_budget"
check hypermap "$hypermap" "$hypermap_budget"

lookup_sym=$(nm "$bin" | awk '$3 ~ /cilkm_core8hypermap6lookup17h/ && !found { print $3; found = 1 }')
lookup_ins=$(function_body "$lookup_sym" |
    awk -F'\t' '$2 !~ /(^|[ \t])nop([ \t]|$)/ && $2 !~ /^xchg +ax,ax$/ && $2 !~ /^int3/' | wc -l)
printf 'hypermap  lookup: %d instructions in the function (budget %d)\n' "$lookup_ins" "$lookup_budget"
if ((lookup_ins > lookup_budget)); then
    echo "  over budget" >&2
    fail=1
fi
exit "$fail"
