#!/usr/bin/env bash
# Build (offline) and run the benchmark; arguments go to `lmpi-benchmark`.
# Run from anywhere: paths are taken relative to this file.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

if [ ! -f "$root/Cargo.toml" ] || [ ! -d "$root/crates/core" ]; then
    echo "benchmark: no lmpi library beside $here (expected $root/crates)" >&2
    exit 2
fi

# Stage the library tree as overlay/. The library has one compile error
# (MessageTimeline derives Default over MsgId, which has none) and the
# benchmark PR may not touch it, so the staged copy gets the one-token fix.
# The substitution matches nothing once the library carries the fix itself;
# README.md ("Build") says when this block goes away.
overlay="$here/overlay"
rm -rf "$overlay"
mkdir -p "$overlay/crates"
cp -a "$root/Cargo.toml" "$root/src" "$overlay/"
for c in sim obs netmodel core devices apps; do
    cp -a "$root/crates/$c" "$overlay/crates/"
done
# lmpi-core embeds its collective tuning table from here; the rest of
# crates/bench is not staged, so it must not count as a workspace member.
mkdir -p "$overlay/crates/bench"
cp -a "$root/crates/bench/baselines" "$overlay/crates/bench/"
sed -i 's|^members = \["crates/\*"\]$|&\nexclude = ["crates/bench"]|' "$overlay/Cargo.toml"
touch -r "$root/Cargo.toml" "$overlay/Cargo.toml"
event="crates/obs/src/event.rs"
sed -i -z 's/\(#\[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord\))\]\npub struct MsgId /\1, Default)]\npub struct MsgId /' \
    "$overlay/$event"
# Keep the source's mtime so cargo does not rebuild on every run.
touch -r "$root/$event" "$overlay/$event"

exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- "$@"
