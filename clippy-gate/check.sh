#!/usr/bin/env bash
# The determinism gate. Clippy reads the rules from the root clippy.toml:
# first every workspace target must pass, then this fixture, which breaks
# each rule once, must fail with every diagnostic listed below. Clippy only
# warns about a clippy.toml path that does not resolve, so the second run is
# what notices a rule that has gone quiet.
#
#   clippy-gate/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."
flags=(-D warnings -D clippy::allow_attributes -D clippy::allow_attributes_without_reason)

# clippy::allow_attributes skips inner attributes, so a `#![allow(.., reason)]`
# would silence a rule with no audit at all: refuse it here.
if grep -rnE '#!\[allow\(' --include='*.rs' crates src tests examples vendor; then
    echo "clippy-gate: write #![expect(..)] in place of #![allow(..)]" >&2
    exit 1
fi
cargo clippy --all-targets -- "${flags[@]}"

if out=$(cargo clippy --color never --manifest-path clippy-gate/Cargo.toml -- "${flags[@]}" 2>&1); then
    echo "clippy-gate: the fixture passed clippy, so some rule no longer fires" >&2
    exit 1
fi
missing=0
while IFS= read -r want; do
    if ! grep -qF -- "$want" <<<"$out"; then
        echo "clippy-gate: no diagnostic \"$want\"" >&2
        missing=1
    fi
done <<'LIST'
use of a disallowed type `std::collections::HashMap`
use of a disallowed type `std::collections::HashSet`
use of a disallowed type `std::hash::RandomState`
use of a disallowed type `std::time::SystemTime`
use of a disallowed method `std::time::Instant::now`
use of a disallowed method `std::time::SystemTime::elapsed`
use of a disallowed method `slice::sort_by`
use of a disallowed method `slice::sort_unstable_by`
use of a disallowed method `core::iter::Iterator::min_by`
use of a disallowed method `core::iter::Iterator::max_by`
this lint expectation is unfulfilled
unknown lint: `clippy::disalowed_methods`
#[allow] attribute found
`allow` attribute without specifying a reason
LIST
if [ "$missing" -ne 0 ]; then
    echo "$out" >&2
    exit 1
fi
echo "clippy-gate: the workspace is clean and the fixture shows all 14 diagnostics"
