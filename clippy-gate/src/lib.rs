//! Breaks each determinism rule of the root `clippy.toml` once, and the
//! exemption audit three ways. Clippy must fail here with every one of
//! the diagnostics `check.sh` lists: a rule whose path stopped resolving
//! would only warn, and would silently stop guarding the workspace.

pub fn hash_map() -> std::collections::HashMap<u32, u32> {
    Default::default()
}

pub fn hash_set() -> std::collections::HashSet<u32> {
    Default::default()
}

pub fn random_state() -> std::hash::RandomState {
    Default::default()
}

pub fn system_time() -> Option<std::time::SystemTime> {
    None
}

pub fn instant_now() -> std::time::Instant {
    std::time::Instant::now()
}

pub fn epoch_elapsed() -> bool {
    std::time::UNIX_EPOCH.elapsed().is_ok()
}

pub fn sort_by(v: &mut [f64]) {
    v.sort_by(f64::total_cmp);
}

pub fn sort_unstable_by(v: &mut [f64]) {
    v.sort_unstable_by(f64::total_cmp);
}

pub fn min_by(v: &[f64]) -> Option<&f64> {
    v.iter().min_by(|a, b| a.total_cmp(b))
}

pub fn max_by(v: &[f64]) -> Option<&f64> {
    v.iter().max_by(|a, b| a.total_cmp(b))
}

#[expect(clippy::disallowed_methods, reason = "stale: nothing below calls a banned method")]
pub fn stale_expect() -> u32 {
    1
}

#[expect(clippy::disalowed_methods, reason = "misspelt: the lint is `disallowed_methods`")]
pub fn unknown_lint() -> u32 {
    2
}

#[allow(clippy::needless_range_loop)]
pub fn bare_allow() -> u32 {
    3
}
