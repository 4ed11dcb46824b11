//! Deterministic crash injection.
//!
//! The paper's restartability arguments (§2.2.3 checkpointing, §3.2.4
//! SF checkpoints, §5 restartable sort) can only be tested by killing
//! the index builder at precise points. A [`FailpointSet`] is a named
//! set of countdown triggers: code under test calls
//! [`FailpointSet::hit`] at interesting sites; when a trigger's
//! countdown reaches zero the site returns
//! [`Error::InjectedCrash`](crate::error::Error::InjectedCrash), which
//! callers propagate to the crash orchestrator. A trigger can instead
//! carry a closure ([`FailpointSet::arm_hook`]): the site then runs it
//! and carries on, which is how a test places another thread's work at
//! an exact point of the builder's — an interleaving forced, not raced
//! for.
//!
//! Failpoints are *instance-scoped* (carried by the `Db`), not global,
//! so parallel tests never interfere with each other. For binaries and
//! CI, a set can also be armed from an environment-style spec string
//! (`name:count,...`) via [`FailpointSet::arm_from_spec`] /
//! [`FailpointSet::arm_from_env`], so crash points are reachable
//! without code changes.

use crate::error::{Error, Result};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Environment variable read by [`FailpointSet::arm_from_env`].
pub const FAILPOINTS_ENV: &str = "MOHAN_FAILPOINTS";

/// Every failpoint site instrumented in the engine. Specs naming other
/// sites still arm (tests invent private sites freely), but
/// [`FailpointSet::arm_from_spec`] warns about them so a typo in
/// `MOHAN_FAILPOINTS` is visible instead of silently inert.
pub const KNOWN_SITES: &[&str] = &[
    "build.drain",
    "build.insert",
    "build.load",
    "build.reduce",
    "build.registered",
    "build.scan",
    "build.scan.record",
    "nsf.insert.key",
    "primary.scan.record",
    "sf.drain.op",
    "sf.load.key",
];

/// One arm/disarm-able set of failpoints.
#[derive(Default, Debug)]
pub struct FailpointSet {
    inner: Mutex<HashMap<String, Trigger>>,
}

struct Trigger {
    /// Remaining hits before firing. Fires when a hit sees 0.
    remaining: u64,
    /// Run this instead of crashing.
    hook: Option<Box<dyn FnOnce() + Send>>,
}

impl std::fmt::Debug for Trigger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Trigger")
            .field("remaining", &self.remaining)
            .field("hook", &self.hook.is_some())
            .finish()
    }
}

/// Shared handle to a failpoint set.
pub type Failpoints = Arc<FailpointSet>;

impl FailpointSet {
    /// Create an empty (fully disarmed) set.
    #[must_use]
    pub fn new() -> Failpoints {
        Arc::new(FailpointSet::default())
    }

    /// Arm `site` to fire on the `(skip + 1)`-th hit.
    pub fn arm_after(&self, site: &str, skip: u64) {
        self.inner.lock().insert(
            site.to_owned(),
            Trigger {
                remaining: skip,
                hook: None,
            },
        );
    }

    /// Arm `site` to run `hook` on its `(skip + 1)`-th hit, on the
    /// thread that hits it and in place of the crash; the site then
    /// continues. One-shot, like a crash trigger.
    pub fn arm_hook(&self, site: &str, skip: u64, hook: impl FnOnce() + Send + 'static) {
        self.inner.lock().insert(
            site.to_owned(),
            Trigger {
                remaining: skip,
                hook: Some(Box::new(hook)),
            },
        );
    }

    /// Arm `site` to fire on the next hit.
    pub fn arm(&self, site: &str) {
        self.arm_after(site, 0);
    }

    /// Arm every trigger named in a `site:count,...` spec string:
    /// `count` is the 1-based hit that fires (so `build.scan:1` fires
    /// on the first hit; `sf.drain.op:50` on the 50th). A bare `site`
    /// means `site:1`. Site names outside [`KNOWN_SITES`] are armed
    /// anyway but warned about on stderr (a typo would otherwise be
    /// silently inert). Returns the number of sites armed, or a
    /// description of the first malformed item.
    pub fn arm_from_spec(&self, spec: &str) -> std::result::Result<usize, String> {
        let mut armed = 0;
        for item in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let (site, count) = match item.split_once(':') {
                Some((site, count)) => {
                    let n: u64 = count
                        .trim()
                        .parse()
                        .map_err(|_| format!("bad count in failpoint spec item '{item}'"))?;
                    if n == 0 {
                        return Err(format!("count must be >= 1 in '{item}'"));
                    }
                    (site.trim(), n)
                }
                None => (item, 1),
            };
            if site.is_empty() {
                return Err(format!("empty site name in '{item}'"));
            }
            if !KNOWN_SITES.contains(&site) {
                eprintln!(
                    "warning: failpoint site '{site}' is not instrumented anywhere \
                     in the engine (known sites: {})",
                    KNOWN_SITES.join(", ")
                );
            }
            self.arm_after(site, count - 1);
            armed += 1;
        }
        Ok(armed)
    }

    /// Arm triggers from the [`FAILPOINTS_ENV`] environment variable,
    /// if set. Returns the number of sites armed.
    pub fn arm_from_env(&self) -> std::result::Result<usize, String> {
        match std::env::var(FAILPOINTS_ENV) {
            Ok(spec) => self.arm_from_spec(&spec),
            Err(_) => Ok(0),
        }
    }

    /// Disarm `site`.
    pub fn disarm(&self, site: &str) {
        self.inner.lock().remove(site);
    }

    /// Disarm everything.
    pub fn clear(&self) {
        self.inner.lock().clear();
    }

    /// Called by instrumented code. Returns `Err(InjectedCrash)` when
    /// the armed countdown for `site` expires (or runs the trigger's
    /// hook and returns `Ok`); otherwise `Ok(())`.
    pub fn hit(&self, site: &'static str) -> Result<()> {
        let mut map = self.inner.lock();
        let Some(t) = map.get_mut(site) else {
            return Ok(());
        };
        if t.remaining > 0 {
            t.remaining -= 1;
            return Ok(());
        }
        // One-shot: a fired trigger disarms itself so recovery code
        // re-running the same path does not crash again.
        let hook = map.remove(site).and_then(|t| t.hook);
        drop(map);
        match hook {
            // Outside the lock: a hook is free to hit other sites.
            Some(hook) => {
                hook();
                Ok(())
            }
            None => Err(Error::InjectedCrash(site)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_site_never_fires() {
        let fp = FailpointSet::new();
        for _ in 0..100 {
            fp.hit("nope").unwrap();
        }
    }

    #[test]
    fn fires_after_countdown_then_disarms() {
        let fp = FailpointSet::new();
        fp.arm_after("x", 2);
        assert!(fp.hit("x").is_ok());
        assert!(fp.hit("x").is_ok());
        let err = fp.hit("x").unwrap_err();
        assert_eq!(err, Error::InjectedCrash("x"));
        // One-shot: re-hitting after firing is fine.
        assert!(fp.hit("x").is_ok());
    }

    #[test]
    fn hook_runs_once_in_place_of_the_crash() {
        let fp = FailpointSet::new();
        let ran = Arc::new(std::sync::atomic::AtomicU32::new(0));
        let ran2 = Arc::clone(&ran);
        let fp2 = Arc::clone(&fp);
        fp.arm_hook("h", 1, move || {
            ran2.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            // The set is not locked while a hook runs.
            fp2.hit("other").unwrap();
        });
        for _ in 0..4 {
            fp.hit("h").unwrap();
        }
        assert_eq!(ran.load(std::sync::atomic::Ordering::Relaxed), 1);
    }

    #[test]
    fn arm_zero_fires_immediately() {
        let fp = FailpointSet::new();
        fp.arm("y");
        assert!(fp.hit("y").unwrap_err().is_crash());
    }

    #[test]
    fn clear_disarms_all() {
        let fp = FailpointSet::new();
        fp.arm("a");
        fp.arm("b");
        fp.clear();
        assert!(fp.hit("a").is_ok());
        assert!(fp.hit("b").is_ok());
    }

    #[test]
    fn spec_string_arms_counts() {
        let fp = FailpointSet::new();
        assert_eq!(fp.arm_from_spec("a:1, b:3 ,c").unwrap(), 3);
        // a fires on the 1st hit, c (bare) likewise.
        assert!(fp.hit("a").unwrap_err().is_crash());
        assert!(fp.hit("c").unwrap_err().is_crash());
        // b fires on the 3rd hit.
        assert!(fp.hit("b").is_ok());
        assert!(fp.hit("b").is_ok());
        assert!(fp.hit("b").unwrap_err().is_crash());
    }

    #[test]
    fn spec_string_rejects_garbage() {
        let fp = FailpointSet::new();
        assert!(fp.arm_from_spec("a:x").is_err());
        assert!(fp.arm_from_spec("a:0").is_err());
        assert!(fp.arm_from_spec(":3").is_err());
        assert_eq!(fp.arm_from_spec("").unwrap(), 0);
        assert_eq!(fp.arm_from_spec(" , ,").unwrap(), 0);
    }

    #[test]
    fn spec_comma_list_arms_every_item_with_whitespace_tolerance() {
        let fp = FailpointSet::new();
        let n = fp
            .arm_from_spec("build.scan:2,  sf.drain.op:1 ,\tbuild.load")
            .unwrap();
        assert_eq!(n, 3);
        assert!(fp.hit("build.scan").is_ok());
        assert!(fp.hit("build.scan").unwrap_err().is_crash());
        assert!(fp.hit("sf.drain.op").unwrap_err().is_crash());
        assert!(fp.hit("build.load").unwrap_err().is_crash());
    }

    #[test]
    fn spec_unknown_sites_still_arm() {
        // The warning is advisory; the trigger must work so tests can
        // keep using private site names.
        let fp = FailpointSet::new();
        assert_eq!(fp.arm_from_spec("definitely.not.a.site:1").unwrap(), 1);
        assert!(fp.hit("definitely.not.a.site").unwrap_err().is_crash());
    }

    #[test]
    fn spec_error_reports_the_offending_item() {
        let fp = FailpointSet::new();
        let err = fp.arm_from_spec("build.scan:1,b:oops").unwrap_err();
        assert!(err.contains("b:oops"), "{err}");
        let err = fp.arm_from_spec("a:0").unwrap_err();
        assert!(err.contains("a:0"), "{err}");
    }

    #[test]
    fn known_sites_list_is_sorted_and_nonempty() {
        // Sorted so the warning's site dump is scannable and the list
        // diff-stable as sites are added.
        assert!(!KNOWN_SITES.is_empty());
        let mut sorted = KNOWN_SITES.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, KNOWN_SITES);
    }

    #[test]
    fn independent_sites() {
        let fp = FailpointSet::new();
        fp.arm("a");
        assert!(fp.hit("b").is_ok());
        assert!(fp.hit("a").is_err());
    }
}
