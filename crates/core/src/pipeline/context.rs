//! The one context every reconfiguration layer receives.
//!
//! [`ReconfigContext`] bundles the cross-cutting run parameters —
//! telemetry registry and cancellation flag — that used to
//! be threaded through ad-hoc per-function twins.
//! Clones share the cancellation flag and the registry, so a context
//! can be handed to every phase (and every thread) of a run.

use greenps_telemetry::Registry;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A shared cancellation flag, cheap enough to poll per loop iteration.
///
/// The token is a clonable handle on one `AtomicBool`; every clone
/// observes the same flag. All accesses use `Relaxed` ordering: the
/// flag is a pure boolean signal that carries no payload, so no other
/// memory needs to be ordered around it — the worst case is one extra
/// loop iteration before a store becomes visible, which the
/// wave-granularity stop-latency contract already tolerates. `Relaxed`
/// keeps the hot-path poll a plain load with no fence, which is what
/// lets [`CancelToken::is_cancelled_hot`] live inside per-subscription
/// loops (its allocation budget is zero, `tests/alloc_budget.rs`).
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    /// Unit tests only: polls left until the token trips itself (see
    /// `CancelToken::tripping_at`).
    #[cfg(test)]
    polls_left: Option<Arc<std::sync::atomic::AtomicU64>>,
}

impl CancelToken {
    /// A fresh, untripped token.
    pub fn new() -> Self {
        Self::default()
    }

    /// A token that is never cancelled. Used by the non-cancellable
    /// convenience wrappers so the polled loops still compile to a
    /// single always-false load.
    pub fn never() -> Self {
        Self::default()
    }

    /// Trips the flag; every clone of this token observes it.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Clears the flag (e.g. before resuming from a checkpoint).
    pub fn clear(&self) {
        self.flag.store(false, Ordering::Relaxed);
    }

    /// Hot-path poll: a single relaxed load, no fence, no allocation.
    #[inline]
    pub fn is_cancelled_hot(&self) -> bool {
        #[cfg(test)]
        if let Some(left) = &self.polls_left {
            if left.fetch_sub(1, Ordering::Relaxed) == 1 {
                self.cancel();
            }
        }
        self.flag.load(Ordering::Relaxed)
    }

    /// A token that trips itself on its `poll`-th poll (1-based), so a
    /// test can cancel at any poll site deterministically: a site that
    /// stops polling moves the trip to a later site, or past the end of
    /// the run.
    #[cfg(test)]
    pub(crate) fn tripping_at(poll: u64) -> Self {
        Self {
            flag: Arc::default(),
            polls_left: Some(Arc::new(std::sync::atomic::AtomicU64::new(poll))),
        }
    }
}

/// Shared per-run context: telemetry and cancellation.
///
/// Telemetry is observation only — a run with an enabled registry is
/// bit-identical to one with [`Registry::disabled`]. The default
/// context is exactly that: untraced.
#[derive(Debug, Clone)]
pub struct ReconfigContext {
    registry: Registry,
    cancel: CancelToken,
}

impl Default for ReconfigContext {
    fn default() -> Self {
        Self::new()
    }
}

impl ReconfigContext {
    /// An untraced context.
    pub fn new() -> Self {
        Self {
            registry: Registry::disabled(),
            cancel: CancelToken::new(),
        }
    }

    /// Replaces the telemetry registry (builder style).
    #[must_use]
    pub fn with_registry(mut self, registry: &Registry) -> Self {
        self.registry = registry.clone();
        self
    }

    /// The telemetry registry for this run.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Requests cancellation: the next poll point stops the run.
    /// Visible through every clone of this context and every token
    /// handed out by [`ReconfigContext::cancel_token`]. Relaxed store;
    /// see [`CancelToken`] for why no stronger ordering is needed.
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// Clears a previous cancellation request (e.g. before resuming).
    pub fn clear_cancel(&self) {
        self.cancel.clear();
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.is_cancelled_hot()
    }

    /// Hot-path alias of [`ReconfigContext::is_cancelled`]: a single
    /// relaxed load, with an allocation budget of zero
    /// (`tests/alloc_budget.rs`).
    #[inline]
    pub fn is_cancelled_hot(&self) -> bool {
        self.cancel.is_cancelled_hot()
    }

    /// A token sharing this context's cancellation flag, for threading
    /// into allocator internals that should not see the full context.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let ctx = ReconfigContext::default();
        assert!(!ctx.registry().is_enabled());
        assert!(!ctx.is_cancelled());
    }

    #[test]
    fn builders() {
        let reg = Registry::new();
        let ctx = ReconfigContext::new().with_registry(&reg);
        assert!(ctx.registry().is_enabled());
    }

    #[test]
    fn cancellation_is_shared_across_clones() {
        let ctx = ReconfigContext::new();
        let clone = ctx.clone();
        clone.cancel();
        assert!(ctx.is_cancelled());
        assert!(ctx.is_cancelled_hot());
        ctx.clear_cancel();
        assert!(!clone.is_cancelled());
    }

    #[test]
    fn cancel_token_shares_the_context_flag() {
        let ctx = ReconfigContext::new();
        let token = ctx.cancel_token();
        assert!(!token.is_cancelled_hot());
        ctx.cancel();
        assert!(token.is_cancelled_hot(), "token sees context cancel");
        token.clear();
        assert!(!ctx.is_cancelled(), "context sees token clear");
        token.cancel();
        assert!(ctx.is_cancelled_hot());
        assert!(!CancelToken::never().is_cancelled_hot());
    }

    #[test]
    fn a_tripping_token_trips_on_its_poll() {
        let token = CancelToken::tripping_at(3);
        let polls: Vec<bool> = (0..5).map(|_| token.is_cancelled_hot()).collect();
        assert_eq!(polls, [false, false, true, true, true]);
    }
}
