//! Fallback fiber API for targets without a context-switch implementation
//! (anything other than x86_64 Linux). Pooled execution is reported as
//! unsupported and the kernel silently downgrades to thread-per-rank mode,
//! so none of these stubs is ever reached at runtime.

/// Pooled (fiber) execution is unavailable on this target.
pub(crate) const SUPPORTED: bool = false;

/// Unreachable placeholder; the kernel never constructs fibers when
/// [`SUPPORTED`] is false.
pub(crate) struct Fiber;

impl Fiber {
    pub(crate) fn new(
        _stack_size: usize,
        _f: Box<dyn FnOnce() + Send + 'static>,
    ) -> std::io::Result<Fiber> {
        unreachable!("fiber execution is not supported on this target")
    }

    pub(crate) fn resume(&mut self) -> bool {
        unreachable!("fiber execution is not supported on this target")
    }

    pub(crate) fn is_finished(&self) -> bool {
        unreachable!("fiber execution is not supported on this target")
    }
}

/// Always false: no fiber can be running.
pub(crate) fn on_fiber() -> bool {
    false
}

/// Never reachable: [`on_fiber`] is always false on this target.
pub(crate) fn yield_current() {
    unreachable!("fiber execution is not supported on this target")
}
