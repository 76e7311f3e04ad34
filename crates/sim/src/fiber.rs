//! Stackful fibers: per-rank continuations parked as *state*, not threads.
//!
//! The kernel runs each simulated process on its own mmap'd stack and
//! switches between that stack and the driver with a ~20-instruction
//! context switch — no syscalls, no condvars, no OS threads per rank. A
//! suspended rank costs one stack whose untouched pages stay non-resident,
//! which is what makes 4096+ ranks per process feasible.
//!
//! # Stack reuse
//!
//! A dropped simulation hands its finished fibers' stacks to a free list
//! of the driver thread ([`retire`]); [`Stack::new`] pops one before it
//! maps. A recycled stack is the same mapping — guard page included — with
//! its pages already resident, so a job after the first spawns its ranks
//! with no syscall and no page fault. Four rules keep the list honest:
//!
//! 1. it is bounded by the workload: after a simulation drops, the list
//!    holds at most as many stacks as that simulation spawned;
//! 2. only a finished fiber's stack is recycled, an unfinished one is
//!    unmapped;
//! 3. a simulation that was refused a stack keeps nothing: its stacks and
//!    the whole list are unmapped, so the mapping limit it met is not held
//!    against the next one;
//! 4. the list is unmapped when its thread exits.
//!
//! # Context-switch contract (x86_64 SysV)
//!
//! [`switch_ctx`] saves the callee-saved registers (`rbp`, `rbx`,
//! `r12`–`r15`) plus the return address on the current stack, stores the
//! resulting `rsp` through its first argument, loads a new `rsp` from its
//! second, and returns on the restored stack. Caller-saved registers are
//! dead across any call boundary, so nothing else needs saving. The x87/SSE
//! control words are *not* switched: simulation code never changes rounding
//! modes, matching the default-environment assumption Rust code is compiled
//! under.
//!
//! A fresh fiber's stack is seeded with a fake saved context whose return
//! address is [`fiber_entry_trampoline`] and whose `r12` slot carries the
//! `FiberInner` pointer; the first resume therefore "returns" into the
//! trampoline, which normalizes the frame chain and calls [`fiber_entry`].
//! The entry runs the closure under `catch_unwind` (unwinding off the top
//! of a fiber stack would be undefined behaviour), marks the fiber
//! finished, and switches back to the resumer for the last time.
//!
//! # Engine calls run on the driver's stack
//!
//! What a rank does between two yields is mostly engine work: its own
//! frames sit within a kilobyte of the fiber's entry, but an engine call
//! (a progress sweep, a message dispatch, a transmit) is several kilobytes
//! deep, and every page it touches stays resident with the stack
//! afterwards — for each of thousands of fibers. [`on_driver_stack`] runs
//! such a call on the driver's stack instead: [`call_on_stack`] moves `rsp`
//! to a 16-aligned point below the running fiber's saved `resumer_rsp`,
//! calls a trampoline there, and moves it back. The driver's stack is
//! shared by every fiber, so its deep pages are touched once, not once
//! per rank. The contract:
//!
//! 1. the region below `resumer_rsp` is idle while the fiber runs: the
//!    driver is suspended in [`Fiber::resume`]'s switch and nothing else
//!    runs on this thread;
//! 2. the closure must not yield — the driver's stack has one fiber's
//!    frames on it at a time. [`yield_current`] asserts that `rsp` lies in
//!    the running fiber's stack, so a park inside the call panics instead
//!    of saving the driver's region as the fiber's context;
//! 3. no unwind crosses the assembly frame: the trampoline catches any
//!    panic and the call re-raises it on the fiber;
//! 4. a nested call (its `rsp` is off the fiber's stack already), or a
//!    call outside any fiber, runs in place.
//!
//! # Safety model
//!
//! Fibers are created and resumed by the driver thread only: neither
//! [`Fiber`] nor the closure it runs is `Send`. One fiber runs at a time,
//! and a yield finds its way back through a thread-local the resumer sets.

use std::cell::{Cell, RefCell};
use std::io;
use std::panic::{self, AssertUnwindSafe};
use std::thread;

/// Raw mmap FFI. `std` already links libc on every Linux target, so the
/// four symbols are declared directly instead of adding a crate the
/// offline build could not fetch.
mod sys {
    use std::ffi::c_void;

    unsafe extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
        pub fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
        pub fn mincore(addr: *mut c_void, len: usize, vec: *mut u8) -> i32;
    }

    pub const PROT_NONE: i32 = 0;
    pub const PROT_READ: i32 = 1;
    pub const PROT_WRITE: i32 = 2;
    pub const MAP_PRIVATE: i32 = 0x02;
    pub const MAP_ANONYMOUS: i32 = 0x20;
    pub const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;
}

const PAGE: usize = 4096;

/// Usable bytes of every fiber stack, a whole number of pages. Simulated
/// ranks mostly park, so a small stack lets thousands of ranks coexist
/// (untouched stack pages are never even committed). There is one size, so
/// any free stack fits any fiber.
const DEFAULT_STACK_SIZE: usize = 512 * 1024;
const _: () = assert!(
    DEFAULT_STACK_SIZE.is_multiple_of(PAGE),
    "a page-aligned top"
);

/// An mmap'd fiber stack with a `PROT_NONE` guard page at the low end.
///
/// `Vec<u8>` would be simpler but zero-fills the whole allocation, committing
/// every page up front; anonymous mmap keeps untouched pages non-resident so
/// thousands of mostly-idle ranks fit in a few MB of RSS.
struct Stack {
    base: *mut u8,
}

thread_local! {
    /// Stacks of finished fibers, waiting for the next simulation on this
    /// thread (module docs, "Stack reuse"). Dropping the list at thread exit
    /// unmaps them.
    static FREE: RefCell<Vec<Stack>> = const { RefCell::new(Vec::new()) };
}

impl Stack {
    /// Bytes mapped per stack: the usable region plus the guard page.
    const LEN: usize = DEFAULT_STACK_SIZE + PAGE;

    /// Pop this thread's last free stack, or map one and return the OS
    /// error if that fails. Each stack is two mappings (guard + usable), so
    /// a process runs out of `vm.max_map_count` at about half that many
    /// fibers; a stack mapped but not protected is unmapped before the
    /// error is returned.
    fn new() -> io::Result<Stack> {
        if let Some(stack) = FREE.try_with(|free| free.borrow_mut().pop()).ok().flatten() {
            return Ok(stack);
        }
        let len = Stack::LEN;
        // SAFETY: a fresh private anonymous mapping of `len` bytes that no
        // other code knows of; only its first page is re-protected, and it
        // is unmapped exactly once — here if the guard page fails, else by
        // `Drop` (whether it is dropped by its fiber or by the free list).
        unsafe {
            let base = sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ | sys::PROT_WRITE,
                sys::MAP_PRIVATE | sys::MAP_ANONYMOUS,
                -1,
                0,
            );
            if base == sys::MAP_FAILED {
                return Err(io::Error::last_os_error());
            }
            if sys::mprotect(base, PAGE, sys::PROT_NONE) != 0 {
                let err = io::Error::last_os_error();
                sys::munmap(base, len);
                return Err(err);
            }
            Ok(Stack { base: base.cast() })
        }
    }

    /// One past the highest usable byte; page-aligned, hence 16-aligned.
    fn top(&self) -> *mut u8 {
        // SAFETY: `base + LEN` is one past the end of this stack's mapping.
        unsafe { self.base.add(Stack::LEN) }
    }

    /// Pages of the usable region that are resident, by `mincore`.
    fn resident_pages(&self) -> usize {
        let mut vec = [0u8; DEFAULT_STACK_SIZE / PAGE];
        // SAFETY: the usable region is the page-aligned tail of this
        // stack's live mapping, and `vec` holds one byte per page of it.
        let rc = unsafe {
            sys::mincore(
                self.base.add(PAGE).cast(),
                DEFAULT_STACK_SIZE,
                vec.as_mut_ptr(),
            )
        };
        assert_eq!(
            rc,
            0,
            "mincore on a fiber stack: {}",
            io::Error::last_os_error()
        );
        vec.iter().filter(|&&v| v & 1 != 0).count()
    }
}

/// Resident pages of each stack on this thread's free list, the guard page
/// not counted: what the fibers that ran on them left touched. A probe for
/// the scale tests; read after a simulation has dropped.
#[doc(hidden)]
pub fn free_stack_resident_pages() -> Vec<usize> {
    FREE.with_borrow(|free| free.iter().map(Stack::resident_pages).collect())
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: the mapping made in `Stack::new`; its owner is the only
        // `Stack` holding `base`, so it is unmapped exactly once.
        unsafe {
            sys::munmap(self.base.cast(), Stack::LEN);
        }
    }
}

/// Give a dropped simulation's stacks back (module docs, "Stack reuse"):
/// the finished fibers' stacks join the end of this thread's free list, the
/// end [`Stack::new`] pops, and the list keeps its last `fibers.len()`; an
/// unfinished fiber's stack is unmapped. If the simulation was `refused` a
/// stack, every stack of `fibers` and of the list is unmapped instead.
pub(crate) fn retire(fibers: Vec<Fiber>, refused: bool) {
    let spawned = fibers.len();
    // Unfinished fibers drop here, outside the list's borrow: a closure that
    // never ran may own anything, even another simulation.
    let stacks: Vec<Stack> = fibers.into_iter().filter_map(Fiber::into_stack).collect();
    // Past the list's destructor (a simulation dropped during thread exit)
    // the closure does not run and `stacks` drops, unmapping every stack.
    let _ = FREE.try_with(move |free| {
        let mut free = free.borrow_mut();
        if refused {
            free.clear();
        } else {
            free.extend(stacks);
            let surplus = free.len().saturating_sub(spawned);
            free.drain(..surplus);
        }
    });
}

/// Heap-pinned fiber state. `r12` in the seeded context points here, so the
/// allocation must never move — hence the `Box` in [`Fiber`].
struct FiberInner {
    /// Saved `rsp` of the fiber while it is suspended.
    fiber_rsp: usize,
    /// Saved `rsp` of the resumer while the fiber runs.
    resumer_rsp: usize,
    /// Set by [`fiber_entry`] when the closure has returned or unwound.
    finished: bool,
    /// The process body; taken on first entry.
    entry: Option<Box<dyn FnOnce() + 'static>>,
    stack: Stack,
}

impl FiberInner {
    /// Whether `addr` lies in this fiber's stack mapping.
    #[inline]
    fn owns(&self, addr: usize) -> bool {
        let base = self.stack.base as usize;
        (base..base + Stack::LEN).contains(&addr)
    }
}

/// The stack pointer of the caller.
#[inline(always)]
fn rsp() -> usize {
    let rsp: usize;
    // SAFETY: reads a register, touches no memory.
    unsafe {
        std::arch::asm!("mov {}, rsp", out(reg) rsp, options(nomem, nostack, preserves_flags))
    };
    rsp
}

thread_local! {
    /// The fiber currently running on this thread, if any. Set by
    /// [`Fiber::resume`] for the duration of the slice; read by
    /// [`yield_current`] from inside the fiber.
    static CURRENT: Cell<*mut FiberInner> = const { Cell::new(std::ptr::null_mut()) };
}

/// A suspended-or-running simulated process. See the module docs for the
/// execution and safety model.
pub(crate) struct Fiber {
    inner: Box<FiberInner>,
}

impl Fiber {
    /// Create a suspended fiber that will run `f` when first resumed, on a
    /// free stack of this thread or a fresh one, or return the OS error
    /// that refused its stack.
    pub(crate) fn new(f: Box<dyn FnOnce() + 'static>) -> io::Result<Fiber> {
        let stack = Stack::new()?;
        let mut inner = Box::new(FiberInner {
            fiber_rsp: 0,
            resumer_rsp: 0,
            finished: false,
            entry: Some(f),
            stack,
        });
        let inner_ptr: *mut FiberInner = &mut *inner;
        unsafe {
            // Seed a fake saved context at the top of the stack, laid out
            // exactly as switch_ctx's pops expect (from rsp upward:
            // r15, r14, r13, r12, rbx, rbp, return address). After the pops
            // and the `ret`, execution starts in the trampoline with
            // rsp == top, i.e. 16-aligned — the SysV state at a call site.
            let top = inner.stack.top() as *mut usize;
            top.sub(1).write(fiber_entry_trampoline as *const () as usize); // ret target
            top.sub(2).write(0); // rbp
            top.sub(3).write(0); // rbx
            top.sub(4).write(inner_ptr as usize); // r12: FiberInner pointer
            top.sub(5).write(0); // r13
            top.sub(6).write(0); // r14
            top.sub(7).write(0); // r15
            inner.fiber_rsp = top.sub(7) as usize;
        }
        Ok(Fiber { inner })
    }

    /// Run the fiber until its next yield or until it finishes. Returns
    /// whether it finished. Must not be called on a finished fiber.
    pub(crate) fn resume(&mut self) -> bool {
        debug_assert!(!self.inner.finished, "resumed a finished fiber");
        let inner_ptr: *mut FiberInner = &mut *self.inner;
        let prev = CURRENT.replace(inner_ptr);
        unsafe {
            // SAFETY: fiber_rsp points into this fiber's live stack (seeded
            // at creation or saved at its last yield); exclusive access is
            // guaranteed because only the driver thread resumes fibers.
            switch_ctx(&mut self.inner.resumer_rsp, &self.inner.fiber_rsp);
        }
        CURRENT.set(prev);
        self.inner.finished
    }

    /// Whether the fiber's closure has returned or unwound.
    pub(crate) fn is_finished(&self) -> bool {
        self.inner.finished
    }

    /// The stack of a finished fiber, which no frame uses any more; `None`
    /// (and the stack unmapped) for a fiber that may still have frames on it.
    fn into_stack(self) -> Option<Stack> {
        let FiberInner {
            finished, stack, ..
        } = *self.inner;
        finished.then_some(stack)
    }
}

/// Suspend the current fiber, returning control to whoever resumed it.
/// Panics unless called on the running fiber's own stack: outside any
/// fiber, or inside [`on_driver_stack`], there is no context to save.
pub(crate) fn yield_current() {
    let cur = CURRENT.get();
    // SAFETY: a non-null `CURRENT` is the fiber running on this thread.
    assert!(
        unsafe { cur.as_ref() }.is_some_and(|cur| cur.owns(rsp())),
        "yield_current called off a fiber stack (outside a fiber, or inside on_driver_stack)"
    );
    unsafe {
        // SAFETY: `cur` is the fiber running on this very thread; switching
        // to resumer_rsp returns into its `resume` call.
        switch_ctx(&mut (*cur).fiber_rsp, &(*cur).resumer_rsp);
    }
}

/// Run `f` on the driver's stack and return what it returns (module docs,
/// "Engine calls run on the driver's stack"): the fiber's stack only holds
/// this call's frame while `f` runs. A panic in `f` unwinds on from here,
/// on the fiber. `f` must not yield: a park inside it panics. Outside any
/// fiber, or inside another such call, `f` runs in place.
pub fn on_driver_stack<T, F: FnOnce() -> T>(f: F) -> T {
    // SAFETY: a non-null `CURRENT` is the fiber running on this thread.
    let Some(cur) = (unsafe { CURRENT.get().as_ref() }).filter(|cur| cur.owns(rsp())) else {
        return f();
    };
    // The resumer is suspended in `resume`, below its saved `rsp`.
    let sp = cur.resumer_rsp & !15;
    let mut call = Call::<F, T> {
        f: Some(f),
        out: None,
    };
    // SAFETY: everything below `sp` is idle while this fiber runs (rule 1),
    // and the trampoline lets no unwind out (rule 3).
    unsafe {
        call_on_stack((&raw mut call).cast(), trampoline::<F, T>, sp);
    }
    match call.out.expect("the trampoline ran") {
        Ok(value) => value,
        Err(payload) => panic::resume_unwind(payload),
    }
}

/// What [`on_driver_stack`] hands its trampoline: the closure in, its
/// outcome out.
struct Call<F, T> {
    f: Option<F>,
    out: Option<thread::Result<T>>,
}

/// Runs the closure of the [`Call`] at `call` on the driver's stack and
/// stores its value or its panic.
///
/// # Safety
///
/// `call` must point to a live `Call<F, T>` that nothing else uses until
/// this returns.
unsafe extern "C" fn trampoline<F: FnOnce() -> T, T>(call: *mut u8) {
    // SAFETY: `call` is the `Call<F, T>` on the fiber's stack that
    // `on_driver_stack` passed to `call_on_stack`, alive across the call.
    let call = unsafe { &mut *call.cast::<Call<F, T>>() };
    let f = call.f.take().expect("one call per trampoline");
    call.out = Some(panic::catch_unwind(AssertUnwindSafe(f)));
}

/// Call `f(arg)` with `rsp` set to `sp`, then return on the caller's stack.
/// `rbp` keeps the caller's `rsp` across the call (it is callee-saved), so
/// the frame-pointer chain runs from `f`'s frames back to the fiber.
///
/// # Safety
///
/// `sp` must be 16-aligned with idle memory below it deep enough for `f`,
/// and `f` must not unwind.
#[unsafe(naked)]
unsafe extern "C" fn call_on_stack(_arg: *mut u8, _f: unsafe extern "C" fn(*mut u8), _sp: usize) {
    std::arch::naked_asm!(
        "push rbp",
        "mov rbp, rsp",
        "mov rsp, rdx",
        "call rsi",
        "mov rsp, rbp",
        "pop rbp",
        "ret",
    )
}

/// Save the current execution context through `save`, restore the one at
/// `restore`, and return on the restored stack.
///
/// # Safety
///
/// `restore` must hold an `rsp` produced by this function (or by the stack
/// seeding in [`Fiber::new`]) for a live stack nothing else is running on.
#[unsafe(naked)]
unsafe extern "C" fn switch_ctx(_save: *mut usize, _restore: *const usize) {
    std::arch::naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "mov [rdi], rsp",
        "mov rsp, [rsi]",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
    )
}

/// First frame of every fiber: terminates the frame-pointer chain, moves the
/// `FiberInner` pointer from its callee-saved smuggling slot into the first
/// argument register, and calls [`fiber_entry`] (which never returns).
#[unsafe(naked)]
unsafe extern "C" fn fiber_entry_trampoline() {
    std::arch::naked_asm!(
        "xor ebp, ebp",
        "mov rdi, r12",
        "call {entry}",
        "ud2",
        entry = sym fiber_entry,
    )
}

/// Rust-level fiber body: runs the closure, records completion, and makes
/// the final switch back to the resumer. Never returns; unwinding is
/// contained by `catch_unwind` because there is no frame above this one.
unsafe extern "C" fn fiber_entry(inner: *mut FiberInner) -> ! {
    // SAFETY: `inner` is the Box-pinned FiberInner seeded into r12 at
    // creation; the fiber owns it exclusively while running.
    let inner = unsafe { &mut *inner };
    let f = inner.entry.take().expect("fiber entered twice");
    // The kernel's wrapper inside `f` already catches panics and records
    // payloads; this outer catch is the hard safety net that keeps any
    // unwind (including one raised by the wrapper itself) off the seeded
    // frame below, where there is nothing to unwind into.
    let _ = panic::catch_unwind(AssertUnwindSafe(f));
    inner.finished = true;
    let mut scratch = 0usize;
    unsafe {
        // SAFETY: resumer_rsp was saved by the `resume` that ran this slice;
        // the fiber's own context is dead from here on (scratch discard).
        switch_ctx(&mut scratch, &inner.resumer_rsp);
    }
    unreachable!("finished fiber was resumed");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Sim;
    use crate::time::SimTime;
    use std::cell::Cell;
    use std::rc::Rc;

    fn fiber(f: impl FnOnce() + 'static) -> Fiber {
        Fiber::new(Box::new(f)).expect("map a fiber stack")
    }

    #[test]
    fn fiber_runs_to_completion() {
        let hits = Rc::new(Cell::new(0));
        let h = hits.clone();
        let mut f = fiber(move || {
            h.set(h.get() + 1);
        });
        assert!(!f.is_finished());
        assert!(f.resume());
        assert!(f.is_finished());
        assert_eq!(hits.get(), 1);
    }

    #[test]
    fn fiber_yields_and_resumes() {
        let steps = Rc::new(Cell::new(0));
        let s = steps.clone();
        let mut f = fiber(move || {
            s.set(s.get() + 1);
            yield_current();
            s.set(s.get() + 1);
            yield_current();
            s.set(s.get() + 1);
        });
        assert!(!f.resume());
        assert_eq!(steps.get(), 1);
        assert!(!f.resume());
        assert_eq!(steps.get(), 2);
        assert!(f.resume());
        assert_eq!(steps.get(), 3);
    }

    #[test]
    fn fiber_panic_is_contained() {
        let mut f = fiber(|| panic!("inside fiber"));
        // A previous test may have left the default hook; silence this one.
        let prev = panic::take_hook();
        panic::set_hook(Box::new(|_| {}));
        let finished = f.resume();
        panic::set_hook(prev);
        assert!(finished, "panicking fiber must finish");
    }

    #[test]
    fn on_fiber_is_scoped_to_the_slice() {
        let on_fiber = || !CURRENT.get().is_null();
        assert!(!on_fiber());
        let mut f = fiber(move || {
            assert!(on_fiber());
            yield_current();
            assert!(on_fiber());
        });
        f.resume();
        assert!(!on_fiber());
        f.resume();
        assert!(!on_fiber());
    }

    /// An address in the caller's frame: where its stack is now.
    #[inline(never)]
    fn sp() -> usize {
        let here = 0u8;
        std::hint::black_box(&here) as *const u8 as usize
    }

    /// Whether `addr` lies on the running fiber's own stack.
    fn on_own_stack(addr: usize) -> bool {
        let cur = CURRENT.get();
        assert!(!cur.is_null(), "asked inside a fiber");
        // SAFETY: `cur` is the fiber running on this thread.
        let stack = unsafe { &(*cur).stack };
        (stack.base as usize + PAGE..stack.top() as usize).contains(&addr)
    }

    #[test]
    fn a_driver_stack_call_leaves_the_fiber_stack_and_comes_back() {
        let outcome = Rc::new(Cell::new(None));
        let o = outcome.clone();
        let mut f = fiber(move || {
            let fiber_sp = sp();
            assert!(on_own_stack(fiber_sp));
            let (called_sp, value) = on_driver_stack(|| (sp(), 42));
            o.set(Some((on_own_stack(called_sp), value, on_own_stack(sp()))));
            yield_current();
        });
        assert!(!f.resume());
        assert_eq!(
            outcome.get(),
            Some((false, 42, true)),
            "ran off the fiber, returned its value"
        );
        assert!(f.resume());
    }

    #[test]
    fn nested_and_fiberless_driver_stack_calls_run_in_place() {
        // Outside any fiber: the caller's own stack, a frame or two down.
        let outer = sp();
        let inner = on_driver_stack(sp);
        assert!(outer.abs_diff(inner) < 4096, "{outer:#x} vs {inner:#x}");
        // Nested: the inner call stays where the outer one moved to.
        let seen = Rc::new(Cell::new(None));
        let s = seen.clone();
        let mut f = fiber(move || {
            let (outer, inner) = on_driver_stack(|| (sp(), on_driver_stack(sp)));
            s.set(Some((on_own_stack(outer), outer.abs_diff(inner) < 4096)));
        });
        assert!(f.resume());
        assert_eq!(seen.get(), Some((false, true)));
    }

    #[test]
    fn a_panic_on_the_driver_stack_reaches_the_run_with_its_payload() {
        let mut sim = Sim::new(0);
        sim.spawn("rank", |_| on_driver_stack(|| panic!("engine fault")));
        let payload = panic::catch_unwind(AssertUnwindSafe(|| sim.run())).unwrap_err();
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"engine fault"));
    }

    #[test]
    fn a_caught_driver_stack_panic_leaves_the_fiber_whole() {
        let mut sim = Sim::new(0);
        let done = Rc::new(Cell::new(false));
        let d = done.clone();
        sim.spawn("rank", move |ctx| {
            let caught = panic::catch_unwind(AssertUnwindSafe(|| {
                on_driver_stack(|| panic!("engine fault"))
            }));
            assert!(caught.is_err());
            // Still a fiber: the park inside `advance` yields and returns.
            ctx.advance(SimTime::from_nanos(5));
            d.set(ctx.now() == SimTime::from_nanos(5));
        });
        sim.run().unwrap();
        assert!(done.get());
    }

    #[test]
    fn a_park_inside_a_driver_stack_call_fails_the_assertion() {
        let mut sim = Sim::new(0);
        sim.spawn("rank", |ctx| {
            on_driver_stack(|| ctx.advance(SimTime::from_nanos(5)))
        });
        let payload = panic::catch_unwind(AssertUnwindSafe(|| sim.run())).unwrap_err();
        let text = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("not a &str payload");
        assert!(
            text.starts_with("yield_current called off a fiber stack"),
            "{text}"
        );
        // The same in a bare fiber: the yield panics instead of saving the
        // driver's stack as the fiber's context, and the fiber finishes.
        let mut f = fiber(|| on_driver_stack(yield_current));
        assert!(
            f.resume(),
            "the yield switched away from the driver's stack"
        );
    }

    fn free_stacks() -> usize {
        FREE.with_borrow(Vec::len)
    }

    #[test]
    fn retire_keeps_only_finished_stacks() {
        let mut done = fiber(|| {});
        assert!(done.resume());
        let mut suspended = fiber(yield_current);
        assert!(!suspended.resume());
        let unstarted = fiber(|| {});
        retire(vec![done, suspended, unstarted], false);
        assert_eq!(free_stacks(), 1, "an unfinished fiber's stack was recycled");
        let mut next = fiber(|| {});
        assert_eq!(free_stacks(), 0, "the next fiber mapped a stack of its own");
        assert!(next.resume());
    }

    #[test]
    fn a_refused_retire_unmaps_the_whole_list() {
        let mut fibers: Vec<Fiber> = (0..4).map(|_| fiber(|| {})).collect();
        for f in &mut fibers {
            assert!(f.resume());
        }
        retire(fibers, false);
        assert_eq!(free_stacks(), 4);
        let mut finished = fiber(|| {});
        assert!(finished.resume());
        retire(vec![finished], true);
        assert_eq!(free_stacks(), 0);
    }

    #[test]
    fn many_cheap_fibers() {
        // 4096 fibers, round-robin resumed twice each: the RSS-friendly
        // stack story at the target rank count.
        let counter = Rc::new(Cell::new(0));
        let mut fibers: Vec<Fiber> = (0..4096)
            .map(|_| {
                let c = counter.clone();
                fiber(move || {
                    c.set(c.get() + 1);
                    yield_current();
                    c.set(c.get() + 1);
                })
            })
            .collect();
        for f in fibers.iter_mut() {
            assert!(!f.resume());
        }
        assert_eq!(counter.get(), 4096);
        for f in fibers.iter_mut() {
            assert!(f.resume());
        }
        assert_eq!(counter.get(), 8192);
    }
}
