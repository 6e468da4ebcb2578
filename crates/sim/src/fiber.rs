//! Stackful coroutines on glibc's `ucontext` calls: each simulated process
//! runs on a stack of its own, and the scheduler switches between them in
//! user space, on the thread that calls [`Sim::run`](crate::Sim::run).
//!
//! A [`Fiber`] owns a stack mapped with `mmap(MAP_NORESERVE)` under a
//! `PROT_NONE` guard, so only the pages a process touches become resident
//! (a heap allocation could be served from an arena that touches every
//! page), and an overflow faults instead of running into other memory.
//! [`switch`] saves the running context and resumes another with
//! `swapcontext`: no kernel scheduler, no futex, and the only system call
//! is the signal-mask update `swapcontext` makes.
//!
//! A process that overflows its stack faults on its guard page. Rust's
//! own handler knows only the guard pages of the threads it started, so
//! [`catch_overflows`] installs a `SIGSEGV` handler that runs on the
//! thread's alternate signal stack (std's) and knows the running fiber's guard
//! (each [`switch`] records it): a fault there prints the process's name,
//! as Rust does for a thread's, and aborts. Any other fault goes to the
//! handler that was installed before.

use std::cell::Cell;
use std::ffi::{c_int, c_long, c_ulong, c_void};
use std::ptr::{self, NonNull};
use std::sync::{Once, OnceLock};

#[cfg(not(all(
    target_os = "linux",
    target_env = "gnu",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
compile_error!("lmpi-sim's fibers mirror glibc's ucontext_t on x86_64 and aarch64 Linux only");

/// Usable bytes of each process's stack: what a spawned OS thread gets by
/// default.
const STACK_BYTES: usize = 2 << 20;

/// glibc's `stack_t`. The pointers of this and of [`Context`] are held as
/// addresses: Rust never dereferences them, and a context is plain data.
#[repr(C)]
struct StackT {
    sp: usize,
    flags: c_int,
    size: usize,
}

/// glibc's `ucontext_t`: the leading fields `makecontext` reads are named,
/// the rest (registers, signal mask, FP state) is opaque and sized above
/// both targets' (928 bytes on x86_64, 4 520 on aarch64). Boxed wherever it
/// lives, because glibc stores a pointer into the context itself.
///
/// `guard` follows glibc's part and is ours: the stack guard of the fiber
/// this context belongs to.
#[repr(C, align(16))]
pub(crate) struct Context {
    flags: c_ulong,
    link: usize,
    stack: StackT,
    rest: [u64; 640],
    guard: Guard,
}

impl Context {
    /// An empty save area for [`switch`] to fill.
    pub(crate) fn empty() -> Context {
        Context {
            flags: 0,
            link: 0,
            stack: StackT {
                sp: 0,
                flags: 0,
                size: 0,
            },
            rest: [0; 640],
            guard: Guard::NONE,
        }
    }
}

/// A fiber's guard page, `[lo, hi)`, and its process's name (`len`
/// bytes at address `name`, owned by the fiber's block): what the
/// overflow handler needs, in a form it can read without allocating or
/// locking. Addresses, like [`StackT`]'s.
#[repr(C)]
#[derive(Copy, Clone)]
struct Guard {
    lo: usize,
    hi: usize,
    name: usize,
    len: usize,
}

impl Guard {
    /// No guard: the run thread's own stack.
    const NONE: Guard = Guard {
        lo: 0,
        hi: 0,
        name: 0,
        len: 0,
    };
}

thread_local! {
    /// The guard of the fiber running on this thread, set by [`switch`].
    static RUNNING: Cell<Guard> = const { Cell::new(Guard::NONE) };
}

const PROT_NONE: c_int = 0;
const PROT_READ: c_int = 1;
const PROT_WRITE: c_int = 2;
const MAP_PRIVATE: c_int = 0x02;
const MAP_ANONYMOUS: c_int = 0x20;
const MAP_NORESERVE: c_int = 0x4000;
const MAP_STACK: c_int = 0x20000;
const SC_PAGESIZE: c_int = 30;
const SIGSEGV: c_int = 11;
const SA_SIGINFO: c_int = 4;
const SA_ONSTACK: c_int = 0x0800_0000;

/// glibc's `struct sigaction` (the same layout on both targets).
#[repr(C)]
#[derive(Copy, Clone)]
struct SigAction {
    handler: usize,
    mask: [u64; 16],
    flags: c_int,
    restorer: usize,
}

impl SigAction {
    /// `SIG_DFL`, no flags.
    const DEFAULT: SigAction = SigAction {
        handler: 0,
        mask: [0; 16],
        flags: 0,
        restorer: 0,
    };
}

/// The leading fields of the kernel's `siginfo_t` for a fault.
#[repr(C)]
struct SigInfo {
    signo: c_int,
    errno: c_int,
    code: c_int,
    addr: usize,
}

extern "C" {
    fn getcontext(ucp: *mut Context) -> c_int;
    fn makecontext(ucp: *mut Context, func: extern "C" fn(u32, u32), argc: c_int, ...);
    fn swapcontext(oucp: *mut Context, ucp: *const Context) -> c_int;
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        off: i64,
    ) -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: c_int) -> c_int;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
    fn sysconf(name: c_int) -> c_long;
    fn sigaction(sig: c_int, act: *const SigAction, old: *mut SigAction) -> c_int;
    fn write(fd: c_int, buf: *const c_void, n: usize) -> isize;
}

/// The body a fiber runs. It returns the context to resume once it is
/// done; the fiber is never resumed after that.
type Body = Box<dyn FnOnce() -> *const Context + Send>;

/// A fiber's saved context, its process's name and, until it first runs,
/// its body. `ctx` comes first, so a pointer to the block is a pointer to
/// it.
#[repr(C)]
struct Block {
    ctx: Context,
    body: Option<Body>,
    name: Box<str>,
}

/// A coroutine with its own stack. Created suspended at the start of its
/// body; [`switch`] to [`Fiber::context`] runs it.
pub(crate) struct Fiber {
    /// From `Box::leak`, freed on drop. Reached through this pointer
    /// only, so the running fiber's own accesses alias no `Box`.
    block: NonNull<Block>,
    /// The mapping: the guard, then `STACK_BYTES` of stack above it.
    map: NonNull<c_void>,
    map_len: usize,
}

// SAFETY: the fields are the addresses of the block and the mapping the
// fiber owns, and the mapping's length; nothing else holds them. The
// values on the fiber's stack run only on the thread in `Sim::run`: the
// scheduler switches only there (`Sim::dispatch` asserts it), and a fiber
// still suspended when a run returns or unwinds is never resumed (a
// finished run leaves none; a failed one is poisoned and refuses `run`).
unsafe impl Send for Fiber {}

impl Fiber {
    /// A suspended fiber that will run `body` when first switched to, for
    /// the process called `name`.
    ///
    /// # Panics
    /// If the stack cannot be mapped.
    pub(crate) fn new(name: &str, body: impl FnOnce() -> *const Context + Send + 'static) -> Fiber {
        // SAFETY: plain system calls on a fresh private mapping, checked;
        // `getcontext` fills the boxed context `makecontext` then points at
        // the mapped stack and the trampoline, with the block's address
        // split into the two `int` arguments `makecontext` passes on.
        unsafe {
            let guard = usize::try_from(sysconf(SC_PAGESIZE)).expect("page size");
            let map_len = guard + STACK_BYTES;
            let flags = MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK;
            let map = mmap(
                ptr::null_mut(),
                map_len,
                PROT_READ | PROT_WRITE,
                flags,
                -1,
                0,
            );
            assert!(
                map as isize != -1,
                "failed to map a simulated process's stack"
            );
            let map = NonNull::new(map).expect("mmap returned null");
            let block = NonNull::from(Box::leak(Box::new(Block {
                ctx: Context::empty(),
                body: Some(Box::new(body)),
                name: name.into(),
            })));
            let fiber = Fiber {
                block,
                map,
                map_len,
            };
            assert_eq!(mprotect(map.as_ptr(), guard, PROT_NONE), 0, "stack guard");
            let ctx = fiber.context();
            assert_eq!(getcontext(ctx), 0, "getcontext");
            (*ctx).link = 0;
            (*ctx).stack = StackT {
                sp: map.as_ptr() as usize + guard,
                flags: 0,
                size: STACK_BYTES,
            };
            let name = &(*block.as_ptr()).name;
            (*ctx).guard = Guard {
                lo: map.as_ptr() as usize,
                hi: map.as_ptr() as usize + guard,
                name: name.as_ptr() as usize,
                len: name.len(),
            };
            let at = block.as_ptr() as u64;
            makecontext(ctx, trampoline, 2, (at >> 32) as u32, at as u32);
            fiber
        }
    }

    /// The fiber's save area: what [`switch`] resumes, and where the fiber
    /// saves itself when it switches away.
    pub(crate) fn context(&self) -> *mut Context {
        self.block.as_ptr().cast()
    }
}

impl Drop for Fiber {
    /// Unmaps the stack. A fiber dropped suspended leaks the values on its
    /// stack; one never started drops its body.
    fn drop(&mut self) {
        // SAFETY: the block came from `Box::leak` and the mapping from
        // `mmap` in `new`; the fiber is not running (its owner is on
        // another stack) and is never resumed again.
        unsafe {
            drop(Box::from_raw(self.block.as_ptr()));
            munmap(self.map.as_ptr(), self.map_len);
        }
    }
}

/// Save the running context in `from` and resume `to`; returns when
/// something switches back to `from`.
///
/// # Safety
/// `from` is the running context's save area and stays valid until it is
/// resumed; `to` is suspended (made by [`Fiber::new`] or saved by an
/// earlier `switch`, and not resumed since) and its stack is still mapped.
pub(crate) unsafe fn switch(from: *mut Context, to: *const Context) {
    RUNNING.set((*to).guard);
    assert_eq!(swapcontext(from, to), 0, "swapcontext");
}

/// The action `SIGSEGV` had before [`catch_overflows`] installed its own.
static PREVIOUS: OnceLock<SigAction> = OnceLock::new();

/// Make a fiber's stack overflow name its process: install the `SIGSEGV`
/// handler, once per program. It runs on the faulting thread's alternate
/// signal stack, which std gives every thread it starts, the main thread
/// included; on a thread started elsewhere, with none, an overflow stays a
/// bare `SIGSEGV`.
pub(crate) fn catch_overflows() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let ours = SigAction {
            handler: on_segv as extern "C" fn(c_int, *mut SigInfo, *mut c_void) as usize,
            mask: [0; 16],
            flags: SA_SIGINFO | SA_ONSTACK,
            restorer: 0,
        };
        let mut previous = SigAction::DEFAULT;
        // SAFETY: `sigaction` reads and writes the plain structs it is
        // given; the previous action is stored before ours can run.
        unsafe {
            assert_eq!(
                sigaction(SIGSEGV, ptr::null(), &mut previous),
                0,
                "sigaction"
            );
            let _ = PREVIOUS.set(previous);
            assert_eq!(sigaction(SIGSEGV, &ours, ptr::null_mut()), 0, "sigaction");
        }
    });
}

/// The `SIGSEGV` handler, on the alternate signal stack. A fault on the
/// running fiber's guard page writes the process's name to stderr and
/// aborts; any other puts the previous action back and returns, so the
/// faulting instruction runs again under it.
extern "C" fn on_segv(_: c_int, info: *mut SigInfo, _: *mut c_void) {
    let running = RUNNING.get();
    // SAFETY: the kernel passes a filled `siginfo_t`; the name lives in the
    // running fiber's block, which outlives the fiber's run; `write`,
    // `sigaction` and `abort` are async-signal-safe.
    unsafe {
        if (running.lo..running.hi).contains(&(*info).addr) {
            let name = std::slice::from_raw_parts(running.name as *const u8, running.len);
            for part in [
                &b"simulated process '"[..],
                name,
                b"' has overflowed its stack\n",
            ] {
                write(2, part.as_ptr().cast(), part.len());
            }
            std::process::abort();
        }
        let previous = PREVIOUS.get().unwrap_or(&SigAction::DEFAULT);
        sigaction(SIGSEGV, previous, ptr::null_mut());
    }
}

/// Where every fiber starts: runs its body on the fiber's stack, then
/// switches to the context the body names, for good.
extern "C" fn trampoline(hi: u32, lo: u32) {
    let block = ((u64::from(hi) << 32) | u64::from(lo)) as *mut Block;
    // SAFETY: `new` passed this block's address, and the fiber's first
    // resume is the only one that reaches here, so the body is still in it.
    let body = unsafe { (*block).body.take() }.expect("a fiber starts once");
    // A panic that escapes the body unwinds into this `extern "C"` frame,
    // which aborts the process: the scheduler's body catches its own.
    let next = body();
    // SAFETY: the body returned with every value of its frame dropped and
    // named a suspended context; this one is never resumed.
    unsafe { switch(block.cast(), next) };
    unreachable!("a finished fiber was resumed");
}
