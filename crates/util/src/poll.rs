//! Readiness polling over raw Linux `epoll(7)`.
//!
//! The serving reactor needs level-triggered readiness notification for
//! thousands of sockets, and the workspace links no external crates, so
//! this module binds `epoll` directly (the same way [`crate::bytes`] binds
//! `mmap`). It is the one readiness backend and Linux the one supported
//! platform: the crate compiles this module on Linux only.
//!
//! The registration model is the minimal one the reactor needs:
//!
//! * every registered fd carries a caller-chosen `u64` token that comes
//!   back verbatim in [`Event::token`];
//! * interest is level-triggered [`Interest::READABLE`] and/or
//!   [`Interest::WRITABLE`] — re-armed implicitly, never edge-triggered;
//! * peer hangup and socket errors surface as `readable` (so one read
//!   attempt observes the condition) plus the explicit [`Event::closed`]
//!   flag.
//!
//! [`WakePipe`] is the standard self-pipe trick: a nonblocking pipe whose
//! read end is registered with the poller, so another thread can interrupt
//! a blocked [`Poller::wait`] deterministically (used for shutdown and for
//! worker-completion notification).

use std::io;
use std::time::Duration;

/// Which readiness conditions a registration wants reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    readable: bool,
    writable: bool,
}

impl Interest {
    /// Report when the fd has bytes to read (or the peer hung up).
    pub const READABLE: Interest = Interest { readable: true, writable: false };
    /// Report when the fd can accept writes without blocking.
    pub const WRITABLE: Interest = Interest { readable: false, writable: true };
    /// Report both conditions.
    pub const BOTH: Interest = Interest { readable: true, writable: true };
    /// Report neither — the fd stays registered (hangup/error still
    /// surface) but delivers no readiness, e.g. a fully backpressured
    /// connection.
    pub const NONE: Interest = Interest { readable: false, writable: false };
}

/// One readiness notification out of [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: u64,
    /// The fd is readable (bytes buffered, pending accept, or EOF/error —
    /// a read attempt will not block and will observe the condition).
    pub readable: bool,
    /// The fd is writable.
    pub writable: bool,
    /// The peer hung up or the socket errored; the connection is done.
    pub closed: bool,
}

/// A level-triggered `epoll(7)` readiness poller (see the module docs).
pub struct Poller {
    epfd: i32,
}

impl Poller {
    /// Opens a close-on-exec epoll instance.
    pub fn new() -> io::Result<Poller> {
        // SAFETY: plain syscall, no pointers.
        let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Poller { epfd })
    }

    /// Starts watching `fd` with `interest`; `token` comes back in every
    /// event for this fd. Registering an already-registered fd is an error
    /// (use [`Poller::modify`]).
    pub fn register(&mut self, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Changes the interest set (and token) of a registered fd.
    pub fn modify(&mut self, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Stops watching `fd`. Must be called before the fd is closed; an fd
    /// that is not registered is an error (`ENOENT`).
    pub fn deregister(&mut self, fd: i32) -> io::Result<()> {
        // SAFETY: plain syscall; DEL ignores the event arg (a null pointer
        // is fine on kernels >= 2.6.9).
        let rc = unsafe { sys::epoll_ctl(self.epfd, sys::EPOLL_CTL_DEL, fd, std::ptr::null_mut()) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    fn ctl(&mut self, op: i32, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
        let mut ev = sys::EpollEvent { events: epoll_mask(interest), data: token };
        // SAFETY: `ev` outlives the call; the kernel copies it.
        let rc = unsafe { sys::epoll_ctl(self.epfd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Blocks until at least one registered fd is ready or `timeout`
    /// elapses (`None` = wait forever), appending to `events` (which is
    /// cleared first). A signal interruption returns `Ok(0)` — callers
    /// loop anyway. Returns the number of events delivered.
    pub fn wait(
        &mut self,
        events: &mut Vec<Event>,
        timeout: Option<Duration>,
    ) -> io::Result<usize> {
        events.clear();
        let mut buf = [sys::EpollEvent { events: 0, data: 0 }; 256];
        let timeout_ms = timeout_millis(timeout);
        // SAFETY: `buf` is a valid writable array of len 256.
        let rc =
            unsafe { sys::epoll_wait(self.epfd, buf.as_mut_ptr(), buf.len() as i32, timeout_ms) };
        if rc < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        for ev in buf.iter().take(rc as usize) {
            let bits = ev.events;
            let closed = bits & (sys::EPOLLERR | sys::EPOLLHUP | sys::EPOLLRDHUP) != 0;
            events.push(Event {
                token: ev.data,
                readable: bits & sys::EPOLLIN != 0 || closed,
                writable: bits & sys::EPOLLOUT != 0,
                closed,
            });
        }
        Ok(events.len())
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: epfd was returned by epoll_create1 and is owned here.
        unsafe { sys::close(self.epfd) };
    }
}

fn epoll_mask(interest: Interest) -> u32 {
    let mut mask = 0;
    if interest.readable {
        mask |= sys::EPOLLIN | sys::EPOLLRDHUP;
    }
    if interest.writable {
        mask |= sys::EPOLLOUT;
    }
    mask
}

/// `epoll_wait` timeout convention: -1 = forever, else milliseconds
/// (sub-millisecond nonzero waits round up so they don't spin).
fn timeout_millis(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        Some(d) => {
            let ms = d.as_millis();
            if ms == 0 && !d.is_zero() {
                1
            } else {
                ms.min(i32::MAX as u128) as i32
            }
        }
    }
}

/// A nonblocking self-pipe for waking a blocked [`Poller::wait`] from
/// another thread. Register [`WakePipe::read_fd`] for readability; call
/// [`WakePipe::wake`] from anywhere; call [`WakePipe::drain`] in the
/// event handler to re-arm.
pub struct WakePipe {
    read_fd: i32,
    write_fd: i32,
}

// The fds are only ever read/written with single-byte nonblocking I/O,
// which is thread-safe at the kernel level.
// SAFETY: see above — no shared mutable Rust state, just raw fds.
unsafe impl Send for WakePipe {}
// SAFETY: same argument as Send.
unsafe impl Sync for WakePipe {}

impl WakePipe {
    /// Opens the pipe with both ends nonblocking and close-on-exec.
    pub fn new() -> io::Result<WakePipe> {
        let mut fds = [0i32; 2];
        // SAFETY: `fds` is a valid 2-element array the kernel fills.
        let rc = unsafe { sys::pipe2(fds.as_mut_ptr(), sys::O_NONBLOCK | sys::O_CLOEXEC) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(WakePipe { read_fd: fds[0], write_fd: fds[1] })
    }

    /// The end to register with the poller ([`Interest::READABLE`]).
    pub fn read_fd(&self) -> i32 {
        self.read_fd
    }

    /// Makes the read end readable. A full pipe (`EAGAIN`) already
    /// guarantees a pending wakeup, so that case is silently a success.
    pub fn wake(&self) {
        let byte = [1u8];
        // SAFETY: valid 1-byte buffer; short/failed writes are fine.
        unsafe { sys::write(self.write_fd, byte.as_ptr().cast(), 1) };
    }

    /// Consumes all pending wakeup bytes so level-triggered polling
    /// re-arms. Returns how many bytes were drained.
    pub fn drain(&self) -> usize {
        let mut total = 0;
        let mut buf = [0u8; 64];
        loop {
            // SAFETY: valid buffer of the stated length.
            let n = unsafe { sys::read(self.read_fd, buf.as_mut_ptr().cast(), buf.len()) };
            if n <= 0 {
                return total;
            }
            total += n as usize;
        }
    }
}

impl Drop for WakePipe {
    fn drop(&mut self) {
        // SAFETY: both fds came from pipe2 and are owned by this struct.
        unsafe {
            sys::close(self.read_fd);
            sys::close(self.write_fd);
        }
    }
}

/// Raw Linux bindings (the workspace links no external crates; these
/// constants are the Linux ABI values for the subset used here).
mod sys {
    use std::ffi::c_void;

    pub const EPOLLIN: u32 = 0x1;
    pub const EPOLLOUT: u32 = 0x4;
    pub const EPOLLERR: u32 = 0x8;
    pub const EPOLLHUP: u32 = 0x10;
    pub const EPOLLRDHUP: u32 = 0x2000;
    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;
    pub const EPOLL_CLOEXEC: i32 = 0x80000;

    pub const O_NONBLOCK: i32 = 0x800;
    pub const O_CLOEXEC: i32 = 0x80000;

    /// `struct epoll_event` — packed on x86-64, natural elsewhere.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        pub fn close(fd: i32) -> i32;
        pub fn read(fd: i32, buf: *mut c_void, count: usize) -> isize;
        pub fn write(fd: i32, buf: *const c_void, count: usize) -> isize;
        pub fn pipe2(fds: *mut i32, flags: i32) -> i32;
        pub fn epoll_create1(flags: i32) -> i32;
        pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        pub fn epoll_wait(
            epfd: i32,
            events: *mut EpollEvent,
            maxevents: i32,
            timeout_ms: i32,
        ) -> i32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wake_pipe_reports_readable_and_stays_level_triggered() {
        let mut poller = Poller::new().unwrap();
        let pipe = WakePipe::new().unwrap();
        poller.register(pipe.read_fd(), 7, Interest::READABLE).unwrap();

        let mut events = Vec::new();
        // Nothing written yet: a short wait times out empty.
        let n = poller.wait(&mut events, Some(Duration::from_millis(10))).unwrap();
        assert_eq!(n, 0);

        pipe.wake();
        let n = poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);

        // Level-triggered: still readable until drained.
        let n = poller.wait(&mut events, Some(Duration::from_millis(100))).unwrap();
        assert_eq!(n, 1, "should stay level-triggered");
        assert!(pipe.drain() >= 1);
        let n = poller.wait(&mut events, Some(Duration::from_millis(10))).unwrap();
        assert_eq!(n, 0, "drained pipe must be quiet");

        poller.deregister(pipe.read_fd()).unwrap();
        assert!(poller.deregister(pipe.read_fd()).is_err(), "fd is no longer registered");
    }

    #[test]
    fn cross_thread_wake_interrupts_a_long_wait() {
        let mut poller = Poller::new().unwrap();
        let pipe = std::sync::Arc::new(WakePipe::new().unwrap());
        poller.register(pipe.read_fd(), 1, Interest::READABLE).unwrap();

        let waker = std::sync::Arc::clone(&pipe);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            waker.wake();
        });
        let start = std::time::Instant::now();
        let mut events = Vec::new();
        let n = poller.wait(&mut events, Some(Duration::from_secs(30))).unwrap();
        assert_eq!(n, 1);
        assert!(start.elapsed() < Duration::from_secs(10));
        t.join().unwrap();
    }

    #[test]
    fn writable_interest_fires_for_an_empty_pipe() {
        let mut poller = Poller::new().unwrap();
        let pipe = WakePipe::new().unwrap();
        // The write end of an empty pipe is immediately writable.
        poller.register(pipe.write_fd, 9, Interest::WRITABLE).unwrap();
        let mut events = Vec::new();
        let n = poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(n, 1);
        assert!(events[0].writable);
        assert!(!events[0].closed);

        // Dropping write interest entirely: modify to readable-only on a
        // write end never fires.
        poller.modify(pipe.write_fd, 9, Interest::READABLE).unwrap();
        let n = poller.wait(&mut events, Some(Duration::from_millis(10))).unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn hangup_surfaces_as_closed_and_readable() {
        let mut poller = Poller::new().unwrap();
        let pipe = WakePipe::new().unwrap();
        poller.register(pipe.read_fd(), 3, Interest::READABLE).unwrap();
        // SAFETY: closing the write end is exactly the hangup under test;
        // Drop later closes it again harmlessly (the fd number may be
        // reused, so neutralize it instead).
        unsafe { sys::close(pipe.write_fd) };
        let pipe = std::mem::ManuallyDrop::new(pipe);
        let mut events = Vec::new();
        let n = poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(n, 1);
        assert!(events[0].closed);
        assert!(events[0].readable);
        poller.deregister(pipe.read_fd()).unwrap();
        assert!(poller.deregister(pipe.read_fd()).is_err(), "fd is no longer registered");
        // SAFETY: read end is still open and owned; close it once.
        unsafe { sys::close(pipe.read_fd) };
    }

    #[test]
    fn timeout_millis_convention() {
        assert_eq!(timeout_millis(None), -1);
        assert_eq!(timeout_millis(Some(Duration::ZERO)), 0);
        assert_eq!(timeout_millis(Some(Duration::from_micros(10))), 1);
        assert_eq!(timeout_millis(Some(Duration::from_millis(250))), 250);
        assert_eq!(timeout_millis(Some(Duration::from_secs(1 << 40))), i32::MAX);
    }
}
