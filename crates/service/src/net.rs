//! Thin wrappers over the Linux readiness primitives the event loop
//! needs: `epoll` for scalable readiness notification and `eventfd` for
//! cross-thread wakeups (worker → event loop, shutdown → acceptor).
//!
//! The workspace vendors every dependency, so these are hand-rolled
//! libc bindings rather than a crate: exactly the four syscalls the
//! reactor uses, each wrapped in a safe RAII type that owns its file
//! descriptor. This is the only module in the workspace that needs
//! `unsafe` (the workspace-level lint stays `deny`; the FFI is confined
//! here and every call site checks the return value and surfaces
//! `io::Error::last_os_error()`).
//!
//! Everything is `#[cfg(target_os = "linux")]`, and so is the daemon:
//! elsewhere [`crate::Server::run`] answers `Unsupported`.
#![allow(unsafe_code)]

#[cfg(target_os = "linux")]
pub use linux::{Epoll, Event, Interest, WakeFd};

#[cfg(target_os = "linux")]
mod linux {
    use std::io;
    use std::os::unix::io::RawFd;
    use std::time::Duration;

    // Values from the Linux UAPI headers (stable ABI).
    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;
    const EFD_CLOEXEC: i32 = 0o2000000;
    const EFD_NONBLOCK: i32 = 0o4000;

    /// `struct epoll_event` — packed on x86/x86_64 (the kernel ABI),
    /// naturally aligned elsewhere, exactly as the libc crate defines it.
    #[repr(C)]
    #[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn eventfd(initval: u32, flags: i32) -> i32;
        fn close(fd: i32) -> i32;
        fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    }

    /// Which readiness directions a registration asks for. Registrations
    /// are level-triggered and always include error/hangup (the kernel
    /// reports those regardless).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Interest {
        /// Wake when the fd is readable (or the peer half-closed).
        pub readable: bool,
        /// Wake when the fd is writable.
        pub writable: bool,
    }

    impl Interest {
        /// Readable only — the steady state of an idle connection.
        pub const READ: Interest = Interest {
            readable: true,
            writable: false,
        };

        /// Neither direction: the fd stays registered (errors/hangups
        /// still surface) but produces no readiness events — used to
        /// pause reads from a connection parked on a long-poll.
        pub const NONE: Interest = Interest {
            readable: false,
            writable: false,
        };

        fn bits(self) -> u32 {
            let mut bits = EPOLLRDHUP;
            if self.readable {
                bits |= EPOLLIN;
            }
            if self.writable {
                bits |= EPOLLOUT;
            }
            bits
        }
    }

    /// One delivered readiness event.
    #[derive(Debug, Clone, Copy)]
    pub struct Event {
        /// The `token` the fd was registered with.
        pub token: u64,
        /// Readable (includes peer half-close).
        pub readable: bool,
        /// Writable.
        pub writable: bool,
        /// Error or hangup — the connection is dead either way.
        pub broken: bool,
    }

    /// An owned epoll instance.
    #[derive(Debug)]
    pub struct Epoll {
        fd: RawFd,
    }

    impl Epoll {
        /// Fresh epoll instance (close-on-exec).
        pub fn new() -> io::Result<Epoll> {
            // SAFETY: no pointers; the return value is checked.
            let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Epoll { fd })
        }

        fn ctl(&self, op: i32, fd: RawFd, event: Option<&mut EpollEvent>) -> io::Result<()> {
            let ptr = event.map_or(std::ptr::null_mut(), |e| e as *mut EpollEvent);
            // SAFETY: `ptr` is null (DEL) or points at a live EpollEvent;
            // the return value is checked.
            if unsafe { epoll_ctl(self.fd, op, fd, ptr) } < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        /// Register `fd` under `token` with level-triggered `interest`.
        pub fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut event = EpollEvent {
                events: interest.bits(),
                data: token,
            };
            self.ctl(EPOLL_CTL_ADD, fd, Some(&mut event))
        }

        /// Change an existing registration's interest set.
        pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut event = EpollEvent {
                events: interest.bits(),
                data: token,
            };
            self.ctl(EPOLL_CTL_MOD, fd, Some(&mut event))
        }

        /// Remove a registration (closing the fd does this implicitly;
        /// the explicit form is for pausing the listener).
        pub fn delete(&self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, None)
        }

        /// Wait for readiness. `timeout` of `None` blocks indefinitely.
        /// Returns the delivered events (at most 256 per call — the
        /// loop drains the rest on its next turn; level-triggered
        /// registrations re-report anything still ready).
        pub fn wait(&self, timeout: Option<Duration>, out: &mut Vec<Event>) -> io::Result<()> {
            out.clear();
            let timeout_ms: i32 = match timeout {
                None => -1,
                // Round *up* so a 100µs deadline does not spin at 0ms.
                Some(t) => t
                    .as_millis()
                    .saturating_add(u128::from(t.subsec_nanos() % 1_000_000 != 0))
                    .min(i32::MAX as u128) as i32,
            };
            let mut events = [EpollEvent { events: 0, data: 0 }; 256];
            // SAFETY: the buffer outlives the call and its length is
            // passed as maxevents; the return value is checked.
            let n = unsafe {
                epoll_wait(
                    self.fd,
                    events.as_mut_ptr(),
                    events.len() as i32,
                    timeout_ms,
                )
            };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(err);
            }
            for event in &events[..n as usize] {
                out.push(Event {
                    token: event.data,
                    readable: event.events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0,
                    writable: event.events & EPOLLOUT != 0,
                    broken: event.events & (EPOLLERR | EPOLLHUP) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Epoll {
        fn drop(&mut self) {
            // SAFETY: `fd` is owned and closed exactly once.
            unsafe { close(self.fd) };
        }
    }

    /// A nonblocking eventfd: any thread [`wake`](WakeFd::wake)s it, the
    /// event loop sees the fd readable and [`drain`](WakeFd::drain)s it.
    /// One fd carries every worker → loop notification.
    #[derive(Debug)]
    pub struct WakeFd {
        fd: RawFd,
    }

    impl WakeFd {
        /// Fresh eventfd (nonblocking, close-on-exec).
        pub fn new() -> io::Result<WakeFd> {
            // SAFETY: no pointers; the return value is checked.
            let fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(WakeFd { fd })
        }

        /// The raw fd, for epoll registration.
        pub fn as_raw_fd(&self) -> RawFd {
            self.fd
        }

        /// Make the fd readable. Failure modes are benign: `EAGAIN`
        /// means the counter is already saturated — the loop is awake.
        pub fn wake(&self) {
            let one: u64 = 1;
            // SAFETY: writes exactly 8 bytes from a live u64.
            unsafe { write(self.fd, (&one as *const u64).cast(), 8) };
        }

        /// Reset the counter so the level-triggered registration goes
        /// quiet until the next wake.
        pub fn drain(&self) {
            let mut counter: u64 = 0;
            // SAFETY: reads exactly 8 bytes into a live u64.
            unsafe { read(self.fd, (&mut counter as *mut u64).cast(), 8) };
        }
    }

    impl Drop for WakeFd {
        fn drop(&mut self) {
            // SAFETY: `fd` is owned and closed exactly once.
            unsafe { close(self.fd) };
        }
    }

    // SAFETY: both types are plain fd owners; every operation is a
    // thread-safe syscall.
    unsafe impl Send for Epoll {}
    unsafe impl Sync for Epoll {}
    unsafe impl Send for WakeFd {}
    unsafe impl Sync for WakeFd {}

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::io::{Read as _, Write as _};
        use std::net::{TcpListener, TcpStream};
        use std::os::unix::io::AsRawFd;

        #[test]
        fn epoll_reports_readability_and_wakefd_round_trips() {
            let epoll = Epoll::new().unwrap();
            let wake = WakeFd::new().unwrap();
            epoll.add(wake.as_raw_fd(), 7, Interest::READ).unwrap();

            // Nothing ready: a zero timeout returns empty.
            let mut events = Vec::new();
            epoll.wait(Some(Duration::ZERO), &mut events).unwrap();
            assert!(events.is_empty());

            // A wake from another thread surfaces as token 7 readable.
            let waker = std::thread::spawn({
                let fd = wake.as_raw_fd();
                move || {
                    // WakeFd is Sync; a raw-fd clone stands in for the
                    // Arc the daemon uses.
                    let wake = WakeFd { fd };
                    wake.wake();
                    std::mem::forget(wake);
                }
            });
            epoll
                .wait(Some(Duration::from_secs(5)), &mut events)
                .unwrap();
            waker.join().unwrap();
            assert!(events.iter().any(|e| e.token == 7 && e.readable));
            wake.drain();
            epoll.wait(Some(Duration::ZERO), &mut events).unwrap();
            assert!(events.is_empty(), "drained wakefd goes quiet");
        }

        #[test]
        fn socket_interest_modification_pauses_and_resumes_events() {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let (server, _) = listener.accept().unwrap();
            server.set_nonblocking(true).unwrap();

            let epoll = Epoll::new().unwrap();
            epoll.add(server.as_raw_fd(), 1, Interest::READ).unwrap();
            client.write_all(b"hi").unwrap();

            let mut events = Vec::new();
            epoll
                .wait(Some(Duration::from_secs(5)), &mut events)
                .unwrap();
            assert!(events.iter().any(|e| e.token == 1 && e.readable));

            // Interest::NONE silences the (level-triggered) readiness…
            epoll.modify(server.as_raw_fd(), 1, Interest::NONE).unwrap();
            epoll.wait(Some(Duration::ZERO), &mut events).unwrap();
            assert!(events.is_empty(), "paused fd must not report");

            // …and restoring it reports the still-buffered bytes again.
            epoll.modify(server.as_raw_fd(), 1, Interest::READ).unwrap();
            epoll
                .wait(Some(Duration::from_secs(5)), &mut events)
                .unwrap();
            assert!(events.iter().any(|e| e.token == 1 && e.readable));
            let mut buf = [0u8; 2];
            (&server).read_exact(&mut buf).unwrap();
            assert_eq!(&buf, b"hi");
        }
    }
}
