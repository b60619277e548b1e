//! Thin, safe wrappers over the Linux primitives the reactor needs:
//! `epoll`, `eventfd`, and a non-blocking TCP connect.
//!
//! The workspace vendors no `libc` crate, so the handful of syscalls are
//! declared directly; std already links the C library, these symbols
//! resolve from there. Only Linux is supported — the module is compiled
//! out elsewhere and `Server::run` reports an error at startup.

#![cfg(target_os = "linux")]

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::os::fd::{FromRawFd, RawFd};

/// Readiness: data available to read.
pub const EPOLLIN: u32 = 0x001;
/// Readiness: writable without blocking.
pub const EPOLLOUT: u32 = 0x004;
/// Error condition (always reported, never requested).
pub const EPOLLERR: u32 = 0x008;
/// Peer hangup (always reported, never requested).
pub const EPOLLHUP: u32 = 0x010;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLL_CLOEXEC: i32 = 0x80000;
const EFD_NONBLOCK: i32 = 0x800;
const EFD_CLOEXEC: i32 = 0x80000;
const AF_INET: u16 = 2;
const AF_INET6: u16 = 10;
const SOCK_STREAM: i32 = 1;
const SOCK_NONBLOCK: i32 = 0x800;
const SOCK_CLOEXEC: i32 = 0x80000;
const EINPROGRESS: i32 = 115;

/// Mirror of the kernel's `struct epoll_event`. On x86-64 the kernel ABI
/// packs it (no padding between `events` and `data`); other architectures
/// use natural alignment.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
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
    fn socket(domain: i32, kind: i32, protocol: i32) -> i32;
    fn connect(fd: i32, addr: *const u8, len: u32) -> i32;
}

/// Starts a TCP connect without blocking. The connection completes (or
/// fails) in the background: the socket turns writable once it is up,
/// and until then writes report `WouldBlock`; a failed connect surfaces
/// as the error of the next write.
///
/// # Errors
///
/// Propagates `socket` failure and immediate `connect` failure (for
/// example a refused loopback port).
pub fn connect_nonblocking(addr: SocketAddr) -> io::Result<TcpStream> {
    // `struct sockaddr_in` / `sockaddr_in6`, laid out by hand: family
    // (native order), port (network order), then the address fields.
    let mut raw = [0u8; 28];
    raw[2..4].copy_from_slice(&addr.port().to_be_bytes());
    let len = match addr {
        SocketAddr::V4(v4) => {
            raw[..2].copy_from_slice(&AF_INET.to_ne_bytes());
            raw[4..8].copy_from_slice(&v4.ip().octets());
            16
        }
        SocketAddr::V6(v6) => {
            raw[..2].copy_from_slice(&AF_INET6.to_ne_bytes());
            raw[4..8].copy_from_slice(&v6.flowinfo().to_be_bytes());
            raw[8..24].copy_from_slice(&v6.ip().octets());
            raw[24..28].copy_from_slice(&v6.scope_id().to_ne_bytes());
            28
        }
    };
    let family = i32::from(u16::from_ne_bytes([raw[0], raw[1]]));
    // SAFETY: a plain syscall on integer arguments; the result is checked.
    let fd = unsafe { socket(family, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0) };
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: `fd` is a fresh socket nothing else owns; from here on the
    // stream closes it on every path.
    let stream = unsafe { TcpStream::from_raw_fd(fd) };
    // SAFETY: `raw` is a live buffer holding a `len`-byte socket address.
    if unsafe { connect(fd, raw.as_ptr(), len) } == 0 {
        return Ok(stream);
    }
    let err = io::Error::last_os_error();
    if err.raw_os_error() == Some(EINPROGRESS) {
        Ok(stream)
    } else {
        Err(err)
    }
}

/// Per-call capacity of [`Epoll::wait`]'s kernel buffer. More ready fds
/// than this simply surface on the next loop turn (level-triggered).
const MAX_EVENTS: usize = 256;

/// An epoll instance plus a reusable event buffer.
pub struct Epoll {
    fd: RawFd,
    buffer: Box<[EpollEvent; MAX_EVENTS]>,
}

impl Epoll {
    /// Creates a close-on-exec epoll instance.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_create1` failure.
    pub fn new() -> io::Result<Epoll> {
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll {
            fd,
            buffer: Box::new([EpollEvent { events: 0, data: 0 }; MAX_EVENTS]),
        })
    }

    fn ctl(&self, op: i32, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        let mut event = EpollEvent {
            events: interest,
            data: token,
        };
        let event_ptr = if op == EPOLL_CTL_DEL {
            std::ptr::null_mut()
        } else {
            &raw mut event
        };
        if unsafe { epoll_ctl(self.fd, op, fd, event_ptr) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Registers `fd` (level-triggered) with the given interest and token.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl` failure.
    pub fn add(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, interest, token)
    }

    /// Changes an existing registration's interest set.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl` failure.
    pub fn modify(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, interest, token)
    }

    /// Deregisters `fd`. Harmless if the kernel already dropped it (close
    /// of the last descriptor deregisters implicitly).
    pub fn delete(&self, fd: RawFd) {
        let _ = self.ctl(EPOLL_CTL_DEL, fd, 0, 0);
    }

    /// Waits up to `timeout_ms` and appends `(token, readiness)` pairs to
    /// `out`. Returns the number of events delivered. `EINTR` reports as
    /// zero events, so signal arrival just turns the loop.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_wait` failure.
    pub fn wait(&mut self, timeout_ms: i32, out: &mut Vec<(u64, u32)>) -> io::Result<usize> {
        let n = unsafe {
            epoll_wait(
                self.fd,
                self.buffer.as_mut_ptr(),
                MAX_EVENTS.try_into().unwrap_or(i32::MAX),
                timeout_ms,
            )
        };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        #[allow(clippy::cast_sign_loss)]
        let n = n as usize;
        for event in &self.buffer[..n] {
            // Copy out of the (possibly packed) struct before use.
            let (data, events) = (event.data, event.events);
            out.push((data, events));
        }
        Ok(n)
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        unsafe { close(self.fd) };
    }
}

/// A wakeup channel: the dispatcher writes, the event loop's epoll wakes.
///
/// Nonblocking in both directions — a signal while the counter is already
/// saturated is a harmless no-op (the loop is due to wake anyway).
pub struct EventFd {
    fd: RawFd,
}

impl EventFd {
    /// Creates a nonblocking, close-on-exec eventfd.
    ///
    /// # Errors
    ///
    /// Propagates `eventfd` failure.
    pub fn new() -> io::Result<EventFd> {
        let fd = unsafe { eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(EventFd { fd })
    }

    /// The raw descriptor, for epoll registration.
    #[must_use]
    pub fn raw(&self) -> RawFd {
        self.fd
    }

    /// Wakes the event loop (adds 1 to the counter).
    pub fn signal(&self) {
        let one: u64 = 1;
        unsafe { write(self.fd, (&raw const one).cast::<u8>(), 8) };
    }

    /// Consumes all pending wakeups so level-triggered epoll quiesces.
    pub fn drain(&self) {
        let mut value = [0u8; 8];
        // One read resets an eventfd counter to zero; loop defensively in
        // case of a race with a concurrent signal.
        while unsafe { read(self.fd, value.as_mut_ptr(), 8) } == 8 {}
    }
}

impl Drop for EventFd {
    fn drop(&mut self) {
        unsafe { close(self.fd) };
    }
}

// The fd is just an integer capability; signaling from any thread is the
// entire point.
unsafe impl Send for EventFd {}
unsafe impl Sync for EventFd {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn eventfd_wakes_epoll_and_drains() {
        let mut epoll = Epoll::new().unwrap();
        let efd = EventFd::new().unwrap();
        epoll.add(efd.raw(), EPOLLIN, 7).unwrap();
        let mut events = Vec::new();
        // Nothing pending: times out empty.
        assert_eq!(epoll.wait(0, &mut events).unwrap(), 0);
        efd.signal();
        efd.signal();
        assert_eq!(epoll.wait(100, &mut events).unwrap(), 1);
        assert_eq!(events[0].0, 7);
        assert_ne!(events[0].1 & EPOLLIN, 0);
        // Drained, the level-triggered event stops firing.
        efd.drain();
        events.clear();
        assert_eq!(epoll.wait(0, &mut events).unwrap(), 0);
    }

    #[test]
    fn socket_readiness_round_trip() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut epoll = Epoll::new().unwrap();
        epoll.add(listener.as_raw_fd(), EPOLLIN, 1).unwrap();

        let mut client = TcpStream::connect(addr).unwrap();
        let mut events = Vec::new();
        epoll.wait(1000, &mut events).unwrap();
        assert!(events.iter().any(|(token, _)| *token == 1));

        let (mut served, _) = listener.accept().unwrap();
        served.set_nonblocking(true).unwrap();
        epoll.add(served.as_raw_fd(), EPOLLIN, 2).unwrap();
        client.write_all(b"ping").unwrap();
        events.clear();
        epoll.wait(1000, &mut events).unwrap();
        assert!(events.iter().any(|(token, _)| *token == 2));
        let mut buf = [0u8; 8];
        assert_eq!(served.read(&mut buf).unwrap(), 4);

        // Interest can be switched off and back on.
        epoll.modify(served.as_raw_fd(), 0, 2).unwrap();
        client.write_all(b"more").unwrap();
        events.clear();
        epoll.wait(50, &mut events).unwrap();
        assert!(!events.iter().any(|(token, _)| *token == 2));
        epoll.modify(served.as_raw_fd(), EPOLLIN, 2).unwrap();
        events.clear();
        epoll.wait(1000, &mut events).unwrap();
        assert!(events.iter().any(|(token, _)| *token == 2));
        epoll.delete(served.as_raw_fd());
    }

    #[test]
    fn nonblocking_connect_completes_or_refuses() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut stream = connect_nonblocking(listener.local_addr().unwrap()).unwrap();
        let mut epoll = Epoll::new().unwrap();
        epoll.add(stream.as_raw_fd(), EPOLLOUT, 3).unwrap();
        let mut events = Vec::new();
        epoll.wait(1000, &mut events).unwrap();
        assert!(events.iter().any(|(token, _)| *token == 3));
        stream.write_all(b"ping").unwrap();
        let (mut served, _) = listener.accept().unwrap();
        let mut buf = [0u8; 4];
        served.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");

        // A closed port refuses, either at once or on the first write.
        let dead = listener.local_addr().unwrap();
        drop((listener, served));
        match connect_nonblocking(dead) {
            Err(e) => assert_eq!(e.kind(), io::ErrorKind::ConnectionRefused),
            Ok(mut stream) => {
                epoll.add(stream.as_raw_fd(), EPOLLOUT, 4).unwrap();
                events.clear();
                epoll.wait(1000, &mut events).unwrap();
                let err = stream.write(b"x").unwrap_err();
                assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused);
            }
        }
    }
}
