//! The load generator's one client socket: a non-blocking loopback UDP
//! socket registered with the repository's `epoll` shim. The driver
//! blocks in `epoll_wait` and then drains every queued reply without
//! blocking, so it never spins.

use std::io;
use std::net::UdpSocket;
use std::os::fd::AsRawFd;
use std::time::Duration;

/// Largest datagram the benchmark expects back.
const MAX_REPLY: usize = 64 * 1024;

const SOCKET_TOKEN: u64 = 1;

/// One loopback client socket behind one epoll instance.
pub struct Client {
    socket: UdpSocket,
    readiness: epoll::Readiness,
    events: epoll::Events,
    buf: Vec<u8>,
}

impl Client {
    /// Binds an ephemeral loopback port and registers it for readable
    /// events (level-triggered).
    ///
    /// # Errors
    ///
    /// Returns the error of a failed bind or registration.
    pub fn bind() -> io::Result<Client> {
        let socket = UdpSocket::bind(("127.0.0.1", 0))?;
        socket.set_nonblocking(true)?;
        let readiness = epoll::Readiness::new()?;
        readiness.register(
            socket.as_raw_fd(),
            SOCKET_TOKEN,
            epoll::Interest::READABLE,
            epoll::Trigger::Level,
        )?;
        Ok(Client {
            socket,
            readiness,
            events: epoll::Events::with_capacity(4),
            buf: vec![0; MAX_REPLY],
        })
    }

    /// The bound port.
    ///
    /// # Errors
    ///
    /// Returns the error of a failed address lookup.
    pub fn port(&self) -> io::Result<u16> {
        Ok(self.socket.local_addr()?.port())
    }

    /// Sends one datagram to `127.0.0.1:port`.
    ///
    /// # Errors
    ///
    /// Returns the error of a failed or short send.
    pub fn send_to(&self, payload: &[u8], port: u16) -> io::Result<()> {
        let sent = self.socket.send_to(payload, ("127.0.0.1", port))?;
        if sent != payload.len() {
            return Err(io::Error::new(io::ErrorKind::WriteZero, "short datagram send"));
        }
        Ok(())
    }

    /// Blocks until a reply is queued or `timeout` passes; `true` when
    /// the socket is readable.
    ///
    /// # Errors
    ///
    /// Returns the error of a failed `epoll_wait`.
    pub fn wait(&mut self, timeout: Duration) -> io::Result<bool> {
        Ok(self.readiness.wait(&mut self.events, Some(timeout))? > 0)
    }

    /// Receives every queued datagram without blocking, calling
    /// `sink(payload, source_port)` for each; returns how many.
    ///
    /// # Errors
    ///
    /// Returns a receive error other than "would block".
    pub fn drain(&mut self, mut sink: impl FnMut(&[u8], u16)) -> io::Result<usize> {
        let mut received = 0;
        loop {
            match self.socket.recv_from(&mut self.buf) {
                Ok((len, from)) => {
                    sink(&self.buf[..len], from.port());
                    received += 1;
                }
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => return Ok(received),
                Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
                Err(err) => return Err(err),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waits_then_drains_everything_queued() {
        let mut client = Client::bind().unwrap();
        let peer = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        let port = client.port().unwrap();
        assert!(!client.wait(Duration::from_millis(1)).unwrap(), "nothing queued yet");
        for payload in [b"one".as_slice(), b"two", b"three"] {
            peer.send_to(payload, ("127.0.0.1", port)).unwrap();
        }
        assert!(client.wait(Duration::from_secs(2)).unwrap());
        let peer_port = peer.local_addr().unwrap().port();
        let mut seen = Vec::new();
        // Loopback delivery is synchronous, so all three are queued.
        let n = client.drain(|payload, from| seen.push((payload.to_vec(), from))).unwrap();
        assert_eq!(n, 3);
        assert_eq!(seen[2], (b"three".to_vec(), peer_port));
        assert_eq!(client.drain(|_, _| {}).unwrap(), 0, "drain never blocks");
    }
}
