//! Byte-level helpers shared by the native binary codecs (SLP, DNS),
//! and the slot table the legacy service actors park pending answers in.

use crate::WireError;

/// An index-addressed table whose freed slots are reused: a service
/// actor parks each pending answer under a slot index (its timer tag),
/// and the table never holds more slots than answers were ever pending
/// at once.
#[derive(Debug)]
pub(crate) struct Slots<T> {
    slots: Vec<Option<T>>,
    free: Vec<usize>,
}

impl<T> Default for Slots<T> {
    fn default() -> Self {
        Slots { slots: Vec::new(), free: Vec::new() }
    }
}

impl<T> Slots<T> {
    /// Parks `value` in a free slot (a fresh one when none is free) and
    /// returns its index.
    pub(crate) fn insert(&mut self, value: T) -> usize {
        match self.free.pop() {
            Some(index) => {
                self.slots[index] = Some(value);
                index
            }
            None => {
                self.slots.push(Some(value));
                self.slots.len() - 1
            }
        }
    }

    /// Takes the value parked at `index`, freeing the slot.
    pub(crate) fn take(&mut self, index: usize) -> Option<T> {
        let value = self.slots.get_mut(index)?.take()?;
        self.free.push(index);
        Some(value)
    }

    /// Slots allocated: the peak number of values parked at once.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }
}

/// Cursor over a byte slice with big-endian integer reads.
#[derive(Debug, Clone)]
pub(crate) struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(data: &'a [u8]) -> Self {
        Cursor { data, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.pos + n > self.data.len() {
            return Err(WireError(format!(
                "truncated message: needed {n} bytes at offset {}, have {}",
                self.pos,
                self.data.len() - self.pos
            )));
        }
        let slice = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    pub(crate) fn u24(&mut self) -> Result<u32, WireError> {
        let b = self.take(3)?;
        Ok(u32::from_be_bytes([0, b[0], b[1], b[2]]))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// A 16-bit length followed by that many bytes, as UTF-8 text.
    pub(crate) fn lp_string(&mut self) -> Result<String, WireError> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        Ok(String::from_utf8_lossy(bytes).into_owned())
    }

    pub(crate) fn bytes(&mut self, n: usize) -> Result<Vec<u8>, WireError> {
        Ok(self.take(n)?.to_vec())
    }

    #[cfg(test)]
    pub(crate) fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }
}

/// Big-endian writer matching [`Cursor`].
#[derive(Debug, Clone, Default)]
pub(crate) struct Writer {
    out: Vec<u8>,
}

impl Writer {
    pub(crate) fn new() -> Self {
        Writer::default()
    }

    pub(crate) fn u8(&mut self, v: u8) -> &mut Self {
        self.out.push(v);
        self
    }

    pub(crate) fn u16(&mut self, v: u16) -> &mut Self {
        self.out.extend_from_slice(&v.to_be_bytes());
        self
    }

    pub(crate) fn u24(&mut self, v: u32) -> &mut Self {
        self.out.extend_from_slice(&v.to_be_bytes()[1..]);
        self
    }

    pub(crate) fn u32(&mut self, v: u32) -> &mut Self {
        self.out.extend_from_slice(&v.to_be_bytes());
        self
    }

    pub(crate) fn lp_string(&mut self, s: &str) -> &mut Self {
        self.u16(s.len() as u16);
        self.out.extend_from_slice(s.as_bytes());
        self
    }

    pub(crate) fn bytes(&mut self, b: &[u8]) -> &mut Self {
        self.out.extend_from_slice(b);
        self
    }

    pub(crate) fn patch_u24(&mut self, at: usize, v: u32) {
        let be = v.to_be_bytes();
        self.out[at..at + 3].copy_from_slice(&be[1..]);
    }

    pub(crate) fn len(&self) -> usize {
        self.out.len()
    }

    pub(crate) fn into_bytes(self) -> Vec<u8> {
        self.out
    }
}

/// Writes a DNS name as length-prefixed labels (RFC 1035 §3.1).
pub(crate) fn write_dns_name(writer: &mut Writer, name: &str) -> Result<(), WireError> {
    if !name.is_empty() {
        for label in name.split('.') {
            if label.is_empty() || label.len() > 63 {
                return Err(WireError(format!("bad DNS label {label:?}")));
            }
            writer.u8(label.len() as u8);
            writer.bytes(label.as_bytes());
        }
    }
    writer.u8(0);
    Ok(())
}

/// Reads a DNS name (no compression pointers — the substrates never emit
/// them).
pub(crate) fn read_dns_name(cursor: &mut Cursor<'_>) -> Result<String, WireError> {
    let mut labels = Vec::new();
    loop {
        let len = cursor.u8()?;
        if len == 0 {
            break;
        }
        if len & 0xC0 != 0 {
            return Err(WireError("DNS compression pointers unsupported".into()));
        }
        let bytes = cursor.bytes(len as usize)?;
        labels.push(String::from_utf8_lossy(&bytes).into_owned());
    }
    Ok(labels.join("."))
}

/// Test support for the service actors' slot tables.
#[cfg(test)]
pub(crate) mod testing {
    use crate::probe::DiscoveryProbe;
    use starlink_net::{Actor, Context, Datagram, DelayedActor, SimDuration, SimNet, TcpEvent};

    /// A service actor plus the peak of its slot count, read after
    /// every event it handles.
    struct Watched<A> {
        inner: A,
        slots: fn(&A) -> usize,
        peak: std::sync::Arc<std::sync::atomic::AtomicUsize>,
    }

    impl<A> Watched<A> {
        fn observe(&self) {
            self.peak.fetch_max((self.slots)(&self.inner), std::sync::atomic::Ordering::Relaxed);
        }
    }

    impl<A: Actor> Actor for Watched<A> {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            self.inner.on_start(ctx);
            self.observe();
        }

        fn on_datagram(&mut self, ctx: &mut Context<'_>, datagram: Datagram) {
            self.inner.on_datagram(ctx, datagram);
            self.observe();
        }

        fn on_tcp(&mut self, ctx: &mut Context<'_>, event: TcpEvent) {
            self.inner.on_tcp(ctx, event);
            self.observe();
        }

        fn on_timer(&mut self, ctx: &mut Context<'_>, tag: u64) {
            self.inner.on_timer(ctx, tag);
            self.observe();
        }
    }

    /// Runs `service` at `10.0.0.3` against `waves` waves of `burst`
    /// clients that all start together (one wave per virtual second),
    /// and returns the peak slot count `slots` read and how many
    /// lookups completed.
    pub(crate) fn peak_slots<A: Actor + 'static>(
        service: A,
        slots: fn(&A) -> usize,
        client: impl Fn(DiscoveryProbe) -> Box<dyn Actor>,
        burst: usize,
        waves: usize,
    ) -> (usize, usize) {
        let peak = std::sync::Arc::default();
        let probe = DiscoveryProbe::new();
        let mut sim = SimNet::new(7);
        sim.add_actor(
            "10.0.0.3",
            Watched { inner: service, slots, peak: std::sync::Arc::clone(&peak) },
        );
        for wave in 0..waves {
            for i in 0..burst {
                let start = SimDuration::from_secs(wave as u64);
                sim.add_actor(
                    format!("10.0.{}.{}", 1 + wave, 1 + i),
                    DelayedActor::new(start, client(probe.clone())),
                );
            }
        }
        sim.run_until_idle();
        (peak.load(std::sync::atomic::Ordering::Relaxed), probe.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_reuse_freed_indices() {
        let mut slots = Slots::default();
        assert_eq!((slots.insert('a'), slots.insert('b')), (0, 1));
        assert_eq!(slots.take(0), Some('a'));
        assert_eq!(slots.take(0), None, "a slot is taken once");
        assert_eq!(slots.insert('c'), 0, "the freed slot is reused");
        assert_eq!(slots.take(7), None);
        assert_eq!(slots.capacity(), 2);
    }

    #[test]
    fn cursor_reads_integers() {
        let data = [0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0A];
        let mut c = Cursor::new(&data);
        assert_eq!(c.u8().unwrap(), 1);
        assert_eq!(c.u16().unwrap(), 0x0203);
        assert_eq!(c.u24().unwrap(), 0x040506);
        assert_eq!(c.u32().unwrap(), 0x0708090A);
        assert_eq!(c.remaining(), 0);
        assert!(c.u8().is_err());
    }

    #[test]
    fn lp_string_roundtrip() {
        let mut w = Writer::new();
        w.lp_string("service:printer");
        let bytes = w.into_bytes();
        let mut c = Cursor::new(&bytes);
        assert_eq!(c.lp_string().unwrap(), "service:printer");
    }

    #[test]
    fn patch_u24_overwrites() {
        let mut w = Writer::new();
        w.u24(0);
        w.u16(0xFFFF);
        w.patch_u24(0, 5);
        assert_eq!(w.into_bytes(), vec![0, 0, 5, 0xFF, 0xFF]);
    }

    #[test]
    fn dns_name_roundtrip() {
        let mut w = Writer::new();
        write_dns_name(&mut w, "_printer._tcp.local").unwrap();
        let bytes = w.into_bytes();
        let mut c = Cursor::new(&bytes);
        assert_eq!(read_dns_name(&mut c).unwrap(), "_printer._tcp.local");
    }

    #[test]
    fn dns_root_name() {
        let mut w = Writer::new();
        write_dns_name(&mut w, "").unwrap();
        assert_eq!(w.into_bytes(), vec![0]);
    }

    #[test]
    fn dns_name_rejects_oversized_label() {
        let mut w = Writer::new();
        let long = "a".repeat(64);
        assert!(write_dns_name(&mut w, &long).is_err());
    }
}
