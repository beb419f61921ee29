//! Physical memory of the emulated machine, demand-paged.
//!
//! Installed memory is a size, not an allocation: the frame table starts
//! empty and a frame (one MMU page, [`PAGE_SIZE`] bytes) is allocated on
//! the first write that touches it. Untouched bytes read as zero, exactly
//! as freshly installed zeroed memory would, so building a machine costs
//! the same whatever its `memory_size`.

use std::fmt;

use crate::mmu::PAGE_SIZE;

/// Bytes per frame: one MMU page.
const FRAME: usize = PAGE_SIZE as usize;

/// Byte-addressable physical memory with bounds-checked access.
///
/// Spatial partitioning ultimately protects ranges of this memory: the MMU
/// translates partition-virtual addresses into physical frames here, and
/// interpartition communication performs the "memory-to-memory copies not
/// violating spatial separation requirements" (Sect. 2.1) between regions
/// owned by different partitions.
///
/// Frames are allocated on first write; a byte no write has touched reads
/// as zero. [`size`](Self::size) is the installed memory every access is
/// checked against, not the resident memory behind it. Accesses that
/// straddle frames are split at frame boundaries and behave exactly like
/// accesses to one flat byte array.
///
/// # Examples
///
/// ```
/// use air_hw::PhysicalMemory;
///
/// let mut mem = PhysicalMemory::new(64 * 1024);
/// mem.write(0x100, b"hello")?;
/// let mut buf = [0u8; 5];
/// mem.read(0x100, &mut buf)?;
/// assert_eq!(&buf, b"hello");
/// assert_eq!(mem.read_u8(0x8000)?, 0); // never written: reads as zero
/// # Ok::<(), air_hw::memory::OutOfRange>(())
/// ```
#[derive(Clone)]
pub struct PhysicalMemory {
    size: usize,
    /// Frame `i` backs bytes `[i * FRAME, (i + 1) * FRAME)`; `None`, or an
    /// index past the end, is a frame no write has touched yet.
    frames: Vec<Option<Box<[u8; FRAME]>>>,
}

/// Error returned when a physical access falls outside installed memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfRange {
    /// First byte of the offending access.
    pub addr: u64,
    /// Length of the offending access.
    pub len: usize,
    /// Installed memory size.
    pub size: usize,
}

impl fmt::Display for OutOfRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "physical access [{:#x}, {:#x}) outside installed memory of {} bytes",
            self.addr,
            self.addr.saturating_add(self.len as u64),
            self.size
        )
    }
}

impl std::error::Error for OutOfRange {}

/// Splits the access `[start, start + len)` at frame boundaries, yielding
/// `(frame, offset in frame, offset in access, length)` per piece.
fn pieces(start: usize, len: usize) -> impl Iterator<Item = (usize, usize, usize, usize)> {
    let mut done = 0;
    std::iter::from_fn(move || {
        (done < len).then(|| {
            let addr = start + done;
            let offset = addr % FRAME;
            let n = (FRAME - offset).min(len - done);
            let piece = (addr / FRAME, offset, done, n);
            done += n;
            piece
        })
    })
}

impl PhysicalMemory {
    /// Installs `size` bytes of zeroed memory. No frame is allocated
    /// until it is first written.
    pub fn new(size: usize) -> Self {
        Self {
            size,
            frames: Vec::new(),
        }
    }

    /// Installed memory size in bytes (not the resident frames behind it).
    pub fn size(&self) -> usize {
        self.size
    }

    fn check(&self, addr: u64, len: usize) -> Result<usize, OutOfRange> {
        let err = OutOfRange {
            addr,
            len,
            size: self.size,
        };
        let start = usize::try_from(addr).map_err(|_| err)?;
        match start.checked_add(len) {
            Some(end) if end <= self.size => Ok(start),
            _ => Err(err),
        }
    }

    /// Copies `[start, start + buf.len())` into `buf`; the range is
    /// already checked.
    fn read_checked(&self, start: usize, buf: &mut [u8]) {
        for (frame, offset, at, n) in pieces(start, buf.len()) {
            let out = &mut buf[at..at + n];
            match self.frames.get(frame).and_then(Option::as_deref) {
                Some(bytes) => out.copy_from_slice(&bytes[offset..offset + n]),
                None => out.fill(0),
            }
        }
    }

    /// Copies `data` to `[start, start + data.len())`; the range is
    /// already checked.
    fn write_checked(&mut self, start: usize, data: &[u8]) {
        if data.is_empty() {
            return;
        }
        // Grow the table once, to the last frame this write touches.
        let end_frame = (start + data.len()).div_ceil(FRAME);
        if end_frame > self.frames.len() {
            self.frames.resize_with(end_frame, || None);
        }
        for (frame, offset, at, n) in pieces(start, data.len()) {
            let bytes = self.frames[frame].get_or_insert_with(|| Box::new([0; FRAME]));
            bytes[offset..offset + n].copy_from_slice(&data[at..at + n]);
        }
    }

    /// Reads `buf.len()` bytes starting at physical `addr`.
    ///
    /// # Errors
    ///
    /// [`OutOfRange`] if any byte of the access is beyond installed memory;
    /// no partial reads occur.
    pub fn read(&self, addr: u64, buf: &mut [u8]) -> Result<(), OutOfRange> {
        let start = self.check(addr, buf.len())?;
        self.read_checked(start, buf);
        Ok(())
    }

    /// Writes `data` starting at physical `addr`.
    ///
    /// # Errors
    ///
    /// [`OutOfRange`] if any byte of the access is beyond installed memory;
    /// no partial writes occur.
    pub fn write(&mut self, addr: u64, data: &[u8]) -> Result<(), OutOfRange> {
        let start = self.check(addr, data.len())?;
        self.write_checked(start, data);
        Ok(())
    }

    /// Copies `len` bytes from `src` to `dst` within physical memory — the
    /// primitive behind local interpartition message transfer. Overlapping
    /// ranges behave like `memmove`.
    ///
    /// # Errors
    ///
    /// [`OutOfRange`] if either range is beyond installed memory (the
    /// source range is checked first).
    pub fn copy_within(&mut self, src: u64, dst: u64, len: usize) -> Result<(), OutOfRange> {
        let s = self.check(src, len)?;
        let d = self.check(dst, len)?;
        // Move one frame-sized chunk at a time through a stack buffer, in
        // the direction that never overwrites source bytes not yet read.
        let mut buf = [0u8; FRAME];
        let chunks = len.div_ceil(FRAME);
        for k in 0..chunks {
            let k = if d > s { chunks - 1 - k } else { k };
            let at = k * FRAME;
            let chunk = &mut buf[..FRAME.min(len - at)];
            self.read_checked(s + at, chunk);
            self.write_checked(d + at, chunk);
        }
        Ok(())
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`OutOfRange`] if `addr` is beyond installed memory.
    pub fn read_u8(&self, addr: u64) -> Result<u8, OutOfRange> {
        let mut b = [0u8; 1];
        self.read(addr, &mut b)?;
        Ok(b[0])
    }

    /// Writes one byte.
    ///
    /// # Errors
    ///
    /// [`OutOfRange`] if `addr` is beyond installed memory.
    pub fn write_u8(&mut self, addr: u64, value: u8) -> Result<(), OutOfRange> {
        self.write(addr, &[value])
    }
}

impl fmt::Debug for PhysicalMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PhysicalMemory")
            .field("size", &self.size)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_roundtrip() {
        let mut m = PhysicalMemory::new(1024);
        m.write(10, &[1, 2, 3]).unwrap();
        let mut buf = [0u8; 3];
        m.read(10, &mut buf).unwrap();
        assert_eq!(buf, [1, 2, 3]);
        assert_eq!(m.read_u8(11).unwrap(), 2);
    }

    #[test]
    fn bounds_are_enforced_exactly() {
        let mut m = PhysicalMemory::new(16);
        assert!(m.write(14, &[0, 0]).is_ok());
        let err = m.write(15, &[0, 0]).unwrap_err();
        assert_eq!(err.addr, 15);
        assert_eq!(err.len, 2);
        let mut buf = [0u8; 1];
        assert!(m.read(16, &mut buf).is_err());
    }

    #[test]
    fn copy_within_moves_payloads() {
        let mut m = PhysicalMemory::new(64);
        m.write(0, b"message").unwrap();
        m.copy_within(0, 32, 7).unwrap();
        let mut buf = [0u8; 7];
        m.read(32, &mut buf).unwrap();
        assert_eq!(&buf, b"message");
        assert!(m.copy_within(60, 0, 8).is_err());
    }

    #[test]
    fn huge_address_is_rejected_not_panicking() {
        let m = PhysicalMemory::new(16);
        let mut buf = [0u8; 1];
        let err = m.read(u64::MAX, &mut buf).unwrap_err();
        // The end of the reported range saturates instead of overflowing.
        assert!(err
            .to_string()
            .contains("0xffffffffffffffff, 0xffffffffffffffff"));
    }
}
