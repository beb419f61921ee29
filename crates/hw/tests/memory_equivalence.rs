//! Differential test: demand-paged [`PhysicalMemory`] and a flat byte
//! array agree on arbitrary `read` / `write` / `copy_within` / `read_u8` /
//! `write_u8` sequences — every result, every [`OutOfRange`] value and
//! every byte of memory. Frames are an allocation strategy, never a
//! visible behaviour: a piece lost at a frame boundary, an untouched frame
//! that reads non-zero, or a clone that shares a frame with its original
//! shows up here as a divergence.

use air_hw::memory::OutOfRange;
use air_hw::mmu::PAGE_SIZE;
use air_hw::PhysicalMemory;
use air_model::testkit::TestRng;

const SEEDS: u64 = 64;
const OPS_PER_SEED: usize = 400;
const FRAME: u64 = PAGE_SIZE;

/// The reference: installed memory as one eagerly zeroed byte array, with
/// the bounds rule spelled out directly.
#[derive(Clone)]
struct FlatMemory {
    bytes: Vec<u8>,
}

impl FlatMemory {
    fn new(size: usize) -> Self {
        Self {
            bytes: vec![0; size],
        }
    }

    fn check(&self, addr: u64, len: usize) -> Result<usize, OutOfRange> {
        let err = OutOfRange {
            addr,
            len,
            size: self.bytes.len(),
        };
        let start = usize::try_from(addr).map_err(|_| err)?;
        let end = start.checked_add(len).ok_or(err)?;
        if end > self.bytes.len() {
            return Err(err);
        }
        Ok(start)
    }

    fn read(&self, addr: u64, buf: &mut [u8]) -> Result<(), OutOfRange> {
        let start = self.check(addr, buf.len())?;
        buf.copy_from_slice(&self.bytes[start..start + buf.len()]);
        Ok(())
    }

    fn write(&mut self, addr: u64, data: &[u8]) -> Result<(), OutOfRange> {
        let start = self.check(addr, data.len())?;
        self.bytes[start..start + data.len()].copy_from_slice(data);
        Ok(())
    }

    fn copy_within(&mut self, src: u64, dst: u64, len: usize) -> Result<(), OutOfRange> {
        let s = self.check(src, len)?;
        let d = self.check(dst, len)?;
        self.bytes.copy_within(s..s + len, d);
        Ok(())
    }

    fn read_u8(&self, addr: u64) -> Result<u8, OutOfRange> {
        let mut b = [0u8; 1];
        self.read(addr, &mut b)?;
        Ok(b[0])
    }

    fn write_u8(&mut self, addr: u64, value: u8) -> Result<(), OutOfRange> {
        self.write(addr, &[value])
    }
}

/// An installed size: a few frames, on or off a frame boundary.
fn random_size(rng: &mut TestRng) -> usize {
    let frames = rng.range(0, 9);
    let tail = match rng.below(3) {
        0 => 0,
        1 => rng.range(1, FRAME),
        _ => FRAME - 1,
    };
    (frames * FRAME + tail) as usize
}

/// An address biased toward the interesting ones: frame boundaries (and
/// one byte either side), the last installed byte and one past it, and
/// addresses whose end overflows `usize`.
fn random_addr(rng: &mut TestRng, size: usize) -> u64 {
    let size = size as u64;
    match rng.below(8) {
        0 => size.saturating_sub(1),
        1 => size,
        2 => size + rng.range(1, 3),
        3 => u64::MAX - rng.below(2),
        4 => u64::try_from(usize::MAX).unwrap_or(u64::MAX) - rng.below(3),
        5 | 6 => {
            let boundary = rng.below(size / FRAME + 2) * FRAME;
            (boundary + rng.below(3)).saturating_sub(1)
        }
        _ => rng.below(size + 1),
    }
}

/// A length that may stay in one frame, cross one boundary or span
/// several frames.
fn random_len(rng: &mut TestRng) -> usize {
    (match rng.below(6) {
        0 => 0,
        1 => 1,
        2 => rng.range(2, 16),
        3 => FRAME + rng.below(3) - 1,
        4 => rng.range(1, 3 * FRAME),
        _ => rng.range(1, 64),
    }) as usize
}

fn random_bytes(rng: &mut TestRng, len: usize) -> Vec<u8> {
    // Never all zero: a write must be visible whether or not its frame
    // already existed.
    (0..len).map(|_| rng.range(1, 256) as u8).collect()
}

/// Every byte and the installed size agree.
fn assert_same_contents(paged: &PhysicalMemory, flat: &FlatMemory, ctx: &str) {
    assert_eq!(paged.size(), flat.bytes.len(), "{ctx}: size");
    let mut all = vec![0xAAu8; paged.size()];
    paged
        .read(0, &mut all)
        .unwrap_or_else(|e| panic!("{ctx}: whole-memory read failed: {e}"));
    if let Some(at) = all.iter().zip(&flat.bytes).position(|(a, b)| a != b) {
        panic!(
            "{ctx}: byte {at:#x} differs: paged {:#04x}, flat {:#04x}",
            all[at], flat.bytes[at]
        );
    }
}

/// One random operation applied to both memories; results must agree.
fn step(rng: &mut TestRng, paged: &mut PhysicalMemory, flat: &mut FlatMemory, ctx: &str) {
    let size = flat.bytes.len();
    match rng.below(6) {
        0 => {
            let addr = random_addr(rng, size);
            let len = random_len(rng);
            let (mut got, mut want) = (vec![0x55u8; len], vec![0x55u8; len]);
            let (r_got, r_want) = (paged.read(addr, &mut got), flat.read(addr, &mut want));
            assert_eq!(r_got, r_want, "{ctx}: read({addr:#x}, {len})");
            assert_eq!(got, want, "{ctx}: read({addr:#x}, {len}) bytes");
        }
        1 | 2 => {
            let addr = random_addr(rng, size);
            let len = random_len(rng);
            let data = random_bytes(rng, len);
            assert_eq!(
                paged.write(addr, &data),
                flat.write(addr, &data),
                "{ctx}: write({addr:#x}, {})",
                data.len()
            );
        }
        3 => {
            // Overlapping moves in both directions are the common case:
            // keep `dst` within a frame or two of `src` half the time.
            let src = random_addr(rng, size);
            let len = match rng.below(3) {
                0 => usize::MAX - rng.below_usize(2),
                _ => random_len(rng),
            };
            let dst = if rng.chance(1, 2) {
                let delta = rng.range(1, 2 * FRAME);
                if rng.chance(1, 2) {
                    src.saturating_add(delta)
                } else {
                    src.saturating_sub(delta)
                }
            } else {
                random_addr(rng, size)
            };
            assert_eq!(
                paged.copy_within(src, dst, len),
                flat.copy_within(src, dst, len),
                "{ctx}: copy_within({src:#x}, {dst:#x}, {len})"
            );
        }
        4 => {
            let addr = random_addr(rng, size);
            assert_eq!(
                paged.read_u8(addr),
                flat.read_u8(addr),
                "{ctx}: read_u8({addr:#x})"
            );
        }
        _ => {
            let addr = random_addr(rng, size);
            let value = rng.range(1, 256) as u8;
            assert_eq!(
                paged.write_u8(addr, value),
                flat.write_u8(addr, value),
                "{ctx}: write_u8({addr:#x})"
            );
        }
    }
}

#[test]
fn demand_paged_memory_matches_flat_reference() {
    for seed in 1..=SEEDS {
        let mut rng = TestRng::new(seed);
        let size = random_size(&mut rng);
        let mut paged = PhysicalMemory::new(size);
        let mut flat = FlatMemory::new(size);
        for op in 0..OPS_PER_SEED {
            let ctx = format!("seed {seed}, size {size:#x}, op {op}");
            step(&mut rng, &mut paged, &mut flat, &ctx);
        }
        assert_same_contents(&paged, &flat, &format!("seed {seed}, size {size:#x}"));
    }
}

#[test]
fn clone_writes_leave_the_original_unchanged() {
    for seed in 1..=SEEDS {
        let mut rng = TestRng::new(seed ^ 0xC10E);
        let size = random_size(&mut rng);
        let mut paged = PhysicalMemory::new(size);
        let mut flat = FlatMemory::new(size);
        for op in 0..OPS_PER_SEED / 4 {
            let ctx = format!("seed {seed}, original op {op}");
            step(&mut rng, &mut paged, &mut flat, &ctx);
        }
        let (mut paged_clone, mut flat_clone) = (paged.clone(), flat.clone());
        for op in 0..OPS_PER_SEED / 4 {
            let ctx = format!("seed {seed}, clone op {op}");
            step(&mut rng, &mut paged_clone, &mut flat_clone, &ctx);
        }
        assert_same_contents(&paged, &flat, &format!("seed {seed}, original"));
        assert_same_contents(&paged_clone, &flat_clone, &format!("seed {seed}, clone"));
    }
}

#[test]
fn boundary_accesses_match_flat_reference() {
    // The fixed edges, independent of what the random walk happens to hit.
    for size in [
        0,
        1,
        FRAME as usize - 1,
        FRAME as usize,
        3 * FRAME as usize + 7,
    ] {
        let mut paged = PhysicalMemory::new(size);
        let mut flat = FlatMemory::new(size);
        let last = (size as u64).saturating_sub(1);
        for (addr, len) in [
            (last, 1),
            (size as u64, 0),
            (size as u64, 1),
            (last, 2),
            (u64::MAX, 0),
            (u64::MAX, 1),
            (FRAME - 1, 2),
            (1, usize::MAX),
        ] {
            let ctx = format!("size {size:#x}, [{addr:#x}; {len}]");
            if len <= 2 {
                let data = vec![0xEEu8; len];
                assert_eq!(paged.write(addr, &data), flat.write(addr, &data), "{ctx}");
                let (mut got, mut want) = (vec![0u8; len], vec![0u8; len]);
                assert_eq!(
                    paged.read(addr, &mut got),
                    flat.read(addr, &mut want),
                    "{ctx}"
                );
                assert_eq!(got, want, "{ctx}");
            }
            assert_eq!(
                paged.copy_within(addr, 0, len),
                flat.copy_within(addr, 0, len),
                "{ctx}: source first"
            );
            assert_eq!(
                paged.copy_within(0, addr, len),
                flat.copy_within(0, addr, len),
                "{ctx}: destination"
            );
        }
        assert_same_contents(&paged, &flat, &format!("size {size:#x}"));
    }
}
