//! Building a machine must not pay for its installed memory up front:
//! physical memory is demand-paged, so `Machine::new` with the default
//! 16 MiB profile requests a few hundred bytes of heap, not 16 MiB. A
//! counting global allocator measures the bytes requested, so an eager
//! `vec![0; memory_size]` anywhere in the machine fails this test loudly.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use air_hw::machine::{Machine, MachineConfig};

/// Counts the bytes requested through every entry point (alloc,
/// alloc_zeroed, realloc) while delegating to the system allocator.
struct CountingAlloc;

thread_local! {
    /// Bytes requested by the current thread. The test harness runs
    /// tests on parallel threads, so a process-wide count would also
    /// pick up whatever a sibling test allocates meanwhile.
    static REQUESTED: Cell<u64> = const { Cell::new(0) };
}

fn count_request(bytes: usize) {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down; the const-initialised cell has no destructor, so this only
    // guards the access.
    let _ = REQUESTED.try_with(|count| count.set(count.get() + bytes as u64));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_request(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_request(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_request(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn requested_by<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = REQUESTED.with(Cell::get);
    let value = f();
    (value, REQUESTED.with(Cell::get) - before)
}

/// Ceiling for one default machine build: a small fraction of one
/// megabyte, far below the 16 MiB it installs.
const BUDGET_BYTES: u64 = 64 * 1024;

#[test]
fn default_machine_build_does_not_allocate_its_memory() {
    let config = MachineConfig::default();
    assert_eq!(config.memory_size, 16 * 1024 * 1024);
    let (machine, requested) = requested_by(|| Machine::new(config));
    assert_eq!(machine.memory.size(), 16 * 1024 * 1024);
    assert!(
        requested < BUDGET_BYTES,
        "Machine::new(MachineConfig::default()) requested {requested} bytes \
         (budget {BUDGET_BYTES})"
    );
}

#[test]
fn a_write_allocates_only_the_frames_it_touches() {
    let mut machine = Machine::new(MachineConfig::default());
    // Two bytes straddling the boundary between the last two frames.
    let addr = machine.memory.size() as u64 - air_hw::mmu::PAGE_SIZE - 1;
    let (result, requested) = requested_by(|| machine.memory.write(addr, &[7, 9]));
    assert_eq!(result, Ok(()));
    assert_eq!(machine.memory.read_u8(addr), Ok(7));
    assert_eq!(machine.memory.read_u8(addr + 1), Ok(9));
    // Two frames plus the frame table that indexes them.
    assert!(
        requested < BUDGET_BYTES,
        "a two-byte write requested {requested} bytes (budget {BUDGET_BYTES})"
    );
}
