//! Scratch reuse across campaign seeds must pay off at the allocator: a
//! warm [`CampaignScratch`] already owns the repeat probe's record table,
//! detection FIFO and rendered trace log, so a second campaign on the
//! same scratch performs strictly fewer allocations than the first. The
//! counting global allocator (the PR 1 pattern) proves it — campaigns
//! are deterministic, so allocation counts are too, and a strict
//! inequality is a stable assertion.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use air_core::campaign::{standard_plan, CampaignRunner, CampaignScratch};

/// Counts every allocation (alloc + realloc) while delegating to the
/// system allocator.
struct CountingAlloc;

thread_local! {
    /// Allocations made by the current thread. The test harness runs
    /// tests on parallel threads, so a process-wide count would also
    /// pick up whatever a sibling test allocates meanwhile.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down; the const-initialised cell has no destructor, so this only
    // guards the access.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations_of(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn warm_scratch_allocates_strictly_less_than_cold() {
    let runner = CampaignRunner::new(standard_plan(7, 1));
    let mut scratch = CampaignScratch::default();

    let mut outcomes = Vec::new();
    let cold = allocations_of(|| outcomes.push(runner.run_with_scratch(&mut scratch)));
    let warm = allocations_of(|| outcomes.push(runner.run_with_scratch(&mut scratch)));

    // Identical campaign both times — the runs only differ in scratch
    // temperature.
    assert!(outcomes[0].is_ok(), "{}", outcomes[0].report);
    assert_eq!(outcomes[0].detected(), outcomes[1].detected());
    assert_eq!(
        outcomes[0].report.violations().len(),
        outcomes[1].report.violations().len()
    );

    assert!(
        warm < cold,
        "recycled scratch must save allocations: cold run {cold}, warm run {warm}"
    );
}

#[test]
fn scratch_and_plain_run_agree() {
    let runner = CampaignRunner::new(standard_plan(11, 1));
    let plain = runner.run();
    let scratched = runner.run_with_scratch(&mut CampaignScratch::default());
    assert_eq!(plain.detected(), scratched.detected());
    assert_eq!(plain.deterministic, scratched.deterministic);
    assert_eq!(
        plain.report.violations().len(),
        scratched.report.violations().len()
    );
}
