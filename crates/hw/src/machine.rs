//! The assembled machine: clock, CPU, memory, MMU, interrupt controller,
//! console and link, advanced one tick at a time.
//!
//! The machine substitutes the paper's QEMU/IA-32 target. One call to
//! [`Machine::advance_tick`] models one timer period elapsing: the clock
//! increments and the clock-tick interrupt is raised; the PMK (living in
//! `air-pmk`, driven by the simulator in `air-core`) then acknowledges and
//! services interrupts, exactly as an ISR would.

use crate::clock::SystemClock;
use crate::console::Console;
use crate::cpu::Cpu;
use crate::interrupt::{InterruptController, InterruptLine};
use crate::link::LinkEndpoint;
use crate::memory::PhysicalMemory;
use crate::mmu::Mmu;
use crate::redundant::RedundantLink;

/// Configuration of an emulated machine.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Installed physical memory in bytes.
    pub memory_size: usize,
    /// Number of console output channels (≥ number of partitions).
    pub console_channels: usize,
    /// Primary inter-node link propagation latency in ticks.
    pub link_latency_ticks: u64,
    /// Secondary (redundant) link latency; `None` clones the primary's.
    pub secondary_link_latency_ticks: Option<u64>,
    /// Consecutive-loss rounds before failing over (0 disables failover).
    pub link_failover_threshold: u32,
    /// Probation ticks on the secondary before reverting to the primary.
    pub link_revert_ticks: u64,
    /// Clock tick period in simulated nanoseconds.
    pub tick_period_ns: u64,
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self {
            memory_size: 16 * 1024 * 1024,
            console_channels: 8,
            link_latency_ticks: 2,
            secondary_link_latency_ticks: None,
            link_failover_threshold: 4,
            link_revert_ticks: 400,
            tick_period_ns: SystemClock::DEFAULT_TICK_PERIOD_NS,
        }
    }
}

impl MachineConfig {
    /// A compact profile for fleet-scale emulation: enough installed
    /// memory for a handful of partitions under the standard application
    /// layout (each partition takes ~144 KiB of frames), and a narrow
    /// console fan-out.
    ///
    /// Physical memory is demand-paged, so the installed size is not what
    /// makes a machine cheap to build (any profile builds in O(1) and
    /// keeps only the frames it writes); it sets the frame budget the
    /// `air-pmk` spatial layer allocates partition memory from.
    ///
    /// Every field of a [`Machine`] is owned per instance — there is no
    /// shared or global state anywhere in `air-hw` — so compact machines
    /// built from the same config are fully independent: ticking them
    /// concurrently on different threads cannot leak state across the
    /// partition boundary of one emulated system into another.
    pub fn compact() -> Self {
        Self {
            memory_size: 2 * 1024 * 1024,
            console_channels: 4,
            ..Self::default()
        }
    }
}

/// The emulated onboard computer.
///
/// Components are public fields: the machine is a passive substrate and the
/// PMK is its only client; accessor indirection would add nothing but
/// friction (the fields are the documented interface, in the spirit of
/// C-STRUCT-PRIVATE's carve-out for passive compound structures).
///
/// # Examples
///
/// ```
/// use air_hw::machine::{Machine, MachineConfig};
/// use air_hw::interrupt::InterruptLine;
///
/// let mut machine = Machine::new(MachineConfig::default());
/// machine.advance_tick();
/// assert_eq!(machine.clock.now(), 1);
/// assert_eq!(machine.intc.acknowledge(), Some(InterruptLine::ClockTick));
/// ```
#[derive(Debug)]
pub struct Machine {
    /// The system clock (tick source).
    pub clock: SystemClock,
    /// The single CPU.
    pub cpu: Cpu,
    /// Installed physical memory.
    pub memory: PhysicalMemory,
    /// The three-level MMU.
    pub mmu: Mmu,
    /// The interrupt controller.
    pub intc: InterruptController,
    /// The text console device.
    pub console: Console,
    /// The redundant inter-node link pair (this node is endpoint A).
    pub link: RedundantLink,
}

impl Machine {
    /// Builds a machine from `config`.
    pub fn new(config: MachineConfig) -> Self {
        Self {
            clock: SystemClock::with_period_ns(config.tick_period_ns),
            cpu: Cpu::new(),
            memory: PhysicalMemory::new(config.memory_size),
            mmu: Mmu::new(),
            intc: InterruptController::new(),
            console: Console::new(config.console_channels),
            link: RedundantLink::new(
                config.link_latency_ticks,
                config
                    .secondary_link_latency_ticks
                    .unwrap_or(config.link_latency_ticks),
                config.link_failover_threshold,
                config.link_revert_ticks,
            ),
        }
    }

    /// Advances simulated time by one tick: increments the clock, raises
    /// the clock-tick interrupt, and raises the link/console lines if their
    /// devices have deliverable data. Returns the new tick count.
    pub fn advance_tick(&mut self) -> u64 {
        let now = self.clock.advance();
        self.intc.raise(InterruptLine::ClockTick);
        if self.link.has_deliverable(LinkEndpoint::A, now) {
            self.intc.raise(InterruptLine::Link);
        }
        if self.console.has_pending_keys() {
            self.intc.raise(InterruptLine::ConsoleInput);
        }
        now
    }
}

impl Default for Machine {
    fn default() -> Self {
        Self::new(MachineConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::console::KeyEvent;

    #[test]
    fn tick_raises_clock_interrupt_every_time() {
        let mut m = Machine::default();
        for expected in 1..=5u64 {
            assert_eq!(m.advance_tick(), expected);
            assert_eq!(m.intc.acknowledge(), Some(InterruptLine::ClockTick));
            assert_eq!(m.intc.acknowledge(), None);
        }
    }

    #[test]
    fn link_arrival_raises_link_line() {
        let mut m = Machine::new(MachineConfig {
            link_latency_ticks: 2,
            ..MachineConfig::default()
        });
        m.link.send(LinkEndpoint::B, 0, vec![7]);
        m.advance_tick(); // t=1: not yet deliverable
        assert_eq!(m.intc.acknowledge(), Some(InterruptLine::ClockTick));
        assert_eq!(m.intc.acknowledge(), None);
        m.advance_tick(); // t=2: deliverable → Link raised
        assert_eq!(m.intc.acknowledge(), Some(InterruptLine::ClockTick));
        assert_eq!(m.intc.acknowledge(), Some(InterruptLine::Link));
        assert_eq!(m.link.receive(LinkEndpoint::A, m.clock.now()), Some(vec![7]));
    }

    #[test]
    fn pending_key_raises_console_line() {
        let mut m = Machine::default();
        m.console.push_key(KeyEvent::Char('s'));
        m.advance_tick();
        assert_eq!(m.intc.acknowledge(), Some(InterruptLine::ClockTick));
        assert_eq!(m.intc.acknowledge(), Some(InterruptLine::ConsoleInput));
    }
}
