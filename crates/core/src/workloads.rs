//! Synchronization and contention workloads (§5.4).
//!
//! The paper warns that "straightforward use of test-and-set locks on the
//! same cache pages as the data being modified could result in enormous
//! consistency overhead", and proposes kernel notification locks built on
//! the bus monitor's `11` code. These workloads reproduce both designs so
//! the contention ablation can measure the difference.

use vmp_obs::json::Value;
use vmp_types::{Nanos, VirtAddr};

use crate::{MachineError, Op, OpResult, Program};

/// How a [`LockWorker`] waits for a contended lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockDiscipline {
    /// Busy-wait with test-and-set: each attempt acquires the lock page
    /// exclusively, ping-ponging ownership (the §5.4 anti-pattern).
    Spin,
    /// Notification lock: on failure, flush the lock page, set the
    /// action table to `11`, and sleep until the holder notifies (§5.4).
    Notify,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LockState {
    Idle,
    TryLock,
    AwaitWatchSet,
    Waiting,
    ReadCounter,
    CriticalCompute,
    Unlock,
    NotifyWaiters,
    Think,
}

names! { LockDiscipline { Spin = "spin", Notify = "notify" } }
names! { LockState [
    Idle, TryLock, AwaitWatchSet, Waiting, ReadCounter, CriticalCompute, Unlock, NotifyWaiters,
    Think,
] }

/// A worker that repeatedly acquires a lock, increments a shared counter
/// in its critical section, and releases.
///
/// The shared counter makes correctness observable: after all workers
/// halt, the counter must equal the total number of critical sections
/// executed — any lost update means mutual exclusion or coherence broke.
///
/// # Examples
///
/// ```
/// use vmp_core::workloads::{LockDiscipline, LockWorker};
/// use vmp_types::{Nanos, VirtAddr};
///
/// let w = LockWorker::new(
///     LockDiscipline::Spin,
///     VirtAddr::new(0x1000), // lock word
///     VirtAddr::new(0x2000), // counter word (different page)
///     10,                    // critical sections to run
///     Nanos::from_us(2),     // critical-section compute
///     Nanos::from_us(5),     // think time between sections
/// );
/// assert_eq!(w.completed(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct LockWorker {
    discipline: LockDiscipline,
    lock: VirtAddr,
    counter: VirtAddr,
    iterations: u64,
    completed: u64,
    cs_compute: Nanos,
    think: Nanos,
    state: LockState,
    counter_seen: u32,
    /// TAS attempts that found the lock held.
    contended_attempts: u64,
}

impl LockWorker {
    /// Creates a worker that will run `iterations` critical sections.
    pub fn new(
        discipline: LockDiscipline,
        lock: VirtAddr,
        counter: VirtAddr,
        iterations: u64,
        cs_compute: Nanos,
        think: Nanos,
    ) -> Self {
        LockWorker {
            discipline,
            lock,
            counter,
            iterations,
            completed: 0,
            cs_compute,
            think,
            state: LockState::Idle,
            counter_seen: 0,
            contended_attempts: 0,
        }
    }

    /// Critical sections completed so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// TAS attempts that found the lock already held.
    pub fn contended_attempts(&self) -> u64 {
        self.contended_attempts
    }
}

impl Program for LockWorker {
    fn next_op(&mut self, last: OpResult) -> Op {
        loop {
            match self.state {
                LockState::Idle => {
                    if self.completed >= self.iterations {
                        return Op::Halt;
                    }
                    self.state = LockState::TryLock;
                    return Op::Tas(self.lock);
                }
                LockState::TryLock => match last {
                    OpResult::Tas(0) => {
                        self.state = LockState::ReadCounter;
                        return Op::Read(self.counter);
                    }
                    OpResult::Tas(_) => {
                        self.contended_attempts += 1;
                        match self.discipline {
                            LockDiscipline::Spin => {
                                // Stay in TryLock and hammer the lock.
                                return Op::Tas(self.lock);
                            }
                            LockDiscipline::Notify => {
                                self.state = LockState::AwaitWatchSet;
                                return Op::WatchNotify(self.lock);
                            }
                        }
                    }
                    _ => {
                        // Re-entered after an unrelated result; retry.
                        return Op::Tas(self.lock);
                    }
                },
                LockState::AwaitWatchSet => {
                    self.state = LockState::Waiting;
                    return Op::WaitNotify;
                }
                LockState::Waiting => {
                    // Either notified or timed out: retry the lock.
                    self.state = LockState::TryLock;
                    return Op::Tas(self.lock);
                }
                LockState::ReadCounter => {
                    if let OpResult::Read(v) = last {
                        self.counter_seen = v;
                        self.state = LockState::CriticalCompute;
                        return Op::Write(self.counter, v + 1);
                    }
                    // Shouldn't happen; be defensive.
                    return Op::Read(self.counter);
                }
                LockState::CriticalCompute => {
                    self.state = LockState::Unlock;
                    return Op::Compute(self.cs_compute);
                }
                LockState::Unlock => {
                    self.state = match self.discipline {
                        LockDiscipline::Spin => LockState::Think,
                        LockDiscipline::Notify => LockState::NotifyWaiters,
                    };
                    self.completed += 1;
                    return Op::Write(self.lock, 0);
                }
                LockState::NotifyWaiters => {
                    self.state = LockState::Think;
                    return Op::Notify(self.lock);
                }
                LockState::Think => {
                    self.state = LockState::Idle;
                    if self.think > Nanos::ZERO {
                        return Op::Compute(self.think);
                    }
                    // Fall through to Idle without an op.
                }
            }
        }
    }

    program_state! {
        "lock",
        config [discipline, lock, counter, iterations, cs_compute, think],
        progress [completed, state, counter_seen, contended_attempts]
    }
}

/// A worker that sweeps an array of words, reading or writing each —
/// useful for sharing/false-sharing experiments: two sweepers writing
/// disjoint words of the *same* pages ping-pong ownership.
#[derive(Debug, Clone)]
pub struct SweepWorker {
    base: VirtAddr,
    words: u64,
    stride_bytes: u64,
    rounds: u64,
    write: bool,
    pos: u64,
    round: u64,
}

impl SweepWorker {
    /// Creates a sweeper over `words` words starting at `base`, striding
    /// `stride_bytes`, repeating `rounds` times.
    pub fn new(base: VirtAddr, words: u64, stride_bytes: u64, rounds: u64, write: bool) -> Self {
        assert!(words > 0 && rounds > 0 && stride_bytes >= 4, "degenerate sweep");
        SweepWorker { base, words, stride_bytes, rounds, write, pos: 0, round: 0 }
    }
}

impl Program for SweepWorker {
    fn next_op(&mut self, _last: OpResult) -> Op {
        if self.round >= self.rounds {
            return Op::Halt;
        }
        let addr = VirtAddr::new(self.base.raw() + self.pos * self.stride_bytes);
        self.pos += 1;
        if self.pos == self.words {
            self.pos = 0;
            self.round += 1;
        }
        if self.write {
            Op::Write(addr, (self.round as u32) << 16 | self.pos as u32)
        } else {
            Op::Read(addr)
        }
    }

    program_state! {
        "sweep",
        config [base, words, stride_bytes, rounds, write],
        progress [pos, round]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spin_worker_happy_path() {
        let mut w = LockWorker::new(
            LockDiscipline::Spin,
            VirtAddr::new(0x100),
            VirtAddr::new(0x200),
            1,
            Nanos::from_us(1),
            Nanos::ZERO,
        );
        assert_eq!(w.next_op(OpResult::None), Op::Tas(VirtAddr::new(0x100)));
        assert_eq!(w.next_op(OpResult::Tas(0)), Op::Read(VirtAddr::new(0x200)));
        assert_eq!(w.next_op(OpResult::Read(5)), Op::Write(VirtAddr::new(0x200), 6));
        assert_eq!(w.next_op(OpResult::None), Op::Compute(Nanos::from_us(1)));
        assert_eq!(w.next_op(OpResult::None), Op::Write(VirtAddr::new(0x100), 0));
        assert_eq!(w.completed(), 1);
        assert_eq!(w.next_op(OpResult::None), Op::Halt);
    }

    #[test]
    fn spin_worker_spins_on_contention() {
        let mut w = LockWorker::new(
            LockDiscipline::Spin,
            VirtAddr::new(0x100),
            VirtAddr::new(0x200),
            1,
            Nanos::ZERO,
            Nanos::ZERO,
        );
        let _ = w.next_op(OpResult::None);
        assert_eq!(w.next_op(OpResult::Tas(1)), Op::Tas(VirtAddr::new(0x100)));
        assert_eq!(w.next_op(OpResult::Tas(1)), Op::Tas(VirtAddr::new(0x100)));
        assert_eq!(w.contended_attempts(), 2);
    }

    #[test]
    fn notify_worker_parks_on_contention() {
        let mut w = LockWorker::new(
            LockDiscipline::Notify,
            VirtAddr::new(0x100),
            VirtAddr::new(0x200),
            1,
            Nanos::ZERO,
            Nanos::ZERO,
        );
        let _ = w.next_op(OpResult::None);
        assert_eq!(w.next_op(OpResult::Tas(1)), Op::WatchNotify(VirtAddr::new(0x100)));
        assert_eq!(w.next_op(OpResult::None), Op::WaitNotify);
        assert_eq!(
            w.next_op(OpResult::Notified(VirtAddr::new(0x100))),
            Op::Tas(VirtAddr::new(0x100))
        );
    }

    #[test]
    fn notify_worker_notifies_after_unlock() {
        let mut w = LockWorker::new(
            LockDiscipline::Notify,
            VirtAddr::new(0x100),
            VirtAddr::new(0x200),
            1,
            Nanos::ZERO,
            Nanos::ZERO,
        );
        let _ = w.next_op(OpResult::None); // TAS
        let _ = w.next_op(OpResult::Tas(0)); // read counter
        let _ = w.next_op(OpResult::Read(0)); // write counter
        let _ = w.next_op(OpResult::None); // critical-section compute
        assert_eq!(w.next_op(OpResult::None), Op::Write(VirtAddr::new(0x100), 0)); // unlock
        assert_eq!(w.next_op(OpResult::None), Op::Notify(VirtAddr::new(0x100)));
    }

    #[test]
    fn sweep_worker_walks_and_halts() {
        let mut w = SweepWorker::new(VirtAddr::new(0), 2, 4, 2, false);
        assert_eq!(w.next_op(OpResult::None), Op::Read(VirtAddr::new(0)));
        assert_eq!(w.next_op(OpResult::None), Op::Read(VirtAddr::new(4)));
        assert_eq!(w.next_op(OpResult::None), Op::Read(VirtAddr::new(0)));
        assert_eq!(w.next_op(OpResult::None), Op::Read(VirtAddr::new(4)));
        assert_eq!(w.next_op(OpResult::None), Op::Halt);
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn sweep_rejects_zero_words() {
        let _ = SweepWorker::new(VirtAddr::new(0), 0, 4, 1, false);
    }
}

/// Sends words to a mailbox page and notifies watchers — the
/// interprocessor-message use of the bus monitor suggested in §5.4
/// ("the bus monitor would interrupt the processor when a message is
/// written to the cache page corresponding to its mailbox").
#[derive(Debug, Clone)]
pub struct MessageSender {
    mailbox: VirtAddr,
    messages: Vec<u32>,
    gap: Nanos,
    next: usize,
    stage: SenderStage,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SenderStage {
    Gap,
    Write,
    Notify,
}

names! { SenderStage [Gap, Write, Notify] }

impl MessageSender {
    /// Creates a sender that posts `messages` to `mailbox`, pausing
    /// `gap` between messages (give receivers time to re-arm).
    pub fn new(mailbox: VirtAddr, messages: Vec<u32>, gap: Nanos) -> Self {
        MessageSender { mailbox, messages, gap, next: 0, stage: SenderStage::Gap }
    }
}

impl Program for MessageSender {
    fn next_op(&mut self, _last: OpResult) -> Op {
        if self.next >= self.messages.len() {
            return Op::Halt;
        }
        match self.stage {
            SenderStage::Gap => {
                self.stage = SenderStage::Write;
                Op::Compute(self.gap)
            }
            SenderStage::Write => {
                self.stage = SenderStage::Notify;
                Op::Write(self.mailbox, self.messages[self.next])
            }
            SenderStage::Notify => {
                self.stage = SenderStage::Gap;
                self.next += 1;
                Op::Notify(self.mailbox)
            }
        }
    }

    program_state! {
        "msg-sender",
        config [mailbox, messages, gap],
        progress [next, stage],
        valid |s| s.next <= s.messages.len()
    }
}

/// Receives words from a mailbox page by watching it with action-table
/// code `11` and sleeping until notified; each received word is copied
/// to an acknowledgement cell so tests can observe delivery.
///
/// An empty mailbox reads zero (messages must be non-zero); the receiver
/// clears the word after consuming it, so a spurious timeout wakeup —
/// the race the §5.4 kernel lock also tolerates — is simply re-armed.
#[derive(Debug, Clone)]
pub struct MessageReceiver {
    mailbox: VirtAddr,
    ack: VirtAddr,
    expect: usize,
    received: u64,
    stage: ReceiverStage,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReceiverStage {
    Arm,
    Wait,
    Fetch,
    Check,
    Clear,
}

names! { ReceiverStage [Arm, Wait, Fetch, Check, Clear] }

impl MessageReceiver {
    /// Creates a receiver expecting `expect` messages on `mailbox`,
    /// acknowledging each into `ack`.
    pub fn new(mailbox: VirtAddr, ack: VirtAddr, expect: usize) -> Self {
        MessageReceiver { mailbox, ack, expect, received: 0, stage: ReceiverStage::Arm }
    }

    /// Messages received so far.
    pub fn received(&self) -> u64 {
        self.received
    }
}

impl Program for MessageReceiver {
    fn next_op(&mut self, last: OpResult) -> Op {
        loop {
            match self.stage {
                ReceiverStage::Arm => {
                    if self.received as usize >= self.expect {
                        return Op::Halt;
                    }
                    self.stage = ReceiverStage::Wait;
                    return Op::WatchNotify(self.mailbox);
                }
                ReceiverStage::Wait => {
                    self.stage = ReceiverStage::Fetch;
                    return Op::WaitNotify;
                }
                ReceiverStage::Fetch => {
                    // Notified (or timed out): read the mailbox either way
                    // — the timeout covers the missed-wakeup race.
                    self.stage = ReceiverStage::Check;
                    return Op::Read(self.mailbox);
                }
                ReceiverStage::Check => match last {
                    OpResult::Read(0) | OpResult::None => {
                        // Spurious wakeup: nothing delivered yet.
                        self.stage = ReceiverStage::Arm;
                    }
                    OpResult::Read(v) => {
                        self.received += 1;
                        self.stage = ReceiverStage::Clear;
                        return Op::Write(self.ack, v);
                    }
                    _ => {
                        self.stage = ReceiverStage::Arm;
                    }
                },
                ReceiverStage::Clear => {
                    self.stage = ReceiverStage::Arm;
                    return Op::Write(self.mailbox, 0);
                }
            }
        }
    }

    program_state! { "msg-receiver", config [mailbox, ack, expect], progress [received, stage] }
}

#[cfg(test)]
mod message_tests {
    use super::*;

    #[test]
    fn sender_emits_write_then_notify() {
        let mut s = MessageSender::new(VirtAddr::new(0x100), vec![7, 8], Nanos::from_us(1));
        assert_eq!(s.next_op(OpResult::None), Op::Compute(Nanos::from_us(1)));
        assert_eq!(s.next_op(OpResult::None), Op::Write(VirtAddr::new(0x100), 7));
        assert_eq!(s.next_op(OpResult::None), Op::Notify(VirtAddr::new(0x100)));
        assert_eq!(s.next_op(OpResult::None), Op::Compute(Nanos::from_us(1)));
        assert_eq!(s.next_op(OpResult::None), Op::Write(VirtAddr::new(0x100), 8));
        assert_eq!(s.next_op(OpResult::None), Op::Notify(VirtAddr::new(0x100)));
        assert_eq!(s.next_op(OpResult::None), Op::Halt);
    }

    #[test]
    fn receiver_arms_waits_fetches_acks() {
        let mb = VirtAddr::new(0x100);
        let ack = VirtAddr::new(0x200);
        let mut r = MessageReceiver::new(mb, ack, 1);
        assert_eq!(r.next_op(OpResult::None), Op::WatchNotify(mb));
        assert_eq!(r.next_op(OpResult::None), Op::WaitNotify);
        assert_eq!(r.next_op(OpResult::Notified(mb)), Op::Read(mb));
        assert_eq!(r.next_op(OpResult::Read(99)), Op::Write(ack, 99));
        assert_eq!(r.received(), 1);
        assert_eq!(r.next_op(OpResult::None), Op::Write(mb, 0)); // consume
        assert_eq!(r.next_op(OpResult::None), Op::Halt);
    }

    #[test]
    fn receiver_ignores_spurious_timeout_wakeups() {
        let mb = VirtAddr::new(0x100);
        let ack = VirtAddr::new(0x200);
        let mut r = MessageReceiver::new(mb, ack, 1);
        let _ = r.next_op(OpResult::None); // watch
        let _ = r.next_op(OpResult::None); // wait
        assert_eq!(r.next_op(OpResult::None), Op::Read(mb)); // timeout fires
                                                             // Mailbox empty: re-arm without counting.
        assert_eq!(r.next_op(OpResult::Read(0)), Op::WatchNotify(mb));
        assert_eq!(r.received(), 0);
    }
}

/// A generation-counting barrier built from VMP's primitives: a
/// test-and-set lock guards the arrival counter; the last arriver bumps
/// a generation word and broadcasts one notify transaction, waking every
/// watcher at once (each waiter's monitor holds code `11` on the barrier
/// frame — the multi-watcher use of §5.4's notification facility).
#[derive(Debug, Clone)]
pub struct BarrierWorker {
    workers: u32,
    rounds: u64,
    lock: VirtAddr,
    counter: VirtAddr,
    barrier: VirtAddr,
    work: Nanos,
    round: u64,
    my_gen: u32,
    pending_count: u32,
    state: BarrierState,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BarrierState {
    Work,
    TryLock,
    ReadGen,
    ReadCount,
    StoreCount,
    BumpGen,
    UnlockThenWait,
    UnlockThenNotify,
    NotifyAll,
    Watch,
    Wait,
    CheckGen,
    RoundDone,
}

names! { BarrierState [
    Work, TryLock, ReadGen, ReadCount, StoreCount, BumpGen, UnlockThenWait, UnlockThenNotify,
    NotifyAll, Watch, Wait, CheckGen, RoundDone,
] }

impl BarrierWorker {
    /// Creates one worker of an `workers`-wide barrier running `rounds`
    /// rounds with `work` of computation per round. `lock`, `counter`
    /// and `barrier` must be the same addresses on every worker (and
    /// ideally on separate pages).
    pub fn new(
        workers: u32,
        rounds: u64,
        lock: VirtAddr,
        counter: VirtAddr,
        barrier: VirtAddr,
        work: Nanos,
    ) -> Self {
        assert!(workers > 0 && rounds > 0, "degenerate barrier");
        BarrierWorker {
            workers,
            rounds,
            lock,
            counter,
            barrier,
            work,
            round: 0,
            my_gen: 0,
            pending_count: 0,
            state: BarrierState::Work,
        }
    }

    /// Rounds completed so far.
    pub fn completed_rounds(&self) -> u64 {
        self.round
    }
}

impl Program for BarrierWorker {
    fn next_op(&mut self, last: OpResult) -> Op {
        loop {
            match self.state {
                BarrierState::Work => {
                    if self.round >= self.rounds {
                        return Op::Halt;
                    }
                    self.state = BarrierState::TryLock;
                    if self.work > Nanos::ZERO {
                        return Op::Compute(self.work);
                    }
                }
                BarrierState::TryLock => {
                    match last {
                        OpResult::Tas(0) => {
                            self.state = BarrierState::ReadGen;
                            return Op::Read(self.barrier);
                        }
                        _ => return Op::Tas(self.lock),
                    };
                }
                BarrierState::ReadGen => {
                    if let OpResult::Read(g) = last {
                        self.my_gen = g;
                        self.state = BarrierState::ReadCount;
                        return Op::Read(self.counter);
                    }
                    return Op::Read(self.barrier);
                }
                BarrierState::ReadCount => {
                    if let OpResult::Read(c) = last {
                        self.pending_count = c + 1;
                        if self.pending_count == self.workers {
                            self.state = BarrierState::BumpGen;
                            return Op::Write(self.counter, 0);
                        }
                        self.state = BarrierState::StoreCount;
                        return Op::Write(self.counter, self.pending_count);
                    }
                    return Op::Read(self.counter);
                }
                BarrierState::StoreCount => {
                    self.state = BarrierState::UnlockThenWait;
                    return Op::Write(self.lock, 0);
                }
                BarrierState::BumpGen => {
                    self.state = BarrierState::UnlockThenNotify;
                    return Op::Write(self.barrier, self.my_gen + 1);
                }
                BarrierState::UnlockThenNotify => {
                    self.state = BarrierState::NotifyAll;
                    return Op::Write(self.lock, 0);
                }
                BarrierState::NotifyAll => {
                    self.state = BarrierState::RoundDone;
                    return Op::Notify(self.barrier);
                }
                BarrierState::UnlockThenWait => {
                    self.state = BarrierState::Watch;
                }
                BarrierState::Watch => {
                    self.state = BarrierState::Wait;
                    return Op::WatchNotify(self.barrier);
                }
                BarrierState::Wait => {
                    self.state = BarrierState::CheckGen;
                    return Op::WaitNotify;
                }
                BarrierState::CheckGen => {
                    self.state = BarrierState::RoundDone; // tentatively
                    return Op::Read(self.barrier);
                }
                BarrierState::RoundDone => {
                    match last {
                        OpResult::Read(g) if g <= self.my_gen => {
                            // Spurious wakeup: generation unchanged.
                            self.state = BarrierState::Watch;
                            continue;
                        }
                        _ => {}
                    }
                    self.round += 1;
                    self.state = BarrierState::Work;
                }
            }
        }
    }

    program_state! {
        "barrier",
        config [workers, rounds, lock, counter, barrier, work],
        progress [round, my_gen, pending_count, state]
    }
}

#[cfg(test)]
mod barrier_tests {
    use super::*;

    #[test]
    fn single_worker_never_waits() {
        let mut w = BarrierWorker::new(
            1,
            2,
            VirtAddr::new(0x100),
            VirtAddr::new(0x200),
            VirtAddr::new(0x300),
            Nanos::ZERO,
        );
        assert_eq!(w.next_op(OpResult::None), Op::Tas(VirtAddr::new(0x100)));
        assert_eq!(w.next_op(OpResult::Tas(0)), Op::Read(VirtAddr::new(0x300)));
        assert_eq!(w.next_op(OpResult::Read(0)), Op::Read(VirtAddr::new(0x200)));
        // Sole arriver is the last: reset counter, bump generation.
        assert_eq!(w.next_op(OpResult::Read(0)), Op::Write(VirtAddr::new(0x200), 0));
        assert_eq!(w.next_op(OpResult::None), Op::Write(VirtAddr::new(0x300), 1));
        assert_eq!(w.next_op(OpResult::None), Op::Write(VirtAddr::new(0x100), 0));
        assert_eq!(w.next_op(OpResult::None), Op::Notify(VirtAddr::new(0x300)));
        assert_eq!(w.completed_rounds(), 0);
        // Second round begins immediately (no work configured).
        assert_eq!(w.next_op(OpResult::None), Op::Tas(VirtAddr::new(0x100)));
        assert_eq!(w.completed_rounds(), 1);
    }

    #[test]
    fn non_last_arrival_waits_for_generation() {
        let mut w = BarrierWorker::new(
            2,
            1,
            VirtAddr::new(0x100),
            VirtAddr::new(0x200),
            VirtAddr::new(0x300),
            Nanos::ZERO,
        );
        let _ = w.next_op(OpResult::None); // TAS
        let _ = w.next_op(OpResult::Tas(0)); // read gen
        let _ = w.next_op(OpResult::Read(0)); // gen=0 → read count
                                              // Count 0+1 < 2: store it, unlock, watch, wait.
        assert_eq!(w.next_op(OpResult::Read(0)), Op::Write(VirtAddr::new(0x200), 1));
        assert_eq!(w.next_op(OpResult::None), Op::Write(VirtAddr::new(0x100), 0));
        assert_eq!(w.next_op(OpResult::None), Op::WatchNotify(VirtAddr::new(0x300)));
        assert_eq!(w.next_op(OpResult::None), Op::WaitNotify);
        assert_eq!(
            w.next_op(OpResult::Notified(VirtAddr::new(0x300))),
            Op::Read(VirtAddr::new(0x300))
        );
        // Generation advanced: round complete, program halts (1 round).
        assert_eq!(w.next_op(OpResult::Read(1)), Op::Halt);
        assert_eq!(w.completed_rounds(), 1);
    }

    #[test]
    fn spurious_wakeup_rewatches() {
        let mut w = BarrierWorker::new(
            2,
            1,
            VirtAddr::new(0x100),
            VirtAddr::new(0x200),
            VirtAddr::new(0x300),
            Nanos::ZERO,
        );
        let _ = w.next_op(OpResult::None); // TAS
        let _ = w.next_op(OpResult::Tas(0)); // read gen
        let _ = w.next_op(OpResult::Read(0)); // read count
        let _ = w.next_op(OpResult::Read(0)); // store count
        let _ = w.next_op(OpResult::None); // unlock
        let _ = w.next_op(OpResult::None); // watch
        let _ = w.next_op(OpResult::None); // wait
        assert_eq!(w.next_op(OpResult::None), Op::Read(VirtAddr::new(0x300))); // timeout → poll gen
                                                                               // Generation unchanged → re-watch.
        assert_eq!(w.next_op(OpResult::Read(0)), Op::WatchNotify(VirtAddr::new(0x300)));
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn rejects_zero_workers() {
        let _ = BarrierWorker::new(
            0,
            1,
            VirtAddr::new(0),
            VirtAddr::new(0x100),
            VirtAddr::new(0x200),
            Nanos::ZERO,
        );
    }
}

/// A lock kept in *uncached, globally-addressable physical memory* —
/// §5.4's other locking option. Spinning costs one plain bus word
/// transaction per attempt but never migrates cache-page ownership, so
/// it cannot thrash the consistency protocol the way a cached
/// test-and-set lock does.
#[derive(Debug, Clone)]
pub struct UncachedLockWorker {
    lock: vmp_types::PhysAddr,
    counter: VirtAddr,
    iterations: u64,
    completed: u64,
    cs_compute: Nanos,
    think: Nanos,
    backoff: Nanos,
    state: ULockState,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ULockState {
    Idle,
    TryLock,
    Backoff,
    ReadCounter,
    CriticalCompute,
    Unlock,
    Think,
}

names! { ULockState [Idle, TryLock, Backoff, ReadCounter, CriticalCompute, Unlock, Think] }

impl UncachedLockWorker {
    /// Creates a worker incrementing `counter` (ordinary cached memory)
    /// under the uncached lock word at `lock`, with a fixed spin backoff.
    pub fn new(
        lock: vmp_types::PhysAddr,
        counter: VirtAddr,
        iterations: u64,
        cs_compute: Nanos,
        think: Nanos,
        backoff: Nanos,
    ) -> Self {
        UncachedLockWorker {
            lock,
            counter,
            iterations,
            completed: 0,
            cs_compute,
            think,
            backoff,
            state: ULockState::Idle,
        }
    }

    /// Critical sections completed so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }
}

impl Program for UncachedLockWorker {
    fn next_op(&mut self, last: OpResult) -> Op {
        loop {
            match self.state {
                ULockState::Idle => {
                    if self.completed >= self.iterations {
                        return Op::Halt;
                    }
                    self.state = ULockState::TryLock;
                    return Op::UncachedTas(self.lock);
                }
                ULockState::TryLock => match last {
                    OpResult::Tas(0) => {
                        self.state = ULockState::ReadCounter;
                        return Op::Read(self.counter);
                    }
                    _ => {
                        self.state = ULockState::Backoff;
                        if self.backoff > Nanos::ZERO {
                            return Op::Compute(self.backoff);
                        }
                    }
                },
                ULockState::Backoff => {
                    self.state = ULockState::TryLock;
                    return Op::UncachedTas(self.lock);
                }
                ULockState::ReadCounter => {
                    if let OpResult::Read(v) = last {
                        self.state = ULockState::CriticalCompute;
                        return Op::Write(self.counter, v + 1);
                    }
                    return Op::Read(self.counter);
                }
                ULockState::CriticalCompute => {
                    self.state = ULockState::Unlock;
                    return Op::Compute(self.cs_compute);
                }
                ULockState::Unlock => {
                    self.completed += 1;
                    self.state = ULockState::Think;
                    return Op::UncachedWrite(self.lock, 0);
                }
                ULockState::Think => {
                    self.state = ULockState::Idle;
                    if self.think > Nanos::ZERO {
                        return Op::Compute(self.think);
                    }
                }
            }
        }
    }

    program_state! {
        "uncached-lock",
        config [lock, counter, iterations, cs_compute, think, backoff],
        progress [completed, state]
    }
}

#[cfg(test)]
mod uncached_tests {
    use super::*;
    use vmp_types::PhysAddr;

    #[test]
    fn acquire_and_release_sequence() {
        let pa = PhysAddr::new(0x400);
        let counter = VirtAddr::new(0x2000);
        let mut w =
            UncachedLockWorker::new(pa, counter, 1, Nanos::ZERO, Nanos::ZERO, Nanos::from_us(1));
        assert_eq!(w.next_op(OpResult::None), Op::UncachedTas(pa));
        assert_eq!(w.next_op(OpResult::Tas(0)), Op::Read(counter));
        assert_eq!(w.next_op(OpResult::Read(4)), Op::Write(counter, 5));
        let _ = w.next_op(OpResult::None); // critical-section compute
        assert_eq!(w.next_op(OpResult::None), Op::UncachedWrite(pa, 0)); // unlock
        assert_eq!(w.completed(), 1);
        assert_eq!(w.next_op(OpResult::None), Op::Halt);
    }

    #[test]
    fn contended_attempt_backs_off_then_retries() {
        let pa = PhysAddr::new(0x400);
        let mut w = UncachedLockWorker::new(
            pa,
            VirtAddr::new(0x2000),
            1,
            Nanos::ZERO,
            Nanos::ZERO,
            Nanos::from_us(2),
        );
        let _ = w.next_op(OpResult::None);
        assert_eq!(w.next_op(OpResult::Tas(1)), Op::Compute(Nanos::from_us(2)));
        assert_eq!(w.next_op(OpResult::None), Op::UncachedTas(pa));
    }
}
