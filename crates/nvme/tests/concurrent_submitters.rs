//! Several threads submit to one device at once — an FS engine's wave
//! flush, the proxy workers, stub threads on the lease path. Each must
//! get the statuses of its own commands: a completion reaped by the
//! wrong submitter turns a failed read into `Ok` (unread window bytes
//! handed to the application as file data) and a good one into an error.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use solros_nvme::{DmaPtr, NvmeCommand, NvmeDevice, NvmeError, BLOCK_SIZE};
use solros_pcie::{PcieCounters, Side, Window};

const CAPACITY: u64 = 64;
/// What a destination buffer holds before a read is submitted.
const UNREAD: u8 = 0xEE;

fn pattern(lba: u64) -> u8 {
    lba as u8 + 1
}

/// A device whose every block is filled with its [`pattern`].
fn device() -> Arc<NvmeDevice> {
    let dev = NvmeDevice::new(CAPACITY);
    let buf = Buffer::new();
    for lba in 0..CAPACITY {
        buf.fill(pattern(lba));
        let w = NvmeCommand::Write {
            lba,
            nblocks: 1,
            src: DmaPtr::new(Arc::clone(&buf.0), 0),
        };
        assert_eq!(dev.submit_vectored(&[w]), [Ok(())]);
    }
    dev
}

/// One thread's private one-block DMA buffer.
struct Buffer(Arc<Window>);

impl Buffer {
    fn new() -> Self {
        Self(Window::new(
            BLOCK_SIZE,
            Side::Host,
            Arc::new(PcieCounters::new()),
        ))
    }

    fn fill(&self, byte: u8) {
        // SAFETY: the buffer belongs to one thread and no command that
        // targets it is in flight.
        unsafe { self.0.map(Side::Host).write(0, &[byte; BLOCK_SIZE]) };
    }

    fn holds(&self, byte: u8) -> bool {
        let mut got = [0u8; BLOCK_SIZE];
        // SAFETY: as in `fill`.
        unsafe { self.0.map(Side::Host).read(0, &mut got) };
        got.iter().all(|&b| b == byte)
    }

    /// Reads `lba` into the buffer and returns the status together with
    /// whether it agrees with what the buffer now holds: data after
    /// `Ok`, untouched after an error.
    fn read(&self, dev: &NvmeDevice, lba: u64) -> (Result<(), NvmeError>, bool) {
        self.fill(UNREAD);
        let cmd = NvmeCommand::Read {
            lba,
            nblocks: 1,
            dst: DmaPtr::new(Arc::clone(&self.0), 0),
        };
        let status = dev.submit_vectored(&[cmd])[0];
        let consistent = match status {
            Ok(()) => self.holds(pattern(lba)),
            Err(_) => self.holds(UNREAD),
        };
        (status, consistent)
    }
}

#[test]
fn each_submitter_reaps_its_own_statuses() {
    const ROUNDS: usize = 100_000;
    let dev = device();
    let start = Arc::new(Barrier::new(2));
    // One thread's reads always succeed, the other's never do.
    let submitter = |lba: u64, want: Result<(), NvmeError>| {
        let (dev, start) = (Arc::clone(&dev), Arc::clone(&start));
        std::thread::spawn(move || {
            let buf = Buffer::new();
            start.wait();
            (0..ROUNDS)
                .filter(|_| buf.read(&dev, lba) != (want, true))
                .count()
        })
    };
    let good = submitter(3, Ok(()));
    let bad = submitter(CAPACITY, Err(NvmeError::OutOfRange));
    assert_eq!(good.join().unwrap(), 0, "valid reads got another's status");
    assert_eq!(bad.join().unwrap(), 0, "failed reads got another's status");
}

#[test]
fn an_injected_fault_fails_the_command_that_consumed_it_and_no_other() {
    const FAULTS: usize = 20_000;
    let dev = device();
    let start = Arc::new(Barrier::new(2));
    let done = Arc::new(AtomicBool::new(false));
    // Arms one fault, then submits: the fault fails this read or, if the
    // other thread got in between, one of its reads — never both, never
    // neither, and never a command other than the one left unexecuted.
    let armer = {
        let (dev, start, done) = (Arc::clone(&dev), Arc::clone(&start), Arc::clone(&done));
        std::thread::spawn(move || {
            let buf = Buffer::new();
            start.wait();
            let mut tally = (0usize, 0usize);
            for i in 0..FAULTS {
                dev.inject_faults(1);
                let (status, consistent) = buf.read(&dev, i as u64 % CAPACITY);
                tally.0 += usize::from(status == Err(NvmeError::MediaError));
                tally.1 += usize::from(!consistent);
            }
            done.store(true, Ordering::SeqCst);
            tally
        })
    };
    let clean = {
        let (dev, start, done) = (Arc::clone(&dev), Arc::clone(&start), Arc::clone(&done));
        std::thread::spawn(move || {
            let buf = Buffer::new();
            start.wait();
            let mut tally = (0usize, 0usize);
            let mut lba = 0;
            while !done.load(Ordering::SeqCst) {
                let (status, consistent) = buf.read(&dev, lba);
                tally.0 += usize::from(status == Err(NvmeError::MediaError));
                tally.1 += usize::from(!consistent);
                lba = (lba + 1) % CAPACITY;
            }
            tally
        })
    };
    let (a, b) = (armer.join().unwrap(), clean.join().unwrap());
    assert_eq!(a.1 + b.1, 0, "a status disagreed with what its command did");
    assert_eq!(
        a.0 + b.0,
        FAULTS,
        "every armed fault failed exactly one read"
    );
}
