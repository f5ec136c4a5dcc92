//! The device-time contract lazy delivery relies on, checked for every
//! device type in the crate.
//!
//! The machine does not tick devices on every instruction: it counts
//! device time and hands each device the cycles it is owed in one
//! [`MmioDevice::tick`] right before something observes it. That is
//! exact only if `tick(a); tick(b)` leaves a device as `tick(a + b)`
//! would, and if device state changes only at ticks and accesses.
//!
//! Each case runs a random script of time advances, MMIO reads and
//! writes, and host-side feeds against two instances of every device:
//! one ticked with each advance split into many small ticks, one with
//! consecutive advances coalesced into a single tick before the next
//! access. Every read value, host observation and `irq_pending()` must
//! match.

use std::any::Any;

use opec_armv7m::mem::MemRegion;
use opec_armv7m::MmioDevice;
use opec_devices::storage::{CMD_READ_BLOCK, CMD_WRITE_BLOCK};
use opec_devices::{
    Button, Dcmi, Dma, EthMac, Gpio, Lcd, Rcc, RegFile, SdCard, Timer, Uart, UsbMsc,
};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

#[derive(Debug, Clone, Copy)]
enum Step {
    /// Device time passes: `cycles` in total, delivered as up to
    /// `pieces` ticks by the split run.
    Advance {
        cycles: u64,
        pieces: u64,
    },
    Read {
        off: u32,
    },
    Write {
        off: u32,
        value: u32,
    },
    /// A host-side feed or observation through the device's typed API.
    Host {
        a: u32,
        b: u32,
    },
}

fn step() -> impl Strategy<Value = Step> {
    (0u8..8, any::<u32>(), any::<u32>()).prop_map(|(kind, a, b)| match kind {
        0..=2 => {
            // Mostly short advances, around the scripted delays below;
            // now and then one of a few cycles (a handful of ALU
            // instructions), or one long enough for several LCD vsyncs.
            let span = match b % 8 {
                0 => 25_000,
                1 => 8,
                _ => 500,
            };
            Step::Advance { cycles: 1 + u64::from(a) % span, pieces: 1 + u64::from(b >> 8) % 32 }
        }
        3 | 4 => Step::Read { off: offset(a) },
        5 => {
            // Small values hit command codes (block read/write, capture
            // start, latch clear); single bits hit enable flags.
            let value = match (a >> 8) % 3 {
                0 => b % 4,
                1 => 1 << (b % 32),
                _ => b,
            };
            Step::Write { off: offset(a), value }
        }
        _ => Step::Host { a, b },
    })
}

/// A register offset: half the time among the first four words, where
/// most devices keep their status and data ports.
fn offset(a: u32) -> u32 {
    let words = if a & (1 << 16) != 0 { 16 } else { 4 };
    (a % words) * 4
}

/// One device type: how to build it and what its host side does.
struct Kind {
    name: &'static str,
    make: fn() -> Box<dyn MmioDevice>,
    host: fn(&mut dyn Any, u32, u32) -> Vec<u32>,
}

fn no_host(_: &mut dyn Any, _: u32, _: u32) -> Vec<u32> {
    Vec::new()
}

fn dev<T: 'static>(d: &mut dyn Any) -> &mut T {
    d.downcast_mut::<T>().expect("kind builds this type")
}

/// Every device type in the crate, with delays short enough that a
/// script crosses them.
fn kinds() -> Vec<Kind> {
    vec![
        Kind {
            name: "Uart",
            make: || Box::new(Uart::new("U", 0).with_byte_delay(40)),
            host: |d, a, _| {
                let u = dev::<Uart>(d);
                u.feed(&a.to_le_bytes()[..1 + a as usize % 4]);
                let tx = u.take_tx();
                vec![u.rx_pending() as u32, tx.len() as u32]
            },
        },
        Kind {
            name: "SdCard",
            make: || Box::new(SdCard::new(0, 8).with_busy_cycles(300)),
            host: |d, a, b| {
                let sd = dev::<SdCard>(d);
                sd.preload(a % 8, &b.to_le_bytes());
                vec![sd.block(b % 8).map_or(u32::MAX, |blk| u32::from(blk[0]))]
            },
        },
        Kind {
            name: "UsbMsc",
            make: || Box::new(UsbMsc::new(0, 8).with_busy_cycles(300)),
            host: |d, a, _| {
                let usb = dev::<UsbMsc>(d);
                vec![
                    usb.written_blocks() as u32,
                    usb.block(a % 8).map_or(u32::MAX, |blk| u32::from(blk[0])),
                ]
            },
        },
        Kind {
            name: "EthMac",
            make: || Box::new(EthMac::new(0).with_frame_gap(150)),
            host: |d, a, b| {
                let mac = dev::<EthMac>(d);
                mac.push_frame(&b.to_le_bytes().repeat(3)[..1 + a as usize % 12]);
                let tx = mac.take_tx_frames();
                vec![mac.rx_pending() as u32, tx.len() as u32]
            },
        },
        Kind {
            name: "Dcmi",
            make: || Box::new(Dcmi::new(0, 16).with_capture_delay(500)),
            host: |d, _, _| vec![dev::<Dcmi>(d).captures()],
        },
        Kind {
            name: "Lcd",
            make: || Box::new(Lcd::new(0, 4, 3)),
            host: |d, a, b| {
                let lcd = dev::<Lcd>(d);
                vec![lcd.pixel(a % 5, b % 4).unwrap_or(u32::MAX), lcd.brightness()]
            },
        },
        Kind {
            name: "Button",
            make: || Box::new(Button::new(0, 0)),
            host: |d, a, _| {
                let button = dev::<Button>(d);
                if a % 4 == 0 {
                    button.press_now();
                } else {
                    button.press_after(u64::from(a) % 3_000);
                }
                Vec::new()
            },
        },
        Kind {
            name: "Gpio",
            make: || Box::new(Gpio::new("G", 0)),
            host: |d, a, b| {
                let gpio = dev::<Gpio>(d);
                gpio.set_input((a % 16) as u8, b & 1 == 1);
                vec![u32::from(gpio.output((b % 16) as u8))]
            },
        },
        Kind { name: "Rcc", make: || Box::new(Rcc::new(0)), host: no_host },
        Kind { name: "Dma", make: || Box::new(Dma::new("D", 0)), host: no_host },
        Kind { name: "RegFile", make: || Box::new(RegFile::new("R", 0)), host: no_host },
        Kind { name: "Timer", make: || Box::new(Timer::new("T", 0)), host: no_host },
    ]
}

/// `cycles` as at most `pieces` non-empty ticks (the machine never
/// delivers an empty tick): for odd `pieces`, single-cycle ticks (one
/// ALU instruction each) and then the rest; for even, uneven pieces
/// growing quadratically.
fn split(cycles: u64, pieces: u64) -> Vec<u64> {
    let k = pieces.min(cycles).max(1);
    if pieces % 2 == 1 {
        let mut ticks = vec![1; k as usize - 1];
        ticks.push(cycles - (k - 1));
        return ticks;
    }
    let mark = |i: u64| cycles * i * i / (k * k);
    (0..k).map(|i| mark(i + 1) - mark(i)).filter(|&c| c > 0).collect()
}

/// Runs `script` on a fresh device and returns everything it observed,
/// in order: read values, host observations, and the interrupt line
/// after every access.
fn observe(kind: &Kind, script: &[Step], split_ticks: bool) -> Vec<u32> {
    let mut d = (kind.make)();
    let mut owed = 0;
    let mut seen = Vec::new();
    let catch_up = |d: &mut Box<dyn MmioDevice>, owed: &mut u64| {
        if *owed > 0 {
            d.tick(std::mem::take(owed));
        }
    };
    for &s in script {
        match s {
            Step::Advance { cycles, pieces } if split_ticks => {
                split(cycles, pieces).into_iter().for_each(|c| d.tick(c));
                continue;
            }
            Step::Advance { cycles, .. } => {
                owed += cycles;
                continue;
            }
            _ => catch_up(&mut d, &mut owed),
        }
        match s {
            Step::Read { off } => seen.push(d.read(off, 4)),
            Step::Write { off, value } => d.write(off, 4, value),
            Step::Host { a, b } => seen.extend((kind.host)(d.as_any_mut(), a, b)),
            Step::Advance { .. } => unreachable!("advances handled above"),
        }
        seen.push(u32::from(d.irq_pending()));
    }
    catch_up(&mut d, &mut owed);
    seen.extend((0..16).map(|w| d.read(w * 4, 4)));
    seen.push(u32::from(d.irq_pending()));
    seen
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Split and coalesced delivery of the same device time are
    /// indistinguishable, for every device type.
    #[test]
    fn split_and_coalesced_ticks_agree(script in proptest::collection::vec(step(), 1..64)) {
        for kind in kinds() {
            let split = observe(&kind, &script, true);
            let coalesced = observe(&kind, &script, false);
            prop_assert_eq!(split, coalesced, "{}: split and coalesced ticks diverge", kind.name);
        }
    }
}

/// Block commands cross their busy period in the scripts: the property
/// above is not vacuous for the timed devices.
#[test]
fn scripts_observe_busy_and_ready() {
    let kinds = kinds();
    let sd = kinds.iter().find(|k| k.name == "SdCard").expect("SdCard kind");
    let script = [
        Step::Write { off: 0x00, value: CMD_WRITE_BLOCK },
        Step::Read { off: 0x0C },
        Step::Advance { cycles: 299, pieces: 7 },
        Step::Read { off: 0x0C },
        Step::Advance { cycles: 1, pieces: 1 },
        Step::Read { off: 0x0C },
        Step::Write { off: 0x00, value: CMD_READ_BLOCK },
    ];
    for split_ticks in [true, false] {
        let seen = observe(sd, &script, split_ticks);
        // Each access pushes its value (reads only), then the IRQ line.
        assert_eq!(&seen[..8], &[0, 0, 0, 0, 0, 1, 0, 0]);
    }
}

/// A timer whose catch-up is capped per tick: `tick(a); tick(b)`
/// differs from `tick(a + b)` once either exceeds the cap.
#[derive(Clone)]
struct CappedTimer {
    elapsed: u64,
}

impl MmioDevice for CappedTimer {
    fn name(&self) -> &str {
        "CAPPED"
    }
    fn region(&self) -> MemRegion {
        MemRegion::new(0, 0x400)
    }
    fn read(&mut self, _offset: u32, _len: u32) -> u32 {
        self.elapsed as u32
    }
    fn write(&mut self, _offset: u32, _len: u32, _value: u32) {}
    fn tick(&mut self, cycles: u64) {
        self.elapsed += cycles.min(64);
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The property catches a non-additive device within the same script
/// distribution and case budget.
#[test]
fn a_non_additive_tick_is_caught() {
    let capped =
        Kind { name: "CappedTimer", make: || Box::new(CappedTimer { elapsed: 0 }), host: no_host };
    let scripts = proptest::collection::vec(step(), 1..64);
    let mut rng = TestRng::from_name("a_non_additive_tick_is_caught");
    let caught = (0..192)
        .map(|_| scripts.generate(&mut rng))
        .any(|script| observe(&capped, &script, true) != observe(&capped, &script, false));
    assert!(caught, "no script told split from coalesced ticks of a capped timer");
}
