//! The VM's copy-on-write snapshot/restore and pre-decoded block cache
//! are pure mechanisms: restoring a snapshot and re-running must replay
//! the exact same execution (events, counters, outcome), and patching
//! the image mid-run must never execute stale decoded blocks.

use std::cell::RefCell;
use std::rc::Rc;

use proptest::prelude::*;

use opec::prelude::*;
use opec_obs::export::event_log;
use opec_obs::{Obs, Recorder};
use opec_oracle::generate;

/// Steps executed before the snapshot is taken. Generated firmwares
/// run tens of instructions end to end, so snapshotting after a
/// handful of steps lands mid-run for every seed: the snapshot
/// captures live frames, device state, and dirty memory.
const K0: u64 = 4;

/// Fuel for each replay from the snapshot — enough to run every
/// generated firmware to completion, so the comparison covers the
/// final outcome, not just a mid-run slice.
const K: u64 = 10_000;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// snapshot → run K → restore → run K again replays the identical
    /// observation stream, execution counters, and outcome, over
    /// generated firmwares from the oracle's generator.
    #[test]
    fn snapshot_replay_is_deterministic(seed in 0u64..500) {
        let spec = generate(seed);
        let specs = spec.op_specs();
        let out = compile(spec.build_module(), spec.board(), &specs)
            .expect("generated firmware compiles");
        let mut machine = Machine::new(spec.board());
        spec.install_devices(&mut machine);
        let rec = Rc::new(RefCell::new(Recorder::with_capacity(1 << 16).with_funcs()));
        let mut vm = Vm::builder(machine, out.image)
            .supervisor(OpecMonitor::new(out.policy))
            .obs(Obs::single(rec.clone()))
            .build()
            .expect("generated image loads");
        if vm.boot().is_err() {
            return Ok(()); // aborted before any steps: nothing to replay
        }
        if !matches!(vm.resume(K0), Err(VmError::OutOfFuel)) {
            return Ok(()); // firmware finished inside K0: nothing to replay
        }

        let snap = vm.snapshot().expect("snapshot");
        let mark = rec.borrow().ring.to_vec().len();
        let outcome1 = format!("{:?}", vm.resume(K));
        let stats1 = vm.stats;
        let log1 = event_log(&rec.borrow().ring.to_vec()[mark..]);

        vm.restore(&snap);
        let mark = rec.borrow().ring.to_vec().len();
        let outcome2 = format!("{:?}", vm.resume(K));
        prop_assert_eq!(outcome1, outcome2, "outcome must replay identically");
        prop_assert_eq!(stats1, vm.stats, "execution counters must replay identically");
        let log2 = event_log(&rec.borrow().ring.to_vec()[mark..]);
        prop_assert_eq!(log1, log2, "event stream must replay identically");
    }
}

/// A deliberately patched image mid-run: the decoded block cache must
/// be dropped by `patch_image`, so the patched instruction executes —
/// not the stale pre-decoded one.
#[test]
fn patched_image_never_executes_stale_decoded_blocks() {
    let mut mb = ModuleBuilder::new("patch");
    let g = mb.global("g", Ty::I32, "p.c");
    mb.func("main", vec![], Some(Ty::I32), "p.c", |fb| {
        fb.store_global(g, 0, Operand::Imm(1), 4);
        fb.store_global(g, 0, Operand::Imm(2), 4);
        let r = fb.load_global(g, 0, 4);
        fb.ret(Operand::Reg(r));
    });
    let board = Board::stm32f4_discovery();
    let image = link_baseline(mb.finish(), board).expect("link");
    let entry = image.entry;
    let mut vm = Vm::builder(Machine::new(board), image).build().expect("image");
    vm.boot().expect("boot");
    // Execute exactly the first store: `main` is now decoded and cached.
    assert!(matches!(vm.resume(1), Err(VmError::OutOfFuel)));
    // Patch the second store to write 42 instead of 2.
    vm.patch_image(|img| {
        img.module.funcs[entry.0 as usize].blocks[0].insts[1] =
            opec_ir::Inst::StoreGlobal { global: g, offset: 0, value: Operand::Imm(42), size: 4 };
    });
    match vm.resume(1_000) {
        Ok(RunOutcome::Returned { value, .. }) => {
            assert_eq!(value, Some(42), "stale decoded block executed the pre-patch store")
        }
        other => panic!("unexpected outcome {other:?}"),
    }
}

/// Firmware that starts an SD block read, computes for a while without
/// touching a device, then polls `STATUS` until the card's busy period
/// ends and returns how many polls that took.
fn sd_busy_module() -> opec_ir::Module {
    use opec_devices::map::bases::SDIO;
    use opec_devices::storage::CMD_READ_BLOCK;
    let mut mb = ModuleBuilder::new("sd-busy");
    for p in opec::devices::datasheet() {
        mb.peripheral(p.name, p.base, p.size, p.is_core);
    }
    let acc = mb.global("acc", Ty::I32, "sd.c");
    let polls = mb.global("polls", Ty::I32, "sd.c");
    mb.func("main", vec![], Some(Ty::I32), "sd.c", move |fb| {
        fb.mmio_write(SDIO + 0x04, Operand::Imm(0), 4); // ARG
        fb.mmio_write(SDIO, Operand::Imm(CMD_READ_BLOCK), 4); // CMD: card busy
        let compute = fb.block();
        let step = fb.block();
        let poll = fb.block();
        let done = fb.block();
        fb.br(compute);
        fb.switch_to(compute);
        let a = fb.load_global(acc, 0, 4);
        let more = fb.bin(BinOp::CmpLtU, Operand::Reg(a), Operand::Imm(400));
        fb.cond_br(Operand::Reg(more), step, poll);
        fb.switch_to(step);
        let a2 = fb.bin(BinOp::Add, Operand::Reg(a), Operand::Imm(1));
        fb.store_global(acc, 0, Operand::Reg(a2), 4);
        fb.br(compute);
        fb.switch_to(poll);
        let n = fb.load_global(polls, 0, 4);
        let n2 = fb.bin(BinOp::Add, Operand::Reg(n), Operand::Imm(1));
        fb.store_global(polls, 0, Operand::Reg(n2), 4);
        let status = fb.mmio_read(SDIO + 0x0C, 4);
        let ready = fb.bin(BinOp::And, Operand::Reg(status), Operand::Imm(1));
        fb.cond_br(Operand::Reg(ready), done, poll);
        fb.switch_to(done);
        let total = fb.load_global(polls, 0, 4);
        fb.ret(Operand::Reg(total));
    });
    mb.finish()
}

/// Device time the devices have not been ticked through yet survives a
/// park (`delta`) and an unpark (`apply_delta`) onto a fork of the same
/// golden snapshot: the fork sees the SD card become ready at the same
/// instruction, and ends at the same cycle, as a twin that never
/// stopped.
#[test]
fn undelivered_device_time_survives_park_and_unpark() {
    const FUEL: u64 = 1_000_000;
    let board = Board::stm32f4_discovery();
    let busy = opec::devices::DeviceConfig::default().sd_busy_cycles;
    let build = || {
        let image = link_baseline(sd_busy_module(), board).expect("link");
        let mut machine = Machine::new(board);
        opec::devices::install_standard_devices(&mut machine, Default::default()).expect("devices");
        let mut vm = Vm::builder(machine, image).build().expect("image");
        vm.boot().expect("boot");
        vm
    };

    let mut twin = build();
    let twin_outcome = twin.resume(FUEL).expect("twin runs to completion");

    let mut parked = build();
    let golden = parked.snapshot().expect("golden snapshot");
    // Stop mid-computation: the command has started and every cycle
    // since is owed to the devices, well short of the busy period.
    assert!(matches!(parked.resume(1_000), Err(VmError::OutOfFuel)));
    assert!(parked.machine.clock.now() < busy, "parked before the card is ready");
    let delta = parked.park().expect("park");

    let mut fork = build();
    fork.restore(&golden);
    fork.unpark(&delta).expect("unpark onto the same golden snapshot");
    let fork_outcome = fork.resume(FUEL).expect("fork runs to completion");

    let RunOutcome::Returned { value: Some(polls), .. } = twin_outcome else {
        panic!("unexpected twin outcome {twin_outcome:?}");
    };
    assert!(polls > 1, "the twin waited out the busy period");
    assert_eq!(
        format!("{fork_outcome:?}"),
        format!("{twin_outcome:?}"),
        "ready flips at the same poll"
    );
    assert_eq!(fork.stats, twin.stats, "ready flips at the same instruction");
    assert_eq!(fork.machine.clock.now(), twin.machine.clock.now());
}
