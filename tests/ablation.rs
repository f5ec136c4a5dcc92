//! Ablations over OPEC's design choices (DESIGN.md §6), pinned to the
//! numbers EXPERIMENTS.md quotes:
//!
//! * **sync cost** — how the operation-switch cost scales with the
//!   amount of shared (shadowed) data, the price of solving
//!   partition-time over-privilege by copying;
//! * **sanitization** — the per-switch cost of range-checking shared
//!   variables;
//! * **relocation indirection** — the per-access cost of reaching
//!   external variables through the relocation table vs internal fixed
//!   slots;
//! * **MPU virtualization** — fault-handler pressure as an operation's
//!   peripheral count exceeds the four reserved MPU regions.
//!
//! Every number is simulated cycles or a monitor counter, so each is
//! deterministic and pinned exactly. Run with
//! `cargo test --test ablation -- --nocapture` to print the tables.

use std::fmt::Write as _;

use opec::prelude::*;
use opec_core::MonitorStats;
use opec_ir::Module;

/// Rounds of the two-task ping-pong in [`sync_module`].
const ROUNDS: u32 = 50;

/// Loads the reader performs in [`indirection_module`].
const LOADS: u32 = 1000;

/// Calls of the peripheral-touching operation in [`periph_module`].
const PERIPH_ROUNDS: u32 = 20;

/// Two tasks ping-ponging over `shared_words` shared words; main loops
/// [`ROUNDS`] times. Optionally every shared word carries a
/// sanitization range.
fn sync_module(shared_words: u32, sanitized: bool) -> (Module, Vec<OperationSpec>) {
    let mut mb = ModuleBuilder::new("ablate-sync");
    let ty = Ty::Array(Box::new(Ty::I32), shared_words);
    let shared = if sanitized {
        mb.sanitized_global("shared", ty, "m.c", (0, u32::MAX - 1))
    } else {
        mb.global("shared", ty, "m.c")
    };
    let t1 = mb.func("t1", vec![], None, "m.c", move |fb| {
        let v = fb.load_global(shared, 0, 4);
        let v2 = fb.bin(BinOp::Add, Operand::Reg(v), Operand::Imm(1));
        fb.store_global(shared, 0, Operand::Reg(v2), 4);
        fb.ret_void();
    });
    let t2 = mb.func("t2", vec![], None, "m.c", move |fb| {
        let _ = fb.load_global(shared, 0, 4);
        fb.ret_void();
    });
    mb.func("main", vec![], None, "m.c", move |fb| {
        opec_apps::builder::counted_loop(fb, Operand::Imm(ROUNDS), move |fb, _| {
            fb.call_void(t1, vec![]);
            fb.call_void(t2, vec![]);
        });
        fb.halt();
        fb.ret_void();
    });
    (mb.finish(), vec![OperationSpec::plain("t1"), OperationSpec::plain("t2")])
}

/// One task reading a global [`LOADS`] times; the global is internal
/// (fixed slot) or external (relocation-table indirection) depending on
/// whether a second task shares it.
fn indirection_module(external: bool) -> (Module, Vec<OperationSpec>) {
    let mut mb = ModuleBuilder::new("ablate-reloc");
    let g = mb.global("g", Ty::I32, "m.c");
    let reader = mb.func("reader", vec![], None, "m.c", move |fb| {
        opec_apps::builder::counted_loop(fb, Operand::Imm(LOADS), move |fb, _| {
            let _ = fb.load_global(g, 0, 4);
        });
        fb.ret_void();
    });
    let other = mb.func("other", vec![], None, "m.c", move |fb| {
        if external {
            fb.store_global(g, 0, Operand::Imm(1), 4);
        }
        fb.ret_void();
    });
    mb.func("main", vec![], None, "m.c", move |fb| {
        fb.call_void(other, vec![]);
        fb.call_void(reader, vec![]);
        fb.halt();
        fb.ret_void();
    });
    (mb.finish(), vec![OperationSpec::plain("reader"), OperationSpec::plain("other")])
}

/// One operation touching `n` scattered peripherals, called
/// [`PERIPH_ROUNDS`] times.
fn periph_module(n: usize) -> (Module, Vec<OperationSpec>) {
    let addrs = [
        0x4000_0000u32, // TIM2
        0x4000_4408,    // USART2
        0x4001_1008,    // USART1
        0x4001_2C04,    // SDIO
        0x4001_6804,    // LCD
        0x4002_0000,    // GPIOA
        0x4002_3830,    // RCC
    ];
    let mut mb = ModuleBuilder::new("ablate-periph");
    for p in opec_devices::datasheet() {
        mb.peripheral(p.name, p.base, p.size, p.is_core);
    }
    let picks: Vec<u32> = addrs[..n].to_vec();
    let t = mb.func("touchy", vec![], None, "m.c", move |fb| {
        for a in &picks {
            fb.mmio_write(*a, Operand::Imm(1), 4);
        }
        fb.ret_void();
    });
    mb.func("main", vec![], None, "m.c", move |fb| {
        opec_apps::builder::counted_loop(fb, Operand::Imm(PERIPH_ROUNDS), move |fb, _| {
            fb.call_void(t, vec![]);
        });
        fb.halt();
        fb.ret_void();
    });
    (mb.finish(), vec![OperationSpec::plain("touchy")])
}

/// One OPEC build and run of an ablation module.
struct Ablated {
    cycles: u64,
    stats: MonitorStats,
    /// Merged peripheral windows of the first operation.
    windows: usize,
}

fn run((module, specs): (Module, Vec<OperationSpec>)) -> Ablated {
    let board = Board::stm32f4_discovery();
    let out = compile(module, board, &specs).expect("compile");
    let windows = out.policy.op(1).periph_windows.len();
    let mut machine = Machine::new(board);
    opec_devices::install_standard_devices(&mut machine, Default::default()).unwrap();
    let policy = out.policy.clone();
    let mut vm =
        Vm::builder(machine, out.image).supervisor(OpecMonitor::new(policy)).build().expect("vm");
    let cycles = vm.run(opec_vm::exec::DEFAULT_FUEL).expect("run").cycles();
    Ablated { cycles, stats: vm.supervisor.stats, windows }
}

#[test]
fn switch_cost_grows_with_shared_bytes() {
    let mut table = String::from(
        "\nAblation: switch cost vs shared-data size (cycles/switch)\n\
         shared-bytes  cycles/switch  sync-bytes/switch\n",
    );
    let mut rows = Vec::new();
    for words in [1u32, 4, 16, 64, 256] {
        let r = run(sync_module(words, false));
        let switches = r.stats.switches.max(1);
        let row = (words * 4, r.cycles / switches, r.stats.sync_bytes / switches);
        writeln!(table, "{:>12}  {:>13}  {:>17}", row.0, row.1, row.2).unwrap();
        rows.push(row);
    }
    print!("{table}");
    assert_eq!(
        rows,
        [(4, 215, 8), (16, 239, 32), (64, 336, 129), (256, 724, 517), (1024, 2275, 2068)]
    );
}

#[test]
fn sanitization_costs_six_cycles_per_check() {
    let mut table = String::from("\nAblation: sanitization on/off (total cycles)\n");
    let mut rows = Vec::new();
    for words in [4u32, 64] {
        let off = run(sync_module(words, false));
        let on = run(sync_module(words, true));
        let checks = on.stats.sanitize_checks;
        writeln!(
            table,
            "  {} shared bytes: off={} on={} (+{:.2}%, {checks} checks)",
            words * 4,
            off.cycles,
            on.cycles,
            (on.cycles as f64 / off.cycles as f64 - 1.0) * 100.0,
        )
        .unwrap();
        rows.push((words * 4, off.cycles, on.cycles, off.stats.sanitize_checks, checks));
    }
    print!("{table}");
    assert_eq!(rows, [(16, 23968, 24568, 0, 100), (256, 72448, 73048, 0, 100)]);
    // The cost is per check, independent of the shared-data size.
    for (_, off, on, _, checks) in rows {
        assert_eq!(on - off, 6 * checks);
    }
}

#[test]
fn relocation_indirection_costs_two_cycles_per_access() {
    let internal = run(indirection_module(false)).cycles;
    let external = run(indirection_module(true)).cycles;
    let per_access = (external - internal) as f64 / f64::from(LOADS);
    print!(
        "\nAblation: relocation-table indirection ({LOADS} loads)\n  \
         internal (fixed slot): {internal} cycles; external (via table): {external} \
         cycles (+{per_access:.2} cycles/access)\n"
    );
    assert_eq!((internal, external), (11418, 13456));
}

#[test]
fn mpu_virtualization_faults_only_past_four_windows() {
    let mut table = String::from(
        "\nAblation: MPU virtualization pressure (4 reserved regions)\n\
         peripherals  merged-windows  virt-faults  cycles\n",
    );
    let mut rows = Vec::new();
    for n in [1usize, 3, 4, 5, 6, 7] {
        let r = run(periph_module(n));
        writeln!(
            table,
            "{:>11}  {:>14}  {:>11}  {:>6}",
            n, r.windows, r.stats.virt_faults, r.cycles
        )
        .unwrap();
        rows.push((n, r.windows, r.stats.virt_faults, r.cycles));
    }
    print!("{table}");
    assert_eq!(
        rows,
        [
            (1, 1, 0, 4274),
            (3, 3, 0, 4714),
            (4, 4, 0, 4934),
            (5, 5, 20, 5594),
            (6, 6, 40, 6254),
            (7, 7, 60, 6914)
        ]
    );
    // Past the four reserved regions every access to an overflow
    // peripheral faults once: the fifth peripheral adds 33 cycles per
    // access, against 11 for each of the first four.
    let per_access = |a: usize, b: usize| (rows[b].3 - rows[a].3) / u64::from(PERIPH_ROUNDS);
    assert_eq!((per_access(0, 1) / 2, per_access(2, 3)), (11, 33));
}
