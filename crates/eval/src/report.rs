//! Renderers for every table and figure of the paper's evaluation.

use opec_apps::programs::{aces_comparison_apps, all_apps, pinlock};
use opec_armv7m::Machine;
use opec_core::{compile, OpecMonitor};
use opec_devices::{DeviceConfig, Uart};
use opec_vm::{link_baseline, GlobalSlot, Vm, VmError};

use crate::cache::EvalCache;
use crate::metrics::{cumulative, et_by_task, pt_of_compartments, table1_row};
use crate::runs::AppEval;
use crate::table::{f2, pct, TextTable};

/// Runs the seven applications (no ACES) — enough for Table 1,
/// Figure 9, and Table 3. Served from the process-wide [`EvalCache`],
/// so repeated calls (and the comparison pass) reuse the same runs.
pub fn run_all_apps() -> Vec<AppEval> {
    EvalCache::global().evaluate_many(&all_apps(), false)
}

/// Runs the five comparison applications including the three ACES
/// strategies — enough for Table 2, Figure 10, and Figure 11. The
/// baseline and OPEC runs are shared with [`run_all_apps`] through the
/// process-wide [`EvalCache`]; only the ACES builds are new work.
pub fn run_comparison_apps() -> Vec<AppEval> {
    EvalCache::global().evaluate_many(&aces_comparison_apps(), true)
}

/// Table 1: the security metrics.
pub fn table1(evals: &[AppEval]) -> String {
    let mut t =
        TextTable::new(&["Application", "#OPs", "#Avg. Funcs", "#Pri. Code(%)", "#Avg. GVars(%)"]);
    let mut sum = (0usize, 0.0, 0.0, 0.0, 0.0, 0.0);
    for e in evals {
        let r = table1_row(e);
        t.row(vec![
            r.app.clone(),
            r.ops.to_string(),
            f2(r.avg_funcs),
            format!("{}({})", r.pri_code_bytes, pct(r.pri_code_pct)),
            format!("{}({})", f2(r.avg_gvars_bytes), pct(r.avg_gvars_pct)),
        ]);
        sum.0 += r.ops;
        sum.1 += r.avg_funcs;
        sum.2 += r.pri_code_bytes as f64;
        sum.3 += r.pri_code_pct;
        sum.4 += r.avg_gvars_bytes;
        sum.5 += r.avg_gvars_pct;
    }
    let n = evals.len().max(1) as f64;
    t.row(vec![
        "Average".into(),
        f2(sum.0 as f64 / n),
        f2(sum.1 / n),
        format!("{}({})", f2(sum.2 / n), pct(sum.3 / n)),
        format!("{}({})", f2(sum.4 / n), pct(sum.5 / n)),
    ]);
    format!("Table 1: security metrics\n{}", t.render())
}

/// Figure 9: runtime / Flash / SRAM overhead per application.
pub fn figure9(evals: &[AppEval]) -> String {
    let mut t =
        TextTable::new(&["Application", "Runtime Overhead", "Flash Overhead", "SRAM Overhead"]);
    let (mut ro, mut fo, mut so) = (0.0, 0.0, 0.0);
    for e in evals {
        let r = e.runtime_overhead_pct();
        let f = e.flash_overhead_pct();
        let s = e.sram_overhead_pct();
        ro += r;
        fo += f;
        so += s;
        t.row(vec![e.name.to_string(), pct(r), pct(f), pct(s)]);
    }
    let n = evals.len().max(1) as f64;
    t.row(vec!["Average".into(), pct(ro / n), pct(fo / n), pct(so / n)]);
    format!("Figure 9: performance overhead of OPEC\n{}", t.render())
}

/// Table 2: OPEC vs the three ACES strategies on the comparison apps.
pub fn table2(evals: &[AppEval]) -> String {
    let mut t = TextTable::new(&["Application", "Policy", "RO(X)", "FO(%)", "SO(%)", "PAC(%)"]);
    for e in evals {
        t.row(vec![
            e.name.to_string(),
            "OPEC".into(),
            f2(e.opec.cycles as f64 / e.base_cycles as f64),
            f2(e.flash_overhead_pct()),
            f2(e.sram_overhead_pct()),
            "0.00".into(),
        ]);
        for a in &e.aces {
            t.row(vec![
                String::new(),
                a.strategy.label().to_string(),
                f2(a.runtime_ratio(e.base_cycles)),
                f2(a.flash_overhead_pct(e.base_flash, e.board)),
                f2(a.sram_overhead_pct(e.base_sram, e.board)),
                f2(a.pac_pct()),
            ]);
        }
    }
    format!(
        "Table 2: runtime/Flash/SRAM overhead and privileged application \
         code, OPEC vs ACES\n{}",
        t.render()
    )
}

/// Figure 10: cumulative distribution of the PT metric per ACES
/// strategy (OPEC's PT is 0 for every operation by construction).
pub fn figure10(evals: &[AppEval]) -> String {
    let mut out =
        String::from("Figure 10: cumulative ratio of PT (partition-time over-privilege)\n");
    for e in evals {
        out.push_str(&format!("\n[{}]\n", e.name));
        let module = &e.opec.compile.image.module;
        for a in &e.aces {
            let pts = pt_of_compartments(module, &a.comps, &a.regions);
            let cdf = cumulative(pts);
            out.push_str(&format!("  {}: ", a.strategy.label()));
            let series: Vec<String> =
                cdf.iter().map(|(pt, cum)| format!("({pt:.2},{cum:.2})")).collect();
            out.push_str(&series.join(" "));
            out.push('\n');
        }
        out.push_str("  OPEC  : PT = 0 for every operation (shadowing)\n");
    }
    out
}

/// Figure 11: ET per task for OPEC and the ACES strategies.
pub fn figure11(evals: &[AppEval]) -> String {
    let mut out = String::from("Figure 11: ET (execution-time over-privilege) per task\n");
    for e in evals {
        out.push_str(&format!("\n[{}]\n", e.name));
        let ets = et_by_task(e);
        let mut t = TextTable::new(&["Task", "Operation", "ACES-1", "ACES-2", "ACES-3", "OPEC"]);
        for (i, task) in ets.tasks.iter().enumerate() {
            let cell = |series: &[f64]| f2(series.get(i).copied().unwrap_or(0.0));
            t.row(vec![
                (i + 1).to_string(),
                task.clone(),
                ets.aces.first().map(|(_, s)| cell(s)).unwrap_or_default(),
                ets.aces.get(1).map(|(_, s)| cell(s)).unwrap_or_default(),
                ets.aces.get(2).map(|(_, s)| cell(s)).unwrap_or_default(),
                cell(&ets.opec),
            ]);
        }
        out.push_str(&t.render());
    }
    out
}

/// Table 3: efficiency of the icall analysis.
pub fn table3(evals: &[AppEval]) -> String {
    let mut t =
        TextTable::new(&["Application", "#Icall", "#SVF", "Time(s)", "#Type", "#Avg.", "#Max"]);
    for e in evals {
        let ic = &e.opec.compile.report.icalls;
        t.row(vec![
            e.name.to_string(),
            ic.total.to_string(),
            ic.by_points_to.to_string(),
            format!("{:.4}", e.opec.compile.report.points_to_time.as_secs_f64()),
            ic.by_type.to_string(),
            f2(ic.avg_targets),
            ic.max_targets.to_string(),
        ]);
    }
    format!("Table 3: efficiency of the icall analysis\n{}", t.render())
}

/// Writes every table and figure as CSV files under `dir` (created if
/// missing), for plotting. One file per table; one file per app for
/// the per-app figures.
pub fn write_csv(
    dir: &std::path::Path,
    evals: &[AppEval],
    cmp: &[AppEval],
) -> std::io::Result<Vec<std::path::PathBuf>> {
    use std::io::Write;
    std::fs::create_dir_all(dir)?;
    let mut written = Vec::new();
    let mut emit = |name: &str, content: String| -> std::io::Result<()> {
        let path = dir.join(name);
        let mut f = std::fs::File::create(&path)?;
        f.write_all(content.as_bytes())?;
        written.push(path);
        Ok(())
    };

    // Table 1.
    let mut t1 = String::from(
        "app,ops,avg_funcs,pri_code_bytes,pri_code_pct,avg_gvars_bytes,avg_gvars_pct
",
    );
    for e in evals {
        let r = table1_row(e);
        t1.push_str(&format!(
            "{},{},{:.2},{},{:.2},{:.2},{:.2}
",
            r.app,
            r.ops,
            r.avg_funcs,
            r.pri_code_bytes,
            r.pri_code_pct,
            r.avg_gvars_bytes,
            r.avg_gvars_pct
        ));
    }
    emit("table1.csv", t1)?;

    // Figure 9.
    let mut f9 = String::from(
        "app,runtime_overhead_pct,flash_overhead_pct,sram_overhead_pct
",
    );
    for e in evals {
        f9.push_str(&format!(
            "{},{:.4},{:.4},{:.4}
",
            e.name,
            e.runtime_overhead_pct(),
            e.flash_overhead_pct(),
            e.sram_overhead_pct()
        ));
    }
    emit("figure9.csv", f9)?;

    // Table 3.
    let mut t3 = String::from(
        "app,icalls,svf,time_s,type,avg_targets,max_targets
",
    );
    for e in evals {
        let ic = &e.opec.compile.report.icalls;
        t3.push_str(&format!(
            "{},{},{},{:.6},{},{:.2},{}
",
            e.name,
            ic.total,
            ic.by_points_to,
            e.opec.compile.report.points_to_time.as_secs_f64(),
            ic.by_type,
            ic.avg_targets,
            ic.max_targets
        ));
    }
    emit("table3.csv", t3)?;

    // Table 2.
    let mut t2 = String::from(
        "app,policy,ro_x,fo_pct,so_pct,pac_pct
",
    );
    for e in cmp {
        t2.push_str(&format!(
            "{},OPEC,{:.4},{:.4},{:.4},0.0
",
            e.name,
            e.opec.cycles as f64 / e.base_cycles as f64,
            e.flash_overhead_pct(),
            e.sram_overhead_pct()
        ));
        for a in &e.aces {
            t2.push_str(&format!(
                "{},{},{:.4},{:.4},{:.4},{:.4}
",
                e.name,
                a.strategy.label(),
                a.runtime_ratio(e.base_cycles),
                a.flash_overhead_pct(e.base_flash, e.board),
                a.sram_overhead_pct(e.base_sram, e.board),
                a.pac_pct()
            ));
        }
    }
    emit("table2.csv", t2)?;

    // Figure 10: one CSV per app, long format.
    for e in cmp {
        let module = &e.opec.compile.image.module;
        let mut f10 = String::from(
            "strategy,pt,cumulative_ratio
",
        );
        for a in &e.aces {
            let pts = pt_of_compartments(module, &a.comps, &a.regions);
            for (pt, cum) in cumulative(pts) {
                f10.push_str(&format!(
                    "{},{:.4},{:.4}
",
                    a.strategy.label(),
                    pt,
                    cum
                ));
            }
        }
        emit(&format!("figure10_{}.csv", e.name.to_lowercase().replace('-', "_")), f10)?;
    }

    // Figure 11: one CSV per app.
    for e in cmp {
        let ets = et_by_task(e);
        let mut f11 = String::from(
            "task,operation,aces1,aces2,aces3,opec
",
        );
        for (i, task) in ets.tasks.iter().enumerate() {
            let g = |k: usize| ets.aces.get(k).and_then(|(_, s)| s.get(i)).copied().unwrap_or(0.0);
            f11.push_str(&format!(
                "{},{},{:.4},{:.4},{:.4},{:.4}
",
                i + 1,
                task,
                g(0),
                g(1),
                g(2),
                ets.opec.get(i).copied().unwrap_or(0.0)
            ));
        }
        emit(&format!("figure11_{}.csv", e.name.to_lowercase().replace('-', "_")), f11)?;
    }
    Ok(written)
}

/// The §6.1 case study: a compromised `Lock_Task` tries to overwrite
/// `KEY` via the planted arbitrary-write bug. On the vanilla system the
/// attack unlocks the lock with a wrong pin; under OPEC the rogue write
/// raises a MemManage fault and the monitor stops the program.
pub fn case_study() -> String {
    let mut out = String::from("PinLock case study (paper Section 6.1)\n\n");
    let wrong_pin: &[u8; 4] = b"9999";
    let forged_key = opec_apps::libs::crypto::fnv1a(wrong_pin);

    // --- Vanilla system: the attack succeeds. ---
    let (module, _) = pinlock::build_vulnerable();
    let board = opec_armv7m::Board::stm32f4_discovery();
    let image = link_baseline(module, board).expect("link");
    let key = image.module.global_by_name("KEY").expect("KEY");
    let GlobalSlot::Fixed(key_addr) = image.global_slots[key.0 as usize] else {
        unreachable!("baseline slots are fixed")
    };
    let mut machine = Machine::new(board);
    opec_devices::install_standard_devices(&mut machine, DeviceConfig::default()).unwrap();
    feed_attack_script(&mut machine, key_addr, forged_key);
    let mut vm = Vm::builder(machine, image).build().expect("vm");
    vm.run(crate::runs::FUEL).expect("vanilla run");
    let uart: &mut Uart = vm.machine.device_as("USART2").unwrap();
    let tx = uart.take_tx();
    let second_attempt_unlocked = tx.get(1) == Some(&b'U');
    out.push_str(&format!(
        "Vanilla: attacker overwrites KEY at {key_addr:#010x} through the \
         Lock_Task input path,\n         then unlocks with the wrong pin \
         \"9999\" -> {}\n",
        if second_attempt_unlocked { "UNLOCKED (system compromised)" } else { "not unlocked" }
    ));

    // --- OPEC: the same attack is stopped. ---
    let (module, specs) = pinlock::build_vulnerable();
    let compiled = compile(module, board, &specs).expect("compile");
    let key = compiled.image.module.global_by_name("KEY").expect("KEY");
    let public_key_addr = compiled.policy.public_addrs[&key];
    let mut machine = Machine::new(board);
    opec_devices::install_standard_devices(&mut machine, DeviceConfig::default()).unwrap();
    feed_attack_script(&mut machine, public_key_addr, forged_key);
    let policy = compiled.policy.clone();
    let mut vm = Vm::builder(machine, compiled.image)
        .supervisor(OpecMonitor::new(policy))
        .build()
        .expect("vm");
    match vm.run(crate::runs::FUEL) {
        Err(VmError::Aborted { trap: reason, pc }) => {
            out.push_str(&format!(
                "OPEC   : the same write to KEY's master copy at \
                 {public_key_addr:#010x} faults at pc {pc:#010x}\n         \
                 and the monitor stops the program: {reason}\n",
            ));
        }
        other => {
            out.push_str(&format!("OPEC   : UNEXPECTED outcome {other:?} — isolation failed!\n"))
        }
    }
    out.push_str(
        "\nLock_Task's operation data section contains no shadow of KEY, so \
         no address the\nattacker can name from inside Lock_Task reaches \
         Unlock_Task's key material.\n",
    );
    out
}

/// Feeds the case-study input script: round 1 = normal unlock + attack
/// packet through Lock_Task; round 2 = the wrong pin (which unlocks iff
/// the overwrite landed); remaining rounds = normal traffic.
fn feed_attack_script(machine: &mut Machine, key_addr: u32, forged_key: u32) {
    let uart: &mut Uart = machine.device_as("USART2").unwrap();
    // Round 1: Unlock_Task sees the correct pin; Lock_Task receives the
    // exploit (magic + address + forged digest).
    uart.feed(pinlock::PIN);
    uart.feed(&[opec_apps::hal::uart::VULN_MAGIC, 0, 0, 0]);
    uart.feed(&key_addr.to_le_bytes());
    uart.feed(&forged_key.to_le_bytes());
    // Round 2: the wrong pin, then a normal lock.
    uart.feed(b"9999");
    uart.feed(pinlock::LOCK_CMD);
    // Remaining rounds: normal traffic.
    for _ in 2..pinlock::ROUNDS {
        uart.feed(pinlock::PIN);
        uart.feed(pinlock::LOCK_CMD);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runs::evaluate_app;

    #[test]
    fn case_study_shows_compromise_then_containment() {
        let s = case_study();
        assert!(s.contains("UNLOCKED (system compromised)"), "{s}");
        assert!(s.contains("monitor stops the program"), "{s}");
        assert!(!s.contains("isolation failed"), "{s}");
    }

    #[test]
    fn report_renderers_produce_output() {
        // One cheap app end-to-end through every renderer.
        let evals = [evaluate_app(&opec_apps::programs::pinlock::app(), true)];
        let t1 = table1(&evals);
        assert!(t1.contains("PinLock"));
        let f9 = figure9(&evals);
        assert!(f9.contains("Runtime Overhead"));
        let t2 = table2(&evals);
        assert!(t2.contains("ACES-1") && t2.contains("OPEC"));
        let f10 = figure10(&evals);
        assert!(f10.contains("ACES-2"));
        let f11 = figure11(&evals);
        assert!(f11.contains("Task"));
        let t3 = table3(&evals);
        assert!(t3.contains("#Icall"));
    }
}
