//! Cross-backend oracle agreement: the backend-independent access
//! matrix, checked in lockstep by the shadow watcher, must reach the
//! same verdict for every app on the ARMv7-M MPU and the RISC-V PMP.
//!
//! The matrix is derived from the partition and policy alone — neither
//! backend's region encoding enters it — so a divergence on exactly
//! one backend would mean that backend's plan (or its protection-unit
//! model) enforces something other than the policy. A divergence on
//! both would mean the compiler broke; either way this test pins the
//! §7 portability claim: same policy, same verdict, different
//! hardware.

use opec_apps::programs::all_apps;
use opec_core::Backend;
use opec_eval::check::{check_opec_app, BudgetHalt, CaseResult};
use opec_eval::engine::RunLimits;

fn verdict(case: &CaseResult) -> Result<(), String> {
    if case.total > 0 {
        return Err(format!("{} divergences: {:?}", case.total, case.divergences));
    }
    if let Some(err) = &case.run_error {
        return Err(format!("run error: {err}"));
    }
    Ok(())
}

#[test]
fn access_matrix_verdicts_agree_on_both_backends() {
    let limits = RunLimits::unsupervised();
    for app in all_apps() {
        let mut verdicts = Vec::new();
        for sel in Backend::ALL {
            let (case, crosschecks, halt) = check_opec_app(&app, &limits, sel);
            assert!(
                matches!(halt, BudgetHalt::Ran),
                "{} on {}: run did not finish within budget ({halt:?})",
                app.name,
                sel.name()
            );
            assert!(case.checks > 0, "{} on {}: oracle saw no checks", app.name, sel.name());
            for cc in &crosschecks {
                assert!(
                    cc.ok,
                    "{} on {}: cross-check {} failed: {}",
                    app.name,
                    sel.name(),
                    cc.name,
                    cc.detail
                );
            }
            verdicts.push((sel, verdict(&case)));
        }
        // Same verdict on every backend — and that verdict is clean.
        for (sel, v) in &verdicts {
            assert_eq!(
                v,
                &Ok(()),
                "{} on {}: oracle verdict diverged from the other backend's clean run",
                app.name,
                sel.name()
            );
        }
    }
}
