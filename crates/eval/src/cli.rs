//! Shared command-line argument parsing for `opec-eval`.
//!
//! Every subcommand historically grew its own ad-hoc flag loop with its
//! own spelling; this module parses one [`CliArgs`] struct with one
//! flag vocabulary, and each subcommand reads the fields it cares
//! about. Flags a subcommand does not use are rejected by
//! [`CliArgs::forbid_unused`] so typos fail loudly instead of being
//! silently ignored.
//!
//! The vocabulary:
//!
//! ```text
//! --backend NAME   protection backend           (attack-matrix, check,
//!                  armv7m | rv32-pmp             bench-vm, report)
//! --seeds N        seeds per attack cell / generated firmwares
//!                                               (attack-matrix, check)
//! --json FILE      machine-readable artifact    (attack-matrix, bench-json,
//!                                               check)
//! --shrink         shrink divergent firmwares   (check)
//! --lockstep       cached-vs-plain equivalence  (check)
//! --fuel N         guest instruction budget     (attack-matrix, check,
//!                  per campaign job              bench-vm)
//! --timeout SECS   wall-clock watchdog per job  (attack-matrix, check,
//!                  attempt; 0 disarms it         bench-vm)
//! --journal FILE   crash-safe job journal;      (attack-matrix, check,
//!                  rerun to resume               bench-vm)
//! --workers N      campaign worker threads      (attack-matrix, check,
//!                                               bench-vm, fuzz)
//! --corpus DIR     persistent fuzzing corpus    (check, fuzz)
//! --mode NAME      fuzz scheduling mode         (fuzz)
//!                  guided | random
//! --time-to-find   run the broken-MPU-plan      (fuzz)
//!                  time-to-find benchmark
//! --trials N       benchmark trials per mode    (fuzz)
//! --devices N      logical fleet device count   (fleet, serve)
//! --duration SECS  wall-clock budget / run time (fleet, serve)
//! --mix SPEC       firmware mix                 (fleet, serve)
//!                  kind[=weight],... over
//!                  tcp_echo|pinlock|camera|fuzz
//! --quantum N      guest fuel per device        (fleet, serve)
//!                  scheduling quantum
//! --port N         HTTP listen port             (serve)
//! --out DIR        output directory             (csv)
//! --obs-json FILE  observability metrics JSON   (report)
//! --trace FILE     Chrome trace_event JSON      (report)
//! --apps FILTER    comma-separated name filter  (report)
//! --ring N         event ring capacity          (report)
//! --funcs          include function events      (report)
//! ```
//!
//! For backward compatibility `csv DIR` and `bench-json FILE` also
//! accept their original positional operand.

use opec_core::Backend;

/// Parsed command-line arguments, shared by every subcommand.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CliArgs {
    /// `--backend NAME`: protection backend (`armv7m` | `rv32-pmp`).
    pub backend: Option<String>,
    /// `--seeds N`: seeds per attack-matrix cell.
    pub seeds: Option<u64>,
    /// `--json FILE`: machine-readable artifact path.
    pub json: Option<String>,
    /// `--out DIR`: output directory.
    pub out: Option<String>,
    /// `--obs-json FILE`: observability metrics JSON path.
    pub obs_json: Option<String>,
    /// `--trace FILE`: Chrome `trace_event` JSON path.
    pub trace: Option<String>,
    /// `--apps FILTER`: comma-separated application-name filter.
    pub apps: Option<String>,
    /// `--ring N`: event ring-buffer capacity.
    pub ring: Option<usize>,
    /// `--funcs`: record function enter/exit events in the ring.
    pub funcs: bool,
    /// `--shrink`: shrink divergent generated firmwares to a minimal
    /// counterexample.
    pub shrink: bool,
    /// `--lockstep`: run the cached-vs-plain execution equivalence
    /// check instead of the differential oracle.
    pub lockstep: bool,
    /// `--fuel N`: guest instruction budget per campaign job.
    pub fuel: Option<u64>,
    /// `--timeout SECS`: wall-clock watchdog per job attempt (0
    /// disarms it).
    pub timeout: Option<u64>,
    /// `--journal FILE`: crash-safe campaign journal; rerunning with
    /// the same path resumes, skipping recorded jobs.
    pub journal: Option<String>,
    /// `--workers N`: campaign worker threads.
    pub workers: Option<usize>,
    /// `--corpus DIR`: persistent fuzzing corpus directory.
    pub corpus: Option<String>,
    /// `--mode NAME`: fuzz scheduling mode (`guided` | `random`).
    pub mode: Option<String>,
    /// `--time-to-find`: run the broken-MPU-plan time-to-find
    /// benchmark instead of a divergence hunt.
    pub time_to_find: bool,
    /// `--trials N`: benchmark trials per mode.
    pub trials: Option<u64>,
    /// `--devices N`: logical fleet device count.
    pub devices: Option<usize>,
    /// `--duration SECS`: fleet wall-clock budget (fractional seconds
    /// accepted).
    pub duration: Option<f64>,
    /// `--mix SPEC`: fleet firmware mix, `kind[=weight],...`.
    pub mix: Option<String>,
    /// `--quantum N`: guest fuel per device scheduling quantum.
    pub quantum: Option<u64>,
    /// `--port N`: HTTP listen port for `serve`.
    pub port: Option<u16>,
    /// Positional operands (legacy `csv DIR` / `bench-json FILE`).
    pub positional: Vec<String>,
}

impl CliArgs {
    /// Resolves `--backend`; absence means ARMv7-M (back-compat with
    /// every pre-backend invocation). An unknown name is a usage error
    /// (the caller exits 2).
    pub fn selected_backend(&self) -> Result<Backend, String> {
        self.backend.as_deref().map_or(Ok(Backend::Armv7m), Backend::from_name)
    }

    /// Parses everything after the subcommand word.
    pub fn parse<I: Iterator<Item = String>>(mut args: I) -> Result<CliArgs, String> {
        let mut out = CliArgs::default();
        let need =
            |args: &mut I, flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--backend" => out.backend = Some(need(&mut args, "--backend")?),
                "--seeds" => {
                    let v = need(&mut args, "--seeds")?;
                    out.seeds =
                        Some(v.parse().map_err(|e| format!("bad --seeds value {v:?}: {e}"))?);
                }
                "--json" => out.json = Some(need(&mut args, "--json")?),
                "--out" => out.out = Some(need(&mut args, "--out")?),
                "--obs-json" => out.obs_json = Some(need(&mut args, "--obs-json")?),
                "--trace" => out.trace = Some(need(&mut args, "--trace")?),
                "--apps" => out.apps = Some(need(&mut args, "--apps")?),
                "--ring" => {
                    let v = need(&mut args, "--ring")?;
                    out.ring = Some(v.parse().map_err(|e| format!("bad --ring value {v:?}: {e}"))?);
                }
                "--funcs" => out.funcs = true,
                "--shrink" => out.shrink = true,
                "--lockstep" => out.lockstep = true,
                "--fuel" => {
                    let v = need(&mut args, "--fuel")?;
                    out.fuel = Some(v.parse().map_err(|e| format!("bad --fuel value {v:?}: {e}"))?);
                }
                "--timeout" => {
                    let v = need(&mut args, "--timeout")?;
                    out.timeout =
                        Some(v.parse().map_err(|e| format!("bad --timeout value {v:?}: {e}"))?);
                }
                "--journal" => out.journal = Some(need(&mut args, "--journal")?),
                "--corpus" => out.corpus = Some(need(&mut args, "--corpus")?),
                "--mode" => out.mode = Some(need(&mut args, "--mode")?),
                "--time-to-find" => out.time_to_find = true,
                "--trials" => {
                    let v = need(&mut args, "--trials")?;
                    out.trials =
                        Some(v.parse().map_err(|e| format!("bad --trials value {v:?}: {e}"))?);
                }
                "--workers" => {
                    let v = need(&mut args, "--workers")?;
                    let n: usize =
                        v.parse().map_err(|e| format!("bad --workers value {v:?}: {e}"))?;
                    if n == 0 {
                        return Err(format!(
                            "bad --workers value {v:?}: a campaign needs at least one \
                             worker thread (omit --workers for one per core)"
                        ));
                    }
                    out.workers = Some(n);
                }
                "--devices" => {
                    let v = need(&mut args, "--devices")?;
                    let n: usize =
                        v.parse().map_err(|e| format!("bad --devices value {v:?}: {e}"))?;
                    if n == 0 {
                        return Err(format!(
                            "bad --devices value {v:?}: a fleet needs at least one device"
                        ));
                    }
                    out.devices = Some(n);
                }
                "--duration" => {
                    let v = need(&mut args, "--duration")?;
                    let secs: f64 =
                        v.parse().map_err(|e| format!("bad --duration value {v:?}: {e}"))?;
                    if !secs.is_finite() || secs <= 0.0 {
                        return Err(format!(
                            "bad --duration value {v:?}: must be a positive number of seconds"
                        ));
                    }
                    out.duration = Some(secs);
                }
                "--mix" => out.mix = Some(need(&mut args, "--mix")?),
                "--quantum" => {
                    let v = need(&mut args, "--quantum")?;
                    let n: u64 =
                        v.parse().map_err(|e| format!("bad --quantum value {v:?}: {e}"))?;
                    if n == 0 {
                        return Err(format!(
                            "bad --quantum value {v:?}: a device quantum needs fuel"
                        ));
                    }
                    out.quantum = Some(n);
                }
                "--port" => {
                    let v = need(&mut args, "--port")?;
                    out.port = Some(v.parse().map_err(|e| format!("bad --port value {v:?}: {e}"))?);
                }
                f if f.starts_with('-') => return Err(format!("unknown flag {f}")),
                other => out.positional.push(other.to_string()),
            }
        }
        Ok(out)
    }

    /// Rejects flags the current subcommand does not consume. `allowed`
    /// lists the flag spellings the subcommand understands.
    pub fn forbid_unused(&self, cmd: &str, allowed: &[&str]) -> Result<(), String> {
        let set = |name: &str| -> bool {
            match name {
                "--backend" => self.backend.is_some(),
                "--seeds" => self.seeds.is_some(),
                "--json" => self.json.is_some(),
                "--out" => self.out.is_some(),
                "--obs-json" => self.obs_json.is_some(),
                "--trace" => self.trace.is_some(),
                "--apps" => self.apps.is_some(),
                "--ring" => self.ring.is_some(),
                "--funcs" => self.funcs,
                "--shrink" => self.shrink,
                "--lockstep" => self.lockstep,
                "--fuel" => self.fuel.is_some(),
                "--timeout" => self.timeout.is_some(),
                "--journal" => self.journal.is_some(),
                "--workers" => self.workers.is_some(),
                "--corpus" => self.corpus.is_some(),
                "--mode" => self.mode.is_some(),
                "--time-to-find" => self.time_to_find,
                "--trials" => self.trials.is_some(),
                "--devices" => self.devices.is_some(),
                "--duration" => self.duration.is_some(),
                "--mix" => self.mix.is_some(),
                "--quantum" => self.quantum.is_some(),
                "--port" => self.port.is_some(),
                "positional" => !self.positional.is_empty(),
                _ => false,
            }
        };
        for name in [
            "--backend",
            "--seeds",
            "--json",
            "--out",
            "--obs-json",
            "--trace",
            "--apps",
            "--ring",
            "--funcs",
            "--shrink",
            "--lockstep",
            "--fuel",
            "--timeout",
            "--journal",
            "--workers",
            "--corpus",
            "--mode",
            "--time-to-find",
            "--trials",
            "--devices",
            "--duration",
            "--mix",
            "--quantum",
            "--port",
            "positional",
        ] {
            if set(name) && !allowed.contains(&name) {
                return Err(if name == "positional" {
                    format!("{cmd} takes no positional operand {:?}", self.positional[0])
                } else {
                    format!("{cmd} does not understand {name}")
                });
            }
        }
        Ok(())
    }

    /// The application filter as a predicate over app names: a
    /// comma-separated list of case-insensitive substrings, any match
    /// accepting. `None` accepts everything.
    pub fn app_matches(&self, name: &str) -> bool {
        match &self.apps {
            None => true,
            Some(filter) => {
                let lname = name.to_ascii_lowercase();
                filter
                    .split(',')
                    .map(|p| p.trim().to_ascii_lowercase())
                    .filter(|p| !p.is_empty())
                    .any(|p| lname.contains(&p))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<CliArgs, String> {
        CliArgs::parse(words.iter().map(|s| s.to_string()))
    }

    #[test]
    fn flags_and_positionals_parse() {
        let a = parse(&["--seeds", "7", "--json", "m.json", "results"]).unwrap();
        assert_eq!(a.seeds, Some(7));
        assert_eq!(a.json.as_deref(), Some("m.json"));
        assert_eq!(a.positional, vec!["results".to_string()]);
    }

    #[test]
    fn backend_flag_defaults_to_armv7m() {
        assert_eq!(parse(&[]).unwrap().selected_backend(), Ok(Backend::Armv7m));
        let pmp = parse(&["--backend", "rv32-pmp"]).unwrap();
        assert_eq!(pmp.selected_backend(), Ok(Backend::Rv32Pmp));
        let avr = parse(&["--backend", "avr"]).unwrap();
        assert!(avr.selected_backend().unwrap_err().contains("avr"));
    }

    #[test]
    fn unknown_and_valueless_flags_error() {
        assert!(parse(&["--bogus"]).unwrap_err().contains("unknown flag"));
        assert!(parse(&["--seeds"]).unwrap_err().contains("needs a value"));
        assert!(parse(&["--seeds", "x"]).unwrap_err().contains("bad --seeds"));
    }

    #[test]
    fn unknown_flag_error_names_the_flag() {
        assert!(parse(&["--bogus"]).unwrap_err().contains("--bogus"));
        assert!(parse(&["--shrinkk"]).unwrap_err().contains("--shrinkk"));
    }

    #[test]
    fn forbid_unused_rejects_foreign_flags() {
        let a = parse(&["--seeds", "3"]).unwrap();
        assert!(a.forbid_unused("csv", &["--out", "positional"]).is_err());
        assert!(a.forbid_unused("attack-matrix", &["--seeds", "--json"]).is_ok());
    }

    #[test]
    fn foreign_flag_error_names_flag_and_command() {
        let a = parse(&["--shrink"]).unwrap();
        assert!(a.shrink);
        let err = a.forbid_unused("table1", &[]).unwrap_err();
        assert!(err.contains("--shrink"), "{err}");
        assert!(err.contains("table1"), "{err}");
        assert!(a.forbid_unused("check", &["--seeds", "--json", "--shrink"]).is_ok());
    }

    #[test]
    fn lockstep_flag_parses_and_is_guarded() {
        let a = parse(&["--lockstep"]).unwrap();
        assert!(a.lockstep);
        let err = a.forbid_unused("attack-matrix", &["--seeds", "--json"]).unwrap_err();
        assert!(err.contains("--lockstep"), "{err}");
        assert!(a.forbid_unused("check", &["--seeds", "--json", "--shrink", "--lockstep"]).is_ok());
    }

    #[test]
    fn legacy_positionals_still_parse() {
        // `csv DIR`: the original positional operand form.
        let a = parse(&["results-dir"]).unwrap();
        assert_eq!(a.positional, vec!["results-dir".to_string()]);
        assert!(a.forbid_unused("csv", &["--out", "positional"]).is_ok());
        // `bench-json FILE`: likewise.
        let b = parse(&["timings.json"]).unwrap();
        assert!(b.forbid_unused("bench-json", &["--json", "positional"]).is_ok());
        // But a positional where none is accepted names the operand.
        let err = b.forbid_unused("check", &["--seeds", "--json", "--shrink"]).unwrap_err();
        assert!(err.contains("timings.json"), "{err}");
    }

    #[test]
    fn campaign_flags_parse_and_are_guarded() {
        let a =
            parse(&["--fuel", "5000", "--timeout", "30", "--journal", "j.jsonl", "--workers", "4"])
                .unwrap();
        assert_eq!(a.fuel, Some(5000));
        assert_eq!(a.timeout, Some(30));
        assert_eq!(a.journal.as_deref(), Some("j.jsonl"));
        assert_eq!(a.workers, Some(4));
        assert!(parse(&["--fuel", "x"]).unwrap_err().contains("bad --fuel"));
        assert!(parse(&["--workers"]).unwrap_err().contains("needs a value"));
        // Campaign flags are rejected by non-campaign subcommands.
        let err = a.forbid_unused("table1", &[]).unwrap_err();
        assert!(err.contains("--fuel"), "{err}");
        assert!(a
            .forbid_unused("check", &["--fuel", "--timeout", "--journal", "--workers"])
            .is_ok());
    }

    #[test]
    fn fuzz_flags_parse_and_are_guarded() {
        let a = parse(&["--corpus", "corp", "--mode", "guided", "--time-to-find", "--trials", "5"])
            .unwrap();
        assert_eq!(a.corpus.as_deref(), Some("corp"));
        assert_eq!(a.mode.as_deref(), Some("guided"));
        assert!(a.time_to_find);
        assert_eq!(a.trials, Some(5));
        assert!(parse(&["--trials", "x"]).unwrap_err().contains("bad --trials"));
        assert!(parse(&["--corpus"]).unwrap_err().contains("needs a value"));
        let err = a.forbid_unused("table1", &[]).unwrap_err();
        assert!(err.contains("--corpus"), "{err}");
        assert!(a
            .forbid_unused("fuzz", &["--corpus", "--mode", "--time-to-find", "--trials"])
            .is_ok());
    }

    #[test]
    fn fleet_flags_parse_and_are_guarded() {
        let a = parse(&[
            "--devices",
            "512",
            "--duration",
            "7.5",
            "--mix",
            "tcp_echo=2,fuzz",
            "--quantum",
            "10000",
            "--port",
            "9100",
        ])
        .unwrap();
        assert_eq!(a.devices, Some(512));
        assert_eq!(a.duration, Some(7.5));
        assert_eq!(a.mix.as_deref(), Some("tcp_echo=2,fuzz"));
        assert_eq!(a.quantum, Some(10_000));
        assert_eq!(a.port, Some(9100));
        assert!(parse(&["--devices", "x"]).unwrap_err().contains("bad --devices"));
        assert!(parse(&["--duration", "soon"]).unwrap_err().contains("bad --duration"));
        assert!(parse(&["--port", "99999"]).unwrap_err().contains("bad --port"));
        let err = a.forbid_unused("table1", &[]).unwrap_err();
        assert!(err.contains("--devices"), "{err}");
        assert!(a
            .forbid_unused(
                "serve",
                &["--devices", "--duration", "--mix", "--quantum", "--port", "--workers"],
            )
            .is_ok());
    }

    #[test]
    fn zero_and_negative_resource_values_fail_naming_the_flag() {
        // `--workers 0` historically parsed fine and then hung the
        // campaign pool; now every nonsensical resource count fails at
        // the parse with the flag named.
        for (words, flag) in [
            (&["--workers", "0"][..], "--workers"),
            (&["--devices", "0"][..], "--devices"),
            (&["--quantum", "0"][..], "--quantum"),
            (&["--duration", "0"][..], "--duration"),
            (&["--duration", "-3"][..], "--duration"),
        ] {
            let err = parse(words).unwrap_err();
            assert!(err.contains(flag), "{words:?}: {err}");
            assert!(err.contains("bad"), "{words:?}: {err}");
        }
        // The boundary values stay accepted.
        assert_eq!(parse(&["--workers", "1"]).unwrap().workers, Some(1));
        assert_eq!(parse(&["--duration", "0.2"]).unwrap().duration, Some(0.2));
    }

    #[test]
    fn app_filter_is_substring_any_match() {
        let a = parse(&["--apps", "pin,core"]).unwrap();
        assert!(a.app_matches("PinLock"));
        assert!(a.app_matches("CoreMark"));
        assert!(!a.app_matches("Animation"));
        assert!(parse(&[]).unwrap().app_matches("anything"));
    }
}
