//! Coverage-map algebra and corpus round-trip properties.
//!
//! The fuzzer's aggregation is only deterministic because coverage is
//! a feature *set*: merge must be a plain union — associative,
//! commutative, idempotent — so the aggregate is independent of worker
//! interleaving, journal resume order, and replay count. And a corpus
//! written to disk must replay to the byte-identical aggregate the
//! admitting run computed, or the nightly job's restored corpus would
//! silently drift from the artifact it uploaded.

use proptest::prelude::*;

use std::sync::atomic::{AtomicU32, Ordering};

use opec_core::Backend;
use opec_oracle::{generate, mutate, run_opec_cov, Corpus, CoverageMap, RunBudget};

static CASE: AtomicU32 = AtomicU32::new(0);

fn tmp_corpus_dir() -> std::path::PathBuf {
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("opec-corpus-props-{}-{n}", std::process::id()))
}

/// Feature payloads stay under the 56-bit tag boundary, like every
/// real feature [`CoverageMap::observe`] emits.
fn feats() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0u64..(1 << 56), 0..24)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Merge is a set union: associative, commutative, idempotent,
    /// with the empty map as identity.
    #[test]
    fn merge_is_associative_commutative_idempotent(
        a in feats(), b in feats(), c in feats(),
    ) {
        let (a, b, c) = (
            CoverageMap::from_features(a),
            CoverageMap::from_features(b),
            CoverageMap::from_features(c),
        );
        let merged = |x: &CoverageMap, y: &CoverageMap| {
            let mut m = x.clone();
            m.merge(y);
            m
        };
        // (a ∪ b) ∪ c == a ∪ (b ∪ c)
        prop_assert_eq!(merged(&merged(&a, &b), &c), merged(&a, &merged(&b, &c)));
        // a ∪ b == b ∪ a
        prop_assert_eq!(merged(&a, &b), merged(&b, &a));
        // a ∪ a == a, and a ∪ ∅ == a
        prop_assert_eq!(merged(&a, &a), a.clone());
        prop_assert_eq!(merged(&a, &CoverageMap::new()), a.clone());
        // Digest is a function of the set, so the laws transfer to it.
        prop_assert_eq!(merged(&a, &b).digest(), merged(&b, &a).digest());
    }

    /// Serialization round-trips: `features()` → `from_features` is
    /// the identity, in canonical order.
    #[test]
    fn feature_serialization_roundtrips(a in feats()) {
        let m = CoverageMap::from_features(a);
        let back = CoverageMap::from_features(m.features().collect::<Vec<_>>());
        prop_assert_eq!(&m, &back);
        let fs = m.features().collect::<Vec<_>>();
        let mut sorted = fs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(fs, sorted, "features() must iterate sorted and deduped");
    }

    /// A corpus saved to disk and re-loaded replays — through the full
    /// pipeline — to the byte-identical aggregate coverage map the
    /// admitting run computed.
    #[test]
    fn corpus_replay_from_disk_reproduces_the_aggregate(
        gen_seed in 0u64..256,
        mut_seed in any::<u64>(),
    ) {
        let budget = RunBudget::default();
        let mut corpus = Corpus::in_memory();
        for (i, spec) in [generate(gen_seed), generate(gen_seed + 1)]
            .into_iter()
            .flat_map(|s| [mutate(&s, mut_seed), s])
            .enumerate()
        {
            let (v, cov) = run_opec_cov(&spec, None, &budget, Backend::Armv7m)
                .map_err(TestCaseError::fail)?;
            prop_assert!(v.clean(), "input {i}: {:?}", v.divergences);
            corpus.admit(spec, cov);
        }
        prop_assert!(!corpus.entries.is_empty());

        // Save → load → replay every entry; the union must equal the
        // loaded aggregate, which must equal the admitted aggregate.
        let dir = tmp_corpus_dir();
        let mut bound = Corpus::load(&dir).map_err(TestCaseError::fail)?;
        for e in &corpus.entries {
            bound.admit(e.spec.clone(), e.coverage.clone());
        }
        bound.save().map_err(TestCaseError::fail)?;
        let loaded = Corpus::load(&dir).map_err(TestCaseError::fail)?;
        prop_assert_eq!(&loaded.aggregate, &corpus.aggregate);

        let mut replayed = CoverageMap::new();
        for e in &loaded.entries {
            let (_, cov) = run_opec_cov(&e.spec, None, &budget, Backend::Armv7m)
                .map_err(TestCaseError::fail)?;
            replayed.merge(&cov);
        }
        std::fs::remove_dir_all(&dir).ok();
        prop_assert_eq!(replayed.digest(), corpus.aggregate.digest(),
            "replay must reproduce the admitted aggregate byte-for-byte");
        prop_assert_eq!(replayed, corpus.aggregate);
    }
}
