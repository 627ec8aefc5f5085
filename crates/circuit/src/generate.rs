//! Seeded synthetic standard-cell circuit generation.
//!
//! The two benchmark circuits of the paper (bnrE, MDC) are proprietary
//! netlists; only their aggregate shape is published (§2.3). The generator
//! reproduces that shape: a fixed `channels × grids` routing surface, a
//! fixed wire count, and a wire population mixing many short local nets
//! with a tail of long nets — the statistic that drives every effect the
//! paper measures (locality, region crossings, update volume).
//!
//! Generation is fully deterministic given [`GeneratorConfig::seed`].

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::circuit::Circuit;
use crate::wire::{Pin, Wire};

/// Which distribution horizontal wire spans are drawn from.
///
/// The paper circuits use a two-population mixture (many short local
/// nets plus a uniform long tail). Real netlists often show heavier,
/// scale-free tails instead — Rent's-rule-style interconnect models —
/// so the generator also offers a truncated discrete Pareto family.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SpanModel {
    /// Historical mixture: `short_fraction` exponential short wires,
    /// the rest uniform up to `long_max_fraction · grids`.
    ShortLongMix,
    /// Power-law (Pareto) spans: `P(span = s) ∝ s^-alpha` for
    /// `s ≥ min_span`, truncated at the surface width. Smaller `alpha`
    /// means a heavier tail; typical interconnect fits use 1.5–3.0.
    PowerLaw {
        /// Tail exponent (> 1.0; clamped during sampling).
        alpha: f64,
        /// Smallest span the distribution produces.
        min_span: u32,
    },
}

/// Tunable parameters of the synthetic circuit generator.
#[derive(Clone, Debug, PartialEq)]
pub struct GeneratorConfig {
    /// Circuit name recorded in the output.
    pub name: String,
    /// Number of routing channels.
    pub channels: u16,
    /// Number of routing grid columns.
    pub grids: u16,
    /// Number of wires to generate.
    pub n_wires: usize,
    /// RNG seed; equal seeds produce identical circuits.
    pub seed: u64,
    /// Fraction of wires drawn from the *short/local* population.
    pub short_fraction: f64,
    /// Mean horizontal span (grid columns) of short wires.
    pub short_mean_span: f64,
    /// Long wires span `uniform(short_mean_span .. long_max_fraction*grids)`.
    pub long_max_fraction: f64,
    /// Probability that a wire gains each additional pin beyond two
    /// (geometric tail; mean pins = 2 + p/(1-p)).
    pub extra_pin_p: f64,
    /// Mean number of channels spanned by a wire (≥ 1).
    pub mean_channel_span: f64,
    /// Distribution of horizontal spans. [`SpanModel::ShortLongMix`]
    /// reproduces the paper circuits; [`SpanModel::PowerLaw`] adds a
    /// scale-free family (ignores `short_*`/`long_max_fraction`).
    pub span_model: SpanModel,
}

impl GeneratorConfig {
    /// A reasonable default population for a surface of the given size.
    pub fn for_surface(
        name: impl Into<String>,
        channels: u16,
        grids: u16,
        n_wires: usize,
        seed: u64,
    ) -> Self {
        GeneratorConfig {
            name: name.into(),
            channels,
            grids,
            n_wires,
            seed,
            short_fraction: 0.72,
            short_mean_span: (grids as f64 / 22.0).max(3.0),
            long_max_fraction: 0.7,
            extra_pin_p: 0.45,
            mean_channel_span: 1.9,
            span_model: SpanModel::ShortLongMix,
        }
    }
}

/// Deterministic circuit generator; see [module docs](self).
pub struct CircuitGenerator {
    config: GeneratorConfig,
    rng: StdRng,
}

impl CircuitGenerator {
    /// Creates a generator for `config`.
    pub fn new(config: GeneratorConfig) -> Self {
        let rng = StdRng::seed_from_u64(config.seed);
        CircuitGenerator { config, rng }
    }

    /// Generates the circuit. Consumes the generator so the RNG stream is
    /// used exactly once per configuration.
    pub fn generate(mut self) -> Circuit {
        self.place_rows();
        let wires = self.draw_wires();
        Circuit::new(self.config.name.clone(), self.config.channels, self.config.grids, wires)
            .expect("generator produced invalid circuit")
    }

    /// Places the cells of each row between two channels, widths 2–8
    /// separated by small gaps, the way a real placement precedes
    /// routing. The router needs channel-space pins only, so nothing is
    /// kept, but the draws advance the seeded stream every preset's
    /// wires come from.
    fn place_rows(&mut self) {
        let grids = self.config.grids as u32;
        for _ in 1..self.config.channels {
            let mut x: u32 = self.rng.random_range(0..3);
            while x < grids {
                let width = self.rng.random_range(2..=8).min(grids - x);
                x += width + self.rng.random_range(0..3);
            }
        }
    }

    fn draw_wires(&mut self) -> Vec<Wire> {
        (0..self.config.n_wires).map(|id| self.draw_wire(id)).collect()
    }

    /// Draws one wire: an anchor position, a horizontal span from the
    /// short/long mixture, a channel span, and pins scattered inside the
    /// resulting window.
    fn draw_wire(&mut self, id: usize) -> Wire {
        let grids = self.config.grids as u32;
        let channels = self.config.channels as u32;

        let x_span = self.sample_x_span().min(grids - 1);
        let c_span = self.sample_channel_span().min(channels - 1);

        let x_lo = self.rng.random_range(0..grids - x_span) as u16;
        let x_hi = x_lo + x_span as u16;
        let c_lo = self.rng.random_range(0..channels - c_span) as u16;
        let c_hi = c_lo + c_span as u16;

        let n_pins = 2 + self.sample_geometric(self.config.extra_pin_p);
        let mut pins = Vec::with_capacity(n_pins);
        // Anchor the wire's extremes so spans are realized exactly.
        pins.push(Pin::new(self.rng.random_range(c_lo..=c_hi), x_lo));
        pins.push(Pin::new(self.rng.random_range(c_lo..=c_hi), x_hi));
        for _ in 2..n_pins {
            pins.push(Pin::new(
                self.rng.random_range(c_lo..=c_hi),
                self.rng.random_range(x_lo..=x_hi),
            ));
        }
        Wire::new(id, pins)
    }

    /// Horizontal span, drawn from the configured [`SpanModel`].
    fn sample_x_span(&mut self) -> u32 {
        match self.config.span_model {
            SpanModel::ShortLongMix => {
                // Exponential for the short population, uniform for the
                // long tail.
                if self.rng.random_bool(self.config.short_fraction) {
                    self.sample_exponential(self.config.short_mean_span)
                } else {
                    let max = (self.config.grids as f64 * self.config.long_max_fraction) as u32;
                    let lo = self.config.short_mean_span as u32;
                    if max <= lo {
                        max
                    } else {
                        self.rng.random_range(lo..=max)
                    }
                }
            }
            SpanModel::PowerLaw { alpha, min_span } => {
                // Inverse-CDF Pareto draw: s = min · u^(-1/(alpha-1)).
                let alpha = alpha.max(1.01);
                let u: f64 = self.rng.random();
                let u = u.max(f64::MIN_POSITIVE);
                let s = min_span.max(1) as f64 * u.powf(-1.0 / (alpha - 1.0));
                // Cap before the cast: a tiny u can overshoot u32::MAX.
                s.min(u32::MAX as f64).round() as u32
            }
        }
    }

    fn sample_channel_span(&mut self) -> u32 {
        // Mean `mean_channel_span`, at least 0 (wire within one channel).
        self.sample_exponential((self.config.mean_channel_span - 1.0).max(0.0))
    }

    /// Geometric count: number of successes of probability `p` before the
    /// first failure.
    fn sample_geometric(&mut self, p: f64) -> usize {
        let mut n = 0;
        while n < 16 && self.rng.random_bool(p) {
            n += 1;
        }
        n
    }

    /// Discretized exponential with the given mean (mean 0 returns 0).
    fn sample_exponential(&mut self, mean: f64) -> u32 {
        if mean <= 0.0 {
            return 0;
        }
        let u: f64 = self.rng.random();
        // Guard u=0 (ln(0) = -inf).
        let u = u.max(f64::MIN_POSITIVE);
        (-u.ln() * mean).round() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config(seed: u64) -> GeneratorConfig {
        GeneratorConfig::for_surface("test", 6, 80, 50, seed)
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = CircuitGenerator::new(small_config(7)).generate();
        let b = CircuitGenerator::new(small_config(7)).generate();
        assert_eq!(a.wires, b.wires);
    }

    #[test]
    fn different_seeds_differ() {
        let a = CircuitGenerator::new(small_config(1)).generate();
        let b = CircuitGenerator::new(small_config(2)).generate();
        assert_ne!(a.wires, b.wires);
    }

    #[test]
    fn generated_circuit_is_valid_and_sized() {
        let c = CircuitGenerator::new(small_config(3)).generate();
        c.validate().unwrap();
        assert_eq!(c.wire_count(), 50);
        assert_eq!(c.channels, 6);
        assert_eq!(c.grids, 80);
    }

    #[test]
    fn wire_population_mixes_short_and_long() {
        let cfg = GeneratorConfig::for_surface("mix", 10, 341, 420, 42);
        let c = CircuitGenerator::new(cfg).generate();
        let spans: Vec<u32> = c.wires.iter().map(|w| w.x_span()).collect();
        let short = spans.iter().filter(|&&s| s <= 20).count();
        let long = spans.iter().filter(|&&s| s >= 80).count();
        assert!(short > 100, "expected many short wires, got {short}");
        assert!(long > 20, "expected a long tail, got {long}");
    }

    #[test]
    fn all_wires_have_at_least_two_pins() {
        let c = CircuitGenerator::new(small_config(9)).generate();
        assert!(c.wires.iter().all(|w| w.pins.len() >= 2));
    }

    #[test]
    fn power_law_spans_are_heavy_tailed_but_bounded() {
        let mut cfg = GeneratorConfig::for_surface("plaw", 8, 256, 400, 13);
        cfg.span_model = SpanModel::PowerLaw { alpha: 1.8, min_span: 4 };
        let c = CircuitGenerator::new(cfg).generate();
        c.validate().unwrap();
        let spans: Vec<u32> = c.wires.iter().map(|w| w.x_span()).collect();
        // Every span fits the surface: the generator clamps the drawn
        // span to grids-1, and x_span() reports inclusive width.
        assert!(spans.iter().all(|&s| s <= 256));
        // Most mass near the minimum, but a real tail survives the clamp:
        // P(span <= 8) ≈ 0.43 and P(span >= 128) ≈ 0.06 at these
        // parameters.
        let short = spans.iter().filter(|&&s| s <= 8).count();
        let long = spans.iter().filter(|&&s| s >= 128).count();
        assert!(short > 120, "expected short-span bulk, got {short}");
        assert!(long > 10, "expected a heavy tail, got {long}");
    }

    #[test]
    fn power_law_generation_is_deterministic() {
        let mk = || {
            let mut cfg = GeneratorConfig::for_surface("plaw", 8, 256, 100, 99);
            cfg.span_model = SpanModel::PowerLaw { alpha: 2.0, min_span: 2 };
            CircuitGenerator::new(cfg).generate()
        };
        assert_eq!(mk().wires, mk().wires);
    }
}
