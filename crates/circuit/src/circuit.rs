//! The [`Circuit`] container: routing surface dimensions plus netlist.

use crate::error::CircuitError;
use crate::wire::{Wire, WireId};

/// A placed standard-cell circuit ready for global routing.
///
/// The routing surface is `channels × grids` cells (paper §2.3 quotes the
/// benchmarks this way: bnrE is "10 channels by 341 routing grids"). Wires
/// are stored with dense ids `0..wires.len()` so per-wire state in the
/// routers can be kept in flat vectors.
#[derive(Clone, Debug)]
pub struct Circuit {
    /// Human-readable name ("bnrE-synthetic", …).
    pub name: String,
    /// Number of routing channels (vertical dimension of the cost array).
    pub channels: u16,
    /// Number of routing grid columns (horizontal dimension).
    pub grids: u16,
    /// The netlist.
    pub wires: Vec<Wire>,
}

impl Circuit {
    /// Creates a circuit after validating all invariants.
    pub fn new(
        name: impl Into<String>,
        channels: u16,
        grids: u16,
        wires: Vec<Wire>,
    ) -> Result<Self, CircuitError> {
        let c = Circuit { name: name.into(), channels, grids, wires };
        c.validate()?;
        Ok(c)
    }

    /// Checks every structural invariant; returns the first violation.
    pub fn validate(&self) -> Result<(), CircuitError> {
        if self.channels == 0 || self.grids == 0 {
            return Err(CircuitError::EmptySurface);
        }
        if self.name.is_empty() || self.name.contains(|c: char| c.is_whitespace() || c == '#') {
            return Err(CircuitError::UnwritableName { name: self.name.clone() });
        }
        for (index, wire) in self.wires.iter().enumerate() {
            if wire.id != index {
                return Err(CircuitError::NonDenseWireIds { index, found: wire.id });
            }
            if wire.pins.len() < 2 {
                return Err(CircuitError::TooFewPins { wire: wire.id });
            }
            for pin in &wire.pins {
                if pin.channel >= self.channels {
                    return Err(CircuitError::ChannelOutOfRange {
                        wire: wire.id,
                        channel: pin.channel,
                        channels: self.channels,
                    });
                }
                if pin.x >= self.grids {
                    return Err(CircuitError::GridOutOfRange {
                        wire: wire.id,
                        x: pin.x,
                        grids: self.grids,
                    });
                }
            }
        }
        Ok(())
    }

    /// Number of wires in the netlist.
    #[inline]
    pub fn wire_count(&self) -> usize {
        self.wires.len()
    }

    /// Looks up a wire by id.
    ///
    /// # Panics
    /// Panics if `id` is out of range (ids are dense, so this indicates a
    /// logic error in the caller).
    #[inline]
    pub fn wire(&self, id: WireId) -> &Wire {
        &self.wires[id]
    }

    /// Total number of pins over all wires.
    pub(crate) fn pin_count(&self) -> usize {
        self.wires.iter().map(|w| w.pins.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::Pin;

    fn wire(id: WireId, pins: &[(u16, u16)]) -> Wire {
        Wire::new(id, pins.iter().map(|&(c, x)| Pin::new(c, x)).collect())
    }

    #[test]
    fn valid_circuit_constructs() {
        let c = Circuit::new("t", 4, 16, vec![wire(0, &[(0, 0), (3, 15)])]).unwrap();
        assert_eq!(c.wire_count(), 1);
        assert_eq!(c.pin_count(), 2);
    }

    #[test]
    fn rejects_out_of_range_channel() {
        let err = Circuit::new("t", 4, 16, vec![wire(0, &[(0, 0), (4, 5)])]).unwrap_err();
        assert_eq!(err, CircuitError::ChannelOutOfRange { wire: 0, channel: 4, channels: 4 });
    }

    #[test]
    fn rejects_out_of_range_grid() {
        let err = Circuit::new("t", 4, 16, vec![wire(0, &[(0, 0), (1, 16)])]).unwrap_err();
        assert_eq!(err, CircuitError::GridOutOfRange { wire: 0, x: 16, grids: 16 });
    }

    #[test]
    fn rejects_non_dense_ids() {
        let err = Circuit::new("t", 4, 16, vec![wire(3, &[(0, 0), (1, 1)])]).unwrap_err();
        assert_eq!(err, CircuitError::NonDenseWireIds { index: 0, found: 3 });
    }

    #[test]
    fn rejects_names_the_text_format_cannot_carry() {
        for name in ["", "my chip", "a#b", "tab\tbed", "line\nbreak", "nbsp\u{a0}"] {
            let err = Circuit::new(name, 4, 16, vec![]).unwrap_err();
            assert_eq!(err, CircuitError::UnwritableName { name: name.to_string() });
        }
        assert!(Circuit::new("bnrE-synthetic", 4, 16, vec![]).is_ok());
    }

    #[test]
    fn rejects_empty_surface() {
        let err = Circuit::new("t", 0, 16, vec![]).unwrap_err();
        assert_eq!(err, CircuitError::EmptySurface);
    }
}
