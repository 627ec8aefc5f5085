//! Error type for circuit construction and parsing.

use std::fmt;

use crate::circuit::MAX_CELLS;

/// Errors produced when building or parsing a [`crate::Circuit`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CircuitError {
    /// A pin references a channel outside `0..channels`.
    ChannelOutOfRange {
        /// Offending wire.
        wire: usize,
        /// Offending channel value.
        channel: u16,
        /// Number of channels in the circuit.
        channels: u16,
    },
    /// A pin references a grid column outside `0..grids`.
    GridOutOfRange {
        /// Offending wire.
        wire: usize,
        /// Offending column value.
        x: u16,
        /// Number of grid columns in the circuit.
        grids: u16,
    },
    /// A wire has fewer than two pins.
    TooFewPins {
        /// Offending wire.
        wire: usize,
    },
    /// Wire ids are not dense `0..n` in order.
    NonDenseWireIds {
        /// Position in the wire list.
        index: usize,
        /// Id found at that position.
        found: usize,
    },
    /// The circuit has zero channels or zero grid columns.
    EmptySurface,
    /// `channels × grids` exceeds the cell budget every engine can hold.
    SurfaceTooLarge {
        /// Number of channels in the circuit.
        channels: u16,
        /// Number of grid columns in the circuit.
        grids: u16,
    },
    /// The name is empty or contains whitespace or `#`: the text format
    /// writes it as one bare token and could not carry it.
    UnwritableName {
        /// Offending name.
        name: String,
    },
    /// Text-format parse error with line number and message.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        msg: String,
    },
}

impl fmt::Display for CircuitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CircuitError::ChannelOutOfRange { wire, channel, channels } => write!(
                f,
                "wire {wire}: pin channel {channel} out of range (circuit has {channels} channels)"
            ),
            CircuitError::GridOutOfRange { wire, x, grids } => write!(
                f,
                "wire {wire}: pin column {x} out of range (circuit has {grids} grid columns)"
            ),
            CircuitError::TooFewPins { wire } => {
                write!(f, "wire {wire}: fewer than two pins")
            }
            CircuitError::NonDenseWireIds { index, found } => write!(
                f,
                "wire list position {index} holds wire id {found}; ids must be dense 0..n"
            ),
            CircuitError::EmptySurface => write!(f, "circuit must have ≥1 channel and ≥1 grid"),
            CircuitError::SurfaceTooLarge { channels, grids } => write!(
                f,
                "surface of {channels} channels × {grids} grids is {} cells, more than the \
                 {MAX_CELLS} a circuit may have",
                u32::from(*channels) * u32::from(*grids)
            ),
            CircuitError::UnwritableName { name } => write!(
                f,
                "circuit name {name:?} must be one non-empty token without whitespace or '#'"
            ),
            CircuitError::Parse { line, msg } => write!(f, "parse error at line {line}: {msg}"),
        }
    }
}

impl std::error::Error for CircuitError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_mention_key_fields() {
        let e = CircuitError::ChannelOutOfRange { wire: 7, channel: 12, channels: 10 };
        let s = e.to_string();
        assert!(s.contains('7') && s.contains("12") && s.contains("10"));

        let e = CircuitError::Parse { line: 3, msg: "bad token".into() };
        assert!(e.to_string().contains("line 3"));
    }
}
